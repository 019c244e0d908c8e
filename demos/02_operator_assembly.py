"""Assembling the evolving operator and splitting off the perturbation.

The pulled-back diffusion operator L(t) is a variable-coefficient flux-form
stencil plus a zeroth-order dilation term.  Subtracting the constant
anisotropic comparison operator A leaves the perturbation B(t), which splits
into five parts mirroring its continuous decomposition; the split is exact at
the discrete level, so the parts sum back to L - A at roundoff.
"""

import numpy as np

from evolvesurf import (
    assemble_A,
    assemble_B_parts,
    assemble_L,
    lambda_select,
    make_chart,
    make_diffusion,
    make_grid,
)
from evolvesurf.checks import reduction_defects
from evolvesurf.operator import max_abs_entry, operator_norm_est


def part_norms(parts):
    """L2 -> L2 norms of B1..B5: Lanczos lower bounds for B1..B4, max |d0| for the diagonal B5."""
    return ([operator_norm_est(parts[f"B{i}"]) for i in range(1, 5)]
            + [np.abs(parts["B5"].diagonal()).max()])


grid = make_grid((0.0, 1.0, 0.0, 1.0), 32, 32)
kappa = make_diffusion("constant", value=1.0)

print("=== reduction sanity checks ===")
d_flat, d_iso = reduction_defects(grid)
print(f"flat chart:      max |L - A| = {d_flat:.2e}")
print(f"scaling chart:   max over t in {{0, 0.5, 1}} of |L(t) - (e^(-2t) A + 2 I)| = {d_iso:.2e}")

print("\n=== five-part perturbation split on the oscillating graph ===")
chart = make_chart("graph_oscillation", horizon=2.0, epsilon=0.1, omega=1.0)
times = np.linspace(0.0, 2.0, 5)
lam1, lam2 = lambda_select(chart, kappa, grid, times)
print(f"selected weights: lambda1 = {lam1:.4f}, lambda2 = {lam2:.4f}")
A = assemble_A(grid, lam1, lam2)

print(f"{'t':>5} {'|B1|':>10} {'|B2|':>10} {'|B3|':>10} {'|B4|':>10} {'|B5|':>10} {'sum defect':>12}")
for t in times:
    parts = assemble_B_parts(chart, kappa, grid, lam1, lam2, float(t))
    total = sum(parts[f"B{i}"] for i in range(1, 6))
    L = assemble_L(chart, kappa, grid, float(t))
    defect = max_abs_entry(total - (L - A))
    n = part_norms(parts)
    print(f"{t:5.2f} {n[0]:10.4f} {n[1]:10.4f} {n[2]:10.4f} {n[3]:10.4f} {n[4]:10.4f} {defect:12.2e}")

print("\nB1 carries the second-order remainder (largest), B2-B4 the first-order")
print("coefficient-gradient terms, B5 the zeroth-order dilation rate.")
print("With a spatially varying diffusivity the B4 column becomes active:")
kappa_var = make_diffusion("sinusoidal", base=1.0, amp=0.3)
lam1v, lam2v = lambda_select(chart, kappa_var, grid, times)
parts = assemble_B_parts(chart, kappa_var, grid, lam1v, lam2v, 1.0)
print(f"sinusoidal diffusivity at t = 1: |B4| = {operator_norm_est(parts['B4']):.4f}")
