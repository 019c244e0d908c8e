"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Quantitative targets and runtime budgets are pinned here; every criterion
runs at its stated tolerance.
"""

import math
import time

import numpy as np

from evolvesurf import (
    assemble_A,
    horizon_thm25,
    lambda_select,
    make_chart,
    make_diffusion,
    make_grid,
    manufactured_solution,
    mms_convergence,
    smallness_report,
    solve_direct,
    solve_picard,
    solve_reported,
)
from evolvesurf.checks import (
    bound_violations,
    decomposition_defect,
    halving_factors,
    inverse_metric_defect,
    reduction_defects,
)
from evolvesurf.geometry import PRESET_NAMES
from evolvesurf.operator import field_l2, gradient_norm

from oracles import assemble_B


def _report(num, ok, detail):
    print(f"ACCEPTANCE {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _eigenmode(grid):
    X1, X2 = grid.interior_mesh()
    return (np.sin(np.pi * X1) * np.sin(np.pi * X2)).ravel()


KAPPA = make_diffusion("constant", value=1.0)


def test_criterion_01_metric_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    g_min = math.inf
    for name in PRESET_NAMES:
        chart = make_chart(name, horizon=2.0)
        x1 = rng.uniform(0.0, 1.0, 10_000)
        x2 = rng.uniform(0.0, 1.0, 10_000)
        defect, g = inverse_metric_defect(chart, x1, x2, [rng.uniform(0.0, 2.0)])
        worst = max(worst, defect)
        g_min = min(g_min, g)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and g_min > 0.0 and elapsed < 1.0
    _report(1, ok, f"inverse-metric defect {worst:.2e} (tol 1e-12), "
                   f"min G {g_min:.3f} > 0, runtime {elapsed:.2f}s < 1s")


def test_criterion_02_operator_reduction():
    t0 = time.perf_counter()
    d_flat, d_iso = reduction_defects(make_grid((0, 1, 0, 1), 32, 32))
    elapsed = time.perf_counter() - t0
    ok = d_flat <= 1e-12 and d_iso <= 1e-10 and elapsed < 1.0
    _report(2, ok, f"flat defect {d_flat:.2e} (tol 1e-12), isotropic defect "
                   f"{d_iso:.2e} (tol 1e-10), runtime {elapsed:.2f}s < 1s")


def test_criterion_03_decomposition_sum():
    grid = make_grid((0, 1, 0, 1), 32, 32)
    chart = make_chart("graph_oscillation", horizon=2.0, epsilon=0.05, omega=1.0)
    times = np.linspace(0.0, 2.0, 5)
    lam1, lam2 = lambda_select(chart, KAPPA, grid, times)
    worst, _ = decomposition_defect(chart, KAPPA, grid, lam1, lam2, times)
    ok = worst <= 1e-10
    _report(3, ok, f"five-part sum defect {worst:.2e} over 5 times (tol 1e-10)")


def test_criterion_04_relative_bound():
    grid = make_grid((0, 1, 0, 1), 32, 32)
    chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.05, omega=1.0)
    rep = smallness_report(chart, KAPPA, grid, np.linspace(0, 1, 5), probes=8, seed=42)
    bound = 2.0 * rep.C_sharp_est * rep.M.sum() * 1.1
    A = assemble_A(grid, rep.lambda1, rep.lambda2)
    B = assemble_B(chart, KAPPA, grid, rep.lambda1, rep.lambda2, 0.9)
    fields = np.random.default_rng(42).standard_normal((100, grid.ndof))
    violations, min_slack = bound_violations(B, A, bound, grid, fields)
    ok = violations == 0
    _report(4, ok, f"{violations} violations over 100 seeded fields "
                   f"(min slack {min_slack:.3e})")


def test_criterion_05_heat_oracle_and_mms():
    t0 = time.perf_counter()
    flat = make_chart("flat_static", horizon=1.0)
    grid = make_grid((0, 1, 0, 1), 63, 63)
    phi = _eigenmode(grid)
    traj = solve_direct(flat, KAPPA, grid, phi, 0.05, 1e-3, theta=0.5)
    exact = math.exp(-2.0 * math.pi ** 2 * 0.05) * phi
    rel = float(np.max(np.abs(traj.fields[-1] - exact)) / np.max(np.abs(exact)))

    def smooth(X1, X2, t):
        import sympy as sp
        return sp.exp(-t) * sp.sin(sp.pi * X1) * sp.sin(sp.pi * X2)

    def bubble(X1, X2, t):
        import sympy as sp
        return (sp.exp(-t) * (1 + sp.Rational(1, 2) * sp.sin(8 * t))
                * X1 * (1 - X1) * X2 * (1 - X2))

    space = mms_convergence(flat, KAPPA, manufactured_solution(smooth),
                            [(15, 2.5e-4), (31, 2.5e-4), (63, 2.5e-4)], T=0.05)
    timet = mms_convergence(flat, KAPPA, manufactured_solution(bubble),
                            [(31, 0.02), (31, 0.01), (31, 0.005)], T=0.2)
    elapsed = time.perf_counter() - t0
    ok = (rel <= 1e-3 and 1.8 <= space.order_space <= 2.2
          and 1.8 <= timet.order_time <= 2.2 and elapsed < 30.0)
    _report(5, ok, f"eigenmode rel err {rel:.2e} (tol 1e-3), orders "
                   f"space {space.order_space:.2f} / time {timet.order_time:.2f} "
                   f"(range [1.8, 2.2]), runtime {elapsed:.1f}s < 30s")


def test_criterion_06_energy_equality():
    flat = make_chart("flat_static", horizon=1.0)
    grid = make_grid((0, 1, 0, 1), 63, 63)
    r_flat = solve_reported(flat, KAPPA, grid, _eigenmode(grid), 0.05, 1e-3)[1].max_rel_residual()

    chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.05, omega=1.0)
    r_graph = solve_reported(chart, KAPPA, grid, _eigenmode(grid), 0.05,
                             1e-3)[1].max_rel_residual()

    refined = []
    for n, dt in ((15, 4e-3), (31, 2e-3)):
        g = make_grid((0, 1, 0, 1), n, n)
        refined.append(solve_reported(chart, KAPPA, g, _eigenmode(g), 0.05,
                                      dt)[1].max_rel_residual())
    order = math.log(refined[0] / refined[1]) / math.log(2.0)

    ok = r_flat <= 1e-3 and r_graph <= 5e-3 and order >= 1.0
    _report(6, ok, f"residuals flat {r_flat:.2e} (tol 1e-3), graph {r_graph:.2e} "
                   f"(tol 5e-3), joint-refinement order {order:.2f} >= 1")


def test_criterion_07_decay_bound():
    flat = make_chart("flat_static", horizon=1.0)
    grid = make_grid((0, 1, 0, 1), 31, 31)
    u0 = _eigenmode(grid)
    _, ledger, _, _ = solve_reported(flat, KAPPA, grid, u0, 1.0, 2e-3)
    # sqrt(t) ||u(t)|| / ||u0||_{W^{1,2}} over t in (0.1, 1], with ||u||^2 = 2 mass
    window = ledger.times > 0.1
    w_norm = math.hypot(field_l2(u0, grid), gradient_norm(u0, grid))
    sup = float(np.max(np.sqrt(ledger.times[window]) * np.sqrt(2.0 * ledger.mass[window]))
                / w_norm)
    ok = math.isfinite(sup) and sup <= 1.0
    _report(7, ok, f"decay quotient sup over [0.1, 1] = {sup:.3e} <= 1")


def test_criterion_08_picard_contraction():
    t0 = time.perf_counter()
    grid = make_grid((0, 1, 0, 1), 32, 32)
    chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.005, omega=1.0)
    rep = smallness_report(chart, KAPPA, grid, np.linspace(0, 1, 6),
                           margin=0.005, probes=8, seed=42)
    assert rep.condition_thm26, "chosen preset must satisfy the global smallness condition"

    tol = 1e-8
    phi = _eigenmode(grid)
    traj, hist = solve_picard(chart, KAPPA, grid, rep.lambda1, rep.lambda2,
                              phi, 0.05, 1e-3, tol=tol)
    ratios = hist.ratios
    direct = solve_direct(chart, KAPPA, grid, phi, 0.05, 1e-3)
    agreement = float(np.max(np.abs(traj.fields - direct.fields))
                      / np.max(np.abs(direct.fields)))
    elapsed = time.perf_counter() - t0
    ok = (hist.converged and all(r <= 0.55 for r in ratios)
          and agreement <= 1e-6 and elapsed < 60.0)
    _report(8, ok, f"ratios max {max(ratios):.3f} <= 0.55, agreement "
                   f"{agreement:.2e} <= 1e-6, runtime {elapsed:.1f}s < 60s")


def test_criterion_09_condition_arithmetic():
    value = horizon_thm25(1.0, 2.0, 1.0, T=10.0)
    target = 0.5 * math.log(257.0 / 256.0)
    err = abs(value - target)
    ok = err <= 1e-12
    _report(9, ok, f"T_* = {value!r} vs log(257/256)/2, error {err:.2e} (tol 1e-12)")


def test_criterion_10_anisotropic_oracles():
    factors = halving_factors()
    f_fund = factors["fundsol_residual"]
    f_heat = factors["scaled_heat_residual"]
    ok = 3.5 <= f_fund <= 4.5 and 3.5 <= f_heat <= 4.5
    _report(10, ok, f"halving factors: fundamental solution {f_fund:.2f}, "
                    f"rescaled heat {f_heat:.2f} (range [3.5, 4.5])")
