"""Reference implementations the tests check the library against.

None of these has a caller in the library: each is the plain form of
something the library computes another way (a march of many steps, the
numeric forcing, the march's window, the reports' quadratures, the ledger's
flux coefficients, the Picard stage forcing), kept here as its oracle.
"""

import numpy as np

from evolvesurf.errors import ParameterError
from evolvesurf.geometry import metric_fields
from evolvesurf.operator import _on_mesh, assemble_A, assemble_L
from evolvesurf.timestepper import _prepare_v0, _ThetaMarcher


def theta_step(v, t, dt, theta, frames, F_provider=None):
    """One theta-scheme step of dv/dt + L(t) v = F from time t to t + dt.

    Solves (I + theta dt L(t+dt)) v' = (I - (1-theta) dt L(t)) v
           + dt (theta F(t+dt) + (1-theta) F(t))
    and returns v' as a flat array.  ``frames`` is
    ``StepFrames(chart, kappa, grid)``; ``F_provider`` is as in ``solve_direct``.
    """
    marcher = _ThetaMarcher(dt, theta, frames, t0=t)
    return marcher.march(_prepare_v0(v, frames.grid), 1,
                         marcher.frame_forcing(F_provider)).fields[1]


def symbolic_operator_apply(chart, kappa, builder):
    """Numeric evaluator of L(t) applied to a symbolic field.

    Requires the chart and diffusivity to carry symbolic forms (all presets
    do).  The consistency oracle for the discrete assembly and for the
    numeric ``manufactured_forcing``; imports sympy.
    """
    import sympy as sp

    if chart.sym_builder is None or kappa.sym_builder is None:
        raise ParameterError("chart or diffusivity has no symbolic form")
    X1, X2, t = sp.symbols("X1 X2 t", real=True)
    u = builder(X1, X2, t)
    x = chart.sym_builder(X1, X2, t)
    g1 = [sp.diff(c, X1) for c in x]
    g2 = [sp.diff(c, X2) for c in x]
    g11 = sum(a * b for a, b in zip(g1, g1))
    g12 = sum(a * b for a, b in zip(g1, g2))
    g22 = sum(a * b for a, b in zip(g2, g2))
    G = g11 * g22 - g12 * g12
    R = sp.sqrt(G)
    kap = kappa.sym_builder(X1, X2, t)
    ginv = ((g22 / G, -g12 / G), (-g12 / G, g11 / G))
    grads = (sp.diff(u, X1), sp.diff(u, X2))
    flux1 = kap * R * (ginv[0][0] * grads[0] + ginv[0][1] * grads[1])
    flux2 = kap * R * (ginv[1][0] * grads[0] + ginv[1][1] * grads[1])
    Lu = -(sp.diff(flux1, X1) + sp.diff(flux2, X2)) / R + sp.diff(G, t) / (2 * G) * u
    fn = sp.lambdify((X1, X2, t), Lu, "numpy", cse=True)

    def apply(x1, x2, tt):
        return np.broadcast_to(
            np.asarray(fn(np.asarray(x1, dtype=float), np.asarray(x2, dtype=float), tt),
                       dtype=float),
            np.broadcast(np.asarray(x1), np.asarray(x2)).shape)

    return apply


def material_derivative(traj, index):
    """Centered time difference of the pulled-back field at one snapshot.

    Under the pull-back the material derivative following the surface motion
    is the plain time derivative on the parameter rectangle.  ``traj`` keeps
    every step.
    """
    if traj.stride != 1:
        raise ParameterError(f"a finished trajectory is read at every step; "
                             f"this one keeps one row per {traj.stride} steps")
    if index <= 0 or index >= len(traj.times) - 1:
        raise ParameterError(f"index {index} is not an interior snapshot")
    return (traj.fields[index + 1] - traj.fields[index - 1]) / (2.0 * traj.dt)


def cell_center_mesh(grid, sparse=False):
    """Centers of the (n1+1) x (n2+1) grid cells, including the boundary strips."""
    x1 = grid.x1_full()
    x2 = grid.x2_full()
    return np.meshgrid(0.5 * (x1[1:] + x1[:-1]), 0.5 * (x2[1:] + x2[:-1]), indexing="ij",
                       sparse=sparse)


def cell_center_gradients(values, grid):
    """Bilinear-consistent difference quotients at cell centers.

    Returns (d1, d2) of shape (n1+1, n2+1); the zero Dirichlet ring enters
    through the padded field, so boundary strips carry their full gradient.
    """
    p = grid.pad_dirichlet(values)
    d1 = (p[1:, 1:] + p[1:, :-1] - p[:-1, 1:] - p[:-1, :-1]) / (2.0 * grid.h1)
    d2 = (p[1:, 1:] - p[1:, :-1] + p[:-1, 1:] - p[:-1, :-1]) / (2.0 * grid.h2)
    return d1, d2


def plain_flux_sq(values, grid, fluxes):
    """Midpoint quadrature of C^ab d_a u d_b u over the cells, term by term.

    ``fluxes`` are (C11, C12, C22) at the cell centres.  The oracle of
    ``diagnostics._flux_sq``, which sums the same quadratic form in three
    reductions of unscaled half-sums.
    """
    d1, d2 = cell_center_gradients(values, grid)
    c11, c12, c22 = fluxes
    return float(grid.h1 * grid.h2 * np.sum(c11 * d1 * d1 + 2.0 * c12 * d1 * d2
                                            + c22 * d2 * d2))


def plain_mass(values, grid, sqrtG):
    """h1 h2 sum v^2 sqrt(G) on the interior grid; the oracle of ``diagnostics._mass``."""
    v2 = grid.to_grid(np.asarray(values) ** 2)
    return float(grid.h1 * grid.h2 * np.sum(v2 * sqrtG))


def surface_mass(values, chart, grid, t):
    """L2(Gamma(t)) norm squared of a Dirichlet grid function, the metric evaluated afresh."""
    X1, X2 = grid.interior_mesh(sparse=True)
    return plain_mass(values, grid,
                      metric_fields(chart, X1, X2, t, h_fd=grid.h_fd, want_dGdt=False).sqrtG)


def surface_grad_sq(values, chart, grid, t, kappa=None):
    """Squared L2 norm of the tangential gradient of a grid function.

    Midpoint quadrature of g^ab d_a u d_b u sqrt(G) over the cells of the
    grid, with the metric evaluated at the cell centres; with ``kappa`` the
    integrand is weighted by the diffusivity, giving the dissipation
    functional of the energy balance.  The oracle of the ledger, which reads
    the same quadrature off its step frame's corner means instead.
    """
    C1, C2 = cell_center_mesh(grid, sparse=True)
    mf = metric_fields(chart, C1, C2, t, h_fd=grid.h_fd, want_dGdt=False)
    weight = mf.sqrtG if kappa is None else _on_mesh(kappa, C1, C2, t) * mf.sqrtG
    return plain_flux_sq(values, grid, (weight * mf.ginv11, weight * mf.ginv12,
                                        weight * mf.ginv22))


def surface_gradient_components(values, chart, grid, t):
    """Ambient components of the tangential gradient at cell centers.

    Uses the pull-back representation g^ab (d x_j / d X_a) d_b u, one array
    per ambient direction j; contracting the squares reproduces the integrand
    of ``surface_grad_sq`` pointwise.
    """
    d1, d2 = cell_center_gradients(values, grid)
    C1, C2 = cell_center_mesh(grid, sparse=True)
    mf = metric_fields(chart, C1, C2, t, h_fd=grid.h_fd, want_dGdt=False)
    du1 = mf.ginv11 * d1 + mf.ginv12 * d2   # contravariant components
    du2 = mf.ginv12 * d1 + mf.ginv22 * d2
    comps = np.stack([a * du1 + b * du2 for a, b in zip(mf.g1, mf.g2)])
    return comps, mf


def assemble_B(chart, kappa, grid, lambda1, lambda2, t):
    """Full perturbation B(t) = L(t) - A as one DIA matrix."""
    return assemble_L(chart, kappa, grid, t) - assemble_A(grid, lambda1, lambda2)
