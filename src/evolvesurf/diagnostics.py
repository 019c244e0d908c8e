"""Surface-geometric diagnostics of trajectories and convergence studies.

Integrals over the evolving surface reduce to weighted integrals over the
parameter rectangle: areas through the factor sqrt(G), tangential-gradient
energies through the inverse metric.  On top of those reductions this module
checks the structural claims the solver is supposed to reproduce: the energy
balance, the t^{-1/2} decay of the surface mass, the regularity quotient, and
manufactured-solution convergence orders.

The three reports read each step time from its StepFrame (``operator``):
the interior-node metric is a slice of the frame's full-mesh metric, the
regularity report takes L(t_k) and the dilation rate from it, and the energy
ledger adds the frame's cell-centre metric and diffusivity.  Each report is
an accumulator fed one frame per step time.  ``solve_reported`` feeds them
the frames the march itself evaluates, so a solve with its reports evaluates
each step time once, plus the cell-centre metric; the standalone
``energy_report``, ``decay_report`` and ``regularity_report`` build the
frames of a finished trajectory one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError
from .geometry import metric_fields
from .operator import (
    StepFrame,
    StepFrames,
    _on_mesh,
    field_l2,
    half_power_norm,
    sobolev_h1_norm,
)
from .timestepper import solve_direct


# ---------------------------------------------------------------------------
# quadrature on the parameter rectangle


def _trapezoid_weights(n1p2, n2p2):
    w1 = np.ones(n1p2)
    w1[0] = w1[-1] = 0.5
    w2 = np.ones(n2p2)
    w2[0] = w2[-1] = 0.5
    return np.outer(w1, w2)


def surface_integral(psi, chart, grid, t):
    """Integral of a scalar over the surface patch at time t.

    ``psi`` is an evaluator (x1, x2, t) -> array on the parameter rectangle,
    called with the open full mesh; the surface integral is the trapezoid
    quadrature of psi * sqrt(G).
    """
    X1, X2 = grid.full_mesh(sparse=True)
    shape = (grid.n1 + 2, grid.n2 + 2)
    mf = metric_fields(chart, X1, X2, t, h_fd=grid.h_fd, want_dGdt=False)
    vals = np.broadcast_to(np.asarray(psi(X1, X2, t), dtype=float), shape)
    w = _trapezoid_weights(*shape)
    return float(grid.h1 * grid.h2 * np.sum(w * vals * mf.sqrtG))


def _cell_center_gradients(values, grid):
    """Bilinear-consistent difference quotients at cell centers.

    Returns (d1, d2) of shape (n1+1, n2+1); the zero Dirichlet ring enters
    through the padded field, so boundary strips carry their full gradient.
    """
    p = grid.pad_dirichlet(values)
    d1 = (p[1:, 1:] + p[1:, :-1] - p[:-1, 1:] - p[:-1, :-1]) / (2.0 * grid.h1)
    d2 = (p[1:, 1:] - p[1:, :-1] + p[:-1, 1:] - p[:-1, :-1]) / (2.0 * grid.h2)
    return d1, d2


def _grad_sq(values, grid, mf, kap):
    """``surface_grad_sq`` with the cell-centre metric (and kappa) supplied."""
    d1, d2 = _cell_center_gradients(values, grid)
    integrand = (mf.ginv11 * d1 * d1 + 2.0 * mf.ginv12 * d1 * d2
                 + mf.ginv22 * d2 * d2) * mf.sqrtG
    if kap is not None:
        integrand = integrand * kap
    return float(grid.h1 * grid.h2 * np.sum(integrand))


def surface_grad_sq(values, chart, grid, t, kappa=None):
    """Squared L2 norm of the tangential gradient of a grid function.

    Midpoint quadrature of g^ab d_a u d_b u sqrt(G) over the cells of the
    grid; with ``kappa`` the integrand is weighted by the diffusivity, giving
    the dissipation functional of the energy balance.
    """
    return _grad_sq(values, grid, *StepFrame(chart, kappa, grid, t).centre)


def surface_gradient_components(values, chart, grid, t):
    """Ambient components of the tangential gradient at cell centers.

    Uses the pull-back representation g^ab (d x_j / d X_a) d_b u, one array
    per ambient direction j; contracting the squares reproduces the integrand
    of ``surface_grad_sq`` pointwise.
    """
    d1, d2 = _cell_center_gradients(values, grid)
    mf, _ = StepFrame(chart, None, grid, t).centre
    du1 = mf.ginv11 * d1 + mf.ginv12 * d2   # contravariant components
    du2 = mf.ginv12 * d1 + mf.ginv22 * d2
    comps = mf.g1 * du1[None, ...] + mf.g2 * du2[None, ...]
    return comps, mf


def _mass(values, grid, sqrtG):
    """``surface_mass`` with the interior-node sqrt(G) supplied."""
    v2 = grid.to_grid(np.asarray(values) ** 2)
    return float(grid.h1 * grid.h2 * np.sum(v2 * sqrtG))


def surface_mass(values, chart, grid, t):
    """L2(Gamma(t)) norm squared of a Dirichlet grid function."""
    return _mass(values, grid, StepFrame(chart, None, grid, t).interior_sqrtG)


# ---------------------------------------------------------------------------
# energy / decay / regularity reports


@dataclass
class EnergyLedger:
    """Both sides of the energy balance along a trajectory."""

    times: np.ndarray
    mass: np.ndarray          # 0.5 ||u(t)||^2 on the surface
    dissipation: np.ndarray   # cumulative integral of ||sqrt(kappa) grad u||^2
    residual_abs: np.ndarray
    residual_rel: np.ndarray

    def max_rel_residual(self):
        return float(np.max(self.residual_rel))


class _EnergyBalance:
    """``energy_report``, fed one StepFrame per step time."""

    def __init__(self, grid):
        self.grid = grid
        self.mass = []
        self.diss_rate = []

    def observe(self, k, frame, traj):
        u = traj.fields[k]
        self.mass.append(0.5 * _mass(u, self.grid, frame.interior_sqrtG))
        self.diss_rate.append(_grad_sq(u, self.grid, *frame.centre))

    def result(self, traj):
        mass = np.array(self.mass)
        diss_rate = np.array(self.diss_rate)
        diss = np.concatenate([[0.0], np.cumsum(
            0.5 * traj.dt * (diss_rate[1:] + diss_rate[:-1]))])
        resid = np.abs(mass + diss - mass[0])
        scale = mass[0] if mass[0] > 0 else 1.0
        return EnergyLedger(traj.times.copy(), mass, diss, resid, resid / scale)


class _Decay:
    """``decay_report``, fed one StepFrame per step time."""

    def __init__(self, grid, lambda1=1.0, lambda2=1.0, t_min=None):
        self.grid = grid
        self.weights = (lambda1, lambda2)
        self.t_min = t_min
        self.norms = []

    def observe(self, k, frame, traj):
        self.norms.append(math.sqrt(_mass(traj.fields[k], self.grid, frame.interior_sqrtG)))

    def result(self, traj):
        u0 = traj.fields[0]
        w_norm = math.hypot(field_l2(u0, self.grid),
                            half_power_norm(u0, self.grid, *self.weights))
        if w_norm == 0.0:
            raise ParameterError("zero initial datum: decay quotient undefined")
        lo = 0.0 if self.t_min is None else float(self.t_min)
        norms = np.array(self.norms)
        mask = traj.times > max(lo, 0.0)
        if not np.any(mask):
            raise ParameterError("no snapshots above t_min")
        sup_bound = float(np.max(np.sqrt(traj.times[mask]) * norms[mask]) / w_norm)
        monotone = bool(np.all(np.diff(norms) <= 1e-12 * max(norms[0], 1.0)))
        return {"sup_bound": sup_bound, "monotone": monotone}


class _Regularity:
    """``regularity_report``, fed the StepFrames of the interior step times."""

    def __init__(self, grid):
        self.grid = grid
        self.dt_sq = []
        self.div_sq = []

    def observe(self, k, frame, traj):
        if not 0 < k < traj.nsteps:
            return
        u = traj.fields[k]
        sqrtG = frame.interior_sqrtG
        self.dt_sq.append(_mass(material_derivative(traj, k), self.grid, sqrtG))
        # diffusion part of the operator: div_Gamma(kappa grad_Gamma u) = -(L - D0) u
        div_vals = -(frame.L @ u - frame.coefficients["d0"].ravel() * u)
        self.div_sq.append(_mass(div_vals, self.grid, sqrtG))

    def result(self, traj):
        if len(traj.times) < 3:
            raise ParameterError("need at least three snapshots")
        w_norm = sobolev_h1_norm(traj.fields[0], self.grid)
        if w_norm == 0.0:
            raise ParameterError("zero initial datum")
        dt_norm = math.sqrt(np.sum(traj.dt * np.array(self.dt_sq)))
        div_norm = math.sqrt(np.sum(traj.dt * np.array(self.div_sq)))
        return {"quotient": (dt_norm + div_norm) / w_norm,
                "material_norm": dt_norm, "diffusion_norm": div_norm}


def _replay(report, traj, chart, kappa, steps):
    """Feed ``report`` the StepFrames of ``steps`` of a finished trajectory."""
    frames = StepFrames(chart, kappa, report.grid)
    for k in steps:
        report.observe(k, frames.frame(float(traj.times[k])), traj)
    return report.result(traj)


def energy_report(traj, chart, kappa, grid):
    """Evaluate mass(t) + cumulative dissipation - mass(0) per snapshot.

    The balance holds exactly for the continuous homogeneous system; the
    discrete residual combines the quadrature and time-stepping errors.
    """
    return _replay(_EnergyBalance(grid), traj, chart, kappa, range(len(traj.times)))


def decay_report(traj, chart, grid, lambda1=1.0, lambda2=1.0, t_min=None):
    """Decay quotient sup_t sqrt(t) ||u(t)|| / ||u0||_{W^{1,2}(U)}.

    The gradient part of the initial-datum norm is weighted by the anisotropy
    pair (the defaults give the plain Sobolev norm).  Snapshots at t = 0 (or
    below ``t_min``) are excluded from the sup; the flag ``monotone`` records
    whether the surface mass never increases.
    """
    return _replay(_Decay(grid, lambda1, lambda2, t_min), traj, chart, None,
                   range(len(traj.times)))


def material_derivative(traj, index):
    """Centered time difference of the pulled-back field at one snapshot.

    Under the pull-back the material derivative following the surface motion
    is the plain time derivative on the parameter rectangle.
    """
    if index <= 0 or index >= len(traj.times) - 1:
        raise ParameterError(f"index {index} is not an interior snapshot")
    return (traj.fields[index + 1] - traj.fields[index - 1]) / (2.0 * traj.dt)


def regularity_report(traj, chart, kappa, grid):
    """Boundedness quotient of the regularity estimate.

    (||material derivative|| + ||surface diffusion term||) in L2-in-time of
    L2(Gamma), divided by the W^{1,2} norm of the initial datum.  The bound
    constant of the estimate is abstract, so only finiteness/boundedness of
    the quotient is meaningful.
    """
    return _replay(_Regularity(grid), traj, chart, kappa, range(1, len(traj.times) - 1))


def solve_reported(chart, kappa, grid, v0, T, dt, theta=0.5):
    """``solve_direct`` together with its energy, decay and regularity reports.

    The reports read the StepFrames of the march itself while it holds them,
    so each step time is evaluated once for the march and the reports, plus
    the cell-centre metric of the energy ledger.  Returns (trajectory,
    EnergyLedger, decay dict, regularity dict); the regularity report is None
    below two steps.  The reports equal energy_report, decay_report and
    regularity_report of the trajectory.
    """
    ledger, decay, regularity = _EnergyBalance(grid), _Decay(grid), _Regularity(grid)
    traj = solve_direct(chart, kappa, grid, v0, T, dt, theta=theta,
                        observers=(ledger.observe, decay.observe, regularity.observe))
    return (traj, ledger.result(traj), decay.result(traj),
            regularity.result(traj) if traj.nsteps >= 2 else None)


def transport_identity_residual(chart, grid, t, dt_fd=1e-4):
    """Residual of the integrated dilation identity at time t.

    The surface integral of the velocity divergence, computed through the
    pulled-back dilation rate (dG/dt)/(2G), must equal the time derivative of
    the surface area; the latter is approximated by a centered difference.
    """
    def dil(x1, x2, tt):
        mf = metric_fields(chart, x1, x2, tt, h_fd=grid.h_fd)
        return 0.5 * mf.dGdt / mf.G

    lhs = surface_integral(dil, chart, grid, t)
    area = lambda tt: surface_integral(lambda a, b, c: 1.0, chart, grid, tt)
    t0 = max(0.0, t - dt_fd)
    t1 = min(chart.horizon, t + dt_fd)
    rhs = (area(t1) - area(t0)) / (t1 - t0)
    return abs(lhs - rhs)


# ---------------------------------------------------------------------------
# manufactured solutions


# the seven partials a manufactured solution carries: u, du/dt, d_1 u, d_2 u,
# d_11 u, d_12 u, d_22 u (d_a = d/dX_a)
SOLUTION_PARTIALS = ("u", "u_t", "u_1", "u_2", "u_11", "u_12", "u_22")


@dataclass(frozen=True, eq=False)
class ManufacturedSolution:
    """Exact solution prescribed for convergence studies.

    Seven numeric evaluators (x1, x2, t) -> array, named as in
    ``SOLUTION_PARTIALS``: the solution, its time derivative and its first and
    second partials in X1, X2.  The induced forcing F = du/dt + L u is
    evaluated from them numerically (``manufactured_forcing``), so no sympy
    is needed unless the partials come from a symbolic builder through
    ``manufactured_solution``.
    """

    u: Callable
    u_t: Callable
    u_1: Callable
    u_2: Callable
    u_11: Callable
    u_12: Callable
    u_22: Callable

    def partial(self, name, x1, x2, t):
        """One of ``SOLUTION_PARTIALS`` on the broadcast shape of x1, x2."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        return np.broadcast_to(np.asarray(getattr(self, name)(x1, x2, t), dtype=float),
                               np.broadcast(x1, x2).shape)

    def value(self, x1, x2, t):
        return self.partial("u", x1, x2, t)


def manufactured_solution(builder):
    """ManufacturedSolution from a symbolic builder (needs sympy).

    ``builder`` maps sympy symbols (X1, X2, t) to the solution expression;
    its seven partials are differentiated and lambdified here.
    """
    import sympy as sp

    X1, X2, t = sp.symbols("X1 X2 t", real=True)
    u = builder(X1, X2, t)
    exprs = (u, sp.diff(u, t), sp.diff(u, X1), sp.diff(u, X2),
             sp.diff(u, X1, 2), sp.diff(u, X1, X2), sp.diff(u, X2, 2))
    return ManufacturedSolution(*(sp.lambdify((X1, X2, t), e, "numpy") for e in exprs))


def symbolic_operator_apply(chart, kappa, builder):
    """Numeric evaluator of L(t) applied to a symbolic field.

    Requires the chart and diffusivity to carry symbolic forms (all presets
    do).  The consistency oracle of the tests for the discrete assembly and
    for the numeric ``manufactured_forcing``; imports sympy.
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


def _dinverse_metric(mf, c):
    """(d_c g^11, d_c g^12, d_c g^22) = -g^ae d_c g_ef g^fb, c = 1 or 2."""
    i11, i12, i22 = mf.ginv11, mf.ginv12, mf.ginv22
    m11, m12, m22 = ((mf.dg11_d1, mf.dg12_d1, mf.dg22_d1) if c == 1
                     else (mf.dg11_d2, mf.dg12_d2, mf.dg22_d2))
    r11, r12 = m11 * i11 + m12 * i12, m11 * i12 + m12 * i22   # rows of (d_c g) g^-1
    r21, r22 = m12 * i11 + m22 * i12, m12 * i12 + m22 * i22
    return (-(i11 * r11 + i12 * r21), -(i11 * r12 + i12 * r22),
            -(i12 * r12 + i22 * r22))


def manufactured_forcing(chart, kappa, exact):
    """Forcing F = du/dt + L u induced by a manufactured solution, numerically.

    With R = sqrt(G) and K the diffusivity, L u expands to
    -(1/R)[d_a(K R g^ab) d_b u + K R g^ab d_ab u] + (dG/dt)/(2G) u, where
    d_a R / R = d_a G/(2G) and d_c g^ab = -g^ae d_c g_ef g^fb.  The metric
    partials are the chart's (analytic for presets, finite differences for a
    user chart without them), d_a K is ``kappa.partial`` and the partials of
    u are those ``exact`` carries.
    """
    h_fd = 1e-5 * max(chart.extent(), 1.0)
    k1 = kappa.partial("d1", chart.domain, h_fd)
    k2 = kappa.partial("d2", chart.domain, h_fd)

    def F(x1, x2, tt):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        mf = metric_fields(chart, x1, x2, tt, h_fd=h_fd, want_derivs=True)
        u = {name: exact.partial(name, x1, x2, tt) for name in SOLUTION_PARTIALS}
        K = _on_mesh(kappa, x1, x2, tt)
        # (1/R) d_a(K R) = d_a K + K d_a G/(2G)
        e1 = np.asarray(k1(x1, x2, tt), dtype=float) + K * mf.dG_d1 / (2.0 * mf.G)
        e2 = np.asarray(k2(x1, x2, tt), dtype=float) + K * mf.dG_d2 / (2.0 * mf.G)
        d1_11, d1_12, _ = _dinverse_metric(mf, 1)
        _, d2_12, d2_22 = _dinverse_metric(mf, 2)
        # first-order coefficients (1/R) d_a(K R g^ab), b = 1, 2
        c1 = e1 * mf.ginv11 + e2 * mf.ginv12 + K * (d1_11 + d2_12)
        c2 = e1 * mf.ginv12 + e2 * mf.ginv22 + K * (d1_12 + d2_22)
        diffusion = (c1 * u["u_1"] + c2 * u["u_2"]
                     + K * (mf.ginv11 * u["u_11"] + 2.0 * mf.ginv12 * u["u_12"]
                            + mf.ginv22 * u["u_22"]))
        return u["u_t"] - diffusion + 0.5 * mf.dGdt / mf.G * u["u"]

    return F


@dataclass
class ConvergenceTable:
    """Refinement-study errors with fitted orders."""

    rows: list                      # dicts with h, dt, err_max, err_l2
    order_space: float
    order_time: float
    monotone: bool

    def incremental_orders(self):
        """Per-row orders against whichever parameter was refined."""
        out = [(math.nan, math.nan)]
        for prev, cur in zip(self.rows[:-1], self.rows[1:]):
            o_s = o_t = math.nan
            if cur["h"] != prev["h"]:
                o_s = math.log(prev["err_l2"] / cur["err_l2"]) / math.log(prev["h"] / cur["h"])
            if cur["dt"] != prev["dt"]:
                o_t = math.log(prev["err_l2"] / cur["err_l2"]) / math.log(prev["dt"] / cur["dt"])
            out.append((o_s, o_t))
        return out


def _fit_order(params, errors):
    p = np.log(np.asarray(params))
    e = np.log(np.asarray(errors))
    if np.allclose(p, p[0]):
        return math.nan
    slope = np.polyfit(p, e, 1)[0]
    return float(slope)


def _check_boundary_compatible(exact, grid, horizon):
    X1, X2 = grid.full_mesh(sparse=True)
    edge = np.zeros((grid.n1 + 2, grid.n2 + 2), dtype=bool)
    edge[0, :] = edge[-1, :] = True
    edge[:, 0] = edge[:, -1] = True
    for t in (0.0, 0.5 * horizon, horizon):
        vals = exact.value(X1, X2, t)
        scale = max(float(np.max(np.abs(vals))), 1.0)
        if float(np.max(np.abs(vals[edge]))) > 1e-9 * scale:
            raise ParameterError("manufactured solution does not vanish on the boundary")


def mms_convergence(chart, kappa, exact, levels, T=0.1, theta=0.5):
    """Manufactured-solution refinement study.

    ``levels`` is a sequence of (n, dt) pairs, n interior nodes per axis; the
    forcing is built once and evaluated numerically per step.  Errors
    are max-norm and L2-norm against the exact solution at the final time.
    Non-monotone error sequences are flagged, not fatal.
    """
    levels = list(levels)
    if len(levels) < 3:
        raise ParameterError("need at least 3 refinement levels for an order fit")
    from .geometry import make_grid

    F = manufactured_forcing(chart, kappa, exact)
    rows = []
    for n, dt in levels:
        grid_l = make_grid(chart.domain, n, n)
        _check_boundary_compatible(exact, grid_l, T)
        X1, X2 = grid_l.interior_mesh(sparse=True)
        v0 = exact.value(X1, X2, 0.0).ravel()
        traj = solve_direct(chart, kappa, grid_l, v0, T, dt, theta=theta, F_provider=F)
        t_end = float(traj.times[-1])
        ref = exact.value(X1, X2, t_end).ravel()
        diff = traj.fields[-1] - ref
        rows.append({
            "h": grid_l.h1, "dt": dt,
            "err_max": float(np.max(np.abs(diff))),
            "err_l2": field_l2(diff, grid_l),
        })
    hs = [r["h"] for r in rows]
    dts = [r["dt"] for r in rows]
    errs = [r["err_l2"] for r in rows]
    order_space = _fit_order(hs, errs) if len(set(hs)) > 1 else math.nan
    order_time = _fit_order(dts, errs) if len(set(dts)) > 1 else math.nan
    monotone = all(errs[i + 1] < errs[i] for i in range(len(errs) - 1))
    return ConvergenceTable(rows, order_space, order_time, monotone)
