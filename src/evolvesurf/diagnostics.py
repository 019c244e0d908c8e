"""Surface-geometric diagnostics of trajectories and convergence studies.

Integrals over the evolving surface reduce to weighted integrals over the
parameter rectangle: areas through the factor sqrt(G), tangential-gradient
energies through the inverse metric.  On top of those reductions this module
checks the structural claims the solver is supposed to reproduce: the energy
balance, the t^{-1/2} decay of the surface mass, the regularity quotient, and
manufactured-solution convergence orders.

The energy balance of the homogeneous system on a moving surface is the
transport theorem's

    d/dt 1/2 int_Gamma u^2 = -int_Gamma kappa |grad_Gamma u|^2
                             - 1/2 int_Gamma u^2 div_Gamma V,

with div_Gamma V the dilation rate d0 = (dG/dt)/(2G) of the pull-back; the
ledger integrates both rates in time by the trapezoid rule, so mass(t) +
dissipation(t) + dilation(t) - mass(0) is its residual.  Its dissipation
rate is the midpoint quadrature ``_flux_sq`` of C^ab d_a u d_b u over the
cells, with C^ab = kappa sqrt(G) g^ab the flux coefficients of L(t_k)
averaged from the four corners of each cell (``StepFrame.cell_fluxes``); the
same quadrature on the metric and kappa evaluated at the cell centres (the
tests' oracle) agrees with it at O(h^2).

Each quadrature is a weighted reduction of flat rows, scaled after it.  A
nodal quadrature (``_mass``) is one squared row dotted with a contiguous
weight, sqrt(G) or sqrt(G) d0: the ledger's mass and dilation rate share the
squared v_k, and the regularity report squares its rows in place, dividing
the centered difference's (2 dt)^2 out after the reduction.  The flux
quadrature forms 2 h1 d_1 u and 2 h2 d_2 u at the cell centres as half-sums
of the padded field's axis differences, and each of its three terms is one
product row and one dot product.

The energy ledger and the regularity report are march observers,
``observe(k, frame, window, Lv)``, and the march is the only way they are
computed.  Each reads each step time from the march's StepFrame
(``operator``): the interior-node metric is a slice of the frame's full-mesh
metric, the ledger's dissipation weights are corner means of the frame's
flux coefficients, and the regularity report reads its dilation rate beside
the march's L(t_k) v_k.  Their results read the datum v_0 (row 0 of every
Trajectory), the step times and dt, and the decay quotient reads the
finished ledger, with ||u|| = sqrt(2 mass).  The reports store float64
values, 8 bytes each.  ``solve_reported`` runs a march with all three, so a
solve with its reports evaluates each step time once and holds no more of
the trajectory than the rows its caller keeps.

The manufactured forcing reads the march's step frames too: it is a
callable ``forcing(frame, t)`` that ``solve_direct`` calls once per step
time, with the frame it holds for t_k and t_k itself (a static problem's
single frame carries t = 0).  It takes K, the inverse metric and d0 from the
frame's coefficients and evaluates only what the frame does not hold: the
metric's X-derivatives, d_a K and the partials of the exact solution.  So a
manufactured-solution march evaluates the metric once per step time.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ParameterError
from .geometry import metric_derivatives, metric_fields, volume_divergence
from .operator import field_l2, sobolev_h1_norm
from .timestepper import _step_count, solve_direct


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
    mf = metric_fields(chart, X1, X2, t, want_dGdt=False)
    vals = np.broadcast_to(np.asarray(psi(X1, X2, t), dtype=float), shape)
    w = _trapezoid_weights(*shape)
    return float(grid.h1 * grid.h2 * np.sum(w * vals * mf.sqrtG))


def _quadrature(row, grid, weight):
    """h1 h2 sum(row * weight): one dot product of a flat row with a contiguous nodal weight."""
    return grid.h1 * grid.h2 * float(row @ weight.ravel())


def _mass(values, grid, sqrtG):
    """L2(Gamma) norm squared h1 h2 sum v^2 sqrt(G) of a Dirichlet grid function.

    ``sqrtG`` is sqrt(G) on the interior nodes, contiguous (a StepFrame's
    ``interior_sqrtG``): one squared row and one dot product.
    """
    v = np.ravel(values)
    return _quadrature(v * v, grid, sqrtG)


def _flux_sq(values, grid, fluxes):
    """Midpoint quadrature of C^ab d_a u d_b u over the cells of the grid.

    ``fluxes`` are (C11, C12, C22) at the cell centres, shape (n1+1, n2+1):
    a StepFrame's ``cell_fluxes``, or kappa sqrt(G) g^ab there.  The
    bilinear-consistent gradients at the cell centres are half-sums of the
    zero-padded field's axis differences, D1 = 2 h1 d_1 u and D2 = 2 h2 d_2 u,
    so the zero Dirichlet ring enters and the boundary strips carry their
    full gradient.  Each term of the quadratic form is one product row and
    one dot product, scaled after the reduction.
    """
    p = grid.pad_dirichlet(values)
    q = p[1:] - p[:-1]
    d1 = (q[:, 1:] + q[:, :-1]).ravel()
    q = p[:, 1:] - p[:, :-1]
    d2 = (q[1:] + q[:-1]).ravel()
    cd = q.ravel()[:d1.size]   # q is read: its memory holds the product rows

    def term(c, a, b):
        return np.multiply(c.ravel(), a, out=cd) @ b

    c11, c12, c22 = fluxes
    h1, h2 = grid.h1, grid.h2
    return float(0.25 * h2 / h1 * term(c11, d1, d1) + 0.5 * term(c12, d1, d2)
                 + 0.25 * h1 / h2 * term(c22, d2, d2))


# ---------------------------------------------------------------------------
# energy / decay / regularity reports


@dataclass
class EnergyLedger:
    """Both sides of the energy balance along a trajectory."""

    times: np.ndarray
    mass: np.ndarray          # 0.5 ||u(t)||^2 on the surface
    dissipation: np.ndarray   # cumulative integral of ||sqrt(kappa) grad u||^2
    dilation: np.ndarray      # cumulative integral of 0.5 int u^2 div V
    residual_abs: np.ndarray
    residual_rel: np.ndarray

    def max_rel_residual(self):
        return float(np.max(self.residual_rel))


def _cumulative_trapezoid(rates, dt):
    return np.concatenate([[0.0], np.cumsum(0.5 * dt * (rates[1:] + rates[:-1]))])


class EnergyBalance:
    """The energy ledger, fed one step time at a time.

    The dissipation rate is ``_flux_sq`` with the step frame's
    ``cell_fluxes``: the flux coefficients kappa sqrt(G) g^ab that L(t_k)
    reads, averaged to the cell centres, so the ledger evaluates nothing of
    its own.  The balance holds exactly for the continuous homogeneous
    system; the discrete residual combines the quadrature and time-stepping
    errors.
    """

    def __init__(self, grid):
        self.grid = grid
        self.mass = array("d")
        self.diss_rate = array("d")
        self.dil_rate = array("d")

    def observe(self, k, frame, window, Lv):
        u = window[1]
        uu = u * u   # the mass and the dilation rate share the squared row
        self.mass.append(0.5 * _quadrature(uu, self.grid, frame.interior_sqrtG))
        self.diss_rate.append(_flux_sq(u, self.grid, frame.cell_fluxes))
        # 0.5 v^T W D0 v, W = diag(sqrt(G) h1 h2)
        self.dil_rate.append(0.5 * _quadrature(uu, self.grid, frame.interior_sqrtG_d0))

    def result(self, traj):
        mass = np.array(self.mass)
        diss = _cumulative_trapezoid(np.array(self.diss_rate), traj.dt)
        dil = _cumulative_trapezoid(np.array(self.dil_rate), traj.dt)
        resid = np.abs(mass + diss + dil - mass[0])
        scale = mass[0] if mass[0] > 0 else 1.0
        return EnergyLedger(traj.times.copy(), mass, diss, dil, resid, resid / scale)


def _decay(ledger, u0, grid):
    """Decay quotient sup_{t > 0} sqrt(t) ||u(t)|| / ||u0||_{W^{1,2}(U)} of a finished ledger.

    ||u(t)|| = sqrt(2 mass) is the surface norm; the flag ``monotone``
    records whether it never increases.
    """
    w_norm = sobolev_h1_norm(u0, grid)
    if w_norm == 0.0:
        raise ParameterError("zero initial datum: decay quotient undefined")
    norms = np.sqrt(2.0 * ledger.mass)
    mask = ledger.times > 0.0
    sup_bound = float(np.max(np.sqrt(ledger.times[mask]) * norms[mask]) / w_norm)
    monotone = bool(np.all(np.diff(norms) <= 1e-12 * max(norms[0], 1.0)))
    return {"sup_bound": sup_bound, "monotone": monotone}


class _Regularity:
    """Boundedness quotient of the regularity estimate; reads the interior step times.

    (||material derivative|| + ||surface diffusion term||) in L2-in-time of
    L2(Gamma), divided by the W^{1,2} norm of the initial datum.  The bound
    constant of the estimate is abstract, so only finiteness/boundedness of
    the quotient is meaningful.
    """

    def __init__(self, grid, dt):
        self.grid = grid
        self.dt = dt
        self.dt_sq = array("d")
        self.div_sq = array("d")

    def observe(self, k, frame, window, Lv):
        prev, u, nxt = window
        if prev is None or nxt is None:
            return
        sqrtG = frame.interior_sqrtG
        # the material derivative: under the pull-back the plain time
        # derivative on the rectangle, the centered difference
        # (v_{k+1} - v_{k-1}) / (2 dt) of the window, squared in place and
        # divided by (2 dt)^2 after the reduction
        row = nxt - prev
        self.dt_sq.append(_quadrature(np.square(row, out=row), self.grid, sqrtG)
                          / (2.0 * self.dt) ** 2)
        # diffusion part of the operator: div_Gamma(kappa grad_Gamma u) = -(L - D0) u,
        # with the march's product Lv = L(t_k) u, which every k >= 1 has; the
        # square drops the sign
        row = frame.interior_d0 * u
        np.subtract(Lv, row, out=row)
        self.div_sq.append(_quadrature(np.square(row, out=row), self.grid, sqrtG))

    def result(self, traj):
        if len(traj.times) < 3:
            raise ParameterError("need at least three snapshots")
        w_norm = sobolev_h1_norm(traj.fields[0], self.grid)
        if w_norm == 0.0:
            raise ParameterError("zero initial datum")
        dt_norm = math.sqrt(np.sum(self.dt * np.array(self.dt_sq)))
        div_norm = math.sqrt(np.sum(self.dt * np.array(self.div_sq)))
        return {"quotient": (dt_norm + div_norm) / w_norm,
                "material_norm": dt_norm, "diffusion_norm": div_norm}


def solve_reported(chart, kappa, grid, v0, T, dt, theta=0.5, stride=1):
    """``solve_direct`` together with its energy, decay and regularity reports.

    The energy ledger and the regularity report read the StepFrames and the
    three-level window of the march itself while it holds them, so each step
    time is evaluated once for the march and the reports; the decay quotient
    reads the finished ledger's mass.  Returns (trajectory keeping every
    ``stride``-th step, EnergyLedger, decay dict, regularity dict); the
    regularity report is None below two steps.  The reports do not depend on
    ``stride``.
    """
    ledger, regularity = EnergyBalance(grid), _Regularity(grid, dt)
    traj = solve_direct(chart, kappa, grid, v0, T, dt, theta=theta,
                        observers=(ledger.observe, regularity.observe), stride=stride)
    energy = ledger.result(traj)
    return (traj, energy, _decay(energy, traj.fields[0], grid),
            regularity.result(traj) if traj.nsteps >= 2 else None)


def transport_identity_residual(chart, grid, t):
    """Residual of the integrated dilation identity at time t.

    The surface integral of the velocity divergence, computed through the
    pulled-back dilation rate (dG/dt)/(2G), must equal the time derivative of
    the surface area; the latter by a centered difference of step 1e-4 on
    either side of t, whatever the horizon, so the chart is evaluated up to
    1e-4 outside [0, T].  A step clamped to [0, T] shrinks with T; at
    T = 1e-300 the area difference rounded to 0.
    """
    def dil(x1, x2, tt):
        mf = metric_fields(chart, x1, x2, tt)
        return 0.5 * mf.dGdt / mf.G

    lhs = surface_integral(dil, chart, grid, t)
    area = lambda tt: surface_integral(lambda a, b, c: 1.0, chart, grid, tt)
    t0, t1 = t - 1e-4, t + 1e-4
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

    ``partials`` is one numeric evaluator (x1, x2, t) -> the seven partials
    named in ``SOLUTION_PARTIALS``, in that order: the solution, its time
    derivative and its first and second partials in X1, X2, each
    broadcastable with x1 and x2.  One evaluation gives all seven, so
    partials that share factors compute them once.  The induced forcing
    F = du/dt + L u is evaluated from them numerically
    (``manufactured_forcing``), so no sympy is needed unless the partials
    come from a symbolic builder through ``manufactured_solution``.
    """

    partials: Callable

    def partial(self, name, x1, x2, t):
        """One of ``SOLUTION_PARTIALS`` on the broadcast shape of x1, x2."""
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        value = self.partials(x1, x2, t)[SOLUTION_PARTIALS.index(name)]
        return np.broadcast_to(np.asarray(value, dtype=float), np.broadcast(x1, x2).shape)

    def value(self, x1, x2, t):
        return self.partial("u", x1, x2, t)


def manufactured_solution(builder):
    """ManufacturedSolution from a symbolic builder (needs sympy).

    ``builder`` maps sympy symbols (X1, X2, t) to the solution expression;
    its seven partials are differentiated here and lambdified together, with
    their common subexpressions evaluated once.
    """
    import sympy as sp

    X1, X2, t = sp.symbols("X1 X2 t", real=True)
    u = builder(X1, X2, t)
    exprs = (u, sp.diff(u, t), sp.diff(u, X1), sp.diff(u, X2),
             sp.diff(u, X1, 2), sp.diff(u, X1, X2), sp.diff(u, X2, 2))
    return ManufacturedSolution(sp.lambdify((X1, X2, t), exprs, "numpy", cse=True))


def manufactured_forcing(chart, kappa, exact):
    """Forcing F = du/dt + L u of a manufactured solution, read off the march's step frames.

    Returns ``F(frame, t)``: F at the step time t on the interior nodes of
    ``frame.grid``, from the StepFrame the march holds for t.  With R =
    sqrt(G) and K the diffusivity,

        L u = -K g^ab d_ab u - c^b d_b u + d0 u,
        c^b = d_a K g^ab + K (1/R) d_a(R g^ab),

    and (1/R) d_a(R g^ab) is ``geometry.volume_divergence``, the field whose
    sups are M2/M3 of the smallness scan.  K, g^ab and d0 are interior slices
    of ``frame.coefficients``, so the frame's refusals of a diffusivity that
    is not positive and finite and of a degenerate metric come first.  Only
    the chart's first and second X-partials (the metric's derivatives),
    d_a K (``kappa.d1``, ``kappa.d2``) and the seven partials of ``exact``
    (one joint evaluation) are evaluated here, on the open interior mesh.  t
    is the march's step time, not ``frame.t``: the single frame of a static
    problem carries t = 0.
    """
    def F(frame, t):
        grid, cf = frame.grid, frame.coefficients
        x1, x2 = grid.interior_mesh(sparse=True)
        K, i11, i12, i22 = (cf[key][1:-1, 1:-1] for key in ("K", "Ginv11", "Ginv12", "Ginv22"))
        g1 = chart.evals["d1"](x1, x2, t)
        g2 = chart.evals["d2"](x1, x2, t)
        v1, v2 = volume_divergence(i11, i12, i22, metric_derivatives(chart, x1, x2, t, g1, g2))
        k1 = kappa.d1(x1, x2, t)
        k2 = kappa.d2(x1, x2, t)
        u, u_t, u_1, u_2, u_11, u_12, u_22 = exact.partials(x1, x2, t)
        c1 = k1 * i11 + k2 * i12 + K * v1
        c2 = k1 * i12 + k2 * i22 + K * v2
        diffusion = c1 * u_1 + c2 * u_2 + K * (i11 * u_11 + 2.0 * i12 * u_12 + i22 * u_22)
        return u_t - diffusion + cf["d0"] * u

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
    forcing is built once, and each level's march evaluates it from its step
    frames, once per step time.  Errors
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
        # the datum and the final step are the only rows kept
        nsteps = _step_count(T, dt)
        traj = solve_direct(chart, kappa, grid_l, v0, T, dt, theta=theta, F_provider=F,
                            stride=nsteps)
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
