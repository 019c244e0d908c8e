"""Time integration of the pulled-back system and the fixed-point iteration.

Two routes to the same discrete solution:

* ``solve_direct`` advances dv/dt + L(t) v = F with a theta-scheme;
* ``solve_picard`` iterates the linearized stages
      dv_{m+1}/dt + A v_{m+1} = F + A v_m - L(t) v_m,
  i.e. -B(t) v_m + F with B(t) = L(t) - A, each stage marched with the same
  theta-scheme and step size, so the exact fixed point of the iteration is
  the direct theta-scheme trajectory and contraction ratios are not polluted
  by discretization differences.

``_ThetaMarcher.march`` is the one theta-step loop: ``solve_direct``,
``theta_step`` (a march of one step) and every Picard stage (a march of A
whose forcing carries the previous iterate) call it.

Every implicit step solves (I + theta dt L(t_{k+1})) v_{k+1} = rhs and is
accepted only if its true relative residual is at most SOLVE_TOL = 1e-10;
otherwise StepSolveError names the step, time, residual and solver (LU,
DST-I, or GMRES with its iteration count).
The comparison operator A of a Picard stage is inverted exactly by DST-I in
its sine eigenbasis (``operator.SineBasis``: dense products with the sine
matrix of each axis, O(n1 n2 (n1 + n2)) per step) and no factorization.  Any
other static operator (rigid chart, time-independent diffusivity) is
LU-factorized once per march.  A moving operator is solved by GMRES started
from the previous step's value and preconditioned with (I + theta dt
A_k)^{-1}, where A_k is the constant 5-point operator with the mean stencil
weights of L(t_{k+1}), inverted by DST-I.  The smallness of B = L - A
relative to A keeps that iteration to a few steps, and no matrix is
factorized per step.
Every system matrix I + theta dt L is a DIA sum of the stencil diagonals
(``operator``), so a moving march converts no matrix to another sparse
format: it is the scaled copy of L with 1 added to its main diagonal in place.

Each step time t_k is evaluated once, in its StepFrame (``operator``): the
full-mesh metric and diffusivity, the coefficient fields and L(t_k).  The
march looks frames up by the integer step index k and holds at most two, the
pair one step touches; a static problem has a single frame.  Observers of a
march read each frame while the march holds it: the energy, decay and
regularity reports of ``diagnostics.solve_reported`` do, and so does the
observer of ``cli.run_picard`` that collects the L(t_k) the Picard stages
read from the direct march it compares against.

``z_norm`` is the discrete exponential-weighted graph norm used to monitor
the iteration: sup_t e^{-t} ||v|| plus the L2-in-time norms of dv/dt and A v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ParameterError, PicardDivergenceError, StepSolveError
from .operator import (SineBasis, StepFrames, assemble_A, factorize, field_l2,
                       shifted_A_solver, stencil_weights)

SOLVE_TOL = 1e-10
# GMRES iterates to roundoff, well inside the SOLVE_TOL gate, so a moving
# march agrees with an LU march to about 1e-14; a step still above SOLVE_TOL
# after KRYLOV_MAXITER iterations fails
KRYLOV_RTOL = 1e-15
KRYLOV_MAXITER = 100


@dataclass
class Trajectory:
    """Uniform-step time history of a grid function."""

    times: np.ndarray           # (N+1,)
    fields: np.ndarray          # (N+1, ndof)
    dt: float
    grid: object

    @property
    def nsteps(self):
        return len(self.times) - 1


@dataclass
class PicardHistory:
    """Per-correction records of the fixed-point iteration.

    ``z_norms`` and ``diff_norms`` carry one entry per correction stage;
    ``ratios`` holds the well-defined consecutive quotients, so it is one
    entry shorter.
    """

    z_norms: list = field(default_factory=list)
    diff_norms: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0


class _ComparisonStage:
    """Frame source of a Picard stage: the comparison operator A at every t.

    A frame needs only ``L``, so the source is its own frame; ``A_weights``
    marks the operator as assemble_A(grid, lambda1, lambda2), solved by DST-I.
    """

    static = True

    def __init__(self, grid, lambda1, lambda2):
        self.grid = grid
        self.A_weights = (lambda1, lambda2)
        self.L = assemble_A(grid, lambda1, lambda2)

    def frame(self, t):
        return self


class _ThetaMarcher:
    """Theta-scheme propagator over the step times t_k = t0 + k dt.

    The StepFrame of t_k is looked up by the integer step index k, and only
    the two frames one step touches are kept, so a moving march evaluates
    each step time once.  ``frames`` is a StepFrames source or a
    _ComparisonStage.  The implicit solve is a DST-I solve in the sine
    eigenbasis for the comparison operator A of a Picard stage (no LU), one
    LU per march for any other static operator, and DST-preconditioned GMRES
    for a moving one.  The SineBasis of its preconditioners (the sine
    matrices and the eigenvalue axes mu1, mu2) is built once per marcher: a
    step forms only lambda1 mu1 + lambda2 mu2 for its weights.  A static
    system matrix is built once per marcher and kept for the residual gate,
    so the stages of a Picard iteration share it.
    """

    def __init__(self, dt, theta, frames, t0=0.0):
        if not 0.5 <= theta <= 1.0:
            raise ParameterError(f"theta must lie in [0.5, 1], got {theta}")
        if dt <= 0.0:
            raise ParameterError("dt must be positive")
        self.dt = dt
        self.theta = theta
        self.t0 = t0
        self.frames = frames
        self.static = frames.static
        self.grid = frames.grid
        self._held = {}      # step index -> StepFrame, at most two entries
        self._direct = None  # (I + theta dt L, its solve, its name) of a static operator
        self._basis = None   # SineBasis of a moving march's preconditioners, built once

    def time(self, k):
        return self.t0 + k * self.dt

    def frame(self, k):
        if k not in self._held:
            if len(self._held) >= 2:
                del self._held[min(self._held)]
            self._held[k] = self.frames.frame(self.time(k))
        return self._held[k]

    def L(self, k):
        return self.frame(k).L

    def _static_solver(self, impl):
        """(solve, name) for the system ``impl`` of a static operator: DST-I for A, else LU."""
        weights = getattr(self.frames, "A_weights", None)
        if weights is None:
            return factorize(impl).solve, "LU"
        return shifted_A_solver(self.grid, *weights, self.theta * self.dt), "DST-I"

    def solve(self, k, rhs, guess=None):
        """Solve (I + theta dt L(t_k)) v = rhs; raises StepSolveError above SOLVE_TOL."""
        scale = np.linalg.norm(rhs)
        if scale == 0.0:
            return np.zeros_like(rhs)
        # the system is a DIA sum on the diagonals of L; a static march builds
        # it once and keeps it with its solver, a moving one (whose _direct
        # stays None) builds it every step
        if self._direct is None:
            L = self.L(k)
            impl = self.theta * self.dt * L   # a scaled copy; L stays as it is
            impl.data[impl.offsets == 0] += 1.0
            if self.static:
                self._direct = (impl, *self._static_solver(impl))
        iterations = None
        if self.static:
            impl, direct, solver = self._direct
            v = direct(rhs)
        else:
            lam1, lam2 = stencil_weights(L, self.grid)
            if self._basis is None:
                self._basis = SineBasis(self.grid, lam1, lam2)
            precond = spla.LinearOperator(
                impl.shape, self._basis.shifted_solver(lam1, lam2, self.theta * self.dt),
                dtype=float)
            presids = []
            v, _ = spla.gmres(impl, rhs, x0=guess, rtol=KRYLOV_RTOL, atol=0.0,
                              restart=KRYLOV_MAXITER, maxiter=1, M=precond,
                              callback=presids.append, callback_type="pr_norm")
            solver, iterations = "GMRES", len(presids)
        resid = np.linalg.norm(impl @ v - rhs) / scale
        if not np.isfinite(resid) or resid > SOLVE_TOL:
            raise StepSolveError(k, self.time(k), resid, SOLVE_TOL, solver, iterations)
        return v

    def march(self, v0, nsteps, forcing=None, observers=()):
        """Trajectory of ``nsteps`` steps from the flat datum ``v0`` at t0.

        Step k solves (I + theta dt L(t_{k+1})) v_{k+1} = (I - (1-theta) dt
        L(t_k)) v_k + dt (theta F(t_{k+1}) + (1-theta) F(t_k)).  ``forcing(k)``
        returns F(t_k), or None for no forcing; it is called once per step
        time, in order.  Each of ``observers`` is called as
        ``observer(k, frame, traj)`` for k = 0..nsteps in order, with the frame
        of t_k while the march holds it; ``traj.fields`` is filled through
        step k + 1 then (through k at the last step).
        """
        dt, theta = self.dt, self.theta
        fields = np.empty((nsteps + 1, self.grid.ndof))
        fields[0] = v0
        traj = Trajectory(self.t0 + np.arange(nsteps + 1) * dt, fields, dt, self.grid)
        f_old = None if forcing is None else forcing(0)
        for k in range(nsteps + 1):
            if k < nsteps:
                rhs = fields[k].copy()
                if theta < 1.0:
                    rhs = rhs - (1.0 - theta) * dt * (self.L(k) @ fields[k])
                f_new = None if forcing is None else forcing(k + 1)
                if f_new is not None:
                    rhs = rhs + dt * (theta * f_new + (1.0 - theta) * f_old)
                fields[k + 1] = self.solve(k + 1, rhs, guess=fields[k])
                f_old = f_new
            for observe in observers:
                observe(k, self.frame(k), traj)
        return traj


def theta_step(v, t, dt, theta, frames, F_provider=None):
    """One theta-scheme step of dv/dt + L(t) v = F from time t to t + dt.

    Solves (I + theta dt L(t+dt)) v' = (I - (1-theta) dt L(t)) v
           + dt (theta F(t+dt) + (1-theta) F(t))
    and returns v' as a flat array.  ``frames`` is
    ``StepFrames(chart, kappa, grid)``; ``F_provider`` is as in ``solve_direct``.
    """
    marcher = _ThetaMarcher(dt, theta, frames, t0=t)
    forcing = lambda k: _eval_forcing(F_provider, frames.grid, marcher.time(k))
    return marcher.march(_prepare_v0(v, frames.grid), 1, forcing).fields[1]


def _step_count(T, dt):
    """ceil(T/dt) uniform steps, at least one, over the horizon T > 0."""
    if T <= 0.0:
        raise ParameterError("horizon must be positive")
    return max(1, int(math.ceil(T / dt - 1e-12)))


def _prepare_v0(v0, grid):
    vals = np.asarray(v0, dtype=float).ravel()
    if vals.size != grid.ndof:
        raise ParameterError(f"initial datum has {vals.size} values, grid has {grid.ndof}")
    if not np.all(np.isfinite(vals)):
        raise ParameterError("initial datum contains non-finite values")
    return vals.astype(float)


def _eval_forcing(F_provider, grid, t):
    """F(t) on the interior nodes, flat; the provider gets the open interior mesh."""
    if F_provider is None:
        return None
    X1, X2 = grid.interior_mesh(sparse=True)
    F = np.asarray(F_provider(X1, X2, t), dtype=float)
    return np.broadcast_to(F, (grid.n1, grid.n2)).ravel()


def solve_direct(chart, kappa, grid, v0, T, dt, theta=0.5, F_provider=None, observers=()):
    """March the pulled-back system with the time-dependent operator.

    ``F_provider`` is an optional manufactured forcing (x1, x2, t) -> array,
    called with the open interior mesh (x1 of shape (n1, 1), x2 of shape
    (1, n2)); its value is broadcast to the grid.  The homogeneous system of
    the model has F = 0.  Returns a Trajectory of ceil(T/dt) uniform steps;
    the Dirichlet boundary stays identically zero by construction.
    ``observers`` are as in ``_ThetaMarcher.march``: each is called as
    ``observer(k, frame, traj)`` with the StepFrame of t_k.
    """
    vals = _prepare_v0(v0, grid)
    marcher = _ThetaMarcher(dt, theta, StepFrames(chart, kappa, grid))
    nsteps = _step_count(T, dt)
    forcing = lambda k: _eval_forcing(F_provider, grid, marcher.time(k))
    return marcher.march(vals, nsteps, forcing, observers)


def z_norm(traj, A, grid):
    """Discrete exponential-weighted graph norm of a trajectory.

    sup_t e^{-t} ||v(t)|| + ||dv/dt||_{L2(0,T;L2)} + ||A v||_{L2(0,T;L2)},
    with centered time differences (one-sided at the ends) and trapezoid
    quadrature in time.
    """
    times = traj.times
    fields = traj.fields
    nt = len(times)
    if nt == 0:
        raise ParameterError("empty trajectory")

    sup_term = max(
        math.exp(-float(times[k])) * field_l2(fields[k], grid) for k in range(nt)
    )
    if nt == 1:
        return sup_term

    dt = traj.dt
    dv_sq = np.empty(nt)
    av_sq = np.empty(nt)
    for k in range(nt):
        if k == 0:
            dvdt = (fields[1] - fields[0]) / dt
        elif k == nt - 1:
            dvdt = (fields[-1] - fields[-2]) / dt
        else:
            dvdt = (fields[k + 1] - fields[k - 1]) / (2.0 * dt)
        dv_sq[k] = field_l2(dvdt, grid) ** 2
        av_sq[k] = field_l2(A @ fields[k], grid) ** 2

    w = np.full(nt, dt)
    w[0] = w[-1] = 0.5 * dt
    return float(sup_term + math.sqrt(np.dot(w, dv_sq)) + math.sqrt(np.dot(w, av_sq)))


def solve_picard(chart, kappa, grid, lambda1, lambda2, v0, T, dt,
                 tol=1e-8, max_iter=20, theta=0.5, F_provider=None,
                 condition_report=None, operators=None):
    """Fixed-point iteration with the constant comparison operator.

    Stage one solves dv/dt + A v = F; stage m+1 is the march of A with the
    forcing F(t_k) + A v_m(t_k) - L(t_k) v_m(t_k), i.e. F - B(t_k) v_m(t_k)
    with B = L - A.  ``operators`` is the list of L(t_k) for k = 0..nsteps
    when the caller holds it already (the step frames of a direct march,
    say); otherwise it is read from step frames built here.  Stops when the
    z-norm of a consecutive difference drops below ``tol``.  Raises
    PicardDivergenceError when max_iter is hit while the last ratio is at or
    above one (the smallness condition is the quantity to check then).
    """
    if tol <= 0.0:
        raise ParameterError("tol must be positive")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    vals = _prepare_v0(v0, grid)
    stage = _ThetaMarcher(dt, theta, _ComparisonStage(grid, lambda1, lambda2))
    A = stage.frames.L
    nsteps = _step_count(T, dt)
    if operators is None:
        frames = StepFrames(chart, kappa, grid)
        operators = [frames.frame(stage.time(k)).L for k in range(nsteps + 1)]
    elif len(operators) != nsteps + 1:
        raise ParameterError(f"{len(operators)} operators L(t_k) for {nsteps + 1} step times")
    F_vals = [_eval_forcing(F_provider, grid, stage.time(k)) for k in range(nsteps + 1)]

    def stage_forcing(prev):
        """k -> F(t_k) + A v_m(t_k) - L(t_k) v_m(t_k) for the iterate ``prev``."""
        def at(k):
            f = A @ prev[k] - operators[k] @ prev[k]
            return f if F_vals[k] is None else F_vals[k] + f
        return at

    history = PicardHistory()
    current = stage.march(vals, nsteps, F_vals.__getitem__)   # v_1
    prev_diff = None
    for m in range(1, max_iter + 1):
        nxt = stage.march(vals, nsteps, stage_forcing(current.fields))
        diff_traj = Trajectory(nxt.times, nxt.fields - current.fields, dt, grid)
        diff = z_norm(diff_traj, A, grid)
        znext = z_norm(nxt, A, grid)
        history.z_norms.append(znext)
        history.diff_norms.append(diff)
        if prev_diff is not None:
            history.ratios.append(diff / prev_diff if prev_diff > 0 else 0.0)
        history.iterations = m
        current = nxt
        if diff <= tol:
            history.converged = True
            break
        prev_diff = diff
    else:
        if history.ratios and history.ratios[-1] >= 1.0:
            hint = ""
            if condition_report is not None:
                hint = (f" (smallness report: condition_thm26 = "
                        f"{condition_report.condition_thm26})")
            raise PicardDivergenceError(
                f"no contraction after {max_iter} iterations, last ratio "
                f"{history.ratios[-1]:.3f} >= 1; check the smallness conditions{hint}"
            )

    return current, history
