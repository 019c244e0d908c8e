"""Time integration of the pulled-back system and the fixed-point iteration.

Two routes to the same discrete solution:

* ``solve_direct`` advances dv/dt + L(t) v = F with a theta-scheme;
* ``solve_picard`` iterates the linearized stages
      dv_{m+1}/dt + A v_{m+1} = -B(t) v_m + F,   B(t) = L(t) - A,
  each stage marched with the same theta-scheme and step size, so the exact
  fixed point of the iteration is the direct theta-scheme trajectory and
  contraction ratios are not polluted by discretization differences.

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
Every system matrix I + theta dt L and a frozen B(t_k) = L(t_k) - A are DIA
sums of the stencil diagonals (``operator``), so a moving march converts no
matrix to another sparse format; I + theta dt L is the scaled copy of L with
1 added to its main diagonal in place.

Each step time t_k is evaluated once, in its StepFrame (``operator``): the
full-mesh metric and diffusivity, the coefficient fields and L(t_k).  The
march looks frames up by the integer step index k and holds at most two, the
pair one step touches; a static problem has a single frame.  Observers passed
to ``solve_direct`` read each frame while the march holds it: the energy,
decay and regularity reports of ``diagnostics.solve_reported`` do, and so
does the PerturbationFreezer that freezes B(t_k) = L(t_k) - A for
``solve_picard`` from the direct march it compares against.

``z_norm`` is the discrete exponential-weighted graph norm used to monitor
the iteration: sup_t e^{-t} ||v|| plus the L2-in-time norms of dv/dt and A v.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ParameterError, PicardDivergenceError, StepSolveError
from .operator import (StepFrames, assemble_A, factorize, field_l2, shifted_A_solver,
                       stencil_weights)

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
    scheme: str
    grid: object
    forcing: Optional[Callable] = None

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


class PerturbationFreezer:
    """Observer ``(k, frame, traj)`` appending B(t_k) = L(t_k) - A to ``frozen``.

    One DIA difference per distinct StepFrame: the single frame of a static
    problem gives one B, repeated.  The last frame is held, so ``is`` cannot
    match a new frame at a reused address.
    """

    def __init__(self, A):
        self.A = A
        self.frozen = []
        self._frame = None

    def __call__(self, k, frame, traj=None):
        if frame is not self._frame:
            self._frame = frame
            self._B = frame.L - self.A
        self.frozen.append(self._B)


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
    for a moving one.  A static system matrix is built once per march and
    kept for the residual gate.
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
            precond = spla.LinearOperator(
                impl.shape, shifted_A_solver(self.grid, lam1, lam2, self.theta * self.dt),
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

    def step(self, k, vals, forcing=None):
        """v_{k+1} from v_k = vals; ``forcing`` is (F(t_k), F(t_{k+1})) or None."""
        dt, theta = self.dt, self.theta
        rhs = vals.copy()
        if theta < 1.0:
            rhs = rhs - (1.0 - theta) * dt * (self.L(k) @ vals)
        if forcing is not None:
            fold, fnew = forcing
            rhs = rhs + dt * (theta * fnew + (1.0 - theta) * fold)
        return self.solve(k + 1, rhs, guess=vals)


def theta_step(v, t, dt, theta, frames, F_provider=None):
    """One theta-scheme step of dv/dt + L(t) v = F from time t to t + dt.

    Solves (I + theta dt L(t+dt)) v' = (I - (1-theta) dt L(t)) v
           + dt (theta F(t+dt) + (1-theta) F(t))
    and returns v' as a flat array.  ``frames`` is
    ``StepFrames(chart, kappa, grid)``.
    """
    marcher = _ThetaMarcher(dt, theta, frames, t0=t)
    forcing = None
    if F_provider is not None:
        forcing = (np.asarray(F_provider(t)), np.asarray(F_provider(marcher.time(1))))
    return marcher.step(0, np.asarray(v, dtype=float), forcing)


def _prepare_v0(v0, grid):
    vals = np.asarray(v0, dtype=float).ravel()
    if vals.size != grid.ndof:
        raise ParameterError(f"initial datum has {vals.size} values, grid has {grid.ndof}")
    if not np.all(np.isfinite(vals)):
        raise ParameterError("initial datum contains non-finite values")
    return vals.astype(float)


def _eval_forcing(F_provider, grid, t):
    if F_provider is None:
        return None
    X1, X2 = grid.interior_mesh()
    return np.asarray(F_provider(X1, X2, t), dtype=float).ravel()


def solve_direct(chart, kappa, grid, v0, T, dt, theta=0.5, F_provider=None, observers=()):
    """March the pulled-back system with the time-dependent operator.

    ``F_provider`` is an optional manufactured forcing (x1, x2, t) -> array;
    the homogeneous system of the model has F = 0.  Returns a Trajectory of
    ceil(T/dt) uniform steps; the Dirichlet boundary stays identically zero by
    construction.  Each of ``observers`` is called as
    ``observer(k, frame, traj)`` for k = 0..nsteps in order, with the
    StepFrame of t_k while the march holds it; ``traj.fields`` is filled
    through step k + 1 then (through k at the last step).
    """
    if T <= 0.0:
        raise ParameterError("horizon must be positive")
    vals = _prepare_v0(v0, grid)
    marcher = _ThetaMarcher(dt, theta, StepFrames(chart, kappa, grid))
    nsteps = int(math.ceil(T / dt - 1e-12))

    times = np.arange(nsteps + 1) * dt
    fields = np.empty((nsteps + 1, grid.ndof))
    fields[0] = vals
    traj = Trajectory(times, fields, dt, f"theta={theta}", grid, forcing=F_provider)
    f_old = _eval_forcing(F_provider, grid, 0.0)
    for k in range(nsteps + 1):
        if k < nsteps:
            f_new = _eval_forcing(F_provider, grid, times[k + 1])
            forcing = None if F_provider is None else (f_old, f_new)
            fields[k + 1] = marcher.step(k, fields[k], forcing)
            f_old = f_new
        for observe in observers:
            observe(k, marcher.frame(k), traj)
    return traj


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
                 condition_report=None, frozen_B=None):
    """Fixed-point iteration with the constant comparison operator.

    Stage one solves dv/dt + A v = F; stage m+1 solves
    dv/dt + A v = -B(t) v_m + F with B(t) = L(t) - A frozen per step time.
    ``frozen_B`` is the list of B(t_k) for k = 0..nsteps when the caller has
    frozen it already (a PerturbationFreezer observing a direct march, say);
    otherwise it is frozen here, once per distinct step frame.  Stops when
    the z-norm of a consecutive difference drops below ``tol``.  Raises
    PicardDivergenceError when max_iter is hit while the last ratio is at or
    above one (the smallness condition is the quantity to check then).
    """
    if tol <= 0.0:
        raise ParameterError("tol must be positive")
    vals = _prepare_v0(v0, grid)
    stage = _ThetaMarcher(dt, theta, _ComparisonStage(grid, lambda1, lambda2))
    A = stage.frames.L
    nsteps = int(math.ceil(T / dt - 1e-12))
    times = np.arange(nsteps + 1) * dt
    expl = sp.identity(grid.ndof, format="dia") - (1.0 - theta) * dt * A

    # B(t_k) frozen once per distinct step frame, shared across iterations
    if frozen_B is None:
        frames = StepFrames(chart, kappa, grid)
        freezer = PerturbationFreezer(A)
        for k, t in enumerate(times):
            freezer(k, frames.frame(float(t)))
        B_mats = freezer.frozen
    elif len(frozen_B) == nsteps + 1:
        B_mats = frozen_B
    else:
        raise ParameterError(f"{len(frozen_B)} frozen B(t_k) for {nsteps + 1} step times")
    F_vals = None
    if F_provider is not None:
        F_vals = np.array([_eval_forcing(F_provider, grid, float(t)) for t in times])

    def march(prev_fields):
        fields = np.empty((nsteps + 1, grid.ndof))
        fields[0] = vals
        if prev_fields is not None:
            b_old = B_mats[0] @ prev_fields[0]
        for k in range(nsteps):
            rhs = expl @ fields[k]
            if prev_fields is not None:
                # B(t_{k+1}) v_m(t_{k+1}) is carried over as the next step's b_old
                b_new = B_mats[k + 1] @ prev_fields[k + 1]
                rhs = rhs - dt * (theta * b_new + (1.0 - theta) * b_old)
                b_old = b_new
            if F_vals is not None:
                rhs = rhs + dt * (theta * F_vals[k + 1] + (1.0 - theta) * F_vals[k])
            fields[k + 1] = stage.solve(k + 1, rhs)
        return fields

    scheme = f"picard-theta={theta}"
    history = PicardHistory()
    current = march(None)   # v_1
    prev_diff = None
    for m in range(1, max_iter + 1):
        nxt = march(current)
        diff_traj = Trajectory(times, nxt - current, dt, scheme, grid)
        diff = z_norm(diff_traj, A, grid)
        znext = z_norm(Trajectory(times, nxt, dt, scheme, grid), A, grid)
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

    traj = Trajectory(times, current, dt, scheme, grid, forcing=F_provider)
    return traj, history
