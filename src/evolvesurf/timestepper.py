"""Time integration of the pulled-back system and the fixed-point iteration.

Two routes to the same discrete solution:

* ``solve_direct`` advances dv/dt + L(t) v = F with a theta-scheme;
* ``solve_picard`` iterates the linearized stages of the homogeneous system
      dv_{m+1}/dt + A v_{m+1} = A v_m - L(t) v_m,
  i.e. -B(t) v_m with B(t) = L(t) - A, each stage marched with the same
  theta-scheme and step size, so the exact fixed point of the iteration is
  the direct theta-scheme trajectory and contraction ratios are not polluted
  by discretization differences.

``_ThetaMarcher.march`` is the one theta-step loop: ``solve_direct`` and
every Picard stage (a march of A whose forcing carries the previous iterate)
call it.

Every implicit step solves (I + theta dt L(t_{k+1})) v_{k+1} = rhs and is
accepted only if its true relative residual is at most SOLVE_TOL = 1e-10;
otherwise StepSolveError names the step, time, residual and solver (LU,
DST-I, or GMRES with its iteration count).  The gate forms L(t_{k+1}) v_{k+1}
once, and step k+1 reuses it for its right-hand side.
The comparison operator A of a Picard stage is inverted exactly by DST-I in
its sine eigenbasis (``operator.SineBasis``: dense products with the sine
matrix of each axis, O(n1 n2 (n1 + n2)) per step) and no factorization.  Any
other static operator (rigid chart, time-independent diffusivity) is
LU-factorized once per march.  A moving operator is solved by GMRES
(``_gmres``, in-tree) started from the previous step's value and
preconditioned on the right with (I + theta dt A_k)^{-1}, where A_k is the
constant 5-point operator with the mean stencil weights of L(t_{k+1}),
inverted by DST-I: one pair of sine transforms per Krylov iteration, and its
stopping estimate is the unpreconditioned residual.  The smallness of
B = L - A relative to A keeps that iteration to a few steps, and no matrix
is factorized per step.
Every system matrix I + theta dt L is DIA, with the stencil diagonals of L
(``operator``), so a moving march converts no matrix to another sparse
format.  A marcher keeps one system buffer: each step overwrites its data
with theta dt L(t_{k+1}) and adds 1 on the main diagonal, so a moving march
allocates no system matrix per step; a static LU march drops the buffer once
the LU has copied it.

Each step time t_k is evaluated once, in its StepFrame (``operator``): the
full-mesh metric and diffusivity, the coefficient fields and L(t_k).  The
march looks frames up by the integer step index k and holds at most two, the
pair one step touches; a static problem has a single frame.  A forcing of
``solve_direct`` reads the same frames: it is called as ``forcing(frame, t)``
once per step time, with the frame the march holds for t_k and with t_k
itself, since the single frame of a static problem carries t = 0 (the
manufactured forcing of ``diagnostics`` is one).

A march holds O(ndof) state: the three-level window (v_{k-1}, v_k, v_{k+1})
and the rows it keeps, one for every ``stride``-th step (row 0 is the
datum).  Its Trajectory is those rows, their stride and every step time.
``stride = 1`` keeps the whole history, as the Picard stages need; the CLI
``solve`` and ``picard`` keep only the snapshots they write.  Observers are
called as ``observer(k, frame, window, Lv)`` at every step k in order, with
the frame of t_k while the march holds it, the window
(v_{k-1}, v_k, v_{k+1}) (None beyond the first and last step) and the gate's
product Lv = L(t_k) v_k (None only at k = 0 under backward Euler), which the
regularity report reads.  The energy ledger and the regularity report of ``diagnostics`` are
observers (the march is the only way they are computed; the decay quotient
reads the finished ledger), and so is the Picard window loop when a direct
march runs alongside it (``cli.run_picard``).

The Picard iteration runs on time windows, as the paper continues local
solutions: a window is min(T, T_star_24, T_star_25) of the smallness report
in whole steps (at least one; one window over the whole horizon without a
report).  ``_PicardWindows`` is the one window loop.  It takes L(t_k) one
step time at a time, from a direct march it observes or from step frames
built for it; at the end of a window the stages iterate on that window from
the previous window's Picard end state, the agreement with the direct rows
is folded into running maxima row by row, and the window's operators and
rows are dropped.  A Picard run holds one window's L(t_k), its direct rows
and the rows of one iterate, which each stage overwrites with the next one
step behind the reads of its forcing.  Beyond the window it holds the kept
rows of every ``stride``-th step and, per step, only its time and two
floats of each norm of the window being iterated.

``z_norm`` is the discrete exponential-weighted graph norm used to monitor
the iteration: sup_t e^{-t} ||v|| plus the L2-in-time norms of dv/dt and A v.
A stage's norms are observers of its march (``_StageNorms``): z(v_{m+1})
reads the gate's product A v_k, and the difference norm reads the march's
levels minus the iterate v_m and forms A (v_{m+1} - v_m) once per step, so
a correction stage step forms four products (the forcing's A v_m and
L(t_k) v_m, the gate's and that one) and no difference trajectory is built.
``z_norm`` itself replays the same accumulator over stored rows.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError, PicardDivergenceError, StepSolveError
from .operator import (SineBasis, StepFrames, assemble_A, factorize, field_l2,
                       stencil_weights)

SOLVE_TOL = 1e-10
# GMRES iterates to roundoff, well inside the SOLVE_TOL gate, so a moving
# march agrees with an LU march to about 1e-14; a step still above SOLVE_TOL
# after KRYLOV_MAXITER iterations fails
KRYLOV_RTOL = 1e-15
KRYLOV_MAXITER = 100
# bytes of physical memory: a march whose step times and kept rows need more is refused
_PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


@dataclass
class Trajectory:
    """The kept rows of a uniform-step march: v_k at k = 0, stride, 2 stride, ... <= N."""

    times: np.ndarray           # (N+1,) every step time t_k
    fields: np.ndarray          # (len(steps), ndof), the rows of the kept steps
    dt: float
    grid: object
    stride: int = 1

    @property
    def nsteps(self):
        return len(self.times) - 1

    @property
    def steps(self):
        """Step index of each kept row."""
        return range(0, self.nsteps + 1, self.stride)


@dataclass
class PicardHistory:
    """Per-correction records of the fixed-point iteration, window by window.

    ``z_norms``, ``diff_norms`` and ``windows`` (the window number, from 0)
    carry one entry per correction stage, in order; ``ratios`` holds the
    well-defined consecutive quotients within each window, so a window adds
    one entry fewer than it has stages.  ``iterations`` is the most stages
    any window took (each is capped at max_iter), and ``converged`` holds if
    every window converged.  ``agreement`` is the relative distance to the
    direct march that ran alongside, or None.
    """

    z_norms: list = field(default_factory=list)
    diff_norms: list = field(default_factory=list)
    ratios: list = field(default_factory=list)
    windows: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    agreement: float = None

    def stages(self):
        """(window, stage number in it from 1, z_norm, diff_norm, ratio or None) per stage."""
        ratios = iter(self.ratios)
        for i, window in enumerate(self.windows):
            m = m + 1 if i and self.windows[i - 1] == window else 1
            yield window, m, self.z_norms[i], self.diff_norms[i], next(ratios) if m > 1 else None


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


def _gmres(system, precond, b, x0, target, maxiter):
    """Right-preconditioned GMRES (Saad-Schultz 1986), one cycle: (x, iterations).

    Solves system @ x = b from x0 over x0 + P^{-1} K_j(system P^{-1}, r0) by
    Arnoldi with modified Gram-Schmidt and Givens rotations on the Hessenberg
    columns.  With the preconditioner on the right, the last entry of the
    rotated right-hand side is the norm of the unpreconditioned residual
    b - system @ x_j; the cycle stops once it is at most ``target``, at a
    happy breakdown (the Krylov space is invariant, x_j is exact), or after
    ``maxiter`` steps.  ``precond`` (r -> P^{-1} r) is applied once per step,
    and the basis grows by one vector per step: z_j = P^{-1} v_j is kept, so
    x = x0 + Z y needs no further apply.  An x0 whose residual is at most
    ``target`` is returned after 0 steps.
    """
    r = b - system @ x0
    beta = np.linalg.norm(r)
    if beta <= target:
        return x0, 0
    basis = [r / beta]   # v_j, orthonormal
    pre = []             # z_j = P^{-1} v_j
    columns = []         # rotated Hessenberg columns: the upper triangle R
    rotations = []       # (c, s) of each Givens rotation
    g = [beta]           # rotated right-hand side beta e_1
    for j in range(min(maxiter, b.size)):
        pre.append(precond(basis[j]))
        w = system @ pre[j]
        w_norm = np.linalg.norm(w)
        col = []
        for v in basis:
            h = float(w @ v)
            w -= h * v
            col.append(h)
        h_next = float(np.linalg.norm(w))
        breakdown = h_next <= np.finfo(float).eps * w_norm
        if breakdown:
            h_next = 0.0
        for i, (c, s) in enumerate(rotations):
            col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
        diag = math.hypot(col[j], h_next)
        c, s = (col[j] / diag, h_next / diag) if diag > 0.0 else (1.0, 0.0)
        col[j] = diag
        rotations.append((c, s))
        columns.append(col)
        g.append(-s * g[j])
        g[j] *= c
        if abs(g[j + 1]) <= target or breakdown:
            break
        basis.append(w / h_next)
    m = len(columns)
    y = [0.0] * m   # R y = g by back substitution; a zero pivot (singular system) gives 0
    for i in reversed(range(m)):
        rest = g[i] - sum(columns[l][i] * y[l] for l in range(i + 1, m))
        y[i] = rest / columns[i][i] if columns[i][i] else 0.0
    x = x0.copy()
    for yi, z in zip(y, pre):
        x += yi * z
    return x, len(pre)


def _allocate(nsteps, stride, ndof, t0, dt):
    """(times, kept) of a march: every step time t0 + k dt and a row for every ``stride``-th step.

    A step count whose step times or kept rows do not fit in memory raises
    ParameterError before anything is marched.
    """
    if stride < 1:
        raise ParameterError(f"stride must be at least 1, got {stride}")
    nkept = nsteps // stride + 1
    nbytes = 8 * (nsteps + 1 + nkept * ndof)
    try:
        # refused up front where the allocator would grant pages it cannot back
        if nbytes > _PHYSICAL_MEMORY:
            raise MemoryError
        return t0 + np.arange(nsteps + 1) * dt, np.empty((nkept, ndof))
    except MemoryError:
        raise ParameterError(
            f"{nsteps} steps do not fit in memory: their {nsteps + 1} step times and "
            f"{nkept} kept rows of {ndof} values take {nbytes} bytes") from None


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
    step forms only lambda1 mu1 + lambda2 mu2 for its weights.  The solve of
    a static operator is built once per marcher, so the stages of a Picard
    iteration share it.
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
        self._direct = None  # (solve, name) of a static operator's system
        self._basis = None   # SineBasis of a moving march's preconditioners, built once
        self._system_buffer = None   # I + theta dt L of ``_system``, refilled each step

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

    def frame_forcing(self, F):
        """``march``'s forcing(k) from a forcing F(frame, t), or None without one.

        forcing(k) is F(frame of t_k, t_k) broadcast to the interior grid,
        flat.  The march calls it before the solve of step k, so the frame
        it reads is the one that solve uses.
        """
        if F is None:
            return None
        shape = (self.grid.n1, self.grid.n2)
        return lambda k: np.broadcast_to(np.asarray(F(self.frame(k), self.time(k)), dtype=float),
                                         shape).ravel()

    def _system(self, L):
        """I + theta dt L in the marcher's one system buffer, refilled from L's diagonals.

        The buffer is a DIA matrix with L's offsets; each call overwrites its
        data with theta dt L.data and adds 1 on the main diagonal, so a
        moving march allocates no system matrix after its first step.
        """
        if self._system_buffer is None:
            self._system_buffer = L.copy()
        system = self._system_buffer
        np.multiply(L.data, self.theta * self.dt, out=system.data)
        system.data[system.offsets == 0] += 1.0
        return system

    def _static_solver(self, L):
        """(solve, name) of the system of a static operator L: DST-I for A, else one LU."""
        weights = getattr(self.frames, "A_weights", None)
        if weights is None:
            lu = factorize(self._system(L))
            self._system_buffer = None   # the LU holds its own copy
            return lu.solve, "LU"
        return SineBasis(self.grid, *weights).shifted_solver(*weights, self.theta * self.dt), "DST-I"

    def solve(self, k, rhs, guess):
        """(v, L(t_k) v) for (I + theta dt L(t_k)) v = rhs; StepSolveError above SOLVE_TOL.

        ``guess`` starts the GMRES of a moving operator; a static one ignores it.
        """
        scale = np.linalg.norm(rhs)
        if scale == 0.0:
            return np.zeros_like(rhs), np.zeros_like(rhs)
        L = self.L(k)
        iterations = None
        if self.static:
            self._direct = self._direct or self._static_solver(L)
            direct, solver = self._direct
            v = direct(rhs)
        else:
            lam1, lam2 = stencil_weights(L, self.grid)
            if self._basis is None:
                self._basis = SineBasis(self.grid, lam1, lam2)
            precond = self._basis.shifted_solver(lam1, lam2, self.theta * self.dt)
            v, iterations = _gmres(self._system(L), precond, rhs, guess,
                                   KRYLOV_RTOL * scale, KRYLOV_MAXITER)
            solver = "GMRES"
        Lv = L @ v
        r = self.theta * self.dt * Lv   # then + v (addition commutes exactly) - rhs
        r += v
        r -= rhs
        resid = np.linalg.norm(r) / scale
        if not np.isfinite(resid) or resid > SOLVE_TOL:
            raise StepSolveError(k, self.time(k), resid, SOLVE_TOL, solver, iterations)
        return v, Lv

    def march(self, v0, nsteps, forcing=None, observers=(), stride=1, out=None):
        """Trajectory of ``nsteps`` steps from the flat datum ``v0`` at t0.

        Step k solves (I + theta dt L(t_{k+1})) v_{k+1} = (I - (1-theta) dt
        L(t_k)) v_k + dt (theta F(t_{k+1}) + (1-theta) F(t_k)).  ``forcing(k)``
        returns F(t_k), or None for no forcing; it is called once per step
        time, in order.  Each of ``observers`` is called as
        ``observer(k, frame, window, Lv)`` for k = 0..nsteps in order, with the
        frame of t_k while the march holds it and the window (v_{k-1}, v_k,
        v_{k+1}), None beyond either end.  ``Lv`` is L(t_k) v_k, formed once
        by step k-1's residual gate and reused for step k's right-hand side
        (None only at k = 0 under backward Euler).  The march keeps the rows
        of every ``stride``-th step; a step count whose step times or kept
        rows do not fit in memory raises ParameterError before the first step.
        With ``out`` the rows go into that array instead: row k is written
        after forcing(k + 1) and before the observers of step k, so both may
        read the rows of ``out`` from k + 1 on while the march overwrites them.
        """
        dt, theta = self.dt, self.theta
        if out is None:
            times, kept = _allocate(nsteps, stride, self.grid.ndof, self.t0, dt)
        else:
            times, kept = self.t0 + np.arange(nsteps + 1) * dt, out
        f_old = None if forcing is None else forcing(0)
        Lv = self.L(0) @ v0 if theta < 1.0 else None   # later steps reuse the gate's product
        prev, cur = None, v0
        for k in range(nsteps + 1):
            nxt = L_nxt = None
            if k < nsteps:
                rhs = cur - (1.0 - theta) * dt * Lv if theta < 1.0 else cur.copy()
                f_new = None if forcing is None else forcing(k + 1)
                if f_new is not None:
                    rhs += dt * (theta * f_new + (1.0 - theta) * f_old)
                nxt, L_nxt = self.solve(k + 1, rhs, guess=cur)
                f_old = f_new
            if k % stride == 0:
                kept[k // stride] = cur
            for observe in observers:
                observe(k, self.frame(k), (prev, cur, nxt), Lv)
            prev, cur, Lv = cur, nxt, L_nxt
        return Trajectory(times, kept, dt, self.grid, stride)


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


def solve_direct(chart, kappa, grid, v0, T, dt, theta=0.5, F_provider=None, observers=(),
                 stride=1):
    """March the pulled-back system with the time-dependent operator.

    ``F_provider`` is an optional forcing ``F(frame, t)``, called once per
    step time t_k, in order, with the StepFrame the march holds for t_k and
    with t_k itself (not ``frame.t``: a static problem's single frame carries
    t = 0); its value on the interior nodes is broadcast to the grid.
    ``diagnostics.manufactured_forcing`` builds the forcing of a
    manufactured solution; the homogeneous system of the model has F = 0.
    Returns the Trajectory of ceil(T/dt) uniform steps that keeps every
    ``stride``-th step; the Dirichlet boundary stays
    identically zero by construction.  ``observers`` are as in
    ``_ThetaMarcher.march``: each is called as ``observer(k, frame, window,
    Lv)`` with the StepFrame of t_k, the window (v_{k-1}, v_k, v_{k+1}) and
    the product L(t_k) v_k of step k-1's residual gate (None only at k = 0
    under backward Euler).
    """
    vals = _prepare_v0(v0, grid)
    marcher = _ThetaMarcher(dt, theta, StepFrames(chart, kappa, grid))
    nsteps = _step_count(T, dt)
    return marcher.march(vals, nsteps, marcher.frame_forcing(F_provider), observers, stride)


class _ZNorm:
    """``z_norm`` accumulated one step time at a time, as a march reaches them.

    ``add(k, window, Av)`` takes the three levels (v_{k-1}, v_k, v_{k+1}) of
    step time t_k = times[k] (None beyond either end) and A v_k (unused for
    a single row); ``value()`` is the norm once every step time is in.  Each
    step keeps two floats, so the norm of a march needs none of its rows.
    """

    def __init__(self, grid, times, dt):
        self.grid = grid
        self.times = times
        self.dt = dt
        self.sup = None
        self.dv_sq = np.empty(len(times))
        self.av_sq = np.empty(len(times))

    def add(self, k, window, Av):
        prev, v, nxt = window
        sup = math.exp(-float(self.times[k])) * field_l2(v, self.grid)
        self.sup = sup if self.sup is None else max(self.sup, sup)
        if prev is None and nxt is None:
            return
        if prev is None:
            dvdt = (nxt - v) / self.dt
        elif nxt is None:
            dvdt = (v - prev) / self.dt
        else:
            dvdt = (nxt - prev) / (2.0 * self.dt)
        self.dv_sq[k] = field_l2(dvdt, self.grid) ** 2
        self.av_sq[k] = field_l2(Av, self.grid) ** 2

    def value(self):
        nt = len(self.times)
        if nt == 1:
            return self.sup
        w = np.full(nt, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return float(self.sup + math.sqrt(np.dot(w, self.dv_sq)) + math.sqrt(np.dot(w, self.av_sq)))


def z_norm(traj, A, grid):
    """Discrete exponential-weighted graph norm of a trajectory that keeps every step.

    sup_t e^{-t} ||v(t)|| + ||dv/dt||_{L2(0,T;L2)} + ||A v||_{L2(0,T;L2)},
    with centered time differences (one-sided at the ends) and trapezoid
    quadrature in time: the accumulator a Picard stage's march feeds,
    replayed over stored rows.
    """
    fields = traj.fields
    nt = len(traj.times)
    if nt == 0:
        raise ParameterError("empty trajectory")
    norm = _ZNorm(grid, traj.times, traj.dt)
    for k in range(nt):
        window = (fields[k - 1] if k > 0 else None, fields[k],
                  fields[k + 1] if k + 1 < nt else None)
        norm.add(k, window, A @ fields[k] if nt > 1 else None)
    return norm.value()


class _StageNorms:
    """Observer of the march of stage m+1: z(v_{m+1}) and z(v_{m+1} - v_m).

    z(v_{m+1}) reads the gate's product Lv = A v_k of the stage march (A v_0
    is formed here only under backward Euler, where the march has none).
    The difference reads the march's levels minus ``rows``, the iterate v_m
    at the same step times, one step ahead of the march overwriting them:
    one subtraction and one product A (v_{m+1} - v_m) per step, and no
    difference trajectory.
    """

    def __init__(self, A, grid, times, dt, rows):
        self.A = A
        self.rows = rows
        self.z = _ZNorm(grid, times, dt)
        self.diff = _ZNorm(grid, times, dt)
        self._diffs = None   # (d_{k-1}, d_k), d = v_{m+1} - v_m

    def observe(self, k, frame, window, Lv):
        prev, v, nxt = window
        self.z.add(k, window, self.A @ v if Lv is None else Lv)
        # every iterate starts at the window's start state: d_0 = 0
        d_prev, d = self._diffs if k else (None, np.zeros_like(v))
        d_nxt = None if nxt is None else nxt - self.rows[k + 1]
        self.diff.add(k, (d_prev, d, d_nxt), self.A @ d)
        self._diffs = (d, d_nxt)


def _window_steps(T, dt, nsteps, condition_report):
    """Steps of a Picard window: W = min(T, T_star_24, T_star_25) in whole steps, at least one.

    Without a smallness report, or where neither horizon is below T, the
    window is the whole march.
    """
    if condition_report is None:
        return nsteps
    W = min(T, condition_report.T_star_24, condition_report.T_star_25)
    if not W < T:
        return nsteps
    return min(nsteps, max(1, int(W / dt + 1e-12)))


class _PicardWindows:
    """The Picard iteration, window by window, fed one step time at a time.

    ``add(k, L, row)`` hands over L(t_k) and, when a direct march runs
    alongside, its row v_k; ``observe`` is the same as an observer of that
    march.  At the last step time of a window the stages iterate on it from
    the previous window's Picard end state, every ``stride``-th row of the
    final iterate goes into ``kept``, and the window's operators are dropped
    and then its direct rows, after they entered the running maxima of the
    agreement.  Only the shared step time carries over to the next window.
    """

    def __init__(self, stage, times, window, start, tol, max_iter, kept, stride,
                 condition_report):
        self.stage = stage
        self.A = stage.frames.L
        self.times = times
        self.window = window
        self.start = start          # the Picard state at the window's first step time
        self.first = 0              # the window's first step index
        self.count = 0              # windows done
        self.tol = tol
        self.max_iter = max_iter
        self.kept = kept
        self.stride = stride
        self.condition_report = condition_report
        self.operators = []         # L(t_k) of the window
        self.rows = []              # direct rows v_k of the window
        self.err = self.scale = np.float64(0.0)
        self.history = PicardHistory(converged=True)

    def observe(self, k, frame, window, Lv):
        self.add(k, frame.L, window[1])

    def add(self, k, L, row=None):
        self.operators.append(L)
        if row is not None:
            self.rows.append(row)
        if k == self.first + self.window < len(self.times) - 1:
            self._iterate(k)

    def _iterate(self, last):
        first, stage, A, hist = self.first, self.stage, self.A, self.history
        nsteps = last - first
        times = self.times[first:last + 1]
        number = self.count
        # the iterate's rows: v_1, then each stage m+1 overwrites v_m with
        # v_{m+1} a row behind the reads of its forcing and observer
        v = stage.march(self.start, nsteps).fields
        prev_diff = None
        for m in range(1, self.max_iter + 1):
            # the stage forcing A v_m(t_k) - L(t_k) v_m(t_k)
            norms = _StageNorms(A, stage.grid, times, stage.dt, v)
            stage.march(self.start, nsteps,
                        lambda j: A @ v[j] - self.operators[j] @ v[j],
                        observers=(norms.observe,), out=v)
            diff = norms.diff.value()
            hist.z_norms.append(norms.z.value())
            hist.diff_norms.append(diff)
            hist.windows.append(number)
            if prev_diff is not None:
                hist.ratios.append(diff / prev_diff if prev_diff > 0 else 0.0)
            hist.iterations = max(hist.iterations, m)
            if diff <= self.tol:
                break
            prev_diff = diff
        else:
            hist.converged = False
            if self.max_iter > 1 and hist.ratios[-1] >= 1.0:
                hint = ""
                if self.condition_report is not None:
                    hint = (f" (smallness report: condition_thm26 = "
                            f"{self.condition_report.condition_thm26})")
                raise PicardDivergenceError(
                    f"no contraction after {self.max_iter} iterations on window {number} "
                    f"(steps {first} to {last}), last ratio {hist.ratios[-1]:.3f} >= 1; "
                    f"check the smallness conditions{hint}")
        self.operators = self.operators[-1:]
        for k in range(first, last + 1):
            if k % self.stride == 0:
                self.kept[k // self.stride] = v[k - first]
        for row, u in zip(v, self.rows):
            self.err = max(self.err, np.max(np.abs(row - u)))
            self.scale = max(self.scale, np.max(np.abs(u)))
        self.rows = self.rows[-1:]
        self.start = v[-1].copy()
        self.first = last
        self.count += 1

    def result(self):
        """Iterate the last window, once every step time is in; returns the history.

        A direct march has returned by then, so its step frames and system
        buffer are gone.  The history's ``agreement`` is set when direct rows
        came in.
        """
        self._iterate(len(self.times) - 1)
        if self.rows:
            self.history.agreement = float(self.err / self.scale)
        return self.history


def solve_picard(chart, kappa, grid, lambda1, lambda2, v0, T, dt,
                 tol=1e-8, max_iter=20, theta=0.5,
                 condition_report=None, direct_observers=None, stride=1):
    """Fixed-point iteration with the constant comparison operator, on time windows.

    The system is homogeneous: stage one solves dv/dt + A v = 0, stage m+1
    marches A with the forcing A v_m(t_k) - L(t_k) v_m(t_k) = -B(t_k) v_m(t_k).
    The horizon is cut into windows of ``min(T, T_star_24, T_star_25)`` of
    ``condition_report`` in whole steps (at least one; the whole horizon
    without a report), and each window is iterated from the previous
    window's Picard end state until the z-norm of a consecutive difference
    drops below ``tol``.  Raises PicardDivergenceError when max_iter is hit on
    a window while its last ratio is at or above one (the smallness
    condition is the quantity to check then).

    With ``direct_observers`` (a sequence, possibly empty) the direct march
    runs alongside: it hands each window its L(t_k), calls the observers, and
    the history's ``agreement`` is max_k |v_k - u_k| / max_k |u_k| against its
    rows u_k.  Otherwise L(t_k) is read from step frames built here.  Returns
    (Trajectory keeping every ``stride``-th step of the Picard solution,
    PicardHistory).
    """
    if tol <= 0.0:
        raise ParameterError("tol must be positive")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be at least 1, got {max_iter}")
    vals = _prepare_v0(v0, grid)
    stage = _ThetaMarcher(dt, theta, _ComparisonStage(grid, lambda1, lambda2))
    nsteps = _step_count(T, dt)
    times, kept = _allocate(nsteps, stride, grid.ndof, 0.0, dt)
    windows = _PicardWindows(stage, times, _window_steps(T, dt, nsteps, condition_report),
                             vals, tol, max_iter, kept, stride, condition_report)
    if direct_observers is None:
        frames = StepFrames(chart, kappa, grid)
        for k in range(nsteps + 1):
            windows.add(k, frames.frame(stage.time(k)).L)
    else:
        solve_direct(chart, kappa, grid, vals, T, dt, theta=theta,
                     observers=(*direct_observers, windows.observe), stride=nsteps)
    return Trajectory(times, kept, dt, grid, stride), windows.result()
