"""Diffusivity presets, coefficient sup-norms and the smallness report.

Both diffusivity presets are one closed form, kappa = base + amp sin(pi X1)
sin(pi X2), time-independent: ``constant`` is base = value with no sine term
and ``sinusoidal`` reads base and amp (``DIFFUSION_PARAMS``).  One formula
gives kappa and its X-partials and one sympy builder its symbolic form.

The comparison operator A needs anisotropy weights lam1, lam2 sitting below
kappa*g^11 and kappa*g^22 on the whole space-time scan; the size of the
perturbation B = L - A is then controlled by five sup-norm quantities M1..M5
of the coefficients, read from one pass over the scan times (``_Scan``).
``smallness_report`` bundles the scan, probe-based estimates of the
elliptic-regularity constant C_sharp and the maximal L2-regularity constant
C_A, the three smallness conditions and the two existence-horizon formulas;
its C_star, the largest norm of the lower-order perturbation over the scan,
is estimated only at the scan times whose Schur upper bound could decide it.
The estimators take A = assemble_A(grid, lambda1, lambda2) by its grid and
weights and work in its DST-I sine basis (``operator.SineBasis``), mapped
into and out of by products with the sine matrix of each axis; the C_A
quotient sums each piece of constant forcing in closed form.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AssumptionViolationError, ParameterError
from .geometry import metric_fields, phi_term, preset_params, volume_divergence
from .operator import (
    SineBasis,
    _on_mesh,
    assemble_A,
    coefficient_fields,
    field_l2,
    gradient_norm,
    hessian_seminorm,
    lower_order_buffers,
    mesh_coefficients,
    operator_norm_est,
    refill_lower_order_parts,
    schur_bound,
    static_problem,
)

SMALLNESS_THRESHOLD = 1.0 / (8.0 * math.sqrt(2.0))

# kappa = base + amp phi, phi = sin(pi X1) sin(pi X2): a preset is the
# parameters it reads, with their defaults; "value" is the base of the
# constant preset, which has no sine term (amp = 0)
DIFFUSION_PARAMS = {
    "constant": {"value": 1.0},
    "sinusoidal": {"base": 1.0, "amp": 0.2},
}
DIFFUSION_PRESETS = tuple(DIFFUSION_PARAMS)


@dataclass(frozen=True, eq=False)
class Diffusion:
    """Pulled-back diffusivity kappa(X, t) with its X-partials ``d1`` and ``d2``.

    ``value``, ``d1`` and ``d2`` are evaluators ``(x1, x2, t) -> array``,
    broadcastable with x1 and x2; all three are required.
    """

    name: str
    value: Callable
    d1: Callable
    d2: Callable
    time_independent: bool = False
    sym_builder: Optional[Callable] = None


def make_diffusion(name, **params):
    """Build a diffusivity preset by name; see DIFFUSION_PARAMS for the catalogue.

    Without a sine term (amp = 0) kappa is filled with base and its partials
    are zero arrays; no sine is evaluated.
    """
    params = preset_params("diffusion", DIFFUSION_PARAMS, name, params)
    base = float(params.get("base", params.get("value")))
    amp = float(params.get("amp", 0.0))
    term, d1, d2 = (phi_term(lambda t: amp, index) for index in ("", "1", "2"))
    zero = lambda x1, x2, t: np.zeros(np.broadcast(np.asarray(x1), np.asarray(x2)).shape)

    def value(x1, x2, t):
        x1 = np.asarray(x1, dtype=float)
        return base + term(x1, np.asarray(x2), t) if amp else np.full_like(x1, base)

    def sym(X1, X2, t):
        import sympy as sp
        return sp.Float(base) + amp * sp.sin(sp.pi * X1) * sp.sin(sp.pi * X2)

    return Diffusion(name, value, d1=d1 if amp else zero, d2=d2 if amp else zero,
                     time_independent=True, sym_builder=sym)


# ---------------------------------------------------------------------------
# the scan: lambda selection and the M quantities


class _Scan:
    """One pass over ``times`` and each later ``add``: the metric (with its
    derivatives) and kappa once per time, keeping only scalars.  M1 reads the
    weights through max |x - lam| over the mesh (x = kappa*g11/G, kappa*g22/G),
    which monotone rounding makes max(x_max - lam, lam - x_min) bit for bit.
    """

    def __init__(self, chart, kappa, grid, times):
        self.chart, self.kappa, self.grid = chart, kappa, grid
        self.kappa_min, self.kappa_max = math.inf, -math.inf
        self.minima = dict.fromkeys(("min_kg11", "min_kg12", "min_kg22"), math.inf)
        self.M = np.zeros(5)   # M2..M5; M1 is formed by m_quantities
        self.m1_extremes = []
        for t in times:
            self.add(t)

    def add(self, t):
        """Fold in the scalars of time t; returns its (MetricFields, kappa values)."""
        chart, kappa, grid, M = self.chart, self.kappa, self.grid, self.M
        X1, X2 = grid.full_mesh(sparse=True)
        mf = metric_fields(chart, X1, X2, t, want_derivs=True)
        k = _on_mesh(kappa, X1, X2, t)
        G = mf.G
        kmin, kmax = float(k.min()), float(k.max())
        if not (kmin > -math.inf and kmax < math.inf):   # nan fails too
            raise AssumptionViolationError(
                f"kappa must be finite; minimum {kmin:.6g}, maximum {kmax:.6g} at t = {t:.6g}")
        self.kappa_min = min(self.kappa_min, kmin)
        self.kappa_max = max(self.kappa_max, kmax)
        for key, ginv in zip(self.minima, (mf.ginv11, mf.ginv12, mf.ginv22)):
            self.minima[key] = min(self.minima[key], float((k * ginv).min()))

        x_a = k * mf.g11 / G
        x_b = k * mf.g22 / G
        self.m1_extremes.append((x_a.min(), x_a.max(), x_b.min(), x_b.max(),
                                 np.abs(k * mf.g12 / G).max()))

        dg = (mf.dg11_d1, mf.dg11_d2, mf.dg12_d1, mf.dg12_d2, mf.dg22_d1, mf.dg22_d2)
        c1, c2 = volume_divergence(mf.ginv11, mf.ginv12, mf.ginv22, dg)
        M[1] = max(M[1], float(np.abs(k * c1).max()))
        M[2] = max(M[2], float(np.abs(k * c2).max()))

        dk1 = kappa.d1(X1, X2, t)
        dk2 = kappa.d2(X1, X2, t)
        m4 = np.abs(mf.g22 / G * dk1 - mf.g12 / G * dk2).max() \
            + np.abs(mf.g11 / G * dk1 - mf.g12 / G * dk2).max()
        M[3] = max(M[3], float(m4))

        M[4] = max(M[4], float(np.abs(0.5 * mf.dGdt / G).max()))
        return mf, k

    def weights(self, margin):
        """(lambda1, lambda2) a relative ``margin`` below the floors; kappa must be positive."""
        if self.kappa_min <= 0.0:
            raise AssumptionViolationError(
                f"kappa must be strictly positive; scan minimum {self.kappa_min:.6g}")
        if not 0.0 <= margin < 1.0:
            raise ParameterError("margin must lie in [0, 1)")
        minima = self.minima
        lam1 = (1.0 - margin) * minima["min_kg11"]
        lam2 = (1.0 - margin) * minima["min_kg22"]
        if lam1 <= 0.0 or lam2 <= 0.0:
            raise AssumptionViolationError(
                f"non-positive coefficient floor: min kappa*g^11 = {minima['min_kg11']:.6g}, "
                f"min kappa*g^22 = {minima['min_kg22']:.6g}"
            )
        return lam1, lam2

    def m_quantities(self, lambda1, lambda2):
        M = self.M.copy()
        m1_factor2 = 0.0
        for lo_a, hi_a, lo_b, hi_b, term_m in self.m1_extremes:
            term_a = max(hi_a - lambda2, lambda2 - lo_a)
            term_b = max(hi_b - lambda1, lambda1 - lo_b)
            M[0] = max(M[0], term_a + term_b + term_m)
            m1_factor2 = max(m1_factor2, term_a + term_b + 2.0 * term_m)
        return M, m1_factor2


def lambda_select(chart, kappa, grid, times, margin=0.05):
    """Anisotropy weights below the scan minima of kappa*g^11 and kappa*g^22.

    The second weight reads the diagonal component g^22 (the off-diagonal
    g^12 can vanish identically and cannot sit above a positive weight).
    """
    return _Scan(chart, kappa, grid, times).weights(margin)


def m_quantities(chart, kappa, lambda1, lambda2, grid, times):
    """Sup-norm coefficient quantities M1..M5 over the space-time scan.

    M1 pairs kappa*g11/G with lam2 and kappa*g22/G with lam1 plus the mixed
    term; M2/M3 are the sups of kappa (1/R) d_a(R g^ab), R = sqrt(G), for
    b = 1, 2 (``geometry.volume_divergence``); M4 the
    diffusivity-gradient combinations; M5 the dilation rate.  Returns
    (M, m1_mixed2), where m1_mixed2 is M1 with the mixed term doubled, the
    constant the second-order remainder bound actually uses; the smallness
    report carries both.
    """
    return _Scan(chart, kappa, grid, times).m_quantities(lambda1, lambda2)


# ---------------------------------------------------------------------------
# constant estimators


def estimate_C_sharp(grid, lambda1, lambda2, probes, seed=42):
    """Probe-based lower bound for the elliptic-regularity constant.

    Maximizes (||f|| + ||grad f|| + ||hess f||) / ||A f|| over random fields
    pushed through A^{-1} (so they live in the discrete operator domain) and
    over the lowest discrete eigenvector sin(pi i/(n1+1)) sin(pi j/(n2+1)).
    A = assemble_A(grid, lambda1, lambda2) (ParameterError unless the weights
    are positive); A^{-1} is a division by the eigenvalues in its sine basis.
    """
    if probes < 1:
        raise ParameterError("need at least one probe")
    A = assemble_A(grid, lambda1, lambda2)
    basis = SineBasis(grid, lambda1, lambda2)
    rng = np.random.default_rng(seed)

    def ratio(f):
        af = A @ f
        denom = field_l2(af, grid)
        if denom == 0.0:
            return 0.0
        num = field_l2(f, grid) + gradient_norm(f, grid) + hessian_seminorm(f, grid)
        return num / denom

    best = 0.0
    for _ in range(probes):
        g = rng.standard_normal(grid.ndof)
        best = max(best, ratio(basis.inverse(basis.forward(g) / basis.eigenvalues)))

    s1 = np.sin(np.pi * np.arange(1, grid.n1 + 1) / (grid.n1 + 1))
    s2 = np.sin(np.pi * np.arange(1, grid.n2 + 1) / (grid.n2 + 1))
    best = max(best, ratio(np.outer(s1, s2).ravel()))
    return float(best)


# the longest piece of constant forcing that ``_spectral_cn_ratio`` sums in one
# go; longer pieces are cut, which bounds its power tables at this many rows
_MAX_PIECE = 64


def _spectral_cn_ratio(mu, fhat, rows, dt):
    """Crank-Nicolson maximal-regularity quotients of a batch of forcings, mode by mode.

    ``fhat[..., r, :, :]`` holds the mode coefficients of forcing row r (the
    leading axes are a batch).  Step k, from t_k to t_{k+1}, reads the forcing
    fbar = (fhat[rows[k]] + fhat[rows[k+1]])/2, and each mode marches
    vhat <- ((1 - dt mu/2) vhat + dt fbar)/(1 + dt mu/2) from 0.  Returns
    sqrt(sum ||dv/dt||^2 + ||A vbar||^2) / sqrt(sum ||fbar||^2) per batch
    entry, nan where the forcing vanishes.  The basis is orthonormal, so the
    norms are taken on the coefficients; their common weight dt h1 h2 cancels.

    Consecutive steps with the same pair of rows form a piece of constant
    forcing g, on which the march is geometric: from v_0 = v_s, its levels
    are v_j = v* + a^j (v_s - v*), where v* = g/mu and
    a = (1 - dt mu/2)/(1 + dt mu/2).  Hence, for step j of a piece of m steps,

        dv_j = a^j (a - 1)/dt (v_s - v*),    A vbar_j = g + a^j mu (1 + a)/2 (v_s - v*),

    whose sums of squares over the piece are dot products with the power sums
    S1[m] = sum_{i<m} a^i and S2[m] = sum_{i<m} a^{2i}, tabulated once per
    call up to the longest piece (pieces are cut at ``_MAX_PIECE`` steps).
    The piece ends at v_s + (a - 1) S1[m] (v_s - v*), with
    a - 1 = -dt mu/(1 + dt mu/2) formed without cancellation.  The one loop
    left runs over the pieces; a forcing that changes every step makes
    one-step pieces.
    """
    mu = mu.ravel()
    fhat = fhat.reshape(fhat.shape[:-2] + (-1,))
    pieces = []   # [row pair, steps]
    for pair in zip(rows[:-1], rows[1:]):
        if pieces and pieces[-1][0] == pair and pieces[-1][1] < _MAX_PIECE:
            pieces[-1][1] += 1
        else:
            pieces.append([pair, 1])

    impl = 1.0 + 0.5 * dt * mu
    a = (1.0 - 0.5 * dt * mu) / impl
    a_m1 = -(dt * mu) / impl
    powers = np.empty((max((m for _, m in pieces), default=1), mu.size))
    powers[0] = 1.0
    for i in range(1, len(powers)):
        np.multiply(powers[i - 1], a, out=powers[i])
    S1 = np.cumsum(powers, axis=0)   # S1[m - 1] = sum_{i<m} a^i
    S2 = np.cumsum(powers * powers, axis=0)
    slope = a_m1 / dt                # dv_j = a^j slope (v_s - v*)
    avbar = mu * (0.5 * (1.0 + a))   # A vbar_j = g + a^j avbar (v_s - v*)

    v = np.zeros(fhat.shape[:-2] + mu.shape)
    num2 = np.zeros(v.shape[:-1])
    den2 = np.zeros(v.shape[:-1])
    for (p, q), m in pieces:
        g = fhat[..., p, :] if p == q else 0.5 * (fhat[..., p, :] + fhat[..., q, :])
        d = v - g / mu
        dv = slope * d
        av = avbar * d
        gg = m * np.einsum("...i,...i", g, g)
        num2 += (dv * dv + av * av) @ S2[m - 1] + 2.0 * ((g * av) @ S1[m - 1]) + gg
        den2 += gg
        v += (a_m1 * S1[m - 1]) * d
    with np.errstate(invalid="ignore"):   # 0/0 where the forcing vanishes
        return np.sqrt(num2 / den2)


def maximal_regularity_ratio(grid, lambda1, lambda2, forcing_steps, dt):
    """Discrete maximal-regularity quotient for one forcing history.

    Marches dV/dt + A V = F from V(0) = 0 by Crank-Nicolson with the forcing
    sampled at step endpoints (array of shape (nsteps+1, ndof)) and returns
    sqrt(||dV/dt||^2 + ||A Vbar||^2) / ||Fbar||, all norms in L2(0,T; L2(U)),
    or None when the forcing vanishes.  For the selfadjoint non-negative A
    this quotient never exceeds 1.  A = assemble_A(grid, lambda1, lambda2)
    (ParameterError unless the weights are positive); the march runs in its
    sine basis (``_spectral_cn_ratio``), one step per piece.  A dt that is
    not positive and finite, or forcing rows that are not ndof wide, raise
    ParameterError.
    """
    if lambda1 <= 0 or lambda2 <= 0:
        raise ParameterError(f"lambda coefficients must be positive, got ({lambda1}, {lambda2})")
    if not 0.0 < dt < math.inf:
        raise ParameterError(f"dt must be positive and finite, got {dt!r}")
    F = np.asarray(forcing_steps, dtype=float)
    if F.ndim != 2 or F.shape[1] != grid.ndof:
        raise ParameterError(f"forcing_steps must have shape (nsteps+1, {grid.ndof}), "
                             f"got {F.shape}")
    basis = SineBasis(grid, lambda1, lambda2)
    ratio = float(_spectral_cn_ratio(basis.eigenvalues, basis.forward(F), range(F.shape[0]), dt))
    return None if math.isnan(ratio) else ratio


def _require_count(name, value):
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ParameterError(f"{name} must be a positive integer, got {value!r}")


def estimate_C_A(grid, lambda1, lambda2, T, probes, seed=42, nsteps=200, pieces=8):
    """Empirical maximal L2-regularity constant from random forcings.

    Forcing histories are piecewise constant in time over ``pieces``
    subintervals of the ``nsteps`` steps; a step across two subintervals
    reads their mean.  All ``probes`` histories are drawn at once (the draws
    of one probe after another) and march as one batch, a piece at a time
    (``_spectral_cn_ratio``); a probe whose forcing vanishes is skipped.  The
    theoretical value for a non-negative selfadjoint generator is 1, which
    the condition checks use; this estimator is the numerical cross-check.
    A is as in ``maximal_regularity_ratio``.  A horizon T that is not
    positive and finite, or ``probes``, ``nsteps`` or ``pieces`` below 1,
    raise ParameterError.
    """
    _require_count("probes", probes)
    if not 0.0 < T < math.inf:
        raise ParameterError(f"horizon must be positive and finite, got {T!r}")
    _require_count("nsteps", nsteps)
    _require_count("pieces", pieces)
    if lambda1 <= 0 or lambda2 <= 0:
        raise ParameterError(f"lambda coefficients must be positive, got ({lambda1}, {lambda2})")
    basis = SineBasis(grid, lambda1, lambda2)
    blocks = np.random.default_rng(seed).standard_normal((probes, pieces, grid.ndof))
    k_idx = np.minimum((np.arange(nsteps + 1) * pieces) // nsteps, pieces - 1)
    ratios = _spectral_cn_ratio(basis.eigenvalues, basis.forward(blocks), k_idx.tolist(),
                                T / nsteps)
    return float(np.fmax.reduce(ratios, initial=0.0))


# ---------------------------------------------------------------------------
# the smallness report


@dataclass
class ConditionReport:
    """Estimated constants, smallness conditions and existence horizons."""

    lambda1: float
    lambda2: float
    M: np.ndarray
    m1_mixed2: float
    C_sharp_est: float
    C_A_est: float
    C_A_used: float
    C_star_est: float
    condition_thm24: bool
    condition_thm25: bool
    condition_thm26: bool
    T_star_24: float
    T_star_25: float
    min_kg11: float
    min_kg12: float
    min_kg22: float
    kappa_min: float
    kappa_max: float
    horizon: float

    def as_keyvalues(self):
        items = [
            ("lambda1", self.lambda1), ("lambda2", self.lambda2),
            ("M1", self.M[0]), ("M2", self.M[1]), ("M3", self.M[2]),
            ("M4", self.M[3]), ("M5", self.M[4]),
            ("M1_mixed_doubled", self.m1_mixed2),
            ("C_sharp_est", self.C_sharp_est),
            ("C_A_est", self.C_A_est), ("C_A_used", self.C_A_used),
            ("C_star_est", self.C_star_est),
            ("condition_thm24", self.condition_thm24),
            ("condition_thm25", self.condition_thm25),
            ("condition_thm26", self.condition_thm26),
            ("T_star_24", self.T_star_24), ("T_star_25", self.T_star_25),
            ("min_kg11", self.min_kg11), ("min_kg12", self.min_kg12),
            ("min_kg22", self.min_kg22),
            ("kappa_min", self.kappa_min), ("kappa_max", self.kappa_max),
            ("horizon", self.horizon),
        ]
        return items


def horizon_thm24(C_star, C_A, T):
    """Existence horizon paired with the first smallness condition:
    T capped by log(1 + 1/(16 C_star (C_A+1)^2)) / 2."""
    if C_star <= 0.0:
        return T
    return min(T, 0.5 * math.log1p(1.0 / (16.0 * C_star * (C_A + 1.0) ** 2)))


def horizon_thm25(C_sharp, M5, C_A, T):
    """Existence horizon paired with the second smallness condition:
    T capped by log(1 + 1/(16 C_sharp^2 M5^2 (C_A+1)^2)) / 2."""
    q = 16.0 * (C_sharp ** 2) * (M5 ** 2) * (C_A + 1.0) ** 2
    if q <= 0.0:
        return T
    return min(T, 0.5 * math.log1p(1.0 / q))


def _scan_bound(parts, cf):
    """Schur bound of the C_star sum of one scan time's coefficients ``cf``.

    It is sum_{B2..B4} ``schur_bound`` of ``parts``, the B2..B4 of ``cf``,
    + max |d0|: at least the sum of the exact norms, which the Lanczos
    estimates of ``smallness_report`` exceed by at most their factor
    1 + 1e-12.
    """
    return sum(schur_bound(part) for part in parts.values()) + _b5_norm(cf)


def _b5_norm(cf):
    """The exact norm max |d0| of the diagonal B5 = diag(d0)."""
    return float(np.abs(cf["d0"]).max())


def smallness_report(chart, kappa, grid, times, margin=0.05, probes=16, seed=42):
    """Evaluate the three smallness hypotheses with estimated constants.

    The conditions and horizons use the theoretical C_A = 1.  The empirical
    C_star is the discrete constant of the first-order/zeroth-order
    remainder: the Lanczos norm estimates (``operator_norm_est``, lower
    bounds) of the B2..B4 parts (``lower_order_parts``) plus the exact norm
    max |d0| of the diagonal B5, which is not assembled, maximized over the
    scanned times.

    That maximum is found by bound and prune.  The scan pass forms, beside
    the ``_Scan`` scalars, each time's Schur bound (``_scan_bound``) from
    its B-parts, keeping the coefficients of the largest bound so far.  The
    B-parts of every time, scanned or estimated, are written into one set
    of buffers (``refill_lower_order_parts``).  The weights are then
    selected, so kappa <= 0 raises before any norm estimate (a non-finite
    kappa or a degenerate chart raises during the scan).  The times are
    then visited in descending bound order, the first from the coefficients
    kept and each later one from ``coefficient_fields`` (the same bits),
    until a bound times 1 + 1e-12 is at most the maximum so far: a Lanczos
    estimate exceeds the exact norm by at most that factor and the exact
    norm never exceeds the bound, so no skipped time could raise the
    maximum, and ``max`` does not depend on the order of its arguments.
    C_star keeps the bits of the maximum over every scan time.  A static problem
    (``operator.static_problem``) has the same coefficients at every t and
    scans its first time only.
    """
    times = list(times)
    if not times:
        raise ParameterError("empty time sample")
    if static_problem(chart, kappa):
        times = times[:1]
    scan = _Scan(chart, kappa, grid, ())   # fed below, sharing each time with its bound
    buffers = lower_order_buffers(grid)   # the B-parts of one time after another
    bounds, kept = [], {}   # kept: {index: coefficients} of the largest bound so far
    for i, t in enumerate(times):
        cf = mesh_coefficients(*scan.add(t))
        bounds.append(_scan_bound(refill_lower_order_parts(buffers, grid, cf), cf))
        if bounds[i] > max(bounds[:i], default=-math.inf):
            kept = {i: cf}
    lam1, lam2 = scan.weights(margin)
    M, m1_mixed2 = scan.m_quantities(lam1, lam2)

    c_star = 0.0
    for i in sorted(range(len(times)), key=bounds.__getitem__, reverse=True):
        if bounds[i] * (1.0 + 1e-12) <= c_star:
            break
        cf = kept.pop(i) if i in kept else coefficient_fields(chart, kappa, grid, times[i])
        c_star = max(c_star, sum(operator_norm_est(part, seed=seed) for part in
                                 refill_lower_order_parts(buffers, grid, cf).values())
                     + _b5_norm(cf))

    c_sharp = estimate_C_sharp(grid, lam1, lam2, probes, seed=seed)
    c_a_est = estimate_C_A(grid, lam1, lam2, min(chart.horizon, 1.0), max(1, probes // 4),
                           seed=seed)

    ca = 1.0
    lhs24 = c_sharp * M[0] * (ca + 1.0)
    lhs25 = c_sharp * M[:4].sum() * (ca + 1.0)
    lhs26 = c_sharp * M.sum() * (ca + 1.0)

    return ConditionReport(
        lambda1=lam1, lambda2=lam2, M=M, m1_mixed2=m1_mixed2,
        C_sharp_est=c_sharp, C_A_est=c_a_est, C_A_used=ca, C_star_est=c_star,
        condition_thm24=bool(lhs24 <= SMALLNESS_THRESHOLD),
        condition_thm25=bool(lhs25 <= SMALLNESS_THRESHOLD),
        condition_thm26=bool(lhs26 <= SMALLNESS_THRESHOLD),
        T_star_24=horizon_thm24(c_star, ca, chart.horizon),
        T_star_25=horizon_thm25(c_sharp, M[4], ca, chart.horizon),
        **scan.minima, kappa_min=scan.kappa_min, kappa_max=scan.kappa_max,
        horizon=chart.horizon,
    )
