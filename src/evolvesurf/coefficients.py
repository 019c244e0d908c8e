"""Diffusivity presets, coefficient sup-norms and the smallness report.

Both diffusivity presets are one closed form, kappa = base + amp sin(pi X1)
sin(pi X2), time-independent: ``constant`` is base = value with no sine term
and ``sinusoidal`` reads base and amp (``DIFFUSION_PARAMS``).  One formula
gives kappa and its X-partials and one sympy builder its symbolic form.

The comparison operator A needs anisotropy weights lam1, lam2 sitting below
kappa*g^11 and kappa*g^22 on the whole space-time scan; the size of the
perturbation B = L - A is then controlled by five sup-norm quantities M1..M5
of the coefficients.  ``smallness_report`` bundles the scan, probe-based
estimates of the elliptic-regularity constant C_sharp and the maximal
L2-regularity constant C_A, the three smallness conditions and the two
existence-horizon formulas.  The estimators take A = assemble_A(grid,
lambda1, lambda2) by its grid and weights and work in its DST-I sine basis
(``operator.SineBasis``), which maps into and out of the modes by dense
products with the sine matrix of each axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import AssumptionViolationError, ParameterError
from .geometry import _fd1, metric_fields, phi_term, preset_params
from .operator import (
    SineBasis,
    _on_mesh,
    assemble_A,
    assemble_B_parts,
    field_l2,
    gradient_norm,
    hessian_seminorm,
    operator_norm_est,
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
    """Pulled-back diffusivity kappa(X, t) with optional analytic X-partials."""

    name: str
    value: Callable
    d1: Optional[Callable] = None
    d2: Optional[Callable] = None
    time_independent: bool = False
    sym_builder: Optional[Callable] = None

    def partial(self, key, domain, h_fd):
        """Analytic partial "d1" or "d2" when supplied, FD fallback otherwise."""
        which = ("d1", "d2").index(key)
        analytic = (self.d1, self.d2)[which]
        if analytic is not None:
            return analytic
        return _fd1(self.value, which, *domain[2 * which:2 * which + 2], h_fd)


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


def diffusion_bounds(kappa, grid, times):
    """Scan kappa over the closure grid; enforce the positivity assumption."""
    X1, X2 = grid.full_mesh(sparse=True)
    kmin, kmax = math.inf, -math.inf
    for t in times:
        k = _on_mesh(kappa, X1, X2, t)
        kmin = min(kmin, float(k.min()))
        kmax = max(kmax, float(k.max()))
    if kmin <= 0.0:
        raise AssumptionViolationError(f"kappa must be strictly positive; scan minimum {kmin:.6g}")
    return kmin, kmax


# ---------------------------------------------------------------------------
# lambda selection and the M quantities


def coefficient_minima(chart, kappa, grid, times):
    """Raw scan minima of kappa*g^11, kappa*g^12 and kappa*g^22."""
    X1, X2 = grid.full_mesh(sparse=True)
    m11 = m12 = m22 = math.inf
    for t in times:
        mf = metric_fields(chart, X1, X2, t, h_fd=grid.h_fd, want_dGdt=False)
        k = _on_mesh(kappa, X1, X2, t)
        m11 = min(m11, float((k * mf.ginv11).min()))
        m12 = min(m12, float((k * mf.ginv12).min()))
        m22 = min(m22, float((k * mf.ginv22).min()))
    return {"min_kg11": m11, "min_kg12": m12, "min_kg22": m22}


def lambda_select(chart, kappa, grid, times, margin=0.05):
    """Anisotropy weights below the scan minima of kappa*g^11 and kappa*g^22.

    The second weight reads the diagonal component g^22 (the off-diagonal
    g^12 can vanish identically and cannot sit above a positive weight).
    """
    diffusion_bounds(kappa, grid, times)
    return _weights_below(coefficient_minima(chart, kappa, grid, times), margin)


def _weights_below(minima, margin):
    """(lambda1, lambda2) a relative ``margin`` below the coefficient_minima."""
    if not 0.0 <= margin < 1.0:
        raise ParameterError("margin must lie in [0, 1)")
    lam1 = (1.0 - margin) * minima["min_kg11"]
    lam2 = (1.0 - margin) * minima["min_kg22"]
    if lam1 <= 0.0 or lam2 <= 0.0:
        raise AssumptionViolationError(
            f"non-positive coefficient floor: min kappa*g^11 = {minima['min_kg11']:.6g}, "
            f"min kappa*g^22 = {minima['min_kg22']:.6g}"
        )
    return lam1, lam2


def m_quantities(chart, kappa, lambda1, lambda2, grid, times):
    """Sup-norm coefficient quantities M1..M5 over the space-time scan.

    M1 pairs kappa*g11/G with lam2 and kappa*g22/G with lam1 plus the mixed
    term; M2/M3 are the metric first-derivative combinations; M4 the
    diffusivity-gradient combinations; M5 the dilation rate.  Returns
    (M, m1_mixed2), where m1_mixed2 is M1 with the mixed term doubled, the
    constant the second-order remainder bound actually uses; the smallness
    report carries both.
    """
    X1, X2 = grid.full_mesh(sparse=True)
    shape = (grid.n1 + 2, grid.n2 + 2)
    M = np.zeros(5)
    m1_factor2 = 0.0
    k1 = kappa.partial("d1", chart.domain, grid.h_fd)
    k2 = kappa.partial("d2", chart.domain, grid.h_fd)
    for t in times:
        mf = metric_fields(chart, X1, X2, t, h_fd=grid.h_fd, want_derivs=True)
        k = _on_mesh(kappa, X1, X2, t)
        G = mf.G
        term_a = np.abs(k * mf.g11 / G - lambda2).max()
        term_b = np.abs(k * mf.g22 / G - lambda1).max()
        term_m = np.abs(k * mf.g12 / G).max()
        M[0] = max(M[0], term_a + term_b + term_m)
        m1_factor2 = max(m1_factor2, term_a + term_b + 2.0 * term_m)

        m2 = (k / G) * (mf.dg22_d1 - mf.dg12_d2) \
            - (k / (2.0 * G ** 2)) * (mf.g22 * mf.dG_d1 - mf.g12 * mf.dG_d2)
        M[1] = max(M[1], float(np.abs(m2).max()))

        m3 = (k / G) * (mf.dg11_d2 - mf.dg12_d1) \
            - (k / (2.0 * G ** 2)) * (mf.g11 * mf.dG_d2 - mf.g12 * mf.dG_d1)
        M[2] = max(M[2], float(np.abs(m3).max()))

        dk1 = np.broadcast_to(np.asarray(k1(X1, X2, t), dtype=float), shape)
        dk2 = np.broadcast_to(np.asarray(k2(X1, X2, t), dtype=float), shape)
        m4 = np.abs(mf.g22 / G * dk1 - mf.g12 / G * dk2).max() \
            + np.abs(mf.g11 / G * dk1 - mf.g12 / G * dk2).max()
        M[3] = max(M[3], float(m4))

        M[4] = max(M[4], float(np.abs(0.5 * mf.dGdt / G).max()))
    return M, m1_factor2


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


def _spectral_cn_ratio(mu, fhat, rows, dt, w):
    """Crank-Nicolson maximal-regularity quotient, mode by mode.

    The forcing at step time t_k has mode coefficients fhat[rows[k]]; each
    mode marches vhat <- ((1 - dt mu/2) vhat + dt fbar)/(1 + dt mu/2) from 0.
    The basis is orthonormal, so the norms are taken on the coefficients.
    """
    expl = 1.0 - 0.5 * dt * mu
    impl = 1.0 + 0.5 * dt * mu
    v = np.zeros_like(mu)
    num2 = 0.0
    den2 = 0.0
    for k in range(len(rows) - 1):
        fbar = 0.5 * (fhat[rows[k]] + fhat[rows[k + 1]])
        vn = (expl * v + dt * fbar) / impl
        dv = (vn - v) / dt
        avbar = mu * (0.5 * (v + vn))
        num2 += dt * w * (np.vdot(dv, dv) + np.vdot(avbar, avbar))
        den2 += dt * w * np.vdot(fbar, fbar)
        v = vn
    if den2 == 0.0:
        return None
    return float(math.sqrt(num2 / den2))


def maximal_regularity_ratio(grid, lambda1, lambda2, forcing_steps, dt):
    """Discrete maximal-regularity quotient for one forcing history.

    Marches dV/dt + A V = F from V(0) = 0 by Crank-Nicolson with the forcing
    sampled at step endpoints (array of shape (nsteps+1, ndof)) and returns
    sqrt(||dV/dt||^2 + ||A Vbar||^2) / ||Fbar||, all norms in L2(0,T; L2(U)).
    For the selfadjoint non-negative A this quotient never exceeds 1.
    A = assemble_A(grid, lambda1, lambda2) (ParameterError unless the weights
    are positive); the march runs as one scalar recurrence per sine mode.
    """
    if lambda1 <= 0 or lambda2 <= 0:
        raise ParameterError(f"lambda coefficients must be positive, got ({lambda1}, {lambda2})")
    basis = SineBasis(grid, lambda1, lambda2)
    F = np.asarray(forcing_steps, dtype=float)
    return _spectral_cn_ratio(basis.eigenvalues, basis.forward(F), range(F.shape[0]),
                              dt, grid.h1 * grid.h2)


def estimate_C_A(grid, lambda1, lambda2, T, probes, seed=42, nsteps=200, pieces=8):
    """Empirical maximal L2-regularity constant from random forcings.

    Forcing histories are piecewise constant in time over ``pieces``
    subintervals.  Probes with zero forcing are skipped.  The theoretical
    value for a non-negative selfadjoint generator is 1, which the condition
    checks use; this estimator is the numerical cross-check.  A is as in
    ``maximal_regularity_ratio``.
    """
    if probes < 1:
        raise ParameterError("need at least one probe")
    if T <= 0:
        raise ParameterError("horizon must be positive")
    if lambda1 <= 0 or lambda2 <= 0:
        raise ParameterError(f"lambda coefficients must be positive, got ({lambda1}, {lambda2})")
    basis = SineBasis(grid, lambda1, lambda2)
    rng = np.random.default_rng(seed)
    n = grid.ndof
    dt = T / nsteps
    k_idx = np.minimum((np.arange(nsteps + 1) * pieces) // nsteps, pieces - 1)
    best = 0.0
    for _ in range(probes):
        blocks = rng.standard_normal((pieces, n))
        if np.all(blocks == 0.0):
            continue
        r = _spectral_cn_ratio(basis.eigenvalues, basis.forward(blocks), k_idx,
                               dt, grid.h1 * grid.h2)
        if r is not None:
            best = max(best, r)
    return float(best)


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


def smallness_report(chart, kappa, grid, times, margin=0.05, probes=16, seed=42):
    """Evaluate the three smallness hypotheses with estimated constants.

    The conditions and horizons use the theoretical C_A = 1.  The empirical
    C_star is the discrete constant of the first-order/zeroth-order
    remainder: the power-iteration norms of the B2..B4 parts plus the exact
    norm max |d0| of the diagonal B5, maximized over the scanned times.
    """
    times = list(times)
    if not times:
        raise ParameterError("empty time sample")
    kmin, kmax = diffusion_bounds(kappa, grid, times)
    minima = coefficient_minima(chart, kappa, grid, times)
    lam1, lam2 = _weights_below(minima, margin)
    M, m1_mixed2 = m_quantities(chart, kappa, lam1, lam2, grid, times)

    c_sharp = estimate_C_sharp(grid, lam1, lam2, probes, seed=seed)
    c_a_est = estimate_C_A(grid, lam1, lam2, min(chart.horizon, 1.0), max(1, probes // 4),
                           seed=seed)

    c_star = 0.0
    for t in times:
        parts = assemble_B_parts(chart, kappa, grid, lam1, lam2, t)
        b5_norm = float(np.abs(parts["B5"].diagonal()).max())   # B5 is diagonal
        c_star = max(c_star, sum(operator_norm_est(parts[f"B{i}"], iters=50, seed=seed)
                                 for i in (2, 3, 4)) + b5_norm)

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
        min_kg11=minima["min_kg11"], min_kg12=minima["min_kg12"],
        min_kg22=minima["min_kg22"],
        kappa_min=kmin, kappa_max=kmax, horizon=chart.horizon,
    )
