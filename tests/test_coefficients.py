import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from evolvesurf import (
    AssumptionViolationError,
    ParameterError,
    assemble_A,
    assemble_B_parts,
    estimate_C_A,
    estimate_C_sharp,
    horizon_thm24,
    horizon_thm25,
    lambda_select,
    m_quantities,
    make_chart,
    make_diffusion,
    make_grid,
    smallness_report,
)
from evolvesurf import geometry, operator
from evolvesurf.cli import run_check
from evolvesurf.coefficients import (
    SMALLNESS_THRESHOLD,
    Diffusion,
    _Scan,
    maximal_regularity_ratio,
)
from evolvesurf.config import parse_config
from evolvesurf.operator import (
    SineBasis,
    coefficient_fields,
    field_l2,
    gradient_norm,
    hessian_seminorm,
    lower_order_parts,
    mesh_coefficients,
    operator_norm_est,
)

from conftest import count_sparse_products

PICARD_WORKLOAD_SEED_1 = """
[surface]
preset = graph_oscillation
T = 0.05
epsilon = 0.05427769606270507
omega = 0.9068585705196024
[diffusion]
preset = constant
value = 1.0
[grid]
n1 = 63
n2 = 63
[time]
dt = 0.001
theta = 0.5
[solver]
seed = 576870710
"""


class TestLambdaSelect:
    def test_flat_unit_weights(self, flat, const_kappa, unit_grid):
        lam1, lam2 = lambda_select(flat, const_kappa, unit_grid, [0.0, 1.0], margin=0.0)
        assert lam1 == pytest.approx(1.0)
        assert lam2 == pytest.approx(1.0)

    def test_isotropic_minimum_over_window(self, iso, const_kappa, unit_grid):
        lam1, lam2 = lambda_select(iso, const_kappa, unit_grid,
                                   np.linspace(0, 1, 11), margin=0.0)
        assert lam1 == pytest.approx(math.exp(-2.0), rel=1e-12)
        assert lam2 == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_margin_shrinks_weights(self, flat, const_kappa, unit_grid):
        lam1, _ = lambda_select(flat, const_kappa, unit_grid, [0.0], margin=0.25)
        assert lam1 == pytest.approx(0.75)

    def test_vanishing_kappa_rejected(self, flat, unit_grid):
        zero = lambda x1, x2, t: np.zeros(np.shape(x1))
        dead = Diffusion("dead", zero, d1=zero, d2=zero)
        with pytest.raises(AssumptionViolationError):
            lambda_select(flat, dead, unit_grid, [0.0])

    def test_margin_range_validated(self, flat, const_kappa, unit_grid):
        with pytest.raises(ParameterError):
            lambda_select(flat, const_kappa, unit_grid, [0.0], margin=1.0)


class TestDiffusionPresets:
    @pytest.mark.parametrize("partials,missing", [({}, "'d1' and 'd2'"),
                                                  ({"d1": np.zeros_like}, "'d2'")])
    def test_diffusivity_needs_its_partials(self, partials, missing):
        with pytest.raises(TypeError, match=f"missing .* required .*: {missing}$"):
            Diffusion("bare", lambda x1, x2, t: np.ones(np.shape(x1)), **partials)

    def test_sinusoidal_bounds(self, flat, unit_grid):
        kap = make_diffusion("sinusoidal", base=1.0, amp=0.3)
        rep = smallness_report(flat, kap, unit_grid, [0.0], probes=4)
        assert 0.7 <= rep.kappa_min <= 1.0 <= rep.kappa_max <= 1.3

    def test_unknown_preset(self):
        with pytest.raises(ParameterError):
            make_diffusion("banana")

    def test_parameter_the_preset_does_not_read(self):
        with pytest.raises(ParameterError, match="'constant' does not read amp"):
            make_diffusion("constant", amp=0.4)
        with pytest.raises(ParameterError, match="'sinusoidal' does not read value"):
            make_diffusion("sinusoidal", value=1.0)


class TestMQuantities:
    def test_flat_all_vanish(self, flat, const_kappa, unit_grid):
        M, _ = m_quantities(flat, const_kappa, 1.0, 1.0, unit_grid, [0.0, 0.5, 1.0])
        assert_allclose(M, np.zeros(5), atol=1e-14)

    def test_isotropic_closed_forms(self, iso, const_kappa, unit_grid):
        lam = math.exp(-2.0)
        M, _ = m_quantities(iso, const_kappa, lam, lam, unit_grid, np.linspace(0, 1, 11))
        assert M[0] == pytest.approx(2.0 * (1.0 - math.exp(-2.0)), rel=1e-12)
        assert_allclose(M[1:4], np.zeros(3), atol=1e-12)
        assert M[4] == pytest.approx(2.0, rel=1e-12)

    def test_m2_m3_past_the_overflow_of_G_squared(self, const_kappa):
        # a graph_oscillation surface scaled by S = 1e40: G reaches 1.6e160,
        # past the 1e154 where G ** 2 overflows.  The reference is the G ** 2
        # form in 40-digit arithmetic, whose exponent range does not overflow
        mpmath = pytest.importorskip("mpmath")
        S, epsilon, omega, times = 1e40, 0.3, 1.0, (0.5, 1.0)
        base = geometry.make_chart("graph_oscillation", horizon=1.0, epsilon=epsilon,
                                   omega=omega)
        scaled = lambda ev: lambda x1, x2, t: tuple(S * c for c in ev(x1, x2, t))
        chart = geometry.user_chart({key: scaled(ev) for key, ev in base.evals.items()},
                                    base.domain, 1.0)
        grid = make_grid(base.domain, 8, 8)
        X1, X2 = grid.full_mesh(sparse=True)
        M, _ = m_quantities(chart, const_kappa, 1e-80, 1e-80, grid, times)
        sups = np.zeros(2)
        with mpmath.workdps(40):
            for t in times:
                mf = geometry.metric_fields(chart, X1, X2, t, want_derivs=True)
                assert mf.G.max() > 1e160
                got = geometry.volume_divergence(mf.ginv11, mf.ginv12, mf.ginv22, (
                    mf.dg11_d1, mf.dg11_d2, mf.dg12_d1, mf.dg12_d2, mf.dg22_d1, mf.dg22_d2))
                ref = np.array([[[float(m) for m in _scaled_graph_m2_m3(
                    mpmath, S, epsilon * math.sin(omega * t), x1, x2)]
                    for x2 in grid.x2_full()] for x1 in grid.x1_full()])
                for b in range(2):
                    scale = np.abs(ref[..., b]).max()
                    assert np.abs(got[b] - ref[..., b]).max() <= 1e-12 * scale
                sups = np.maximum(sups, np.abs(ref).max(axis=(0, 1)))
        assert_allclose(M[1:3], sups, rtol=1e-12)
        # the surface scaled by S has M2/M3 scaled by 1/S^2
        M_base, _ = m_quantities(base, const_kappa, 1.0, 1.0, grid, times)
        assert_allclose(M[1:3], M_base[1:3] / S ** 2, rtol=1e-12)

    def test_monotone_in_scan_window(self, graph, const_kappa, unit_grid):
        lam = 0.9
        windows = [np.linspace(0, T, 5) for T in (0.5, 1.0, 2.0)]
        sums = [m_quantities(graph, const_kappa, lam, lam, unit_grid, w)[0].sum()
                for w in windows]
        assert sums[0] <= sums[1] + 1e-14
        assert sums[1] <= sums[2] + 1e-14


def _scaled_graph_m2_m3(mpmath, S, a, x1, x2):
    """M2/M3 integrands (kappa = 1) of x = S (X1, X2, a phi) at one node, in mpmath.

    The G ** 2 form, (d_1 g_22 - d_2 g_12)/G - (g_22 d_1 G - g_12 d_2 G)/(2 G^2)
    and its mirror, from the exact partials at the float node.
    """
    mpf, pi = mpmath.mpf, mpmath.pi
    S, a = mpf(S), mpf(a)
    s1, c1 = mpmath.sin(pi * mpf(x1)), mpmath.cos(pi * mpf(x1))
    s2, c2 = mpmath.sin(pi * mpf(x2)), mpmath.cos(pi * mpf(x2))
    dot = lambda u, v: sum(p * q for p, q in zip(u, v))
    g1, g2 = (S, 0, S * a * pi * c1 * s2), (0, S, S * a * pi * s1 * c2)
    d11 = d22 = (0, 0, -S * a * pi ** 2 * s1 * s2)
    d12 = (0, 0, S * a * pi ** 2 * c1 * c2)
    g11, g12, g22 = dot(g1, g1), dot(g1, g2), dot(g2, g2)
    G = g11 * g22 - g12 ** 2
    a11_1, a11_2 = 2 * dot(d11, g1), 2 * dot(d12, g1)
    a12_1, a12_2 = dot(d11, g2) + dot(g1, d12), dot(d12, g2) + dot(g1, d22)
    a22_1, a22_2 = 2 * dot(d12, g2), 2 * dot(d22, g2)
    G_1 = a11_1 * g22 + g11 * a22_1 - 2 * g12 * a12_1
    G_2 = a11_2 * g22 + g11 * a22_2 - 2 * g12 * a12_2
    return ((a22_1 - a12_2) / G - (g22 * G_1 - g12 * G_2) / (2 * G ** 2),
            (a11_2 - a12_1) / G - (g11 * G_2 - g12 * G_1) / (2 * G ** 2))


class TestCSharpEstimator:
    # continuum value of the eigenmode quotient (1 + sqrt(mu) + mu)/mu
    EIGEN_QUOTIENT = (1.0 + math.sqrt(2.0 * math.pi ** 2) + 2.0 * math.pi ** 2) / (2.0 * math.pi ** 2)

    def test_eigen_probe_near_continuum_value(self):
        grid = make_grid((0, 1, 0, 1), 63, 63)
        est = estimate_C_sharp(grid, 1.0, 1.0, probes=8, seed=42)
        assert est == pytest.approx(self.EIGEN_QUOTIENT, rel=0.05)

    @pytest.mark.parametrize("c", [2.0, 10.0])
    def test_scales_as_inverse_lambda(self, unit_grid, c):
        base = estimate_C_sharp(unit_grid, 1.0, 1.0, 8, seed=42)
        scaled = estimate_C_sharp(unit_grid, c, c, 8, seed=42)
        assert base / scaled == pytest.approx(c, rel=0.05)

    def test_zero_probes_rejected(self, unit_grid):
        with pytest.raises(ParameterError):
            estimate_C_sharp(unit_grid, 1.0, 1.0, probes=0)


class TestCAEstimator:
    def test_never_exceeds_sqrt2(self, unit_grid):
        est = estimate_C_A(unit_grid, 1.0, 1.0, 1.0, probes=4, seed=3, nsteps=100)
        assert est <= math.sqrt(2.0) + 1e-9
        assert est <= 1.0 + 1e-9  # sharp discrete bound for the CN march

    def test_eigen_forcing_closed_form(self, unit_grid):
        A = assemble_A(unit_grid, 1.0, 1.0)
        vals, vecs = spla.eigsh(A, k=1, sigma=0.0, which="LM")
        mu, phi = float(vals[0]), vecs[:, 0]
        T, nsteps = 2.0, 2000
        F = np.tile(phi, (nsteps + 1, 1))
        ratio = maximal_regularity_ratio(unit_grid, 1.0, 1.0, F, T / nsteps)
        num = ((1 - math.exp(-2 * mu * T)) / (2 * mu)
               + T - 2 * (1 - math.exp(-mu * T)) / mu
               + (1 - math.exp(-2 * mu * T)) / (2 * mu))
        assert ratio == pytest.approx(math.sqrt(num / T), rel=1e-6)

    def test_stationary_limit_approaches_one(self, unit_grid):
        A = assemble_A(unit_grid, 1.0, 1.0)
        vals, vecs = spla.eigsh(A, k=1, sigma=0.0, which="LM")
        phi = vecs[:, 0]
        ratios = []
        for T in (0.5, 4.0):
            nsteps = max(200, int(T * 400))
            F = np.tile(phi, (nsteps + 1, 1))
            ratios.append(maximal_regularity_ratio(unit_grid, 1.0, 1.0, F, T / nsteps))
        assert ratios[1] > ratios[0]
        assert ratios[1] == pytest.approx(1.0, abs=0.02)

    def test_zero_forcing_skipped(self, unit_grid):
        F = np.zeros((11, unit_grid.ndof))
        assert maximal_regularity_ratio(unit_grid, 1.0, 1.0, F, 0.1) is None

    @pytest.mark.parametrize("name,value", [("pieces", 0), ("pieces", -2), ("pieces", 2.5),
                                            ("nsteps", 0), ("nsteps", -5), ("probes", 0),
                                            ("probes", 1.5)])
    def test_counts_below_one_rejected(self, unit_grid, name, value):
        with pytest.raises(ParameterError, match=name):
            estimate_C_A(unit_grid, 1.0, 1.0, 1.0, **{"probes": 2, name: value})

    @pytest.mark.parametrize("T", [0.0, -1.0, math.inf, math.nan])
    def test_horizon_must_be_positive_and_finite(self, unit_grid, T):
        with pytest.raises(ParameterError, match="horizon"):
            estimate_C_A(unit_grid, 1.0, 1.0, T, 2)

    @pytest.mark.parametrize("dt", [0.0, -0.01, math.inf, math.nan])
    def test_ratio_step_must_be_positive_and_finite(self, unit_grid, dt):
        F = np.ones((11, unit_grid.ndof))
        with pytest.raises(ParameterError, match="dt"):
            maximal_regularity_ratio(unit_grid, 1.0, 1.0, F, dt)

    @pytest.mark.parametrize("shape", [(11, 255), (11, 257), (256,), (2, 11, 256)])
    def test_ratio_rows_must_be_ndof_wide(self, unit_grid, shape):
        with pytest.raises(ParameterError, match="forcing_steps"):
            maximal_regularity_ratio(unit_grid, 1.0, 1.0, np.ones(shape), 0.1)

    @pytest.mark.parametrize("nsteps,pieces", [(200, 8), (7, 3), (3, 8), (1, 1), (200, 1),
                                               (150, 2)])
    def test_probes_march_as_one_batch(self, nsteps, pieces):
        # the same draws in the same order as one probe after another, each
        # against the step-by-step march; pieces of more than 64 steps are cut
        grid = make_grid((0.0, 1.5, 0.0, 0.8), 20, 13)
        basis = SineBasis(grid, 0.7, 1.9)
        rng = np.random.default_rng(6)
        k_idx = np.minimum((np.arange(nsteps + 1) * pieces) // nsteps, pieces - 1)
        ref = max(_stepwise_cn_ratio(basis.eigenvalues, basis.forward(rng.standard_normal(
            (pieces, grid.ndof))), k_idx, 0.3 / nsteps, grid.h1 * grid.h2) for _ in range(5))
        est = estimate_C_A(grid, 0.7, 1.9, 0.3, 5, seed=6, nsteps=nsteps, pieces=pieces)
        assert est == pytest.approx(ref, rel=1e-13)


def _lu_C_sharp(mat, grid, probes, seed):
    """estimate_C_sharp by sparse LU and shift-invert eigsh (reference)."""
    lu = spla.splu(mat.tocsc())
    rng = np.random.default_rng(seed)

    def ratio(f):
        denom = field_l2(mat @ f, grid)
        num = field_l2(f, grid) + gradient_norm(f, grid) + hessian_seminorm(f, grid)
        return num / denom

    best = max(ratio(lu.solve(rng.standard_normal(mat.shape[0]))) for _ in range(probes))
    _, vecs = spla.eigsh(mat, k=1, sigma=0.0, which="LM", v0=np.ones(mat.shape[0]))
    return max(best, ratio(vecs[:, 0]))


def _lu_mr_ratio(mat, F, dt):
    """maximal_regularity_ratio by an LU Crank-Nicolson march (reference; the
    common factor dt h1 h2 of both norms cancels)."""
    n = mat.shape[0]
    lu = spla.splu((sp.identity(n, format="csc") + 0.5 * dt * mat).tocsc())
    expl = sp.identity(n, format="csr") - 0.5 * dt * mat
    v = np.zeros(n)
    num2 = den2 = 0.0
    for k in range(F.shape[0] - 1):
        fbar = 0.5 * (F[k] + F[k + 1])
        vn = lu.solve(expl @ v + dt * fbar)
        dv = (vn - v) / dt
        avbar = mat @ (0.5 * (v + vn))
        num2 += np.dot(dv, dv) + np.dot(avbar, avbar)
        den2 += np.dot(fbar, fbar)
        v = vn
    return math.sqrt(num2 / den2)


def _stepwise_cn_ratio(mu, fhat, rows, dt, w):
    """The Crank-Nicolson quotient of one forcing, marched one step at a time:
    the reference of the closed form per piece of ``_spectral_cn_ratio``."""
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


def _lu_C_A(mat, T, probes, seed, nsteps, pieces):
    """estimate_C_A through the LU march (reference)."""
    rng = np.random.default_rng(seed)
    k_idx = np.minimum((np.arange(nsteps + 1) * pieces) // nsteps, pieces - 1)
    return max(_lu_mr_ratio(mat, rng.standard_normal((pieces, mat.shape[0]))[k_idx],
                            T / nsteps)
               for _ in range(probes))


SPECTRAL_CASES = [
    ((0.0, 1.0, 0.0, 1.0), 16, 16, 1.0, 1.0),
    ((0.0, 1.5, 0.0, 0.8), 20, 13, 0.7, 1.9),
    ((-0.3, 0.9, 0.2, 2.2), 11, 24, 2.5, 0.4),
]


class TestSpectralEstimators:
    """The DST-I estimators against the sparse LU / eigsh code they replace."""

    @pytest.mark.parametrize("domain,n1,n2,lam1,lam2", SPECTRAL_CASES)
    def test_C_sharp_matches_lu_reference(self, domain, n1, n2, lam1, lam2):
        grid = make_grid(domain, n1, n2)
        A = assemble_A(grid, lam1, lam2)
        ref = _lu_C_sharp(A, grid, 6, seed=5)
        assert estimate_C_sharp(grid, lam1, lam2, 6, seed=5) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("domain,n1,n2,lam1,lam2", SPECTRAL_CASES)
    def test_C_A_matches_lu_reference(self, domain, n1, n2, lam1, lam2):
        grid = make_grid(domain, n1, n2)
        A = assemble_A(grid, lam1, lam2)
        ref = _lu_C_A(A, 0.7, 3, seed=11, nsteps=60, pieces=5)
        est = estimate_C_A(grid, lam1, lam2, 0.7, 3, seed=11, nsteps=60, pieces=5)
        assert est == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("domain,n1,n2,lam1,lam2", SPECTRAL_CASES)
    def test_ratio_matches_lu_reference(self, domain, n1, n2, lam1, lam2):
        grid = make_grid(domain, n1, n2)
        A = assemble_A(grid, lam1, lam2)
        F = np.random.default_rng(2).standard_normal((41, grid.ndof))
        ref = _lu_mr_ratio(A, F, 0.01)
        est = maximal_regularity_ratio(grid, lam1, lam2, F, 0.01)
        assert est == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("lam1,lam2", [(0.0, 1.0), (1.0, -0.5)])
    def test_non_positive_weights_rejected(self, unit_grid, lam1, lam2):
        F = np.ones((3, unit_grid.ndof))
        with pytest.raises(ParameterError, match="positive"):
            estimate_C_sharp(unit_grid, lam1, lam2, 2)
        with pytest.raises(ParameterError, match="positive"):
            estimate_C_A(unit_grid, lam1, lam2, 1.0, 1)
        with pytest.raises(ParameterError, match="positive"):
            maximal_regularity_ratio(unit_grid, lam1, lam2, F, 0.1)

    @pytest.mark.parametrize("n1,n2", [(1, 9), (9, 1), (1, 1)])
    def test_single_node_axis(self, n1, n2):
        # an axis with one interior node has no neighbor couplings; its
        # weight only enters through the diagonal
        grid = make_grid((0.0, 1.0, 0.0, 2.0), n1, n2)
        A = assemble_A(grid, 0.8, 1.7)
        ref = _lu_C_A(A, 0.5, 2, seed=1, nsteps=20, pieces=4)
        assert estimate_C_A(grid, 0.8, 1.7, 0.5, 2, seed=1, nsteps=20,
                            pieces=4) == pytest.approx(ref, rel=1e-12)
        F = np.random.default_rng(2).standard_normal((11, grid.ndof))
        assert maximal_regularity_ratio(grid, 0.8, 1.7, F, 0.01) == pytest.approx(
            _lu_mr_ratio(A, F, 0.01), rel=1e-12)


def exhaustive_C_star_sums(chart, kappa, grid, times, seed):
    """The C_star sum of every scan time, as the report formed them before it
    pruned: Lanczos estimates of B2..B4 plus max |d0| at each time."""
    scan = _Scan(chart, kappa, grid, ())
    sums = []
    for t in times:
        cf = mesh_coefficients(*scan.add(t))
        sums.append(sum(operator_norm_est(part, seed=seed)
                        for part in lower_order_parts(grid, cf).values())
                    + float(np.abs(cf["d0"]).max()))
    return sums


class TestSmallnessReport:
    def test_flat_all_conditions_hold(self, flat, const_kappa, unit_grid):
        rep = smallness_report(flat, const_kappa, unit_grid, [0.0, 0.5, 1.0],
                               margin=0.0, probes=4)
        assert rep.condition_thm24 and rep.condition_thm25 and rep.condition_thm26
        assert_allclose(rep.M, np.zeros(5), atol=1e-14)
        # B vanishes identically: both horizons reach the full window
        assert rep.T_star_24 == pytest.approx(flat.horizon)
        assert rep.T_star_25 == pytest.approx(flat.horizon)

    def test_isotropic_global_condition_fails(self, iso, const_kappa, unit_grid):
        rep = smallness_report(iso, const_kappa, unit_grid, np.linspace(0, 1, 6),
                               margin=0.0, probes=4)
        # the dilation rate M5 = 2 alone violates the global-existence display
        assert rep.M[4] == pytest.approx(2.0, rel=1e-12)
        assert not rep.condition_thm26

    def test_condition_nesting(self, graph, const_kappa, unit_grid):
        rep = smallness_report(graph, const_kappa, unit_grid, np.linspace(0, 1, 5),
                               probes=4)
        if rep.condition_thm26:
            assert rep.condition_thm25
        if rep.condition_thm25:
            assert rep.condition_thm24

    def test_reports_raw_coefficient_minima(self, graph, const_kappa, unit_grid):
        rep = smallness_report(graph, const_kappa, unit_grid, np.linspace(0, 1, 5),
                               probes=4)
        assert rep.min_kg22 > 0.0
        assert abs(rep.min_kg12) < rep.min_kg22
        assert rep.m1_mixed2 >= rep.M[0]

    def test_metric_and_kappa_evaluated_once_per_scan_time(self, graph, const_kappa,
                                                            unit_grid, count_calls):
        # one pass: the weights, M1..M5 and C_star share each time's evaluation
        metrics = count_calls(geometry, "metric_fields")
        kappa_times = []

        def value(x1, x2, t):
            kappa_times.append(t)
            return const_kappa.value(x1, x2, t)

        norms = count_calls(operator, "operator_norm_est")
        times = np.linspace(0.0, 1.0, 11)
        rep = smallness_report(graph, dataclasses.replace(const_kappa, value=value),
                               unit_grid, times, probes=4)
        evaluated = [args[3] for args in metrics]
        assert evaluated[:len(times)] == list(times)
        assert kappa_times == evaluated
        # C_star evaluates again only the times it estimates after the one
        # whose coefficients the scan kept (here 0.9 after 1.0)
        assert evaluated[len(times):] == [times[9]]
        assert len(norms) == 3 * (1 + len(evaluated) - len(times))
        assert (rep.lambda1, rep.lambda2) == lambda_select(graph, const_kappa, unit_grid, times)

    def test_static_problem_scans_one_time(self, count_calls):
        # a rigid chart with a time-independent kappa has the same coefficients
        # at every t: one evaluation gives the scan's scalars and C_star
        chart = make_chart("translating_patch", domain=(0.0, 1.5, 0.0, 1.0), horizon=0.2, c=1.0)
        kappa = make_diffusion("sinusoidal", base=1.0, amp=0.2)
        grid = make_grid(chart.domain, 15, 10)
        times = np.linspace(0.0, 0.2, 11)
        every_time = smallness_report(chart, dataclasses.replace(kappa, time_independent=False),
                                      grid, times, probes=4)
        metrics = count_calls(geometry, "metric_fields")
        norms = count_calls(operator, "operator_norm_est")
        rep = smallness_report(chart, kappa, grid, times, probes=4)
        assert [args[3] for args in metrics] == [0.0]
        assert len(norms) == 3
        assert repr(rep.as_keyvalues()) == repr(every_time.as_keyvalues())

    def test_norm_estimates_only_for_B2_to_B4(self, graph, const_kappa, unit_grid,
                                              count_calls):
        # the Schur bounds of 0, 0.25, 0.5 and 0.75 lie below the estimate at
        # 1.0, so one time's B2..B4 are estimated
        calls = count_calls(operator, "operator_norm_est")
        times = np.linspace(0.0, 1.0, 5)
        smallness_report(graph, const_kappa, unit_grid, times, probes=4)
        assert len(calls) == 3

    def test_kappa_refused_before_any_norm_estimate(self, graph, unit_grid, count_calls):
        # kappa = 1 - t/2 reaches 0 at the last scan time
        fading = Diffusion("fading", lambda x1, x2, t: np.full(np.shape(x1), 1.0 - 0.5 * t),
                           d1=lambda x1, x2, t: np.zeros(np.shape(x1)),
                           d2=lambda x1, x2, t: np.zeros(np.shape(x1)))
        calls = count_calls(operator, "operator_norm_est")
        with pytest.raises(AssumptionViolationError,
                           match=r"^kappa must be strictly positive; scan minimum 0$"):
            smallness_report(graph, fading, unit_grid, np.linspace(0.0, 2.0, 5), probes=4)
        assert calls == []

    def test_reformed_parts_carry_the_scan_bits(self, graph, unit_grid):
        # pass 2 forms the parts of a time again from coefficient_fields
        kap = make_diffusion("sinusoidal", base=1.0, amp=0.2)
        scan = _Scan(graph, kap, unit_grid, ())
        for t in (0.0, 0.37, 0.9):
            scanned = lower_order_parts(unit_grid, mesh_coefficients(*scan.add(t)))
            reformed = lower_order_parts(unit_grid, coefficient_fields(graph, kap, unit_grid, t))
            for key, part in scanned.items():
                assert part.offsets.tolist() == reformed[key].offsets.tolist()
                assert part.data.tobytes() == reformed[key].data.tobytes()

    def test_non_monotone_scan_estimates_several_times(self, count_calls):
        # omega = 3 over T = 6: C_star(t) rises and falls three times, and four
        # scan times have bounds above the maximum, which is that of the loop
        # over every scan time
        domain = (-0.5, 1.0, 0.2, 1.4)
        chart = make_chart("graph_oscillation", domain=domain, horizon=6.0, epsilon=0.05,
                           omega=3.0)
        kappa = make_diffusion("constant")
        grid = make_grid(domain, 13, 9)
        times = np.linspace(0.0, 6.0, 11)
        norms = count_calls(operator, "operator_norm_est")
        rep = smallness_report(chart, kappa, grid, times, probes=4, seed=5)
        assert len(norms) == 3 * 4
        assert rep.C_star_est == max(exhaustive_C_star_sums(chart, kappa, grid, times, seed=5))

    def test_C_star_sums_B2_to_B4_lanczos_norms_and_exact_B5(self, graph, unit_grid):
        # B5 is diagonal: its norm is max |d0|, which the Lanczos estimate
        # only approaches from below
        kap = make_diffusion("sinusoidal", base=1.0, amp=0.2)
        times = np.linspace(0.0, 1.0, 4)
        rep = smallness_report(graph, kap, unit_grid, times, probes=4, seed=9)
        sums = []
        for t in times:
            parts = assemble_B_parts(graph, kap, unit_grid, rep.lambda1, rep.lambda2, t)
            d0 = coefficient_fields(graph, kap, unit_grid, t)["d0"]
            lanczos = [operator_norm_est(parts[f"B{i}"], seed=9) for i in (2, 3, 4)]
            sums.append(lanczos[0] + lanczos[1] + lanczos[2] + np.abs(d0).max())
            assert operator_norm_est(parts["B5"]) <= np.abs(d0).max()
        assert rep.C_star_est == max(sums)

    def test_picard_workload_forms_no_csr_product(self, monkeypatch):
        # the picard benchmark configuration at seed 1: 11 scan times, of which
        # the Schur bounds leave one for the 3 norm estimates, and 17 C_sharp
        # probes; power iteration through a CSR transpose formed 1030 DIA and
        # 1013 CSR products, and 33 Lanczos estimates 643 DIA products
        cfg = parse_config(PICARD_WORKLOAD_SEED_1)
        products = count_sparse_products(monkeypatch)
        run_check(cfg)
        assert len(products["dia"]) <= 79
        assert not products["csr"]

    def test_runs_without_converting_a_dia_matrix_to_csr(self, graph, unit_grid, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("dia_matrix.tocsr called")

        monkeypatch.setattr(sp.dia_matrix, "tocsr", refuse)
        rep = smallness_report(graph, make_diffusion("sinusoidal"), unit_grid,
                               np.linspace(0.0, 1.0, 3), probes=4)
        assert rep.C_star_est > 0.0


class TestHorizonFormulas:
    def test_stipulated_constants_arithmetic(self):
        # C_sharp = 1, C_A = 1, M5 = 2: 16 * 1 * 4 * 4 = 256
        out = horizon_thm25(1.0, 2.0, 1.0, T=10.0)
        assert out == pytest.approx(0.5 * math.log(257.0 / 256.0), abs=1e-12)

    def test_horizon24_with_unit_constants(self):
        out = horizon_thm24(1.0, 1.0, T=10.0)
        assert out == pytest.approx(0.5 * math.log1p(1.0 / 64.0), abs=1e-15)

    def test_vanishing_constants_give_full_window(self):
        assert horizon_thm24(0.0, 1.0, T=3.0) == 3.0
        assert horizon_thm25(1.0, 0.0, 1.0, T=3.0) == 3.0

    def test_threshold_value(self):
        assert SMALLNESS_THRESHOLD == pytest.approx(1.0 / (8.0 * math.sqrt(2.0)))
