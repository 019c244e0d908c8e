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
    make_diffusion,
    make_grid,
    smallness_report,
)
from evolvesurf import coefficients, operator
from evolvesurf.coefficients import (
    SMALLNESS_THRESHOLD,
    Diffusion,
    diffusion_bounds,
    maximal_regularity_ratio,
)
from evolvesurf.geometry import metric_fields
from evolvesurf.operator import (
    coefficient_fields,
    field_l2,
    gradient_norm,
    hessian_seminorm,
    operator_norm_est,
)


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
        dead = Diffusion("dead", lambda x1, x2, t: np.zeros(np.shape(x1)))
        with pytest.raises(AssumptionViolationError):
            lambda_select(flat, dead, unit_grid, [0.0])

    def test_margin_range_validated(self, flat, const_kappa, unit_grid):
        with pytest.raises(ParameterError):
            lambda_select(flat, const_kappa, unit_grid, [0.0], margin=1.0)


class TestDiffusionPresets:
    def test_sinusoidal_bounds(self, unit_grid):
        kap = make_diffusion("sinusoidal", base=1.0, amp=0.3)
        kmin, kmax = diffusion_bounds(kap, unit_grid, [0.0])
        assert 0.7 <= kmin <= 1.0 <= kmax <= 1.3

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

    def test_monotone_in_scan_window(self, graph, const_kappa, unit_grid):
        lam = 0.9
        windows = [np.linspace(0, T, 5) for T in (0.5, 1.0, 2.0)]
        sums = [m_quantities(graph, const_kappa, lam, lam, unit_grid, w)[0].sum()
                for w in windows]
        assert sums[0] <= sums[1] + 1e-14
        assert sums[1] <= sums[2] + 1e-14


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

    def test_metric_scanned_twice_per_time(self, graph, const_kappa, unit_grid, monkeypatch):
        # once for the coefficient minima (and the weights), once for M1..M5
        calls = []

        def counting(*args, **kwargs):
            calls.append(args[3])
            return metric_fields(*args, **kwargs)

        monkeypatch.setattr(coefficients, "metric_fields", counting)
        times = np.linspace(0.0, 1.0, 11)
        rep = smallness_report(graph, const_kappa, unit_grid, times, probes=4)
        assert len(calls) == 2 * len(times)
        assert (rep.lambda1, rep.lambda2) == lambda_select(graph, const_kappa, unit_grid, times)


    def test_power_iterations_only_for_B2_to_B4(self, graph, const_kappa, unit_grid,
                                                count_calls):
        calls = count_calls(operator, "operator_norm_est")
        times = np.linspace(0.0, 1.0, 5)
        smallness_report(graph, const_kappa, unit_grid, times, probes=4)
        assert len(calls) == 3 * len(times)

    def test_C_star_sums_B2_to_B4_power_norms_and_exact_B5(self, graph, unit_grid):
        # B5 is diagonal: its norm is max |d0|, which the power iteration
        # only approaches from below
        kap = make_diffusion("sinusoidal", base=1.0, amp=0.2)
        times = np.linspace(0.0, 1.0, 4)
        rep = smallness_report(graph, kap, unit_grid, times, probes=4, seed=9)
        sums = []
        for t in times:
            parts = assemble_B_parts(graph, kap, unit_grid, rep.lambda1, rep.lambda2, t)
            d0 = coefficient_fields(graph, kap, unit_grid, t)["d0"]
            power = [operator_norm_est(parts[f"B{i}"], iters=50, seed=9) for i in (2, 3, 4)]
            sums.append(power[0] + power[1] + power[2] + np.abs(d0).max())
            assert operator_norm_est(parts["B5"]) <= np.abs(d0).max()
        assert rep.C_star_est == max(sums)


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
