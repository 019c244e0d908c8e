import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

from evolvesurf import (
    ParameterError,
    assemble_A,
    assemble_B,
    assemble_B_parts,
    assemble_L,
    half_power_norm,
    make_chart,
    make_diffusion,
    make_grid,
    verify_anisotropic_identities,
)
from evolvesurf import geometry, operator
from evolvesurf.diagnostics import symbolic_operator_apply
from evolvesurf.geometry import PRESET_NAMES, metric_fields
from evolvesurf.operator import (
    StepFrame,
    StepFrames,
    coefficient_fields,
    factorize,
    field_l2,
    L_OFFSETS,
    SineBasis,
    max_abs_entry,
    operator_norm_est,
    shifted_A_solver,
    sine_matrix,
    weighted_symmetry_defect,
)


def lowest_discrete_eigenvalue(grid, lam1, lam2):
    m1 = (2.0 - 2.0 * math.cos(math.pi * grid.h1)) / grid.h1 ** 2
    m2 = (2.0 - 2.0 * math.cos(math.pi * grid.h2)) / grid.h2 ** 2
    return lam1 * m1 + lam2 * m2


# References for the DIA assembly: COO triplets converted to CSR, whose
# duplicate entries are summed, and the preconditioner weights read off the
# diagonals of a matrix.


def coo_stencil_matrix(grid, terms):
    """CSR matrix of (di, dj, coefficient) stencil terms through COO->CSR conversion."""
    n1, n2 = grid.n1, grid.n2
    idx = np.arange(n1 * n2).reshape(n1, n2)
    rows, cols, vals = [], [], []
    for di, dj, coeff in terms:
        i0, i1 = max(0, -di), n1 - max(0, di)
        j0, j1 = max(0, -dj), n2 - max(0, dj)
        if i0 >= i1 or j0 >= j1:
            continue
        carr = np.broadcast_to(np.asarray(coeff, dtype=float), (n1, n2))
        rows.append(idx[i0:i1, j0:j1].ravel())
        cols.append(idx[i0 + di:i1 + di, j0 + dj:j1 + dj].ravel())
        vals.append(carr[i0:i1, j0:j1].ravel())
    return sp.coo_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(n1 * n2, n1 * n2)).tocsr()


def assembled_by_coo(assemble, *args):
    """``assemble(*args)`` with the COO reference in place of the DIA assembly."""
    with mock.patch.object(operator, "_stencil_matrix", coo_stencil_matrix):
        return assemble(*args)


def diagonal_stencil_weights(mat, grid):
    """Mean X1 and X2 neighbor weights read off the diagonals +-n2 and +-1 of ``mat``."""
    n2 = grid.n2
    w1 = np.concatenate([mat.diagonal(n2), mat.diagonal(-n2)])
    in_row = np.arange(mat.shape[0] - 1) % n2 != n2 - 1   # skip the row-wrap zeros
    w2 = np.concatenate([mat.diagonal(1)[in_row], mat.diagonal(-1)[in_row]])
    return (-w1.mean() * grid.h1 ** 2 if w1.size else 0.0,
            -w2.mean() * grid.h2 ** 2 if w2.size else 0.0)


def assert_same_entries(mat, ref):
    """Bitwise equality of the two matrices, entry for entry."""
    assert mat.toarray().tobytes() == ref.toarray().tobytes()


class TestAssembleA:
    def test_quarter_mesh_stencil_entries(self):
        grid = make_grid((0, 1, 0, 1), 3, 3)
        A = assemble_A(grid, 1.0, 1.0).toarray()
        k = grid.index(1, 1)
        assert A[k, k] == pytest.approx(64.0)
        for nb in (grid.index(0, 1), grid.index(2, 1), grid.index(1, 0), grid.index(1, 2)):
            assert A[k, nb] == pytest.approx(-16.0)

    def test_symmetric_positive_definite(self, unit_grid):
        A = assemble_A(unit_grid, 2.0, 0.5)
        assert sp.issparse(A) and A.format == "dia"
        assert max_abs_entry(A - A.T) == 0.0
        lo = spla.eigsh(A, k=1, sigma=0.0, which="LM")[0][0]
        floor = min(2.0, 0.5) * lowest_discrete_eigenvalue(unit_grid, 1.0, 1.0)
        assert lo > 0.0
        assert lo >= floor * (1.0 - 1e-12)

    def test_exact_lowest_eigenpair(self, unit_grid, eigenmode):
        A = assemble_A(unit_grid, 1.5, 0.5)
        phi = eigenmode(unit_grid)
        mu = lowest_discrete_eigenvalue(unit_grid, 1.5, 0.5)
        assert_allclose(A @ phi, mu * phi, rtol=1e-11)

    def test_quadratic_form_matches_half_power_norm(self, unit_grid):
        rng = np.random.default_rng(3)
        A = assemble_A(unit_grid, 1.3, 0.7)
        for _ in range(5):
            f = rng.standard_normal(unit_grid.ndof)
            quad = float(f @ (A @ f)) * unit_grid.h1 * unit_grid.h2
            hp = half_power_norm(f, unit_grid, 1.3, 0.7)
            assert quad == pytest.approx(hp ** 2, rel=1e-12)

    def test_degenerate_coefficient_rejected(self, unit_grid):
        with pytest.raises(ParameterError):
            assemble_A(unit_grid, 0.0, 1.0)


class TestAssembleL:
    def test_flat_reduces_to_A_exactly(self, flat, const_kappa, unit_grid):
        L = assemble_L(flat, const_kappa, unit_grid, 0.4)
        A = assemble_A(unit_grid, 1.0, 1.0)
        assert max_abs_entry(L - A) == 0.0

    @pytest.mark.parametrize("t", [0.0, 0.5, 1.0])
    def test_isotropic_reduction(self, iso, const_kappa, unit_grid, t):
        L = assemble_L(iso, const_kappa, unit_grid, t)
        A = assemble_A(unit_grid, 1.0, 1.0)
        ref = math.exp(-2.0 * t) * A + 2.0 * sp.identity(unit_grid.ndof)
        assert max_abs_entry(L - ref) < 1e-10

    def test_graph_at_time_zero_is_flat(self, graph, const_kappa, unit_grid):
        L = assemble_L(graph, const_kappa, unit_grid, 0.0)
        A = assemble_A(unit_grid, 1.0, 1.0)
        assert max_abs_entry(L - A) < 1e-12

    def test_nine_diagonals_in_ascending_order(self, graph, const_kappa, unit_grid):
        L = assemble_L(graph, const_kappa, unit_grid, 0.9)
        assert sp.issparse(L) and L.format == "dia"
        n2 = unit_grid.n2
        assert L.offsets.tolist() == sorted(di * n2 + dj for di, dj in L_OFFSETS)

    def test_weighted_selfadjointness(self, graph, unit_grid):
        kap = make_diffusion("sinusoidal", base=1.0, amp=0.3)
        defect, scale = weighted_symmetry_defect(StepFrame(graph, kap, unit_grid, 1.1))
        assert defect <= 1e-10 * max(scale, 1.0)

    @pytest.mark.parametrize("chart_name,kappa_name", [
        ("graph_oscillation", "constant"),
        ("graph_oscillation", "sinusoidal"),
        ("isotropic_scaling", "sinusoidal"),
    ])
    def test_consistency_order_two_against_symbolic(self, chart_name, kappa_name):
        chart = make_chart(chart_name, horizon=2.0)
        kap = make_diffusion(kappa_name)

        def u_builder(X1, X2, t):
            import sympy as sp_
            return sp_.sin(sp_.pi * X1) * sp_.sin(sp_.pi * X2) * (1 + X1 * X2 / 2)

        exact_L = symbolic_operator_apply(chart, kap, u_builder)
        t = 0.8
        errs = []
        for n in (15, 31, 63):
            g = make_grid(chart.domain, n, n)
            X1, X2 = g.interior_mesh()
            u = (np.sin(np.pi * X1) * np.sin(np.pi * X2) * (1 + X1 * X2 / 2)).ravel()
            L = assemble_L(chart, kap, g, t)
            ref = exact_L(X1, X2, t).ravel()
            errs.append(float(np.max(np.abs(L @ u - ref))))
        order = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert 1.5 < order < 2.5


class TestBParts:
    def test_flat_parts_vanish(self, flat, const_kappa, unit_grid):
        parts = assemble_B_parts(flat, const_kappa, unit_grid, 1.0, 1.0, 0.2)
        assert sorted(parts) == ["B1", "B2", "B3", "B4", "B5"]
        for i in range(1, 6):
            assert max_abs_entry(parts[f"B{i}"]) == 0.0
            assert operator_norm_est(parts[f"B{i}"], iters=5) == 0.0

    def test_isotropic_matched_lambda(self, iso, const_kappa, unit_grid):
        t0 = 0.5
        lam = math.exp(-2.0 * t0)
        parts = assemble_B_parts(iso, const_kappa, unit_grid, lam, lam, t0)
        assert max_abs_entry(parts["B1"]) < 1e-12
        ref = 2.0 * sp.identity(unit_grid.ndof)
        assert max_abs_entry(parts["B5"] - ref) < 1e-12

    @pytest.mark.parametrize("kappa_name", ["constant", "sinusoidal"])
    def test_sum_matches_L_minus_A(self, graph, unit_grid, kappa_name):
        kap = make_diffusion(kappa_name)
        lam1, lam2 = 0.9, 0.85
        A = assemble_A(unit_grid, lam1, lam2)
        for t in (0.0, 0.7, 1.4, 2.1, 2.8):
            parts = assemble_B_parts(graph, kap, unit_grid, lam1, lam2, t)
            total = sum(parts[f"B{i}"] for i in range(1, 6))
            L = assemble_L(graph, kap, unit_grid, t)
            assert max_abs_entry(total - (L - A)) <= 1e-10

    def test_norms_bound_matrix_action(self, graph, const_kappa, unit_grid):
        parts = assemble_B_parts(graph, const_kappa, unit_grid, 0.9, 0.9, 1.3)
        rng = np.random.default_rng(11)
        for i in range(1, 6):
            m = parts[f"B{i}"]
            assert sp.issparse(m) and m.format == "dia"
            sigma = operator_norm_est(m)
            for _ in range(3):
                f = rng.standard_normal(unit_grid.ndof)
                assert np.linalg.norm(m @ f) <= (sigma + 1e-9) * np.linalg.norm(f) * 1.001


class TestStepFrame:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("domain,n1,n2", [((0.0, 1.0, 0.0, 1.0), 127, 127),
                                              ((0.0, 1.5, 0.0, 0.8), 20, 13),
                                              ((0.0, 1.5, 0.0, 1.0), 150, 100)])
    def test_interior_slice_equals_interior_evaluation(self, name, domain, n1, n2):
        chart = make_chart(name, domain=domain, horizon=1.0)
        grid = make_grid(domain, n1, n2)
        X1, X2 = grid.interior_mesh()
        for t in (0.0, 0.37):
            mf = metric_fields(chart, X1, X2, t, h_fd=grid.h_fd, want_dGdt=False)
            assert np.array_equal(StepFrame(chart, None, grid, t).interior_sqrtG, mf.sqrtG)

    def test_pieces_equal_standalone_evaluations(self, graph):
        grid = make_grid((0.0, 1.5, 0.0, 0.8), 20, 13)
        kap = make_diffusion("sinusoidal", base=1.0, amp=0.2)
        frame = StepFrame(graph, kap, grid, 0.7)
        ref = coefficient_fields(graph, kap, grid, 0.7)
        assert frame.coefficients.keys() == ref.keys()
        for key, arr in ref.items():
            assert np.array_equal(frame.coefficients[key], arr)
        assert (frame.L != assemble_L(graph, kap, grid, 0.7)).nnz == 0
        C1, C2 = grid.cell_center_mesh()
        mf, k_c = frame.centre
        ref_c = metric_fields(graph, C1, C2, 0.7, h_fd=grid.h_fd, want_dGdt=False)
        assert np.array_equal(mf.ginv12, ref_c.ginv12) and np.array_equal(mf.sqrtG, ref_c.sqrtG)
        assert np.array_equal(k_c, kap.value(C1, C2, 0.7))

    def test_static_problem_has_one_frame(self, flat, graph, const_kappa, unit_grid):
        frames = StepFrames(flat, const_kappa, unit_grid)
        assert frames.static
        assert frames.frame(0.3) is frames.frame(0.0)
        assert frames.frame(0.3).t == 0.0
        varying = dataclasses.replace(const_kappa, time_independent=False)
        assert not StepFrames(flat, varying, unit_grid).static
        moving = StepFrames(graph, const_kappa, unit_grid)
        assert not moving.static
        assert moving.frame(0.3) is not moving.frame(0.3)
        assert moving.frame(0.3).t == 0.3

    def test_moving_frame_evaluates_sines_per_axis(self, monkeypatch):
        # one StepFrame of a moving chart at 127^2: every sine or cosine of
        # the height term runs on an axis of an open mesh, O(n1 + n2) values
        # per call (a dense mesh takes 4 * 129^2 + 2 * 128^2 values)
        evaluated = []

        def counting(f):
            def wrapped(x):
                evaluated.append(np.size(x))
                return f(x)
            return wrapped

        for index, (factor, f1, f2) in list(geometry._PHI_PARTIALS.items()):
            monkeypatch.setitem(geometry._PHI_PARTIALS, index,
                                (factor, counting(f1), counting(f2)))
        chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.05, omega=1.0)
        frame = StepFrame(chart, make_diffusion("constant", value=1.0),
                          make_grid((0.0, 1.0, 0.0, 1.0), 127, 127), 0.37)
        frame.coefficients   # g1, g2, dt g1, dt g2 on the 129 x 129 nodes
        assert sum(evaluated) == 4 * (129 + 129)
        evaluated.clear()
        frame.centre         # g1, g2 on the 128 x 128 cell centres
        assert sum(evaluated) == 2 * (128 + 128)

    def test_assembly_and_symmetry_check_evaluate_once(self, graph, const_kappa, unit_grid,
                                                        count_calls):
        calls = count_calls(operator, "metric_fields")
        weighted_symmetry_defect(StepFrame(graph, const_kappa, unit_grid, 1.1))
        assert len(calls) == 1


class TestPerturbationBound:
    def test_no_probe_violates_inflated_bound(self, unit_grid):
        from evolvesurf import smallness_report

        chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.05, omega=1.0)
        kap = make_diffusion("constant")
        rep = smallness_report(chart, kap, unit_grid, np.linspace(0, 1, 5), probes=4)
        bound = 2.0 * rep.C_sharp_est * rep.M.sum() * 1.1
        A = assemble_A(unit_grid, rep.lambda1, rep.lambda2)
        B = assemble_B(chart, kap, unit_grid, rep.lambda1, rep.lambda2, 0.9)
        assert sp.issparse(B) and B.format == "dia"
        rng = np.random.default_rng(42)
        for _ in range(100):
            f = rng.standard_normal(unit_grid.ndof)
            lhs = field_l2(B @ f, unit_grid)
            rhs = bound * field_l2(A @ f, unit_grid)
            assert lhs <= rhs


class TestHalfPowerNorm:
    def test_zero_field(self, unit_grid):
        assert half_power_norm(np.zeros(unit_grid.ndof), unit_grid, 1.0, 1.0) == 0.0

    def test_eigenfunction_limit(self, eigenmode):
        vals = []
        for n in (31, 63, 127):
            g = make_grid((0, 1, 0, 1), n, n)
            vals.append(half_power_norm(eigenmode(g), g, 1.0, 1.0))
        target = math.pi / math.sqrt(2.0)
        assert vals[-1] == pytest.approx(target, rel=2e-4)
        assert abs(vals[0] - target) > abs(vals[1] - target) > abs(vals[2] - target)

    def test_homogeneity_in_lambda(self, unit_grid):
        rng = np.random.default_rng(5)
        f = rng.standard_normal(unit_grid.ndof)
        base = half_power_norm(f, unit_grid, 1.0, 2.0)
        doubled = half_power_norm(f, unit_grid, 2.0, 4.0)
        assert doubled == pytest.approx(math.sqrt(2.0) * base, rel=1e-13)


class TestAnisotropicIdentities:
    def test_residuals_drop_by_factor_four(self):
        res = {}
        for n in (31, 63):
            g = make_grid((1, 2, 1, 2), n, n)
            res[n] = verify_anisotropic_identities(g, 1.0, 1.0)
        for key in ("fundsol_residual", "scaled_heat_residual"):
            factor = res[31][key] / res[63][key]
            assert 3.5 <= factor <= 4.5

    def test_anisotropic_weights(self):
        res = {}
        for n in (31, 63):
            g = make_grid((1, 2, 1, 2), n, n)
            res[n] = verify_anisotropic_identities(g, 2.0, 0.5)
        factor = res[31]["fundsol_residual"] / res[63]["fundsol_residual"]
        assert 3.5 <= factor <= 4.5

    def test_origin_in_domain_rejected(self):
        g = make_grid((-1, 1, -1, 1), 15, 15)
        with pytest.raises(ParameterError):
            verify_anisotropic_identities(g, 1.0, 1.0)


# single-node axes, n + 1 prime (11, 17, 151), and 150 x 100, the largest
# grid of any workload
SINE_GRIDS = [(12, 7), (10, 16), (1, 7), (7, 1), (12, 10), (31, 31), (150, 100)]


class TestSolvers:
    @pytest.mark.parametrize("n1,n2", SINE_GRIDS)
    def test_sine_basis_matches_dst_oracle(self, n1, n2):
        from scipy import fft   # the oracle of the test; no run imports it

        grid = make_grid((0.0, 1.5, -0.2, 0.6), n1, n2)
        basis = SineBasis(grid, 0.7, 1.9)
        rng = np.random.default_rng(5)
        # one grid function, and a (pieces, ndof) batch as estimate_C_A passes
        for values in (rng.standard_normal(grid.ndof), rng.standard_normal((8, grid.ndof))):
            fields = values.reshape(values.shape[:-1] + (n1, n2))
            coeffs = fft.dstn(fields, type=1, norm="ortho", axes=(-2, -1))
            got = basis.forward(values)
            assert got.shape == coeffs.shape
            assert np.max(np.abs(got - coeffs)) <= 1e-13 * np.max(np.abs(coeffs))
            ref = fft.idstn(coeffs, type=1, norm="ortho", axes=(-2, -1)).reshape(values.shape)
            got = basis.inverse(coeffs)
            assert got.shape == values.shape
            assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        for n in (n1, n2):
            S = sine_matrix(n)
            assert S is sine_matrix(n)
            assert np.array_equal(S, S.T)
            assert np.max(np.abs(S @ S - np.eye(n))) <= 1e-13
            with pytest.raises(ValueError):
                S[0, 0] = 0.0

    @pytest.mark.parametrize("n1,n2", SINE_GRIDS)
    def test_shifted_A_solver_inverts_I_plus_shift_A(self, n1, n2):
        grid = make_grid((0.0, 1.5, -0.2, 0.6), n1, n2)
        lam1, lam2, shift = 0.7, 1.9, 3e-3
        M = sp.identity(grid.ndof) + shift * assemble_A(grid, lam1, lam2)
        r = np.random.default_rng(3).standard_normal(grid.ndof)
        v = shifted_A_solver(grid, lam1, lam2, shift)(r)
        assert np.linalg.norm(M @ v - r) <= 1e-13 * np.linalg.norm(r)

    def test_factorize_orders_for_low_fill(self):
        grid = make_grid((0.0, 1.5, 0.0, 1.0), 45, 30)
        chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.1, omega=2.0)
        L = assemble_L(chart, make_diffusion("constant", value=1.0), grid, 0.3)
        M = (sp.identity(grid.ndof) + 1e-3 * L).tocsc()
        lu = factorize(M)
        assert lu.nnz < spla.splu(M).nnz
        r = np.ones(grid.ndof)
        assert np.linalg.norm(M @ lu.solve(r) - r) <= 1e-13 * np.linalg.norm(r)
