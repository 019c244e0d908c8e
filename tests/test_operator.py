import dataclasses
import math
from unittest import mock

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
    assemble_L,
    half_power_norm,
    make_chart,
    make_diffusion,
    make_grid,
    verify_anisotropic_identities,
)
from evolvesurf import geometry, operator
from evolvesurf.coefficients import Diffusion
from evolvesurf.geometry import PRESET_NAMES, metric_fields
from evolvesurf.operator import (
    StepFrame,
    StepFrames,
    coefficient_fields,
    dia_transpose,
    factorize,
    field_l2,
    L_OFFSETS,
    SineBasis,
    max_abs_entry,
    operator_norm_est,
    schur_bound,
    sine_matrix,
    weighted_symmetry_defect,
)

from conftest import count_matmul_madds, count_sparse_products
from oracles import assemble_B, symbolic_operator_apply


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


def coo_L(chart, kappa, grid, t):
    """L(t) from its nine stencil terms, each over the whole grid, through ``coo_stencil_matrix``.

    The arithmetic of every term is the flux form's: face means of C11 and
    C22 per neighbor and centered cross differences of C12, each scaled by
    1/sqrtG.  The DIA assembly must reproduce its entries bit for bit.
    """
    cf = coefficient_fields(chart, kappa, grid, t)
    inv_r = 1.0 / cf["R_int"]

    def shifts(full):   # the interior block and its four neighbor blocks
        return {"c": full[1:-1, 1:-1], "ip": full[2:, 1:-1], "im": full[:-2, 1:-1],
                "jp": full[1:-1, 2:], "jm": full[1:-1, :-2]}

    c11, c22, c12 = (shifts(cf[key]) for key in ("C11", "C22", "C12"))
    face1p = 0.5 * (c11["c"] + c11["ip"])
    face1m = 0.5 * (c11["c"] + c11["im"])
    face2p = 0.5 * (c22["c"] + c22["jp"])
    face2m = 0.5 * (c22["c"] + c22["jm"])
    q1 = inv_r / grid.h1 ** 2
    q2 = inv_r / grid.h2 ** 2
    qx = inv_r / (4.0 * grid.h1 * grid.h2)
    return coo_stencil_matrix(grid, [
        (1, 0, -face1p * q1), (-1, 0, -face1m * q1),
        (0, 1, -face2p * q2), (0, -1, -face2m * q2),
        (0, 0, (face1p + face1m) * q1 + (face2p + face2m) * q2 + cf["d0"]),
        (1, 1, -(c12["ip"] + c12["jp"]) * qx),
        (-1, -1, -(c12["im"] + c12["jm"]) * qx),
        (1, -1, (c12["ip"] + c12["jm"]) * qx),
        (-1, 1, (c12["im"] + c12["jp"]) * qx),
    ])


def term_list_lower_order_parts(grid, cf):
    """B2, B3, B4 from (di, dj, coefficient) term lists through ``operator._stencil_matrix``.

    The reference of ``lower_order_parts``, which writes the same terms
    straight into its diagonals: per direction d and index pair (a, b), the
    centered difference of C^ab = K R g^ab split into its three product-rule
    terms, each with its own bars and deltas.
    """
    inv_r = 1.0 / cf["R_int"]
    K = cf["K"]
    R = cf["R"]
    ginv = {"11": cf["Ginv11"], "12": cf["Ginv12"], "22": cf["Ginv22"]}

    def sh(arr, d):
        return (arr[2:, 1:-1], arr[:-2, 1:-1]) if d == 1 else (arr[1:-1, 2:], arr[1:-1, :-2])

    def bar(arr, d):
        p, m = sh(arr, d)
        return 0.5 * (p + m)

    def delta(arr, d):
        p, m = sh(arr, d)
        return (p - m) / (2.0 * (grid.h1 if d == 1 else grid.h2))

    def dc1(r):
        q = 1.0 / (2.0 * grid.h1)
        return [(1, 0, r * q), (-1, 0, -r * q)]

    def dc2(r):
        q = 1.0 / (2.0 * grid.h2)
        return [(0, 1, r * q), (0, -1, -r * q)]

    def m1d2(r):   # average over i+-1 of the centered X2 difference
        q = 1.0 / (4.0 * grid.h2)
        return [(1, 1, r * q), (1, -1, -r * q), (-1, 1, r * q), (-1, -1, -r * q)]

    def m2d1(r):
        q = 1.0 / (4.0 * grid.h1)
        return [(1, 1, r * q), (-1, 1, -r * q), (1, -1, r * q), (-1, -1, -r * q)]

    terms = {"B2": [], "B3": [], "B4": []}
    for (d, ab), op in {(1, "11"): dc1, (2, "22"): dc2, (1, "12"): m1d2, (2, "12"): m2d1}.items():
        Q = R * ginv[ab]
        terms["B3"] += op(-(bar(K, d) * bar(R, d) * delta(ginv[ab], d) * inv_r))
        terms["B2"] += op(-(bar(K, d) * delta(R, d) * bar(ginv[ab], d) * inv_r))
        terms["B4"] += op(-(delta(K, d) * bar(Q, d) * inv_r))
    return {name: operator._stencil_matrix(grid, part) for name, part in terms.items()}


def assembled_by_coo(assemble, *args):
    """The COO reference of ``assemble(*args)``.

    ``assemble_L`` writes its diagonals itself and has ``coo_L``; the other
    assemblies go through ``_stencil_matrix``, replaced by the COO reference,
    and the first-order B parts through their term lists.
    """
    if assemble is assemble_L:
        return coo_L(*args)

    with mock.patch.object(operator, "_stencil_matrix", coo_stencil_matrix), \
            mock.patch.object(operator, "lower_order_parts", term_list_lower_order_parts):
        return assemble(*args)


def diagonal_stencil_weights(mat, grid):
    """Mean X1 and X2 neighbor weights read off the diagonals +-n2 and +-1 of ``mat``.

    The entries of each coupling (di, dj) are laid out on the grid at their
    columns, in-row ones only, and summed per coupling as ``stencil_weights``
    sums its views.
    """
    n1, n2, ndof = grid.n1, grid.n2, mat.shape[0]

    def coupling_sum(di, dj):
        k = di * n2 + dj
        at_columns = np.zeros(ndof)
        at_columns[max(k, 0):ndof + min(k, 0)] = mat.diagonal(k)
        rows = slice(max(di, 0), n1 + min(di, 0))
        cols = slice(max(dj, 0), n2 + min(dj, 0))   # skips the row-wrap positions
        return at_columns.reshape(n1, n2)[rows, cols].sum()

    def mean_weight(di, dj, h):
        count = 2 * (n1 - abs(di)) * (n2 - abs(dj))
        return -(coupling_sum(di, dj) + coupling_sum(-di, -dj)) / count * h ** 2 if count else 0.0

    return mean_weight(1, 0, grid.h1), mean_weight(0, 1, grid.h2)


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
            assert operator_norm_est(parts[f"B{i}"], steps=5) == 0.0

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

    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("kappa_name", ["constant", "sinusoidal"])
    def test_first_order_parts_equal_the_term_list_assembly(self, name, kappa_name):
        # bit for bit: data and offsets; a non-square grid on a non-unit rectangle
        domain = (-0.5, 1.0, 0.2, 1.4)
        grid = make_grid(domain, 13, 9)
        chart = make_chart(name, domain=domain, horizon=2.0)
        kappa = make_diffusion(kappa_name)
        for t in (0.0, 0.37, 0.9, 1.6):
            cf = coefficient_fields(chart, kappa, grid, t)
            ref = term_list_lower_order_parts(grid, cf)
            parts = operator.lower_order_parts(grid, cf)
            assert list(parts) == ["B2", "B3", "B4"]
            for key, part in parts.items():
                assert part.offsets.tolist() == ref[key].offsets.tolist()
                assert part.data.tobytes() == ref[key].data.tobytes()


def b_parts_sweep(domain, n1, n2):
    """(grid, B part) over every preset, both diffusivities and t in {0, 0.37, 0.9}."""
    grid = make_grid(domain, n1, n2)
    for name in PRESET_NAMES:
        chart = make_chart(name, domain=domain, horizon=1.0)
        for kappa_name in ("constant", "sinusoidal"):
            for t in (0.0, 0.37, 0.9):
                parts = assemble_B_parts(chart, make_diffusion(kappa_name), grid, 0.9, 0.8, t)
                for part in parts.values():
                    yield grid, part


NORM_GRIDS = pytest.mark.parametrize("domain,n1,n2", [((0.0, 1.0, 0.0, 1.0), 15, 11),
                                                      ((-0.5, 1.0, 0.2, 1.4), 13, 9)],
                                     ids=["unit-square", "rectangle"])


PICARD_SEED_1 = """
[surface]
preset = graph_oscillation
T = 0.05
epsilon = 0.05427769606270507
omega = 0.9068585705196024

[grid]
n1 = 63
n2 = 63

[time]
dt = 0.001

[solver]
seed = 576870710
"""


def assert_top_eigenvalue_matches_oracle(alpha, beta):
    from scipy.linalg import eigvalsh_tridiagonal   # the oracle of the test; no run imports it

    last = len(alpha) - 1
    ref = eigvalsh_tridiagonal(alpha, beta, select="i", select_range=(last, last))[0]
    assert abs(operator._top_eigenvalue(alpha, beta) - ref) <= 1e-14 * abs(ref)


def dense_schur_bound(part):
    dense = np.abs(part.toarray())
    return math.sqrt(dense.sum(axis=0).max() * dense.sum(axis=1).max())


class TestSchurBound:
    """``schur_bound``: sqrt(||M||_1 ||M||_inf) read off the DIA diagonals."""

    @NORM_GRIDS
    def test_bounds_the_dense_norm_and_equals_the_dense_schur_product(self, domain, n1, n2):
        for _, part in b_parts_sweep(domain, n1, n2):
            sigma = np.linalg.svd(part.toarray(), compute_uv=False)[0]
            ref = dense_schur_bound(part)
            bound = schur_bound(part)
            assert bound >= sigma
            assert abs(bound - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("n1,n2", [(1, 7), (7, 1), (2, 6), (6, 2), (2, 1), (1, 1)])
    def test_single_and_double_node_axes(self, graph, n1, n2):
        # offsets meet on one diagonal, or lie past the matrix
        grid = make_grid(graph.domain, n1, n2)
        kappa = make_diffusion("sinusoidal")
        for part in assemble_B_parts(graph, kappa, grid, 0.9, 0.8, 0.37).values():
            ref = dense_schur_bound(part)
            assert abs(schur_bound(part) - ref) <= 1e-14 * ref

    def test_zero_matrix(self, unit_grid):
        n = unit_grid.ndof
        assert schur_bound(sp.dia_matrix((n, n))) == 0.0
        assert schur_bound(assemble_A(unit_grid, 1.0, 1.0) * 0.0) == 0.0


class TestNormEstimate:
    """``operator_norm_est``: Lanczos on M^T M with full reorthogonalization."""

    @NORM_GRIDS
    def test_full_krylov_space_gives_the_dense_norm(self, domain, n1, n2):
        # B5 is diagonal with repeated entries: its Krylov space is exhausted
        # long before ndof steps, where a breakdown test too loose for the
        # rounding left after one Gram-Schmidt pass overshoots sigma_max
        for grid, part in b_parts_sweep(domain, n1, n2):
            sigma = np.linalg.svd(part.toarray(), compute_uv=False)[0]
            estimate = operator_norm_est(part, steps=grid.ndof)
            assert abs(estimate - sigma) <= 1e-8 * sigma

    @NORM_GRIDS
    def test_default_steps_stay_below_the_dense_norm(self, domain, n1, n2):
        for _, part in b_parts_sweep(domain, n1, n2):
            sigma = np.linalg.svd(part.toarray(), compute_uv=False)[0]
            assert operator_norm_est(part) <= sigma * (1.0 + 1e-12)

    def test_diagonal_part_breaks_down_early(self, iso, const_kappa, monkeypatch):
        # isotropic_scaling has d0 = 2 gamma everywhere: one Lanczos step spans
        # the Krylov space of B5, whose norm is then exact
        grid = make_grid((0.0, 1.0, 0.0, 1.0), 15, 11)
        b5 = assemble_B_parts(iso, const_kappa, grid, 0.9, 0.8, 0.37)["B5"]
        products = count_sparse_products(monkeypatch)
        assert operator_norm_est(b5, steps=grid.ndof) == pytest.approx(2.0, rel=1e-14)
        assert len(products["dia"]) == 2 and not products["csr"]

    @pytest.mark.parametrize("steps", [0, -3])
    def test_no_steps_rejected(self, unit_grid, steps):
        with pytest.raises(ParameterError, match="steps"):
            operator_norm_est(assemble_A(unit_grid, 1.0, 1.0), steps=steps)

    def test_zero_matrix(self, unit_grid):
        n = unit_grid.ndof
        assert operator_norm_est(sp.dia_matrix((n, n))) == 0.0
        assert operator_norm_est(assemble_A(unit_grid, 1.0, 1.0) * 0.0) == 0.0

    @pytest.mark.parametrize("k", range(1, 16))
    def test_top_eigenvalue_matches_the_tridiagonal_oracle(self, k):
        # Lanczos tridiagonals of M^T M are B^T B for an upper bidiagonal B
        # (diagonal d, superdiagonal e); these span six decades of scale
        rng = np.random.default_rng(k)
        for _ in range(20):
            d, e = 10.0 ** rng.uniform(-3, 3) * rng.uniform(0.1, 1.0, size=(2, k))
            alpha, beta = d * d + np.r_[0.0, e[:-1] ** 2], d[:-1] * e[:-1]
            assert_top_eigenvalue_matches_oracle(alpha, beta)

    def test_top_eigenvalue_matches_the_oracle_on_a_smallness_report(self, monkeypatch):
        # the 33 tridiagonals (11 scan times x B2..B4) of the picard benchmark
        # workload's seed-1 configuration, every scan time estimated
        from evolvesurf import cli, config
        from test_coefficients import exhaustive_C_star_sums

        seen = []

        def recording(alpha, beta):
            seen.append((list(alpha), list(beta)))
            return top(alpha, beta)

        top = operator._top_eigenvalue
        cfg = config.parse_config(PICARD_SEED_1)
        monkeypatch.setattr(operator, "_top_eigenvalue", recording)
        exhaustive_C_star_sums(cli.config_chart(cfg), cli.config_diffusion(cfg),
                               cli.config_grid(cfg), config.scan_times_list(cfg), cfg.seed)
        monkeypatch.undo()
        assert len(seen) == 33
        for alpha, beta in seen:
            assert_top_eigenvalue_matches_oracle(alpha, beta)

    @pytest.mark.parametrize("n1,n2", [(1, 7), (7, 1), (2, 6), (6, 2), (2, 1), (1, 1), (9, 5)])
    def test_dia_transpose_products_equal_csr_transpose(self, graph, n1, n2):
        # on an axis of one or two nodes two stencil offsets meet on one diagonal
        grid = make_grid(graph.domain, n1, n2)
        x = np.random.default_rng(7).standard_normal(grid.ndof)
        kappa = make_diffusion("sinusoidal")
        mats = [assemble_L(graph, kappa, grid, 0.37),
                *assemble_B_parts(graph, kappa, grid, 0.9, 0.8, 0.37).values()]
        for m in mats:
            mt = dia_transpose(m)
            assert mt.format == "dia" and list(mt.offsets) == sorted(mt.offsets)
            assert_same_entries(mt, m.T.tocsr())
            assert (mt @ x).tobytes() == (m.T.tocsr() @ x).tobytes()


class TestStepFrame:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("domain,n1,n2", [((0.0, 1.0, 0.0, 1.0), 127, 127),
                                              ((0.0, 1.5, 0.0, 0.8), 20, 13),
                                              ((0.0, 1.5, 0.0, 1.0), 150, 100)])
    def test_interior_slice_equals_interior_evaluation(self, name, domain, n1, n2):
        chart = make_chart(name, domain=domain, horizon=1.0)
        grid = make_grid(domain, n1, n2)
        X1, X2 = grid.interior_mesh()
        kappa = make_diffusion("constant", value=1.0)
        for t in (0.0, 0.37):
            mf = metric_fields(chart, X1, X2, t, want_dGdt=False)
            assert np.array_equal(StepFrame(chart, kappa, grid, t).interior_sqrtG, mf.sqrtG)

    def test_pieces_equal_standalone_evaluations(self, graph):
        grid = make_grid((0.0, 1.5, 0.0, 0.8), 20, 13)
        kap = make_diffusion("sinusoidal", base=1.0, amp=0.2)
        frame = StepFrame(graph, kap, grid, 0.7)
        ref = coefficient_fields(graph, kap, grid, 0.7)
        assert frame.coefficients.keys() == ref.keys()
        for key, arr in ref.items():
            assert np.array_equal(frame.coefficients[key], arr)
        assert (frame.L != assemble_L(graph, kap, grid, 0.7)).nnz == 0
        # each cell's four corners, in the order the frame adds them
        for got, key in zip(frame.cell_fluxes, ("C11", "C12", "C22"), strict=True):
            c = ref[key]
            means = 0.25 * (c[:-1, :-1] + c[1:, :-1] + c[:-1, 1:] + c[1:, 1:])
            assert got.shape == (grid.n1 + 1, grid.n2 + 1)
            assert got.tobytes() == means.tobytes()

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
        frame.cell_fluxes    # corner means of the coefficients: no evaluation
        assert evaluated == []

    @pytest.mark.parametrize("bad", [-0.25, 0.0, math.nan])
    def test_frame_refuses_a_diffusivity_that_is_not_positive(self, graph, unit_grid, bad):
        # one bad node, on the boundary ring: the full mesh is checked
        def value(x1, x2, t):
            k = np.ones(np.broadcast_shapes(np.shape(x1), np.shape(x2)))
            k[-1, 0] = bad
            return k

        zero = lambda x1, x2, t: 0.0
        frame = StepFrame(graph, Diffusion("spot", value, d1=zero, d2=zero), unit_grid, 0.37)
        with pytest.raises(AssumptionViolationError,
                           match=rf"^kappa must be strictly positive; minimum {bad:.6g} "
                                 r"at t = 0\.37$"):
            frame.coefficients

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


# single-node axes, n + 1 prime (11, 17, 151), 150 x 100, the largest grid of
# any workload, and axes at and above SINE_FOLD_NODES = 101 that fold: odd
# (127 x 129), even by odd (128 x 101), and beside a dense axis (128 x 100)
SINE_GRIDS = [(12, 7), (10, 16), (1, 7), (7, 1), (12, 10), (31, 31), (150, 100),
              (127, 129), (128, 101), (128, 100)]


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

    def test_folded_axes_halve_the_sine_products(self, monkeypatch):
        # multiply-adds of one 2-D transform, from the operand shapes: a folded
        # axis of n nodes costs n ceil(n/2) per column instead of n^2, and an
        # axis below SINE_FOLD_NODES keeps its dense product
        madds = count_matmul_madds(monkeypatch)
        n = operator.SINE_FOLD_NODES
        c, f = (n + 1) // 2, n // 2   # the halves of an n-node axis: sums, differences

        def transform(n1, n2, fold_nodes=n):
            monkeypatch.setattr(operator, "SINE_FOLD_NODES", fold_nodes)
            basis = SineBasis(make_grid((0.0, 1.0, 0.0, 1.0), n1, n2), 1.0, 1.0)
            madds.clear()
            basis.forward(np.ones(n1 * n2))
            return list(madds)

        dense = 10 ** 6   # no axis folds
        assert sum(transform(127, 127, dense)) == 4_096_766
        assert sum(transform(127, 127)) == 2_064_512
        assert transform(63, 63) == transform(63, 63, dense) == [63 ** 3] * 2
        assert transform(128, n - 1) == [64 * 64 * (n - 1)] * 2 + [128 * (n - 1) ** 2]
        assert transform(128, n - 1, dense)[-1] == 128 * (n - 1) ** 2
        assert transform(n - 1, n) == [(n - 1) ** 2 * n, (n - 1) * c * c, (n - 1) * c * f]
        assert transform(n - 1, n, dense)[0] == (n - 1) ** 2 * n

    @pytest.mark.parametrize("n1,n2", SINE_GRIDS)
    def test_shifted_solver_inverts_I_plus_shift_A(self, n1, n2):
        grid = make_grid((0.0, 1.5, -0.2, 0.6), n1, n2)
        lam1, lam2, shift = 0.7, 1.9, 3e-3
        M = sp.identity(grid.ndof) + shift * assemble_A(grid, lam1, lam2)
        r = np.random.default_rng(3).standard_normal(grid.ndof)
        v = SineBasis(grid, lam1, lam2).shifted_solver(lam1, lam2, shift)(r)
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
