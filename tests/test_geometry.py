import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evolvesurf import (
    DegenerateChartError,
    DomainError,
    ParameterError,
    eval_chart,
    make_chart,
    make_diffusion,
    make_grid,
    metric_sample,
    motion_velocity,
    nondegeneracy_scan,
    user_chart,
)
from evolvesurf.geometry import PARTIAL_KEYS, GridSpec, _c3, metric_fields

# each preset at its defaults and at parameters the tests use
CHART_CASES = [
    ("flat_static", {}),
    ("isotropic_scaling", {}), ("isotropic_scaling", {"gamma": -0.7}),
    ("graph_oscillation", {}), ("graph_oscillation", {"epsilon": 0.3, "omega": 20.0}),
    ("translating_patch", {}), ("translating_patch", {"c": 1.2}),
]
DIFFUSION_CASES = [
    ("constant", {}), ("constant", {"value": 1.3}),
    ("sinusoidal", {}), ("sinusoidal", {"base": 1.0, "amp": 0.3}),
]
# the variables each partial key differentiates by
KEY_VARIABLES = {
    "x": "", "d1": "1", "d2": "2", "d11": "11", "d12": "12", "d22": "22",
    "dt": "t", "dtd1": "t1", "dtd2": "t2", "dtd11": "t11", "dtd12": "t12", "dtd22": "t22",
}


@contextlib.contextmanager
def dense_meshes():
    """GridSpec meshes that ignore ``sparse``: every site evaluates on dense arrays."""
    with contextlib.ExitStack() as stack:
        for name in ("interior_mesh", "full_mesh", "cell_center_mesh"):
            dense = getattr(GridSpec, name)
            stack.enter_context(mock.patch.object(
                GridSpec, name, lambda self, sparse=False, dense=dense: dense(self)))
        yield


class TestEvalChart:
    def test_flat_is_identity_embedding(self, flat):
        assert_allclose(eval_chart(flat, (0.3, 0.7), 0.5), [0.3, 0.7, 0.0])

    def test_isotropic_doubles_at_log2(self):
        ch = make_chart("isotropic_scaling", horizon=1.0, gamma=1.0)
        assert_allclose(eval_chart(ch, (1.0, 1.0), math.log(2.0)), [2.0, 2.0, 0.0],
                        rtol=1e-14)

    def test_graph_peak_at_quarter_period(self):
        eps, om = 0.05, 1.0
        ch = make_chart("graph_oscillation", horizon=3.0, epsilon=eps, omega=om)
        out = eval_chart(ch, (0.5, 0.5), math.pi / (2.0 * om))
        assert_allclose(out, [0.5, 0.5, eps], rtol=1e-14)

    def test_out_of_domain_raises(self, flat):
        with pytest.raises(DomainError):
            eval_chart(flat, (1.5, 0.5), 0.0)
        with pytest.raises(DomainError):
            eval_chart(flat, (0.5, 0.5), 2.0)


class TestClosedForm:
    """The analytic partials of the presets against sympy derivatives of their builders."""

    DOMAIN = (-0.7, 0.9, -1.3, -0.2)
    T = 0.83

    def points(self):
        a, b, c, d = self.DOMAIN
        rng = np.random.default_rng(5)
        return rng.uniform(a, b, 64), rng.uniform(c, d, 64)

    @staticmethod
    def assert_matches(value, expr, symbols, x1, x2, t):
        import sympy as sp
        ref = np.broadcast_to(np.asarray(sp.lambdify(symbols, expr, "numpy")(x1, x2, t),
                                         dtype=float), x1.shape)
        value = np.broadcast_to(np.asarray(value, dtype=float), x1.shape)
        scale = np.max(np.abs(ref)) or 1.0
        assert np.max(np.abs(value - ref)) <= 1e-13 * scale

    @pytest.mark.parametrize("name, params", CHART_CASES)
    def test_chart_partials_match_sym_builder(self, name, params):
        sp = pytest.importorskip("sympy")
        chart = make_chart(name, domain=self.DOMAIN, horizon=2.0, **params)
        X1, X2, t = symbols = sp.symbols("X1 X2 t", real=True)
        by_name = {"1": X1, "2": X2, "t": t}
        x = chart.sym_builder(X1, X2, t)
        x1, x2 = self.points()
        for key in PARTIAL_KEYS:
            variables = [by_name[v] for v in KEY_VARIABLES[key]]
            values = chart.evals[key](x1, x2, self.T)
            for comp, expr in enumerate(x):
                self.assert_matches(values[comp], sp.diff(expr, *variables) if variables else expr,
                                    symbols, x1, x2, self.T)

    @pytest.mark.parametrize("name, params", DIFFUSION_CASES)
    def test_diffusion_partials_match_sym_builder(self, name, params):
        sp = pytest.importorskip("sympy")
        kappa = make_diffusion(name, **params)
        X1, X2, t = symbols = sp.symbols("X1 X2 t", real=True)
        k = kappa.sym_builder(X1, X2, t)
        x1, x2 = self.points()
        for value, expr in ((kappa.value, k), (kappa.d1, sp.diff(k, X1)),
                            (kappa.d2, sp.diff(k, X2))):
            self.assert_matches(value(x1, x2, self.T), expr, symbols, x1, x2, self.T)

    @pytest.mark.parametrize("name, params", CHART_CASES)
    def test_static_flags(self, name, params):
        chart = make_chart(name, horizon=1.0, **params)
        assert chart.static_metric == (name in ("flat_static", "translating_patch"))

    @pytest.mark.parametrize("name, params", DIFFUSION_CASES)
    def test_diffusions_are_time_independent(self, name, params):
        assert make_diffusion(name, **params).time_independent

    def test_static_flag_is_derived(self):
        assert make_chart("isotropic_scaling", gamma=0.0).static_metric
        assert make_chart("graph_oscillation", epsilon=0.0).static_metric
        assert make_chart("graph_oscillation", omega=0.0).static_metric

    def test_parameter_the_preset_does_not_read(self):
        with pytest.raises(ParameterError, match="'flat_static' does not read epsilon, gamma"):
            make_chart("flat_static", gamma=3.0, epsilon=0.2)
        with pytest.raises(ParameterError, match="'translating_patch' does not read gamma"):
            make_chart("translating_patch", gamma=1.0)

    def test_unknown_preset(self):
        with pytest.raises(ParameterError, match="unknown surface preset"):
            make_chart("banana")


class TestMetricSample:
    def test_flat_identity_package(self, flat):
        ms = metric_sample(flat, (0.2, 0.9), 0.7)
        assert_allclose(ms.g_ab, np.eye(2))
        assert_allclose(ms.ginv_ab, np.eye(2))
        assert ms.G == pytest.approx(1.0)
        assert ms.dGdt == pytest.approx(0.0)

    def test_isotropic_closed_form(self, iso):
        t = 0.6
        ms = metric_sample(iso, (0.4, 0.1), t)
        assert_allclose(ms.g_ab, math.exp(2 * t) * np.eye(2), rtol=1e-13)
        assert_allclose(ms.ginv_ab, math.exp(-2 * t) * np.eye(2), rtol=1e-13)
        assert ms.G == pytest.approx(math.exp(4 * t), rel=1e-13)
        assert ms.dGdt == pytest.approx(4.0 * math.exp(4 * t), rel=1e-13)

    def test_graph_at_zero_time(self, graph):
        ms = metric_sample(graph, (0.3, 0.8), 0.0)
        assert_allclose(ms.g_ab, np.eye(2))
        assert ms.G == pytest.approx(1.0)
        # dG/dt involves products of the vanishing surface slope, so it is 0
        assert ms.dGdt == pytest.approx(0.0, abs=1e-14)

    def test_inverse_identity_random_samples(self, graph):
        rng = np.random.default_rng(7)
        x1 = rng.uniform(0, 1, 500)
        x2 = rng.uniform(0, 1, 500)
        for t in rng.uniform(0, 3.0, 4):
            mf = metric_fields(graph, x1, x2, float(t))
            p11 = mf.ginv11 * mf.g11 + mf.ginv12 * mf.g12
            p12 = mf.ginv11 * mf.g12 + mf.ginv12 * mf.g22
            p22 = mf.ginv12 * mf.g12 + mf.ginv22 * mf.g22
            assert np.max(np.abs(p11 - 1)) < 1e-12
            assert np.max(np.abs(p12)) < 1e-12
            assert np.max(np.abs(p22 - 1)) < 1e-12
            assert np.min(mf.G) > 0


class TestMotionVelocity:
    def test_flat_static_is_zero(self, flat):
        assert_allclose(motion_velocity(flat, (0.5, 0.5), 0.4), [0, 0, 0])

    def test_isotropic_velocity(self, iso):
        assert_allclose(motion_velocity(iso, (1.0, 0.0), 0.0), [1.0, 0.0, 0.0],
                        rtol=1e-13)

    def test_graph_vertical_rate(self):
        eps, om = 0.05, 2.0
        ch = make_chart("graph_oscillation", horizon=3.0, epsilon=eps, omega=om)
        assert_allclose(motion_velocity(ch, (0.5, 0.5), 0.0), [0, 0, eps * om],
                        rtol=1e-13)


class TestFiniteDifferenceFallback:
    def test_second_order_agreement_with_analytic(self, graph):
        bare = user_chart(graph.evals["x"], graph.domain, graph.horizon)
        pt = (0.37, 0.81, 0.9)
        errs = []
        for h in (2e-3, 1e-3, 5e-4):
            fd = metric_fields(bare, pt[0], pt[1], pt[2], h_fd=h, want_derivs=True)
            an = metric_fields(graph, pt[0], pt[1], pt[2], want_derivs=True)
            errs.append(max(abs(float(fd.dGdt - an.dGdt)),
                            abs(float(fd.g11 - an.g11)),
                            abs(float(fd.dG_d1 - an.dG_d1))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.3)

    def test_one_sided_at_boundary_and_t0(self, graph):
        bare = user_chart(graph.evals["x"], graph.domain, graph.horizon)
        fd = metric_fields(bare, 0.0, 0.0, 0.0, h_fd=1e-4)
        an = metric_fields(graph, 0.0, 0.0, 0.0)
        assert float(abs(fd.G - an.G)) < 1e-7
        assert float(abs(fd.dGdt - an.dGdt)) < 1e-6


class TestNondegeneracyScan:
    def test_flat_scan_is_unit(self, flat, unit_grid):
        out = nondegeneracy_scan(flat, unit_grid, [0.0, 0.5, 1.0])
        assert out["lambda_min_est"] == pytest.approx(1.0)
        assert out["lambda_max_est"] == pytest.approx(1.0)

    def test_isotropic_minimum_at_start(self, iso, unit_grid):
        out = nondegeneracy_scan(iso, unit_grid, np.linspace(0, 1, 6))
        assert out["lambda_min_est"] == pytest.approx(1.0, rel=1e-12)

    def test_degenerate_chart_reports_location(self, unit_grid):
        pinch = user_chart(
            _c3(lambda x1, x2, t: (1.0 - t) * x1, lambda x1, x2, t: x2, lambda *a: 0.0),
            (0, 1, 0, 1), 2.0)
        with pytest.raises(DegenerateChartError) as exc:
            nondegeneracy_scan(pinch, unit_grid, [0.0, 1.0])
        assert exc.value.t == pytest.approx(1.0)


class TestGridSpec:
    def test_mesh_widths(self):
        g = make_grid((0, 1, 0, 2), 15, 31)
        assert g.h1 == pytest.approx(1.0 / 16)
        assert g.h2 == pytest.approx(2.0 / 32)
        assert g.ndof == 15 * 31

    def test_row_major_indexing(self, unit_grid):
        assert unit_grid.index(0, 0) == 0
        assert unit_grid.index(0, 1) == 1
        assert unit_grid.index(1, 0) == unit_grid.n2

    def test_meshes_are_dense_unless_asked_open(self):
        g = make_grid((-0.5, 1.0, 0.0, 2.0), 5, 3)
        for mesh, shape in ((g.interior_mesh, (5, 3)), (g.full_mesh, (7, 5)),
                            (g.cell_center_mesh, (6, 4))):
            X1, X2 = mesh()
            o1, o2 = mesh(sparse=True)
            assert X1.shape == X2.shape == shape
            assert (o1.shape, o2.shape) == ((shape[0], 1), (1, shape[1]))
            assert np.array_equal(np.broadcast_to(o1, shape), X1)
            assert np.array_equal(np.broadcast_to(o2, shape), X2)
