import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evolvesurf import (
    ParameterError,
    decay_report,
    energy_report,
    make_chart,
    make_diffusion,
    make_grid,
    manufactured_solution,
    material_derivative,
    mms_convergence,
    regularity_report,
    solve_direct,
    surface_grad_sq,
    surface_integral,
    transport_identity_residual,
)
from evolvesurf.diagnostics import (
    _cell_center_gradients,
    _grad_sq,
    _mass,
    manufactured_forcing,
    surface_gradient_components,
    solve_reported,
    surface_mass,
    symbolic_operator_apply,
)
from evolvesurf.geometry import PRESET_NAMES, metric_fields
from evolvesurf.operator import (assemble_L, coefficient_fields, field_l2, half_power_norm,
                                 sobolev_h1_norm)
from evolvesurf import diagnostics, operator
from evolvesurf.timestepper import Trajectory


def sinsin(x1, x2, t):
    return np.sin(np.pi * x1) * np.sin(np.pi * x2)


class TestSurfaceIntegral:
    def test_flat_unit_area(self, flat, unit_grid):
        assert surface_integral(lambda a, b, t: 1.0, flat, unit_grid, 0.5) == pytest.approx(1.0)

    def test_isotropic_area_dilation(self, iso, unit_grid):
        t = 0.8
        out = surface_integral(lambda a, b, tt: 1.0, iso, unit_grid, t)
        assert out == pytest.approx(math.exp(2.0 * t), rel=1e-12)

    def test_sine_product_refinement(self, flat):
        target = 4.0 / math.pi ** 2
        errs = []
        for n in (15, 31, 63):
            g = make_grid((0, 1, 0, 1), n, n)
            errs.append(abs(surface_integral(sinsin, flat, g, 0.0) - target))
        assert errs[0] / errs[2] == pytest.approx(16.0, rel=0.2)


class TestSurfaceGradSq:
    def test_zero_field(self, flat, unit_grid):
        assert surface_grad_sq(np.zeros(unit_grid.ndof), flat, unit_grid, 0.0) == 0.0

    def test_eigenfunction_refinement(self, flat, eigenmode):
        target = math.pi ** 2 / 2.0
        errs = []
        for n in (15, 31, 63):
            g = make_grid((0, 1, 0, 1), n, n)
            errs.append(abs(surface_grad_sq(eigenmode(g), flat, g, 0.0) - target))
        assert errs[2] / target < 1e-3
        assert errs[0] / errs[2] == pytest.approx(16.0, rel=0.3)

    def test_componentwise_contraction_identity(self, graph, unit_grid, eigenmode):
        # ambient 3-component form vs contracted quadratic form, per node
        phi = eigenmode(unit_grid)
        comps, mf = surface_gradient_components(phi, graph, unit_grid, 0.9)
        sq_components = np.einsum("kij,kij->ij", comps, comps)
        d1, d2 = _cell_center_gradients(phi, unit_grid)
        sq_contracted = (mf.ginv11 * d1 * d1 + 2.0 * mf.ginv12 * d1 * d2
                         + mf.ginv22 * d2 * d2)
        assert np.max(np.abs(sq_components - sq_contracted)) < 1e-10

    def test_nonnegative_on_random_fields(self, graph, unit_grid):
        rng = np.random.default_rng(2)
        for _ in range(5):
            f = rng.standard_normal(unit_grid.ndof)
            assert surface_grad_sq(f, graph, unit_grid, 1.7) >= 0.0

    def test_dissipation_bracketed_by_metric_bounds(self, graph, unit_grid):
        # kappa_min * (flat energy * metric floor) <= dissipation <= the
        # analogous ceiling, with pointwise 2x2 eigenvalue bounds of the
        # weighted inverse metric
        from evolvesurf.geometry import metric_fields

        kap = make_diffusion("sinusoidal", base=1.0, amp=0.3)
        t = 1.3
        C1, C2 = unit_grid.cell_center_mesh()
        mf = metric_fields(graph, C1, C2, t, want_dGdt=False)
        tr = mf.ginv11 + mf.ginv22
        disc = np.sqrt((mf.ginv11 - mf.ginv22) ** 2 + 4.0 * mf.ginv12 ** 2)
        lo = float(np.min(0.5 * (tr - disc) * mf.sqrtG))
        hi = float(np.max(0.5 * (tr + disc) * mf.sqrtG))
        kvals = kap.value(C1, C2, t)
        kmin, kmax = float(np.min(kvals)), float(np.max(kvals))

        rng = np.random.default_rng(8)
        flat_chart = make_chart("flat_static", horizon=2.0)
        for _ in range(5):
            f = rng.standard_normal(unit_grid.ndof)
            flat_energy = surface_grad_sq(f, flat_chart, unit_grid, 0.0)
            diss = surface_grad_sq(f, graph, unit_grid, t, kappa=kap)
            assert kmin * lo * flat_energy <= diss * (1 + 1e-12)
            assert diss <= kmax * hi * flat_energy * (1 + 1e-12)


class TestEnergyReport:
    def test_flat_eigenmode_balance(self, flat, const_kappa, eigenmode):
        # closed form: mass(t) = e^{-4 pi^2 t}/8, dissipation = (1-e^{-4pi^2 t})/8
        grid = make_grid((0, 1, 0, 1), 63, 63)
        traj = solve_direct(flat, const_kappa, grid, eigenmode(grid), 0.05, 1e-3)
        led = energy_report(traj, flat, const_kappa, grid)
        assert led.mass[0] == pytest.approx(0.125, rel=1e-3)
        k = 25
        t = float(led.times[k])
        assert led.mass[k] == pytest.approx(0.125 * math.exp(-4 * math.pi ** 2 * t), rel=5e-3)
        assert led.max_rel_residual() <= 1e-3
        assert np.all(np.diff(led.dissipation) >= 0.0)

    def test_zero_trajectory_zero_residuals(self, flat, const_kappa, unit_grid):
        traj = solve_direct(flat, const_kappa, unit_grid,
                            np.zeros(unit_grid.ndof), 0.02, 2e-3)
        led = energy_report(traj, flat, const_kappa, unit_grid)
        assert_allclose(led.residual_abs, 0.0)

    def test_residual_refines_on_moving_surface(self, const_kappa, eigenmode):
        chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.05, omega=1.0)
        residuals = []
        for n, dt in ((15, 4e-3), (31, 2e-3)):
            g = make_grid((0, 1, 0, 1), n, n)
            traj = solve_direct(chart, const_kappa, g, eigenmode(g), 0.05, dt)
            residuals.append(energy_report(traj, chart, const_kappa, g).max_rel_residual())
        assert residuals[1] <= residuals[0] / 2.0  # order >= 1


class TestDecayReport:
    def test_flat_eigenmode_ratio_tiny_at_t1(self, flat, const_kappa, eigenmode):
        grid = make_grid((0, 1, 0, 1), 31, 31)
        traj = solve_direct(flat, const_kappa, grid, eigenmode(grid), 1.0, 5e-3)
        rep = decay_report(traj, flat, grid, t_min=0.99)
        # sqrt(1) * (e^{-2 pi^2}/2) / ||u0||_{W^{1,2}} ~ 5.9e-10
        assert rep["sup_bound"] == pytest.approx(5.9e-10, rel=0.3)

    def test_sup_bound_below_one_and_monotone(self, flat, const_kappa, eigenmode):
        grid = make_grid((0, 1, 0, 1), 31, 31)
        traj = solve_direct(flat, const_kappa, grid, eigenmode(grid), 1.0, 5e-3)
        rep = decay_report(traj, flat, grid, t_min=0.1)
        assert rep["sup_bound"] <= 1.0
        assert rep["monotone"]

    def test_ratio_decreasing_past_the_hump(self, flat, const_kappa, eigenmode):
        grid = make_grid((0, 1, 0, 1), 31, 31)
        traj = solve_direct(flat, const_kappa, grid, eigenmode(grid), 1.0, 5e-3)
        norms = [math.sqrt(surface_mass(traj.fields[k], flat, grid, 0.0))
                 for k in range(traj.nsteps + 1)]
        ratios = [math.sqrt(t) * n for t, n in zip(traj.times, norms)]
        k1 = np.searchsorted(traj.times, 0.2)
        k2 = np.searchsorted(traj.times, 0.4)
        assert ratios[k2] < ratios[k1]

    def test_zero_datum_rejected(self, flat, const_kappa, unit_grid):
        traj = solve_direct(flat, const_kappa, unit_grid,
                            np.zeros(unit_grid.ndof), 0.02, 2e-3)
        with pytest.raises(ParameterError):
            decay_report(traj, flat, unit_grid)


class TestMaterialDerivative:
    def test_constant_in_time_gives_zero(self, unit_grid, eigenmode):
        f = eigenmode(unit_grid)
        traj = Trajectory(np.linspace(0, 1, 11), np.tile(f, (11, 1)), 0.1, unit_grid)
        assert_allclose(material_derivative(traj, 5), 0.0)

    def test_flat_eigenmode_rate(self, flat, const_kappa, eigenmode):
        grid = make_grid((0, 1, 0, 1), 31, 31)
        traj = solve_direct(flat, const_kappa, grid, eigenmode(grid), 0.05, 1e-3)
        md = material_derivative(traj, 25)
        ref = -2.0 * math.pi ** 2 * traj.fields[25]
        assert isinstance(md, np.ndarray)
        assert np.max(np.abs(md - ref)) / np.max(np.abs(ref)) < 5e-3

    def test_translation_invariance(self, flat, const_kappa, eigenmode):
        grid = make_grid((0, 1, 0, 1), 15, 15)
        moving = make_chart("translating_patch", horizon=1.0, c=1.0)
        phi = eigenmode(grid)
        t1 = solve_direct(flat, const_kappa, grid, phi, 0.05, 5e-3)
        t2 = solve_direct(moving, const_kappa, grid, phi, 0.05, 5e-3)
        assert_allclose(material_derivative(t2, 5),
                        material_derivative(t1, 5), atol=1e-13)

    def test_endpoint_rejected(self, flat, const_kappa, unit_grid, eigenmode):
        traj = solve_direct(flat, const_kappa, unit_grid, eigenmode(unit_grid),
                            0.02, 2e-3)
        with pytest.raises(ParameterError):
            material_derivative(traj, 0)


class TestTransportIdentity:
    @pytest.mark.parametrize("name,params", [
        ("flat_static", {}),
        ("isotropic_scaling", {"gamma": 1.0}),
        ("graph_oscillation", {"epsilon": 0.05, "omega": 1.0}),
        ("translating_patch", {"c": 1.5}),
    ])
    def test_presets(self, name, params):
        chart = make_chart(name, horizon=2.0, **params)
        grid = make_grid((0, 1, 0, 1), 24, 24)
        assert transport_identity_residual(chart, grid, 0.7) < 1e-5


class TestRegularityReport:
    def test_quotient_finite_and_stable(self, flat, const_kappa, eigenmode):
        grid = make_grid((0, 1, 0, 1), 24, 24)
        traj = solve_direct(flat, const_kappa, grid, eigenmode(grid), 0.2, 5e-3)
        rep = regularity_report(traj, flat, const_kappa, grid)
        assert np.isfinite(rep["quotient"])
        # eigenmode closed form: both time and diffusion norms equal
        # 2 pi^2 sqrt(int e^{-4pi^2 t} u0^2) ~ mild O(1) numbers
        assert 0.1 < rep["quotient"] < 10.0


class TestStaticChartDiagnostics:
    """A static metric and a time-independent kappa are evaluated once per mesh."""

    GRID = make_grid((0.0, 1.5, 0.0, 1.0), 14, 9)

    CHART = make_chart("translating_patch", domain=GRID.domain, horizon=1.0, c=1.2)
    KAPPA = make_diffusion("sinusoidal", base=1.0, amp=0.2)

    def _march(self, T):
        return solve_direct(self.CHART, self.KAPPA, self.GRID, _bump(self.GRID), T, 5e-3)

    def _reports(self, traj, chart, kappa, monkeypatch):
        """The three reports and the number of metric_fields calls they made."""
        calls = 0
        real = diagnostics.metric_fields

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return real(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(diagnostics, "metric_fields", counting)
            m.setattr(operator, "metric_fields", counting)
            reps = (energy_report(traj, chart, kappa, self.GRID),
                    decay_report(traj, chart, self.GRID),
                    regularity_report(traj, chart, kappa, self.GRID))
        return reps, calls

    def test_equal_to_per_step_evaluation(self, monkeypatch):
        traj = self._march(0.1)
        (led, dec, reg), _ = self._reports(traj, self.CHART, self.KAPPA, monkeypatch)
        # the same chart and diffusivity flagged as moving are evaluated per step
        moving = dataclasses.replace(self.CHART, static_metric=False)
        varying = dataclasses.replace(self.KAPPA, time_independent=False)
        (led_ref, dec_ref, reg_ref), n_ref = self._reports(traj, moving, varying, monkeypatch)
        assert n_ref > 3 * traj.nsteps
        for name in ("times", "mass", "dissipation", "residual_abs", "residual_rel"):
            assert np.array_equal(getattr(led, name), getattr(led_ref, name))
        assert dec == dec_ref
        assert reg == reg_ref

    def test_metric_calls_independent_of_nsteps(self, monkeypatch):
        _, n_short = self._reports(self._march(0.05), self.CHART, self.KAPPA, monkeypatch)
        _, n_long = self._reports(self._march(0.2), self.CHART, self.KAPPA, monkeypatch)
        assert n_short == n_long


def _per_step_reports(traj, chart, kappa, grid):
    """The three reports with every step time evaluated afresh on each mesh."""
    X1, X2 = grid.interior_mesh()
    C1, C2 = grid.cell_center_mesh()
    nt = len(traj.times)
    mass, rate, norms = np.empty(nt), np.empty(nt), np.empty(nt)
    dt_sq, div_sq = np.empty(nt - 2), np.empty(nt - 2)
    for k, t in enumerate(traj.times):
        u = traj.fields[k]
        sqrtG = metric_fields(chart, X1, X2, t, h_fd=grid.h_fd, want_dGdt=False).sqrtG
        mf_c = metric_fields(chart, C1, C2, t, h_fd=grid.h_fd, want_dGdt=False)
        kap_c = np.broadcast_to(np.asarray(kappa.value(C1, C2, t), dtype=float), C1.shape)
        mass[k] = 0.5 * _mass(u, grid, sqrtG)
        rate[k] = _grad_sq(u, grid, mf_c, kap_c)
        norms[k] = math.sqrt(_mass(u, grid, sqrtG))
        if 0 < k < nt - 1:
            L = assemble_L(chart, kappa, grid, t)
            d0 = coefficient_fields(chart, kappa, grid, t)["d0"].ravel()
            dt_sq[k - 1] = _mass(material_derivative(traj, k), grid, sqrtG)
            div_sq[k - 1] = _mass(-(L @ u - d0 * u), grid, sqrtG)
    diss = np.concatenate([[0.0], np.cumsum(0.5 * traj.dt * (rate[1:] + rate[:-1]))])
    resid = np.abs(mass + diss - mass[0])
    w_decay = math.hypot(field_l2(traj.fields[0], grid),
                         half_power_norm(traj.fields[0], grid, 1.0, 1.0))
    mask = traj.times > 0.0
    dt_norm = math.sqrt(np.sum(traj.dt * dt_sq))
    div_norm = math.sqrt(np.sum(traj.dt * div_sq))
    ledger = {"times": traj.times, "mass": mass, "dissipation": diss,
              "residual_abs": resid, "residual_rel": resid / mass[0]}
    decay = {"sup_bound": float(np.max(np.sqrt(traj.times[mask]) * norms[mask]) / w_decay),
             "monotone": bool(np.all(np.diff(norms) <= 1e-12 * max(norms[0], 1.0)))}
    regularity = {"quotient": (dt_norm + div_norm) / sobolev_h1_norm(traj.fields[0], grid),
                  "material_norm": dt_norm, "diffusion_norm": div_norm}
    return ledger, decay, regularity


class TestReportsFromStepFrames:
    """The reports read from the step frames equal a per-step re-evaluation."""

    CASES = {
        "unit": ((0.0, 1.0, 0.0, 1.0), 16, 16),
        "rectangle": ((0.0, 1.5, 0.0, 0.8), 20, 13),
    }

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equal_to_per_step_evaluation(self, case, theta):
        domain, n1, n2 = self.CASES[case]
        grid = make_grid(domain, n1, n2)
        chart = make_chart("graph_oscillation", domain=domain, horizon=1.0,
                           epsilon=0.3, omega=20.0)
        kappa = make_diffusion("sinusoidal", base=1.0, amp=0.2)
        traj, led, dec, reg = solve_reported(chart, kappa, grid, _bump(grid), 0.03, 2e-3,
                                             theta=theta)
        assert np.array_equal(traj.fields,
                              solve_direct(chart, kappa, grid, _bump(grid), 0.03, 2e-3,
                                           theta=theta).fields)
        led_ref, dec_ref, reg_ref = _per_step_reports(traj, chart, kappa, grid)
        standalone = (energy_report(traj, chart, kappa, grid), decay_report(traj, chart, grid),
                      regularity_report(traj, chart, kappa, grid))
        for ledger, decay, regularity in ((led, dec, reg), standalone):
            for name, ref in led_ref.items():
                assert np.array_equal(getattr(ledger, name), ref)
            assert decay == dec_ref
            assert regularity == reg_ref

    def test_short_march_has_no_regularity_report(self, flat, const_kappa, eigenmode):
        grid = make_grid((0, 1, 0, 1), 8, 8)
        traj, led, dec, reg = solve_reported(flat, const_kappa, grid, eigenmode(grid),
                                             1e-3, 1e-3)
        assert traj.nsteps == 1 and reg is None
        assert len(led.mass) == 2 and dec["sup_bound"] > 0.0

    def test_zero_datum_rejected(self, flat, const_kappa):
        grid = make_grid((0, 1, 0, 1), 8, 8)
        with pytest.raises(ParameterError, match="zero initial datum"):
            solve_reported(flat, const_kappa, grid, np.zeros(grid.ndof), 0.01, 1e-3)


class TestMMSEvaluations:
    def test_march_and_forcing_evaluate_once_per_step_time(self, graph, const_kappa,
                                                           count_calls):
        # the march's full-mesh metric and the forcing's interior one; no
        # cell-centre metric
        exact = diagnostics.ManufacturedSolution(
            u=sinsin, u_t=lambda x1, x2, t: 0.0 * x1, u_1=sinsin, u_2=sinsin,
            u_11=sinsin, u_12=sinsin, u_22=sinsin)
        calls = count_calls(diagnostics, "metric_fields")
        levels = [(7, 0.01), (15, 0.005), (31, 0.0025)]
        mms_convergence(graph, const_kappa, exact, levels, T=0.02)
        assert len(calls) == sum(2 * (round(0.02 / dt) + 1) for _, dt in levels)
        # both are open meshes: x1 of shape (n, 1), x2 of shape (1, n)
        shapes = {(np.shape(args[1]), np.shape(args[2])) for args in calls}
        assert shapes == {((n + m, 1), (1, n + m)) for n, _ in levels for m in (0, 2)}


def _bump(grid):
    X1, X2 = grid.interior_mesh()
    a, b, c, d = grid.domain
    s1 = (X1 - a) / (b - a)
    s2 = (X2 - c) / (d - c)
    return (np.sin(np.pi * s1) * np.sin(2 * np.pi * s2)).ravel()


class TestMMS:
    def test_flat_space_orders(self, flat, const_kappa):
        def smooth(X1, X2, t):
            import sympy as sp
            return sp.exp(-t) * sp.sin(sp.pi * X1) * sp.sin(sp.pi * X2)

        exact = manufactured_solution(smooth)
        tab = mms_convergence(flat, const_kappa, exact,
                              [(15, 2.5e-4), (31, 2.5e-4), (63, 2.5e-4)], T=0.05)
        assert 1.8 <= tab.order_space <= 2.2
        assert tab.monotone

    def test_flat_time_orders_via_bubble(self, flat, const_kappa):
        # per-direction cubic solution: the 5-point stencil is exact on it, so
        # the measured error is purely temporal
        def bubble(X1, X2, t):
            import sympy as sp
            return (sp.exp(-t) * (1 + sp.Rational(1, 2) * sp.sin(8 * t))
                    * X1 * (1 - X1) * X2 * (1 - X2))

        exact = manufactured_solution(bubble)
        tab = mms_convergence(flat, const_kappa, exact,
                              [(31, 0.02), (31, 0.01), (31, 0.005)], T=0.2)
        assert 1.8 <= tab.order_time <= 2.2

    def test_first_order_scheme_detected(self, flat, const_kappa):
        def bubble(X1, X2, t):
            import sympy as sp
            return (sp.exp(-t) * (1 + sp.Rational(1, 2) * sp.sin(8 * t))
                    * X1 * (1 - X1) * X2 * (1 - X2))

        exact = manufactured_solution(bubble)
        tab = mms_convergence(flat, const_kappa, exact,
                              [(31, 0.02), (31, 0.01), (31, 0.005)], T=0.2, theta=1.0)
        assert 0.8 <= tab.order_time <= 1.2

    def test_variable_coefficient_orders(self, const_kappa):
        chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.05, omega=1.0)

        def smooth(X1, X2, t):
            import sympy as sp
            return sp.exp(-t) * sp.sin(sp.pi * X1) * sp.sin(sp.pi * X2)

        exact = manufactured_solution(smooth)
        tab = mms_convergence(chart, const_kappa, exact,
                              [(7, 8e-3), (15, 4e-3), (31, 2e-3)], T=0.1)
        assert 1.8 <= tab.order_space <= 2.2
        assert 1.8 <= tab.order_time <= 2.2

    def test_boundary_incompatible_solution_rejected(self, flat, const_kappa):
        def bad(X1, X2, t):
            import sympy as sp
            return sp.cos(sp.pi * X1) * sp.sin(sp.pi * X2)

        with pytest.raises(ParameterError):
            mms_convergence(flat, const_kappa, manufactured_solution(bad),
                            [(7, 1e-2), (15, 1e-2), (31, 1e-2)], T=0.05)

    def test_needs_three_levels(self, flat, const_kappa):
        def smooth(X1, X2, t):
            import sympy as sp
            return sp.exp(-t) * sp.sin(sp.pi * X1) * sp.sin(sp.pi * X2)

        with pytest.raises(ParameterError):
            mms_convergence(flat, const_kappa, manufactured_solution(smooth),
                            [(7, 1e-2), (15, 1e-2)], T=0.05)


PRESET_PARAMS = {
    "isotropic_scaling": {"gamma": 0.7},
    "graph_oscillation": {"epsilon": 0.2, "omega": 3.0},
    "translating_patch": {"c": 0.8},
}


class TestNumericForcing:
    @staticmethod
    def _builder(domain):
        # no mirror symmetry and a nonzero mixed partial, so every term of
        # the expanded operator contributes
        a, b, c, d = domain

        def u(X1, X2, t):
            import sympy as sp
            s1 = (X1 - a) / (b - a)
            s2 = (X2 - c) / (d - c)
            return (sp.exp(-t) * sp.sin(sp.pi * s1) * sp.sin(2 * sp.pi * s2) * (1 + X1 * X2 / 3)
                    + t ** 2 * s1 * (1 - s1) * sp.sin(sp.pi * s2))

        return u

    @pytest.mark.parametrize("domain", [(0.0, 1.0, 0.0, 1.0), (0.0, 1.5, 0.0, 1.0)])
    @pytest.mark.parametrize("kappa", [make_diffusion("constant", value=1.3),
                                       make_diffusion("sinusoidal", base=1.0, amp=0.3)],
                             ids=["constant", "sinusoidal"])
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_matches_symbolic_oracle(self, preset, kappa, domain):
        import sympy as sp

        chart = make_chart(preset, domain=domain, horizon=1.0, **PRESET_PARAMS.get(preset, {}))
        builder = self._builder(domain)
        F = manufactured_forcing(chart, kappa, manufactured_solution(builder))
        X1s, X2s, ts = sp.symbols("X1 X2 t", real=True)
        dudt = sp.lambdify((X1s, X2s, ts), sp.diff(builder(X1s, X2s, ts), ts), "numpy")
        L_apply = symbolic_operator_apply(chart, kappa, builder)
        X1, X2 = make_grid(domain, 17, 11).interior_mesh()
        for t in (0.3, 0.8):
            ref = dudt(X1, X2, t) + L_apply(X1, X2, t)
            got = F(X1, X2, t)
            assert got.shape == X1.shape
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
