import math
import time
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from evolvesurf import (
    ParameterError,
    make_chart,
    make_diffusion,
    make_grid,
    manufactured_solution,
    mms_convergence,
    solve_direct,
    surface_integral,
    transport_identity_residual,
)
from evolvesurf.diagnostics import (
    EnergyBalance,
    _flux_sq,
    _Regularity,
    _mass,
    manufactured_forcing,
    solve_reported,
)
from evolvesurf.geometry import PRESET_NAMES, metric_fields
from evolvesurf.operator import (StepFrame, StepFrames, assemble_L, coefficient_fields,
                                 sobolev_h1_norm)
from evolvesurf import diagnostics, geometry
from evolvesurf.timestepper import Trajectory

from oracles import (
    cell_center_gradients,
    cell_center_mesh,
    material_derivative,
    surface_grad_sq,
    surface_gradient_components,
    surface_mass,
    symbolic_operator_apply,
)


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
        d1, d2 = cell_center_gradients(phi, unit_grid)
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
        C1, C2 = cell_center_mesh(unit_grid)
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


class TestCellFluxQuadrature:
    """The ledger's dissipation, ``_flux_sq`` on a frame's corner-mean flux
    coefficients, against ``surface_grad_sq`` with the metric and kappa
    evaluated at the cell centres: they agree at O(h^2) where C^ab varies and
    to round-off where it is constant."""

    DOMAIN = (-0.5, 1.0, 0.0, 1.7)
    LEVELS = ((14, 23), (29, 47), (59, 95))
    CHART_PARAMS = {"isotropic_scaling": {"gamma": 0.5},
                    "graph_oscillation": {"epsilon": 0.5, "omega": 5.0}}
    # C^ab = kappa sqrt(G) g^ab: constant on the flat, translated and scaled
    # surfaces (sqrt(G) g^ab = I there) unless kappa varies
    CONSTANT = {("flat_static", "constant"), ("isotropic_scaling", "constant"),
                ("translating_patch", "constant")}

    @staticmethod
    def _two_modes(grid):
        X1, X2 = grid.interior_mesh()
        a, b, c, d = grid.domain
        s1, s2 = (X1 - a) / (b - a), (X2 - c) / (d - c)
        return (np.sin(np.pi * s1) * np.sin(np.pi * s2)
                + 0.3 * np.sin(2 * np.pi * s1) * np.sin(3 * np.pi * s2)).ravel()

    @pytest.mark.parametrize("diffusion", ["constant", "sinusoidal"])
    @pytest.mark.parametrize("preset", PRESET_NAMES)
    def test_corner_means_match_the_cell_centre_oracle(self, preset, diffusion):
        chart = make_chart(preset, domain=self.DOMAIN, horizon=1.0,
                           **self.CHART_PARAMS.get(preset, {}))
        kappa = make_diffusion(diffusion)
        t = 0.37
        diffs = []
        for n1, n2 in self.LEVELS:
            grid = make_grid(self.DOMAIN, n1, n2)
            u = self._two_modes(grid)
            got = _flux_sq(u, grid, StepFrame(chart, kappa, grid, t).cell_fluxes)
            ref = surface_grad_sq(u, chart, grid, t, kappa)
            diffs.append(abs(got - ref) / ref)
            # the oracle shares the ledger's quadrature, so pin it to the
            # ambient gradient g^ab (d_a x) d_b u, which needs no cross term
            comps, mf = surface_gradient_components(u, chart, grid, t)
            C1, C2 = cell_center_mesh(grid)
            ambient = np.sum(kappa.value(C1, C2, t) * mf.sqrtG * np.sum(comps * comps, axis=0))
            assert ref == pytest.approx(grid.h1 * grid.h2 * ambient, rel=1e-12, abs=0.0)
        if (preset, diffusion) in self.CONSTANT:
            assert max(diffs) <= 1e-14, diffs
        else:
            # the grids halve h on both axes
            orders = [math.log2(coarse / fine) for coarse, fine in zip(diffs, diffs[1:])]
            assert min(orders) >= 1.9, f"differences {diffs}, orders {orders}"


class TestEnergyReport:
    def test_flat_eigenmode_balance(self, flat, const_kappa, eigenmode):
        # closed form: mass(t) = e^{-4 pi^2 t}/8, dissipation = (1-e^{-4pi^2 t})/8
        grid = make_grid((0, 1, 0, 1), 63, 63)
        _, led, _, _ = solve_reported(flat, const_kappa, grid, eigenmode(grid), 0.05, 1e-3)
        assert led.mass[0] == pytest.approx(0.125, rel=1e-3)
        k = 25
        t = float(led.times[k])
        assert led.mass[k] == pytest.approx(0.125 * math.exp(-4 * math.pi ** 2 * t), rel=5e-3)
        assert led.max_rel_residual() <= 1e-3
        assert np.all(np.diff(led.dissipation) >= 0.0)
        assert not np.any(led.dilation)   # a rigid chart does not dilate

    def test_zero_trajectory_zero_residuals(self, flat, const_kappa, unit_grid):
        ledger = EnergyBalance(unit_grid)
        traj = solve_direct(flat, const_kappa, unit_grid, np.zeros(unit_grid.ndof), 0.02, 2e-3,
                            observers=(ledger.observe,))
        assert_allclose(ledger.result(traj).residual_abs, 0.0)

    def test_residual_refines_on_moving_surface(self, const_kappa, eigenmode):
        chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.05, omega=1.0)
        residuals = []
        for n, dt in ((15, 4e-3), (31, 2e-3)):
            g = make_grid((0, 1, 0, 1), n, n)
            _, led, _, _ = solve_reported(chart, const_kappa, g, eigenmode(g), 0.05, dt)
            residuals.append(led.max_rel_residual())
        assert residuals[1] <= residuals[0] / 2.0  # order >= 1

    @pytest.mark.parametrize("name,params", [
        ("isotropic_scaling", {"gamma": 0.5}),
        ("graph_oscillation", {"epsilon": 0.5, "omega": 5.0}),
    ])
    def test_dilating_surface_residual_is_second_order(self, name, params, const_kappa,
                                                       eigenmode):
        # with the dilation term -1/2 int u^2 div V the balance converges at
        # order 2 under joint refinement; without it the residual stalls
        # (about 2e-2 on the scaling chart at every level)
        t0 = time.perf_counter()
        chart = make_chart(name, horizon=1.0, **params)
        residuals = []
        for n, dt in ((15, 4e-3), (31, 2e-3), (63, 1e-3)):
            g = make_grid((0, 1, 0, 1), n, n)
            _, led, _, _ = solve_reported(chart, const_kappa, g, eigenmode(g), 0.05, dt)
            residuals.append(led.max_rel_residual())
        orders = [math.log2(coarse / fine) for coarse, fine in zip(residuals, residuals[1:])]
        elapsed = time.perf_counter() - t0
        assert min(orders) >= 1.8, f"residuals {residuals}, orders {orders}"
        assert elapsed < 20.0

    def test_reports_store_eight_bytes_per_value(self, flat, const_kappa):
        # a long march on a tiny grid: the reports hold float64 values, not
        # Python floats (about 32 B each with the list slot)
        grid = make_grid((0, 1, 0, 1), 3, 3)
        dt, nsteps = 1e-4, 4000
        reports = (EnergyBalance(grid), diagnostics._Regularity(grid, dt))
        tracemalloc.start()
        try:
            traj = solve_direct(flat, const_kappa, grid, np.ones(grid.ndof), nsteps * dt, dt,
                                observers=[report.observe for report in reports],
                                stride=nsteps)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # three values per step in the ledger and two in the regularity
        # report (the decay quotient reads the ledger); 10 B each leaves room
        # for the growth reserve of the arrays, and 64 KiB for the solver's
        # set-up
        values = 5 * (nsteps + 1)
        assert held - traj.times.nbytes <= 10 * values + 64 * 1024


class TestDecayReport:
    def test_flat_eigenmode_sup_at_the_hump(self, flat, const_kappa, eigenmode):
        # sup_t sqrt(t) e^{-2 pi^2 t} / 2 over the step times, divided by
        # ||u0||_{W^{1,2}} = hypot(1/2, pi/sqrt(2)); the hump is t = 1/(4 pi^2)
        grid = make_grid((0, 1, 0, 1), 31, 31)
        traj, _, rep, _ = solve_reported(flat, const_kappa, grid, eigenmode(grid), 1.0, 5e-3)
        t = traj.times[1:]
        hump = np.max(np.sqrt(t) * 0.5 * np.exp(-2.0 * math.pi ** 2 * t))
        assert rep["sup_bound"] == pytest.approx(
            hump / math.hypot(0.5, math.pi / math.sqrt(2.0)), rel=2e-3)

    def test_sup_bound_below_one_and_monotone(self, flat, const_kappa, eigenmode):
        grid = make_grid((0, 1, 0, 1), 31, 31)
        _, _, rep, _ = solve_reported(flat, const_kappa, grid, eigenmode(grid), 1.0, 5e-3)
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
        with pytest.raises(ParameterError, match="decay quotient undefined"):
            solve_reported(flat, const_kappa, unit_grid, np.zeros(unit_grid.ndof), 0.02, 2e-3)


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

    def test_strided_trajectory_rejected(self, flat, const_kappa, eigenmode):
        grid = make_grid((0, 1, 0, 1), 8, 8)
        traj = solve_direct(flat, const_kappa, grid, eigenmode(grid), 0.01, 1e-3, stride=2)
        with pytest.raises(ParameterError, match="this one keeps one row per 2 steps"):
            material_derivative(traj, 1)


class TestTransportIdentity:
    @pytest.mark.parametrize("name,params", [
        ("flat_static", {}),
        ("isotropic_scaling", {"gamma": 1.0}),
        ("graph_oscillation", {"epsilon": 0.05, "omega": 1.0}),
        ("translating_patch", {"c": 1.5}),
    ])
    # the difference step does not shrink with the horizon: at T = 1e-300 a
    # step clamped to [0, T] rounded the area difference to 0
    @pytest.mark.parametrize("horizon,t", [(2.0, 0.7), (1e-300, 0.5e-300)])
    def test_presets(self, name, params, horizon, t):
        chart = make_chart(name, horizon=horizon, **params)
        grid = make_grid((0, 1, 0, 1), 24, 24)
        assert transport_identity_residual(chart, grid, t) < 1e-5


class TestRegularityReport:
    def test_quotient_finite_and_stable(self, flat, const_kappa, eigenmode):
        grid = make_grid((0, 1, 0, 1), 24, 24)
        *_, rep = solve_reported(flat, const_kappa, grid, eigenmode(grid), 0.2, 5e-3)
        assert np.isfinite(rep["quotient"])
        # eigenmode closed form: both time and diffusion norms equal
        # 2 pi^2 sqrt(int e^{-4pi^2 t} u0^2) ~ mild O(1) numbers
        assert 0.1 < rep["quotient"] < 10.0


class TestStaticChartDiagnostics:
    """A static metric and a time-independent kappa are evaluated once per mesh."""

    GRID = make_grid((0.0, 1.5, 0.0, 1.0), 14, 9)

    CHART = make_chart("translating_patch", domain=GRID.domain, horizon=1.0, c=1.2)
    KAPPA = make_diffusion("sinusoidal", base=1.0, amp=0.2)

    def _reports(self, T, calls):
        """The march with its three reports, and the number of ``calls`` it adds."""
        before = len(calls)
        out = solve_reported(self.CHART, self.KAPPA, self.GRID, _bump(self.GRID), T, 5e-3)
        return out, len(calls) - before

    def test_equal_to_per_step_evaluation(self, count_calls):
        (traj, led, dec, reg), n_calls = self._reports(
            0.1, count_calls(geometry, "metric_fields"))
        assert n_calls == 1
        led_ref, dec_ref, reg_ref = _per_step_reports(traj, self.CHART, self.KAPPA, self.GRID)
        for name, ref in led_ref.items():
            assert np.array_equal(getattr(led, name), ref)
        assert not np.any(led.dilation)
        assert dec == dec_ref
        assert reg == reg_ref

    def test_metric_calls_independent_of_nsteps(self, count_calls):
        calls = count_calls(geometry, "metric_fields")
        _, n_short = self._reports(0.05, calls)
        _, n_long = self._reports(0.2, calls)
        assert n_short == n_long


def _per_step_reports(traj, chart, kappa, grid):
    """The three reports with every step time evaluated afresh on each mesh."""
    X1, X2 = grid.interior_mesh()
    nt = len(traj.times)
    mass, rate, dil_rate, norms = np.empty(nt), np.empty(nt), np.empty(nt), np.empty(nt)
    dt_sq, div_sq = np.empty(nt - 2), np.empty(nt - 2)
    for k, t in enumerate(traj.times):
        u = traj.fields[k]
        sqrtG = metric_fields(chart, X1, X2, t, h_fd=grid.h_fd, want_dGdt=False).sqrtG
        cf = coefficient_fields(chart, kappa, grid, t)
        d0 = cf["d0"]
        # the flux coefficients at the cell centres, as means of each cell's corners
        fluxes = [0.25 * (c[:-1, :-1] + c[1:, :-1] + c[:-1, 1:] + c[1:, 1:])
                  for c in (cf["C11"], cf["C12"], cf["C22"])]
        mass[k] = 0.5 * _mass(u, grid, sqrtG)
        rate[k] = _flux_sq(u, grid, fluxes)
        dil_rate[k] = 0.5 * _mass(u, grid, sqrtG * d0)
        norms[k] = math.sqrt(_mass(u, grid, sqrtG))
        if 0 < k < nt - 1:
            L = assemble_L(chart, kappa, grid, t)
            # the centered difference's (2 dt)^2 and the diffusion term's
            # sign leave the reduction
            dt_sq[k - 1] = (_mass(traj.fields[k + 1] - traj.fields[k - 1], grid, sqrtG)
                            / (2.0 * traj.dt) ** 2)
            div_sq[k - 1] = _mass(L @ u - d0.ravel() * u, grid, sqrtG)
    diss = np.concatenate([[0.0], np.cumsum(0.5 * traj.dt * (rate[1:] + rate[:-1]))])
    dil = np.concatenate([[0.0], np.cumsum(0.5 * traj.dt * (dil_rate[1:] + dil_rate[:-1]))])
    resid = np.abs(mass + diss + dil - mass[0])
    w_norm = sobolev_h1_norm(traj.fields[0], grid)
    mask = traj.times > 0.0
    dt_norm = math.sqrt(np.sum(traj.dt * dt_sq))
    div_norm = math.sqrt(np.sum(traj.dt * div_sq))
    ledger = {"times": traj.times, "mass": mass, "dissipation": diss, "dilation": dil,
              "residual_abs": resid, "residual_rel": resid / mass[0]}
    decay = {"sup_bound": float(np.max(np.sqrt(traj.times[mask]) * norms[mask]) / w_norm),
             "monotone": bool(np.all(np.diff(norms) <= 1e-12 * max(norms[0], 1.0)))}
    regularity = {"quotient": (dt_norm + div_norm) / w_norm,
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
        for name, ref in led_ref.items():
            assert np.array_equal(getattr(led, name), ref)
        assert np.any(led.dilation)
        assert dec == dec_ref
        assert reg == reg_ref

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

    def test_one_surface_mass_per_step_for_ledger_and_decay(self, count_calls):
        # v_k squared once for the ledger, whose mass the decay quotient
        # reads, and the same squared row weighted by the dilation rate, plus
        # the material derivative and the diffusion term at the interior
        # steps: one nodal quadrature each, every row squared by the report
        # that reduces it
        grid = make_grid((0.0, 1.5, 0.0, 1.0), 12, 8)
        chart = make_chart("translating_patch", domain=grid.domain, horizon=1.0, c=1.0)
        kappa = make_diffusion("sinusoidal", base=1.0, amp=0.2)
        calls = count_calls(diagnostics, "_quadrature")
        masses = count_calls(diagnostics, "_mass")
        traj, *_ = solve_reported(chart, kappa, grid, _bump(grid), 0.02, 1e-3, stride=10)
        assert len(calls) == 2 * (traj.nsteps + 1) + 2 * (traj.nsteps - 1)
        # ``calls`` keeps every row alive, so distinct rows have distinct ids
        assert len({id(args[0]) for args in calls}) == (traj.nsteps + 1) + 2 * (traj.nsteps - 1)
        assert masses == []


class TestReportArrayPasses:
    """The step reports' ndof-sized allocations on the solve-static configuration:
    150 x 100 nodes on (0, 1.5) x (0, 1), translating_patch, sinusoidal kappa."""

    def test_blocks_of_one_observed_step(self, ndof_allocations):
        grid = make_grid((0.0, 1.5, 0.0, 1.0), 150, 100)
        chart = make_chart("translating_patch", domain=grid.domain, horizon=0.2, c=1.1)
        kappa = make_diffusion("sinusoidal", base=1.0, amp=0.2)
        frame = StepFrame(chart, kappa, grid, 0.0)
        window = tuple(np.random.default_rng(k).standard_normal(grid.ndof) for k in range(3))
        Lv = frame.L @ window[1]
        ledger, regularity = EnergyBalance(grid), _Regularity(grid, 1e-3)

        def observe():
            ledger.observe(1, frame, window, Lv)
            regularity.observe(1, frame, window, Lv)

        observe()   # the pieces a frame builds once
        _, blocks = ndof_allocations(observe, grid.ndof)
        # the ledger's squared row; the padded field, its two axis differences
        # and the two half-sums (each strided sum also counts its iterator's
        # buffers as one block); the regularity report's two rows
        assert blocks <= 10, blocks
        assert ledger.diss_rate[-1] == ledger.diss_rate[0]


class TestMMSEvaluations:
    def test_march_and_forcing_evaluate_once_per_step_time(self, graph, const_kappa,
                                                           count_calls):
        # the march's full-mesh metric, which the forcing reads off the step
        # frame; no interior or cell-centre metric
        exact = diagnostics.ManufacturedSolution(
            lambda x1, x2, t: (sinsin(x1, x2, t), 0.0 * x1) + (sinsin(x1, x2, t),) * 5)
        calls = count_calls(diagnostics, "metric_fields")
        levels = [(7, 0.01), (15, 0.005), (31, 0.0025)]
        mms_convergence(graph, const_kappa, exact, levels, T=0.02)
        assert len(calls) == sum(round(0.02 / dt) + 1 for _, dt in levels)
        # an open mesh: x1 of shape (n + 2, 1), x2 of shape (1, n + 2)
        shapes = {(np.shape(args[1]), np.shape(args[2])) for args in calls}
        assert shapes == {((n + 2, 1), (1, n + 2)) for n, _ in levels}


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
        grid = make_grid(domain, 17, 11)
        X1, X2 = grid.interior_mesh()
        frames = StepFrames(chart, kappa, grid)
        for t in (0.3, 0.8):
            frame = frames.frame(t)
            # flat_static and translating_patch with either diffusivity are
            # static: their one frame carries t = 0, and the forcing reads t
            # from its caller
            assert frame.t == (0.0 if preset in ("flat_static", "translating_patch") else t)
            ref = dudt(X1, X2, t) + L_apply(X1, X2, t)
            got = F(frame, t)
            assert got.shape == X1.shape
            assert np.max(np.abs(got - ref)) <= 1e-10 * np.max(np.abs(ref))
