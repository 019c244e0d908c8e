import collections
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from numpy.testing import assert_allclose

import evolvesurf

from evolvesurf import (
    ParameterError,
    PicardDivergenceError,
    StepSolveError,
    assemble_A,
    assemble_L,
    lambda_select,
    make_chart,
    make_diffusion,
    make_grid,
    solve_direct,
    solve_picard,
    user_chart,
    z_norm,
)
from evolvesurf.diagnostics import (manufactured_forcing, manufactured_solution, mms_convergence,
                                    solve_reported)
from evolvesurf.geometry import metric_fields
from evolvesurf import operator
from evolvesurf.operator import field_l2
from evolvesurf import timestepper
from evolvesurf.operator import StepFrames
from evolvesurf.timestepper import Trajectory

from conftest import count_sparse_products
from oracles import theta_step
from test_geometry import dense_meshes
from test_operator import assembled_by_coo, lowest_discrete_eigenvalue

# a moving chart with a time-dependent operator, small enough for a subprocess
SMALL_MOVING_RUN = """
[surface]
preset = graph_oscillation
T = 0.02
epsilon = 0.05
omega = 1.0

[diffusion]
preset = constant
value = 1.0

[grid]
n1 = 15
n2 = 15

[time]
dt = 2e-3

[solver]
probes = 4
"""


class TestThetaStep:
    def test_crank_nicolson_eigenmode_amplification(self, flat, const_kappa,
                                                    unit_grid, eigenmode):
        phi = eigenmode(unit_grid)
        mu = lowest_discrete_eigenvalue(unit_grid, 1.0, 1.0)
        dt = 1e-3
        provider = StepFrames(flat, const_kappa, unit_grid)
        out = theta_step(phi, 0.0, dt, 0.5, provider)
        rho = (1.0 - 0.5 * dt * mu) / (1.0 + 0.5 * dt * mu)
        assert isinstance(out, np.ndarray)
        assert_allclose(out, rho * phi, atol=1e-13)

    def test_zero_stays_zero(self, flat, const_kappa, unit_grid):
        provider = StepFrames(flat, const_kappa, unit_grid)
        out = theta_step(np.zeros(unit_grid.ndof), 0.0, 1e-2, 1.0, provider)
        assert_allclose(out, 0.0)

    def test_backward_euler_consistency_order_one(self, flat, const_kappa,
                                                  unit_grid, eigenmode):
        # (v' - v)/dt -> -Lv with O(dt) defect for theta = 1
        phi = eigenmode(unit_grid)
        provider = StepFrames(flat, const_kappa, unit_grid)
        L = provider.frame(0.0).L
        target = -(L @ phi)
        defects = []
        for dt in (1e-2, 5e-3, 2.5e-3):
            out = theta_step(phi, 0.0, dt, 1.0, provider)
            defects.append(np.max(np.abs((out - phi) / dt - target)))
        assert defects[0] / defects[1] == pytest.approx(2.0, rel=0.1)
        assert defects[1] / defects[2] == pytest.approx(2.0, rel=0.1)

    def test_theta_range_enforced(self, flat, const_kappa, unit_grid):
        provider = StepFrames(flat, const_kappa, unit_grid)
        with pytest.raises(ParameterError):
            theta_step(np.zeros(unit_grid.ndof), 0.0, 1e-2, 0.3, provider)

    def test_forced_step_equals_first_solve_direct_step(self, graph, const_kappa, eigenmode):
        # theta_step takes the forcing(frame, t) solve_direct takes
        sp = pytest.importorskip("sympy")
        grid = make_grid((0, 1, 0, 1), 15, 15)
        exact = manufactured_solution(
            lambda X1, X2, t: sp.exp(-t) * sp.sin(sp.pi * X1) * sp.sin(sp.pi * X2))
        F = manufactured_forcing(graph, const_kappa, exact)
        phi = eigenmode(grid)
        dt = 5e-3
        out = theta_step(phi, 0.0, dt, 0.5, StepFrames(graph, const_kappa, grid), F_provider=F)
        traj = solve_direct(graph, const_kappa, grid, phi, dt, dt, F_provider=F)
        assert out.tobytes() == traj.fields[1].tobytes()


class TestSolveDirect:
    def test_flat_separable_solution(self, flat, const_kappa, eigenmode):
        grid = make_grid((0, 1, 0, 1), 31, 31)
        phi = eigenmode(grid)
        traj = solve_direct(flat, const_kappa, grid, phi, 0.05, 1e-3, theta=0.5)
        exact = math.exp(-2.0 * math.pi ** 2 * 0.05) * phi
        rel = np.max(np.abs(traj.fields[-1] - exact)) / np.max(np.abs(exact))
        assert rel < 2e-3

    def test_zero_datum_zero_trajectory(self, flat, const_kappa, unit_grid):
        traj = solve_direct(flat, const_kappa, unit_grid,
                            np.zeros(unit_grid.ndof), 0.02, 1e-2)
        assert_allclose(traj.fields, 0.0)
        assert traj.times[2] == pytest.approx(0.02)

    def test_translating_patch_matches_flat(self, flat, const_kappa, eigenmode):
        grid = make_grid((0, 1, 0, 1), 15, 15)
        moving = make_chart("translating_patch", horizon=1.0, c=2.0)
        phi = eigenmode(grid)
        t_flat = solve_direct(flat, const_kappa, grid, phi, 0.05, 5e-3)
        t_move = solve_direct(moving, const_kappa, grid, phi, 0.05, 5e-3)
        assert_allclose(t_move.fields, t_flat.fields, atol=1e-14)

    @pytest.mark.parametrize("T", [0.0, -0.02])
    def test_rejects_non_positive_horizon(self, flat, const_kappa, unit_grid, eigenmode, T):
        with pytest.raises(ParameterError, match="horizon must be positive"):
            solve_direct(flat, const_kappa, unit_grid, eigenmode(unit_grid), T, 2e-3)

    def test_any_positive_horizon_takes_a_step(self, flat, const_kappa, unit_grid, eigenmode):
        # T far below dt: one step, not a trajectory of the datum alone
        v0 = eigenmode(unit_grid)
        assert solve_direct(flat, const_kappa, unit_grid, v0, 1e-16, 2e-3).nsteps == 1
        traj, _ = solve_picard(flat, const_kappa, unit_grid, 1.0, 1.0, v0, 1e-16, 2e-3)
        assert traj.nsteps == 1

    @pytest.mark.parametrize("theta,expected", [(0.5, 2.0), (1.0, 1.0)])
    def test_time_order_on_semidiscrete_mode(self, flat, const_kappa, unit_grid,
                                             eigenmode, theta, expected):
        # compare against the exact semi-discrete decay e^{-mu_h t} so the
        # measured order is purely temporal
        phi = eigenmode(unit_grid)
        mu = lowest_discrete_eigenvalue(unit_grid, 1.0, 1.0)
        T = 0.1
        errs = []
        for dt in (T / 10, T / 20, T / 40):
            traj = solve_direct(flat, const_kappa, unit_grid, phi, T, dt, theta=theta)
            ref = math.exp(-mu * T) * phi
            errs.append(np.max(np.abs(traj.fields[-1] - ref)))
        order = math.log(errs[0] / errs[2]) / math.log(4.0)
        assert order == pytest.approx(expected, abs=0.2)

    @pytest.mark.parametrize("chart_name,gamma", [("flat_static", None),
                                                  ("isotropic_scaling", 1.0)])
    def test_weighted_norm_decays_per_step(self, const_kappa, unit_grid, eigenmode,
                                           chart_name, gamma):
        # non-negative dilation coefficient: sqrt(G)-weighted mass never grows
        params = {} if gamma is None else {"gamma": gamma}
        chart = make_chart(chart_name, horizon=1.0, **params)
        phi = eigenmode(unit_grid)
        for theta in (0.5, 1.0):
            traj = solve_direct(chart, const_kappa, unit_grid, phi, 0.05, 5e-3,
                                theta=theta)
            X1, X2 = unit_grid.interior_mesh()
            masses = []
            for k in range(traj.nsteps + 1):
                mf = metric_fields(chart, X1, X2, float(traj.times[k]), want_dGdt=False)
                v2 = unit_grid.to_grid(traj.fields[k] ** 2)
                masses.append(float(np.sum(v2 * mf.sqrtG)))
            assert all(b <= a * (1 + 1e-12) for a, b in zip(masses, masses[1:]))


class TestUserCallables:
    """User evaluators reached from the open meshes of the package's sites."""

    GRID = make_grid((0.0, 1.0, 0.0, 1.0), 12, 7)

    def test_user_chart_gets_dense_components(self, const_kappa, eigenmode):
        # graph_oscillation's table, each component broadcast to the shape of
        # x1, which fails unless x1 and x2 are of one shape
        shapes = set()
        graph = make_chart("graph_oscillation", domain=self.GRID.domain, horizon=1.0,
                           epsilon=0.05, omega=1.0)

        def recorded(ev):
            def dense(x1, x2, t):
                shapes.add((np.shape(x1), np.shape(x2)))
                return np.stack([np.broadcast_to(c, np.shape(x1)) for c in ev(x1, x2, t)])
            return dense

        chart = user_chart({key: recorded(ev) for key, ev in graph.evals.items()},
                           self.GRID.domain, 1.0)
        v0 = eigenmode(self.GRID)
        traj = solve_direct(chart, const_kappa, self.GRID, v0, 0.005, 1e-3)
        assert shapes == {((14, 9), (14, 9))}   # the full mesh, dense
        with dense_meshes():
            ref = solve_direct(chart, const_kappa, self.GRID, v0, 0.005, 1e-3)
        assert traj.fields.tobytes() == ref.fields.tobytes()

    @pytest.mark.parametrize("run", ["lambda_select", "solve_direct", "solve_picard",
                                     "mms_convergence"])
    def test_preset_table_gives_the_preset_bits(self, eigenmode, run):
        # graph_oscillation's full table as a user chart: evaluated on dense
        # meshes and stacked, the same products in the same order
        graph = make_chart("graph_oscillation", domain=self.GRID.domain, horizon=1.0,
                           epsilon=0.05, omega=1.0)
        chart = user_chart(graph.evals, graph.domain, graph.horizon, name="copy")
        kappa = make_diffusion("sinusoidal", base=1.0, amp=0.2)
        grid, v0 = self.GRID, eigenmode(self.GRID)
        lam = lambda_select(graph, kappa, grid, np.linspace(0.0, 0.02, 3))

        def picard(ch):
            traj, history = solve_picard(ch, kappa, grid, *lam, v0, 0.02, 2e-3, tol=1e-10)
            return traj.fields.tobytes(), history.z_norms

        def mms(ch):
            sp = pytest.importorskip("sympy")
            exact = manufactured_solution(
                lambda X1, X2, t: sp.exp(-t) * sp.sin(sp.pi * X1) * sp.sin(sp.pi * X2))
            levels = [(7, 4e-3), (9, 2e-3), (11, 1e-3)]
            return mms_convergence(ch, kappa, exact, levels, T=0.02).rows

        result = {
            "lambda_select": lambda ch: lambda_select(ch, kappa, grid, np.linspace(0.0, 0.02, 3)),
            "solve_direct": lambda ch: solve_direct(ch, kappa, grid, v0, 0.02, 2e-3).fields.tobytes(),
            "solve_picard": picard,
            "mms_convergence": mms,
        }[run]
        assert result(chart) == result(graph)

    @pytest.mark.parametrize("provider,shape", [
        (lambda frame, t: (1.0 + t) * np.sin(np.pi * frame.grid.interior_mesh(sparse=True)[0]),
         (12, 1)),
        (lambda frame, t: 2.5, ()),
    ], ids=["x1_only", "scalar"])
    def test_forcing_is_broadcast_to_the_grid(self, graph, const_kappa, eigenmode,
                                              provider, shape):
        grid = self.GRID
        X1, X2 = grid.interior_mesh()
        marcher = timestepper._ThetaMarcher(0.37, 0.5, StepFrames(graph, const_kappa, grid))
        forcing = marcher.frame_forcing(provider)
        for k, t in ((0, 0.0), (1, 0.37)):
            assert np.shape(provider(marcher.frame(k), t)) == shape
            F = forcing(k)
            assert F.shape == (grid.ndof,)
            assert F.tobytes() == np.broadcast_to(provider(marcher.frame(k), t),
                                                  X1.shape).ravel().tobytes()
        dense = lambda frame, t: np.broadcast_to(provider(frame, t), X1.shape)
        v0 = eigenmode(grid)
        traj = solve_direct(graph, const_kappa, grid, v0, 0.005, 1e-3, F_provider=provider)
        ref = solve_direct(graph, const_kappa, grid, v0, 0.005, 1e-3, F_provider=dense)
        assert traj.fields.tobytes() == ref.fields.tobytes()

    @pytest.mark.parametrize("preset", ["flat_static", "graph_oscillation"])
    def test_forcing_gets_the_held_frame_and_the_march_time(self, const_kappa, eigenmode,
                                                            count_calls, preset):
        # once per step time, in order, with the frame the march holds for
        # t_k; the one frame of a static problem carries t = 0, so t_k comes
        # from the march
        grid = self.GRID
        chart = make_chart(preset, domain=grid.domain, horizon=1.0)
        seen = []

        def provider(frame, t):
            seen.append((frame, t))
            return 1.0

        calls = count_calls(operator, "metric_fields")
        traj = solve_direct(chart, const_kappa, grid, eigenmode(grid), 0.005, 1e-3,
                            F_provider=provider)
        assert [t for _, t in seen] == traj.times.tolist()
        frames = [frame for frame, _ in seen]
        if preset == "flat_static":
            assert all(frame is frames[0] for frame in frames) and frames[0].t == 0.0
            assert len(calls) == 1
        else:
            assert [frame.t for frame in frames] == traj.times.tolist()
            assert len({id(frame) for frame in frames}) == len(calls) == len(frames)


class TestZNorm:
    def test_zero_trajectory(self, unit_grid):
        A = assemble_A(unit_grid, 1.0, 1.0)
        traj = Trajectory(np.linspace(0, 1, 11), np.zeros((11, unit_grid.ndof)),
                          0.1, unit_grid)
        assert z_norm(traj, A, unit_grid) == 0.0

    def test_constant_trajectory_closed_form(self, unit_grid, eigenmode):
        A = assemble_A(unit_grid, 1.0, 1.0)
        f0 = eigenmode(unit_grid)
        T, n = 0.37, 100
        traj = Trajectory(np.linspace(0, T, n + 1), np.tile(f0, (n + 1, 1)),
                          T / n, unit_grid)
        expected = field_l2(f0, unit_grid) + math.sqrt(T) * field_l2(A @ f0, unit_grid)
        assert z_norm(traj, A, unit_grid) == pytest.approx(expected, rel=1e-12)

    def test_positive_homogeneity(self, unit_grid, eigenmode, flat, const_kappa):
        A = assemble_A(unit_grid, 1.0, 1.0)
        traj = solve_direct(flat, const_kappa, unit_grid, eigenmode(unit_grid),
                            0.02, 2e-3)
        base = z_norm(traj, A, unit_grid)
        scaled = Trajectory(traj.times, -3.0 * traj.fields, traj.dt, unit_grid)
        assert z_norm(scaled, A, unit_grid) == pytest.approx(3.0 * base, rel=1e-12)


    @pytest.mark.parametrize("nt", [1, 2, 3, 9])
    def test_matches_whole_array_differences(self, nt):
        # the streamed time differences give the same bits as the old
        # (nt x ndof) buffer of centered/one-sided quotients
        grid = make_grid((0.0, 1.5, 0.0, 0.8), 7, 5)
        A = assemble_A(grid, 0.7, 1.9)
        fields = np.random.default_rng(nt).standard_normal((nt, grid.ndof))
        dt = 0.013
        traj = Trajectory(np.arange(nt) * dt, fields, dt, grid)
        sup = max(math.exp(-k * dt) * field_l2(fields[k], grid) for k in range(nt))
        if nt == 1:
            assert z_norm(traj, A, grid) == sup
            return
        dvdt = np.empty_like(fields)
        dvdt[0] = (fields[1] - fields[0]) / dt
        dvdt[-1] = (fields[-1] - fields[-2]) / dt
        dvdt[1:-1] = (fields[2:] - fields[:-2]) / (2.0 * dt)
        w = np.full(nt, dt)
        w[0] = w[-1] = 0.5 * dt
        dv_sq = np.array([field_l2(d, grid) ** 2 for d in dvdt])
        av_sq = np.array([field_l2(A @ f, grid) ** 2 for f in fields])
        ref = float(sup + math.sqrt(np.dot(w, dv_sq)) + math.sqrt(np.dot(w, av_sq)))
        assert z_norm(traj, A, grid) == ref


class TestSolvePicard:
    def test_flat_fixed_point_after_one_correction(self, flat, const_kappa,
                                                   unit_grid, eigenmode):
        phi = eigenmode(unit_grid)
        traj, hist = solve_picard(flat, const_kappa, unit_grid, 1.0, 1.0,
                                  phi, 0.02, 2e-3, tol=1e-10)
        assert hist.converged
        assert hist.iterations == 1
        assert hist.diff_norms[0] == 0.0
        direct = solve_direct(flat, const_kappa, unit_grid, phi, 0.02, 2e-3)
        assert_allclose(traj.fields, direct.fields, atol=1e-14)

    def test_contraction_and_agreement_under_smallness(self, const_kappa, eigenmode):
        grid = make_grid((0, 1, 0, 1), 24, 24)
        chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.005, omega=1.0)
        lam1, lam2 = lambda_select(chart, const_kappa, grid,
                                   np.linspace(0, 1, 5), margin=0.005)
        phi = eigenmode(grid)
        tol = 1e-8
        traj, hist = solve_picard(chart, const_kappa, grid, lam1, lam2,
                                  phi, 0.05, 1e-3, tol=tol)
        assert hist.converged
        assert hist.ratios and all(r <= 0.55 for r in hist.ratios)
        direct = solve_direct(chart, const_kappa, grid, phi, 0.05, 1e-3)
        rel = np.max(np.abs(traj.fields - direct.fields)) / np.max(np.abs(direct.fields))
        assert rel <= 10.0 * tol

    def test_windows_of_the_existence_horizon_converge_and_agree(self, const_kappa, eigenmode,
                                                                 monkeypatch):
        # budget: about 0.2 s.  T_star_24 = 0.378 of the report cuts the 50
        # steps into windows of 18, 18 and 14; each restarts from the Picard
        # end state of the one before and counts its own stages and ratios
        grid = make_grid((0, 1, 0, 1), 15, 15)
        chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.005, omega=1.0)
        rep = evolvesurf.smallness_report(chart, const_kappa, grid, np.linspace(0, 1, 11))
        phi, tol, dt = eigenmode(grid), 1e-8, 0.02
        formed = count_sparse_products(monkeypatch)["dia"]
        traj, hist = solve_picard(chart, const_kappa, grid, rep.lambda1, rep.lambda2, phi,
                                  1.0, dt, tol=tol, condition_report=rep, direct_observers=())
        assert int(min(rep.T_star_24, rep.T_star_25) / dt) == 18
        stages = [hist.windows.count(w) for w in range(3)]
        assert hist.windows == sorted(hist.windows) and sum(stages) == len(hist.windows)
        assert hist.converged and hist.iterations == max(stages)
        assert len(hist.ratios) == len(hist.windows) - 3
        assert all(r <= 0.55 for r in hist.ratios)
        # no window adds a product: the direct march's, stage one's march, and
        # four per correction stage step
        picard_products = len(formed)
        formed.clear()
        direct = solve_direct(chart, const_kappa, grid, phi, 1.0, dt)
        assert picard_products == len(formed) + sum((n + 1) * (1 + 4 * m)
                                                    for n, m in zip((18, 18, 14), stages))
        scale = np.max(np.abs(direct.fields))
        assert hist.agreement == float(np.max(np.abs(traj.fields - direct.fields)) / scale)
        assert hist.agreement <= 10.0 * tol
        # every 7th row, across the window ends at steps 18 and 36
        strided, _ = solve_picard(chart, const_kappa, grid, rep.lambda1, rep.lambda2, phi,
                                  1.0, dt, tol=tol, condition_report=rep, stride=7)
        assert list(strided.steps) == list(range(0, 51, 7))
        assert np.array_equal(strided.fields, traj.fields[::7])
        # one window over the whole horizon meets the same gate
        whole, whole_hist = solve_picard(chart, const_kappa, grid, rep.lambda1, rep.lambda2,
                                         phi, 1.0, dt, tol=tol)
        assert set(whole_hist.windows) == {0}
        assert np.max(np.abs(whole.fields - direct.fields)) <= 10.0 * tol * scale

    @pytest.mark.parametrize("theta,stage_one", [(0.5, 11), (1.0, 10)])
    def test_four_products_per_correction_stage_step(self, graph, const_kappa, unit_grid,
                                                     eigenmode, monkeypatch, theta, stage_one):
        # the forcing's A v_m and L(t_k) v_m, the gate's A v_{k+1} and
        # A (v_{m+1} - v_m); z(v_{m+1}) reads the gate's product, and only
        # backward Euler forms A v_0 for it, which its march does not
        lam1, lam2 = lambda_select(graph, const_kappa, unit_grid, [0.0, 0.01])
        formed = count_sparse_products(monkeypatch)["dia"]
        traj, hist = solve_picard(graph, const_kappa, unit_grid, lam1, lam2,
                                  eigenmode(unit_grid), 0.01, 1e-3, theta=theta)
        assert traj.nsteps == 10 and hist.iterations >= 3
        assert len(formed) == stage_one + 4 * 11 * hist.iterations
        # each L(t_k) once per correction stage, and A for the rest
        counts = sorted(collections.Counter(map(id, formed)).values())
        assert counts == [hist.iterations] * 11 + [stage_one + 3 * 11 * hist.iterations]

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_stage_norms_are_z_norm_of_the_stored_iterates(self, graph, const_kappa, unit_grid,
                                                           eigenmode, theta):
        # the march observers give the bits of the replay over stored rows
        lam1, lam2 = lambda_select(graph, const_kappa, unit_grid, [0.0, 0.02])
        A = assemble_A(unit_grid, lam1, lam2)
        run = lambda m: solve_picard(graph, const_kappa, unit_grid, lam1, lam2,
                                     eigenmode(unit_grid), 0.02, 2e-3, tol=1e-300,
                                     max_iter=m, theta=theta)
        prev, _ = run(2)
        cur, hist = run(3)
        assert not hist.converged and len(hist.z_norms) == 3
        assert hist.z_norms[-1] == z_norm(cur, A, unit_grid)
        diff = Trajectory(cur.times, cur.fields - prev.fields, cur.dt, unit_grid)
        assert hist.diff_norms[-1] == z_norm(diff, A, unit_grid)

    @pytest.mark.parametrize("T,max_iter,message", [
        (0.0, 20, "horizon must be positive"),
        (-0.02, 20, "horizon must be positive"),
        (0.02, 0, "max_iter must be at least 1"),
    ], ids=["T=0", "T<0", "max_iter=0"])
    def test_rejects_empty_horizon_and_iteration_cap(self, flat, const_kappa, unit_grid,
                                                     eigenmode, T, max_iter, message):
        # no trajectory of zero steps passes for converged, and no stage-one
        # iterate is returned unchecked
        with pytest.raises(ParameterError, match=message):
            solve_picard(flat, const_kappa, unit_grid, 1.0, 1.0, eigenmode(unit_grid),
                         T, 2e-3, max_iter=max_iter)

    def test_history_shape(self, flat, const_kappa, unit_grid, eigenmode):
        _, hist = solve_picard(flat, const_kappa, unit_grid, 1.0, 1.0,
                               eigenmode(unit_grid), 0.02, 2e-3)
        assert len(hist.diff_norms) == hist.iterations
        assert len(hist.z_norms) == hist.iterations
        assert len(hist.ratios) == max(0, hist.iterations - 1)
        assert all(np.isfinite(hist.ratios))

    def test_divergence_raises_with_hint(self, const_kappa, eigenmode):
        # large oscillation with weights far below the coefficients: the
        # perturbation dominates the comparison operator and the map expands
        grid = make_grid((0, 1, 0, 1), 12, 12)
        chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.4, omega=3.0)
        lam1, lam2 = lambda_select(chart, const_kappa, grid,
                                   np.linspace(0, 1, 5), margin=0.8)
        with pytest.raises(PicardDivergenceError, match="smallness"):
            solve_picard(chart, const_kappa, grid, lam1, lam2, eigenmode(grid),
                         0.3, 1e-2, tol=1e-12, max_iter=6)

    def test_stage_equations_satisfied(self, const_kappa, eigenmode):
        # the returned iterate satisfies its own stage recursion at solver
        # tolerance: (I + th dt A) v_{k+1} = (I - (1-th) dt A) v_k - dt Bbar v_prev
        grid = make_grid((0, 1, 0, 1), 12, 12)
        chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.01, omega=1.0)
        lam1, lam2 = lambda_select(chart, const_kappa, grid, np.linspace(0, 1, 5),
                                   margin=0.01)
        phi = eigenmode(grid)
        traj, hist = solve_picard(chart, const_kappa, grid, lam1, lam2, phi,
                                  0.03, 3e-3, tol=1e-12, max_iter=30)
        # at the fixed point the stage equation collapses onto the direct
        # theta-scheme with L = A + B
        from evolvesurf import assemble_L
        import scipy.sparse as sp
        theta, dt = 0.5, 3e-3
        ident = sp.identity(grid.ndof)
        worst = 0.0
        for k in range(traj.nsteps):
            Lo = assemble_L(chart, const_kappa, grid, float(traj.times[k]))
            Ln = assemble_L(chart, const_kappa, grid, float(traj.times[k + 1]))
            lhs = (ident + theta * dt * Ln) @ traj.fields[k + 1]
            rhs = (ident - (1 - theta) * dt * Lo) @ traj.fields[k]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
        assert worst <= 100 * hist.diff_norms[-1] + 1e-12


def _uncached_lu_march(chart, kappa, grid, v0, nsteps, dt, theta):
    """Theta march with a fresh LU of every step's implicit matrix."""
    ident = sp.identity(grid.ndof, format="csc")
    fields = [v0]
    L_old = assemble_L(chart, kappa, grid, 0.0)
    for k in range(nsteps):
        L_new = assemble_L(chart, kappa, grid, (k + 1) * dt)
        rhs = fields[-1] - (1.0 - theta) * dt * (L_old @ fields[-1])
        fields.append(spla.splu((ident + theta * dt * L_new).tocsc()).solve(rhs))
        L_old = L_new
    return np.array(fields)


def count_krylov_work(patch):
    """(calls, iterations, forwards): lists that record, through the
    MonkeyPatch ``patch``, the arguments and iteration count of every GMRES
    solve and the argument of every SineBasis.forward."""
    calls, iterations, forwards = [], [], []
    gmres, forward = timestepper._gmres, operator.SineBasis.forward

    def counting_gmres(*args):
        x, steps = gmres(*args)
        calls.append(args)
        iterations.append(steps)
        return x, steps

    def counting_forward(self, values):
        forwards.append(values)
        return forward(self, values)

    patch.setattr(timestepper, "_gmres", counting_gmres)
    patch.setattr(operator.SineBasis, "forward", counting_forward)
    return calls, iterations, forwards


def _boundary_mode(grid):
    a, b, c, d = grid.domain
    X1, X2 = grid.interior_mesh()
    return (np.sin(np.pi * (X1 - a) / (b - a)) * np.sin(2 * np.pi * (X2 - c) / (d - c))).ravel()


class TestImplicitSolve:
    def test_matches_uncached_lu_march(self, const_kappa, eigenmode):
        # a long march with a fast-moving chart, where a reused factorization
        # from another step time would show
        grid = make_grid((0, 1, 0, 1), 16, 16)
        chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.3, omega=20.0)
        phi = eigenmode(grid)
        traj = solve_direct(chart, const_kappa, grid, phi, 0.5, 1e-3)
        ref = _uncached_lu_march(chart, const_kappa, grid, phi, 500, 1e-3, 0.5)
        assert np.max(np.abs(traj.fields - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_matches_uncached_lu_march_non_square(self, theta):
        grid = make_grid((0.0, 1.5, 0.0, 0.8), 20, 13)
        chart = make_chart("graph_oscillation", horizon=1.0, epsilon=0.3, omega=20.0)
        kappa = make_diffusion("sinusoidal", base=1.0, amp=0.2)
        v0 = _boundary_mode(grid)
        traj = solve_direct(chart, kappa, grid, v0, 0.2, 1e-3, theta=theta)
        ref = _uncached_lu_march(chart, kappa, grid, v0, 200, 1e-3, theta)
        assert np.max(np.abs(traj.fields - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_moving_march_assembles_once_per_step_time(self, graph, const_kappa,
                                                       unit_grid, eigenmode, monkeypatch):
        times = []

        def counting(chart, kappa, grid, t, **kwargs):
            times.append(t)
            return assemble_L(chart, kappa, grid, t, **kwargs)

        monkeypatch.setattr(operator, "assemble_L", counting)
        traj = solve_direct(graph, const_kappa, unit_grid, eigenmode(unit_grid), 0.03, 1e-3)
        assert traj.nsteps == 30
        assert len(times) == traj.nsteps + 1
        assert times == [k * 1e-3 for k in range(traj.nsteps + 1)]

    def test_moving_march_applies_its_operator_without_a_system_matrix(
            self, graph, const_kappa, unit_grid, eigenmode, monkeypatch):
        # no step builds I + theta dt L(t_k): every GMRES product is
        # z + theta dt (L(t_k) z) with the frame's own L, bit for bit, and the
        # solves leave each L(t_k) as assembled
        theta, dt = 0.7, 1e-3
        assembled, solves, systems = [], [], []
        gmres, system_matrix = timestepper._gmres, timestepper._ThetaMarcher._system

        def recording_assemble(*args, **kwargs):
            L = assemble_L(*args, **kwargs)
            assembled.append((L, L.data.copy()))
            return L

        def recording_gmres(system, *args):
            L = assembled[len(solves) + 1][0]   # step k solves with L(t_k)
            products = []

            def recording(z):
                w = system(z)
                products.append(w.tobytes() == (z + theta * dt * (L @ z)).tobytes())
                return w

            solves.append(products)
            return gmres(recording, *args)

        def counting_system(self, L):
            systems.append(L)
            return system_matrix(self, L)

        monkeypatch.setattr(operator, "assemble_L", recording_assemble)
        monkeypatch.setattr(timestepper, "_gmres", recording_gmres)
        monkeypatch.setattr(timestepper._ThetaMarcher, "_system", counting_system)
        traj = solve_direct(graph, const_kappa, unit_grid, eigenmode(unit_grid), 0.02, dt,
                            theta=theta)
        assert len(solves) == traj.nsteps == 20
        assert len(assembled) == traj.nsteps + 1
        assert systems == []
        # the initial residual and one product per Krylov iteration, at least one
        assert all(len(products) >= 2 and all(products) for products in solves)
        for L, data in assembled:
            assert L.data.tobytes() == data.tobytes()

    def test_moving_march_builds_one_sine_basis(self, graph, const_kappa, unit_grid,
                                                eigenmode, monkeypatch):
        # the preconditioner of every step shares the sine matrices and the
        # eigenvalue axes; a step forms only lambda1 mu1 + lambda2 mu2
        built = []
        init = operator.SineBasis.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(operator.SineBasis, "__init__", counting)
        traj = solve_direct(graph, const_kappa, unit_grid, eigenmode(unit_grid), 0.02, 1e-3)
        assert traj.nsteps == 20
        assert len(built) == 1

    @pytest.mark.parametrize("chart_name,lus", [("flat_static", 1), ("graph_oscillation", 0)])
    def test_factorizations_per_march(self, const_kappa, unit_grid, eigenmode, monkeypatch,
                                      chart_name, lus):
        calls = []
        factorize = timestepper.factorize

        def counting(matrix):
            calls.append(weakref.ref(matrix))
            return factorize(matrix)

        def system_released(k, frame, window, Lv):
            # the LU copies its system matrix, and the march keeps none beside it
            assert all(ref() is None for ref in calls)

        monkeypatch.setattr(timestepper, "factorize", counting)
        chart = make_chart(chart_name, horizon=1.0)
        solve_direct(chart, const_kappa, unit_grid, eigenmode(unit_grid), 0.02, 1e-3,
                     observers=(system_released,))
        assert len(calls) == lus

    @pytest.mark.parametrize("theta,products", [(0.5, 11), (1.0, 10)])
    def test_one_L_product_per_step_time(self, flat, const_kappa, unit_grid, eigenmode,
                                         monkeypatch, theta, products):
        # the residual gate's L(t_{k+1}) v_{k+1} is the next right-hand side's
        # product and the reports' Lv; only step 0 forms one more, for theta < 1
        v0 = eigenmode(unit_grid)
        formed = count_sparse_products(monkeypatch)["dia"]
        traj = solve_reported(flat, const_kappa, unit_grid, v0, 0.01, 1e-3, theta=theta)[0]
        assert traj.nsteps == 10
        assert len(formed) == products
        assert all(L is formed[0] for L in formed)   # the one static frame's L
        # a Picard stage solves with A by DST-I and gates on A v
        stage = timestepper._ThetaMarcher(1e-3, theta,
                                          timestepper._ComparisonStage(unit_grid, 1.0, 1.0))
        formed.clear()
        stage.march(v0, 10)
        assert len(formed) == products
        assert all(A is stage.frames.L for A in formed)

    def test_one_preconditioner_apply_per_krylov_iteration(self, graph, const_kappa, unit_grid,
                                                            eigenmode, monkeypatch):
        # right preconditioning applies P^{-1} once per Arnoldi step: not to the
        # right-hand side, the initial residual or the update x0 + Z y
        calls, iterations, forward = count_krylov_work(monkeypatch)
        traj = solve_direct(graph, const_kappa, unit_grid, eigenmode(unit_grid), 0.02, 1e-3)
        assert len(iterations) == traj.nsteps
        assert min(iterations) >= 1
        assert len(forward) == sum(iterations)
        # a guess that already solves the step returns after 0 iterations and 0 applies
        system = calls[-1][0]   # z -> (I + theta dt L(t_N)) z of the last step
        v = traj.fields[-1]
        marcher = timestepper._ThetaMarcher(1e-3, 0.5, StepFrames(graph, const_kappa, unit_grid))
        applies = len(forward)
        solved, _ = marcher.solve(traj.nsteps, system(v), guess=v)
        assert solved.tobytes() == v.tobytes()
        assert iterations[-1] == 0
        assert len(forward) == applies

    def test_krylov_happy_breakdown_and_dimension_cap(self):
        # with no tolerance to stop on, the cycle ends when the Krylov space is
        # invariant: after one step for an eigenvector, after n steps at the latest
        d = np.arange(1.0, 21.0)
        applies = []

        def identity(r):
            applies.append(r)
            return r

        for b, steps in ((np.eye(20)[3], 1), (np.random.default_rng(0).standard_normal(20), 20)):
            applies.clear()
            x, iterations = timestepper._gmres(lambda z: d * z, identity, b, np.zeros(20),
                                               0.0, 100)
            assert iterations == len(applies) == steps
            assert np.max(np.abs(x - b / d)) <= 1e-14 * np.max(np.abs(b))

    def test_moving_marches_run_without_scipy_gmres(self, graph, const_kappa, unit_grid,
                                                    eigenmode, monkeypatch):
        # the moving path is the in-tree GMRES, and timestepper imports no
        # scipy.sparse.linalg
        def refuse(*args, **kwargs):
            raise AssertionError("scipy.sparse.linalg's GMRES was called")

        monkeypatch.setattr(spla, "gmres", refuse)
        monkeypatch.setattr(spla, "LinearOperator", refuse)
        v0 = eigenmode(unit_grid)
        traj = solve_direct(graph, const_kappa, unit_grid, v0, 0.01, 1e-3)
        assert traj.nsteps == 10
        lam1, lam2 = lambda_select(graph, const_kappa, unit_grid, [0.0, 0.01])
        picard, hist = solve_picard(graph, const_kappa, unit_grid, lam1, lam2, v0, 0.01, 1e-3)
        assert hist.converged
        assert np.max(np.abs(picard.fields - traj.fields)) <= 1e-6 * np.max(np.abs(traj.fields))
        assert spla not in vars(timestepper).values()

    def test_krylov_failure_names_step_time_residual_iterations(self, graph, const_kappa,
                                                                unit_grid, eigenmode,
                                                                monkeypatch):
        monkeypatch.setattr(timestepper, "SOLVE_TOL", 1e-30)
        with pytest.raises(StepSolveError) as info:
            solve_direct(graph, const_kappa, unit_grid, eigenmode(unit_grid), 0.01, 1e-3)
        err = info.value
        assert err.step == 1
        assert err.t == pytest.approx(1e-3)
        assert 1e-30 < err.residual <= 1e-10
        assert err.iterations >= 1
        assert "step 1 at t = 0.001" in str(err)
        assert f"after {err.iterations} GMRES iterations" in str(err)

    @pytest.mark.parametrize("run,solver", [
        (lambda chart, kappa, grid, v0: solve_direct(chart, kappa, grid, v0, 0.01, 1e-3), "LU"),
        (lambda chart, kappa, grid, v0: solve_picard(chart, kappa, grid, 1.0, 1.0, v0,
                                                     0.01, 1e-3), "DST-I"),
    ], ids=["solve_direct", "solve_picard"])
    def test_static_failure_names_the_solver_that_ran(self, flat, const_kappa, unit_grid,
                                                      eigenmode, monkeypatch, run, solver):
        # a static solve_direct factorizes L; a Picard stage solves with A by DST-I
        monkeypatch.setattr(timestepper, "SOLVE_TOL", 1e-30)
        with pytest.raises(StepSolveError) as info:
            run(flat, const_kappa, unit_grid, eigenmode(unit_grid))
        err = info.value
        assert (err.step, err.solver, err.iterations) == (1, solver, None)
        assert 1e-30 < err.residual <= 1e-10
        assert str(err).endswith(f"> 1.0e-30 by {solver}")

    @pytest.mark.parametrize("subcommand", ["solve", "picard", "mms"])
    def test_cli_run_leaves_scipy_fft_unloaded(self, tmp_path, subcommand):
        # the sine transforms are matrix products, so no run of these
        # subcommands imports scipy.fft or the scipy.special it loads
        cfg = tmp_path / "run.ini"
        cfg.write_text(SMALL_MOVING_RUN)
        src = str(Path(evolvesurf.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = "\n".join([
            "import sys",
            "from evolvesurf import cli",
            "status = cli.main(sys.argv[1:])",
            "loaded = [m for m in ('scipy.fft', 'scipy.special') if m in sys.modules]",
            "assert status == 0, f'exit status {status}'",
            "assert not loaded, f'the run loaded {loaded}'",
        ])
        done = subprocess.run([sys.executable, "-c", code, subcommand, "--config", str(cfg),
                               "--out", str(tmp_path / "out")],
                              env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr


class TestPicardStageSolve:
    def test_stage_matches_lu_theta_march_of_A(self):
        # on a flat patch with constant diffusivity B = L - A vanishes to
        # roundoff, so the Picard iterate is the theta-march of A itself
        grid = make_grid((0.0, 1.5, 0.0, 0.8), 20, 13)
        chart = make_chart("flat_static", horizon=1.0)
        kappa = make_diffusion("constant", value=1.3)
        v0 = _boundary_mode(grid)
        traj, hist = solve_picard(chart, kappa, grid, 1.3, 1.3, v0, 0.05, 1e-3)
        assert hist.converged
        ref = _uncached_lu_march(chart, kappa, grid, v0, 50, 1e-3, 0.5)
        assert np.max(np.abs(traj.fields - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_smallness_report_and_picard_make_no_lu(self, graph, const_kappa, unit_grid,
                                                    eigenmode, monkeypatch):
        calls = []
        splu = spla.splu

        def counting(*args, **kwargs):
            calls.append(args)
            return splu(*args, **kwargs)

        monkeypatch.setattr(spla, "splu", counting)
        rep = evolvesurf.smallness_report(graph, const_kappa, unit_grid,
                                          np.linspace(0, 1, 3), probes=4)
        _, hist = solve_picard(graph, const_kappa, unit_grid, rep.lambda1, rep.lambda2,
                               eigenmode(unit_grid), 0.02, 2e-3)
        assert hist.converged
        assert calls == []
        # the static-L path still factorizes, through the same binding
        solve_direct(make_chart("flat_static", horizon=1.0), const_kappa, unit_grid,
                     eigenmode(unit_grid), 0.004, 2e-3)
        assert len(calls) == 1


def _sine_modes(values, grid):
    """Coefficients (..., n1, n2) of grid functions (..., ndof) in the orthonormal DST-I basis."""
    S1, S2 = (math.sqrt(2.0 / (n + 1)) * np.sin(np.pi * np.outer(k, k) / (n + 1))
              for n in (grid.n1, grid.n2) for k in [np.arange(1, n + 1)])
    return S1 @ np.reshape(values, np.shape(values)[:-1] + (grid.n1, grid.n2)) @ S2


def _modal_march(rates, w0, dt, theta, forcing=None):
    """Theta march of dw/dt + rates(t_k) w = forcing(t_k), mode by mode."""
    w = [w0]
    for k in range(len(rates) - 1):
        rhs = (1.0 - (1.0 - theta) * dt * rates[k]) * w[-1]
        if forcing is not None:
            rhs = rhs + dt * (theta * forcing[k + 1] + (1.0 - theta) * forcing[k])
        w.append(rhs / (1.0 + theta * dt * rates[k + 1]))
    return np.array(w)


def _modal_z_norm(w, a, times, dt, grid):
    """``z_norm`` of a modal trajectory: the orthonormal basis keeps every l2 norm."""
    def norm(x):
        return math.sqrt(grid.h1 * grid.h2 * np.sum(x * x))

    dw = np.concatenate([[w[1] - w[0]], (w[2:] - w[:-2]) / 2.0, [w[-1] - w[-2]]]) / dt
    weights = np.full(len(w), dt)
    weights[0] = weights[-1] = 0.5 * dt
    return (max(math.exp(-t) * norm(x) for t, x in zip(times, w))
            + math.sqrt(sum(c * norm(x) ** 2 for c, x in zip(weights, dw)))
            + math.sqrt(sum(c * norm(a * x) ** 2 for c, x in zip(weights, w))))


def _modal_reference(grid, gamma, kappa, lam, v0, dt, nsteps, theta, iterations):
    """The direct and Picard marches of isotropic_scaling (``gamma``) with constant
    ``kappa`` against A = lam (-Delta_h), as sine-mode coefficients.

    Returns the direct march, the last of ``iterations`` Picard iterates and
    their ``z_norms``, ``diff_norms`` and ``ratios``.
    """
    times = np.arange(nsteps + 1) * dt
    mu1, mu2 = (4.0 / h ** 2 * np.sin(0.5 * np.pi * np.arange(1, n + 1) / (n + 1)) ** 2
                for n, h in ((grid.n1, grid.h1), (grid.n2, grid.h2)))
    mu = mu1[:, None] + mu2[None, :]
    ell = kappa * np.exp(-2.0 * gamma * times)[:, None, None] * mu + 2.0 * gamma
    a = lam * mu
    w0 = _sine_modes(v0, grid)
    direct = _modal_march(ell, w0, dt, theta)
    A = np.broadcast_to(a, ell.shape)
    current = _modal_march(A, w0, dt, theta)
    z_norms, diff_norms = [], []
    for _ in range(iterations):
        nxt = _modal_march(A, w0, dt, theta, forcing=(a - ell) * current)
        z_norms.append(_modal_z_norm(nxt, a, times, dt, grid))
        diff_norms.append(_modal_z_norm(nxt - current, a, times, dt, grid))
        current = nxt
    ratios = [d / p for p, d in zip(diff_norms, diff_norms[1:])]
    return direct, current, z_norms, diff_norms, ratios


class TestSineModeReference:
    """On isotropic_scaling with constant kappa the chart is x = e^{gamma t} X, so
    G = e^{4 gamma t}, g^ab = e^{-2 gamma t} delta^ab and the dilation rate is
    2 gamma: L(t) = kappa e^{-2 gamma t} (-Delta_h) + 2 gamma, A and B(t) = L(t) - A
    are all diagonal in the sine basis, and every march is one scalar
    theta-recurrence per mode (``_modal_reference``)."""

    @pytest.mark.parametrize("domain,n1,n2", [((0.0, 1.0, 0.0, 1.0), 12, 12),
                                              ((0.2, 1.7, -0.3, 0.6), 14, 9)],
                             ids=["unit-square", "rectangle"])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("gamma", [-0.5, 0.5])
    def test_direct_and_picard_march_each_mode(self, gamma, theta, domain, n1, n2):
        grid = make_grid(domain, n1, n2)
        chart = make_chart("isotropic_scaling", domain=domain, horizon=1.0, gamma=gamma)
        kappa, T, dt = 1.3, 0.1, 5e-3
        lam = kappa * math.exp(-gamma * T)   # A with the weights of L at the midpoint
        v0 = np.random.default_rng(5).standard_normal(grid.ndof)
        diffusion = make_diffusion("constant", value=kappa)
        direct = solve_direct(chart, diffusion, grid, v0, T, dt, theta=theta)
        # tol = 1e-2 ends the iteration while consecutive iterates differ by
        # about 1e-3 of their size: a difference of two iterates carries their
        # rounding, so a diff norm near 1e-9 is known only to about 1e-7 of itself
        picard, hist = solve_picard(chart, diffusion, grid, lam, lam, v0, T, dt,
                                    tol=1e-2, theta=theta)
        ref, current, z_norms, diff_norms, ratios = _modal_reference(
            grid, gamma, kappa, lam, v0, dt, 20, theta, hist.iterations)
        assert np.max(np.abs(_sine_modes(direct.fields, grid) - ref)) <= \
            1e-12 * np.max(np.abs(ref))
        assert hist.converged and hist.iterations >= 3
        assert np.max(np.abs(_sine_modes(picard.fields, grid) - current)) <= \
            1e-12 * np.max(np.abs(current))
        for got, want in ((hist.z_norms, z_norms), (hist.diff_norms, diff_norms),
                          (hist.ratios, ratios)):
            assert len(got) == len(want)
            assert_allclose(got, want, rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("modes", [(1, 1), (1, 2)])
    @pytest.mark.parametrize("theta", [0.5, 1.0])
    @pytest.mark.parametrize("gamma", [-0.5, 0.5])
    def test_long_gmres_march_stays_at_round_off(self, gamma, theta, modes):
        # 600 GMRES steps from a single sine mode.  The gate is relative to
        # the datum: at gamma = -1/2 the (1,2) datum decays below the round-off
        # that the march seeds into the slower (1,1) mode, so relative to v_k
        # the error reaches O(1)
        domain = (0.2, 1.7, -0.3, 0.6)
        grid = make_grid(domain, 14, 9)
        chart = make_chart("isotropic_scaling", domain=domain, horizon=1.0, gamma=gamma)
        kappa, dt, nsteps = 1.3, 1e-3, 600
        X1, X2 = grid.interior_mesh()
        s1 = (X1 - domain[0]) / (domain[1] - domain[0])
        s2 = (X2 - domain[2]) / (domain[3] - domain[2])
        v0 = (np.sin(modes[0] * np.pi * s1) * np.sin(modes[1] * np.pi * s2)).ravel()
        direct = solve_direct(chart, make_diffusion("constant", value=kappa), grid, v0,
                              nsteps * dt, dt, theta=theta)
        ref = _modal_reference(grid, gamma, kappa, kappa, v0, dt, nsteps, theta, 0)[0]
        assert direct.nsteps == nsteps
        assert np.max(np.abs(_sine_modes(direct.fields, grid) - ref)) <= \
            1e-13 * np.max(np.abs(_sine_modes(v0, grid)))


class TestStepFrames:
    """The march evaluates each step time once and shows its frames to observers."""

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_observers_see_every_step_frame_once_in_order(self, graph, const_kappa, unit_grid,
                                                          eigenmode, count_calls, theta):
        assembled = count_calls(operator, "assemble_L")
        seen, windows, alive = [], [], []
        refs = []

        def observe(k, frame, window, Lv):
            seen.append((k, frame.t))
            windows.append([None if v is None else v.copy() for v in window])
            refs.append(weakref.ref(frame))
            alive.append(sum(r() is not None for r in refs))
            # L(t_k) v_k as the march formed it: step k-1's residual gate, or the
            # right-hand side of step 0; backward Euler forms none at k = 0
            if k > 0 or theta < 1.0:
                assert Lv.tobytes() == (frame.L @ window[1]).tobytes()
            else:
                assert Lv is None

        traj = solve_direct(graph, const_kappa, unit_grid, eigenmode(unit_grid), 0.01, 1e-3,
                            theta=theta, observers=(observe,))
        assert seen == [(k, k * 1e-3) for k in range(traj.nsteps + 1)]
        # each L(t_k) once; backward Euler never needs L(t_0)
        first = 0 if theta < 1.0 else 1
        assert [args[3] for args in assembled] == [k * 1e-3 for k in range(first, traj.nsteps + 1)]
        # the window (v_{k-1}, v_k, v_{k+1}), None beyond either end
        for k, window in enumerate(windows):
            for j, vals in zip((k - 1, k, k + 1), window):
                if 0 <= j <= traj.nsteps:
                    assert np.array_equal(vals, traj.fields[j])
                else:
                    assert vals is None
        assert max(alive) <= 2

    def test_observers_leave_the_march_unchanged(self, graph, const_kappa, unit_grid,
                                                 eigenmode):
        plain = solve_direct(graph, const_kappa, unit_grid, eigenmode(unit_grid), 0.01, 1e-3)
        observed = solve_direct(graph, const_kappa, unit_grid, eigenmode(unit_grid), 0.01,
                                1e-3, observers=(lambda k, frame, window, Lv: frame.cell_fluxes,))
        assert np.array_equal(plain.fields, observed.fields)

    def test_picard_with_operators_from_direct_frames(self, graph, const_kappa, unit_grid,
                                                      eigenmode, count_calls):
        lam1, lam2 = lambda_select(graph, const_kappa, unit_grid, [0.0, 0.02])
        v0 = eigenmode(unit_grid)
        own, own_hist = solve_picard(graph, const_kappa, unit_grid, lam1, lam2, v0, 0.02, 2e-3)
        assembled = count_calls(operator, "assemble_L")
        observed = []
        shared, hist = solve_picard(graph, const_kappa, unit_grid, lam1, lam2, v0, 0.02, 2e-3,
                                    direct_observers=(lambda k, frame, window, Lv:
                                                      observed.append(k),))
        # the direct march's step frames are the only L(t_k) the stages read
        assert observed == list(range(shared.nsteps + 1))
        assert len(assembled) == shared.nsteps + 1
        assert np.array_equal(shared.fields, own.fields)
        assert hist.diff_norms == own_hist.diff_norms
        # the running maxima give the whole-array agreement
        direct = solve_direct(graph, const_kappa, unit_grid, v0, 0.02, 2e-3)
        scale = float(np.max(np.abs(direct.fields)))
        assert hist.agreement == float(np.max(np.abs(own.fields - direct.fields)) / scale)
        assert own_hist.agreement is None

    def test_static_problem_hands_one_L_to_every_step(self, const_kappa, eigenmode,
                                                      count_calls):
        chart = make_chart("translating_patch", horizon=1.0)
        grid = make_grid((0.0, 1.5, 0.0, 1.0), 12, 9)
        lam1, lam2 = lambda_select(chart, const_kappa, grid, [0.0])
        v0 = eigenmode(grid)
        assembled = count_calls(operator, "assemble_L")
        shared, hist = solve_picard(chart, const_kappa, grid, lam1, lam2, v0, 0.02, 2e-3,
                                    direct_observers=())
        assert len(assembled) == 1
        own, own_hist = solve_picard(chart, const_kappa, grid, lam1, lam2, v0, 0.02, 2e-3)
        assert len(assembled) == 2
        assert np.array_equal(shared.fields, own.fields)
        assert hist.diff_norms == own_hist.diff_norms

    def test_marches_convert_no_matrix_but_the_static_LU(self, graph, flat, const_kappa,
                                                         eigenmode, monkeypatch):
        # outermost format conversions of DIA and COO matrices (a DIA tocsc
        # goes through tocsr, which is not counted again)
        conversions, depth = [], []
        for cls in (sp.dia_matrix, sp.coo_matrix):
            for name in ("tocsr", "tocsc", "tocoo"):
                def counting(self, *args, _convert=getattr(cls, name), _name=name, **kwargs):
                    if not depth:
                        conversions.append((self.format, _name))
                    depth.append(_name)
                    try:
                        return _convert(self, *args, **kwargs)
                    finally:
                        depth.pop()
                monkeypatch.setattr(cls, name, counting)
        grid = make_grid((0.0, 1.5, 0.0, 1.0), 14, 9)
        traj = solve_direct(graph, const_kappa, grid, eigenmode(grid), 0.02, 1e-3)
        assert traj.nsteps == 20
        assert conversions == []
        solve_direct(flat, const_kappa, grid, eigenmode(grid), 0.02, 1e-3)
        assert conversions == [("dia", "tocsc")]
