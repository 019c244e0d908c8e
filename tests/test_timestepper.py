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
    theta_step,
    user_chart,
    z_norm,
)
from evolvesurf.diagnostics import manufactured_forcing, manufactured_solution
from evolvesurf.geometry import metric_fields
from evolvesurf import operator
from evolvesurf.operator import field_l2
from evolvesurf import timestepper
from evolvesurf.operator import StepFrames
from evolvesurf.timestepper import Trajectory

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
        # theta_step takes the (x1, x2, t) forcing solve_direct takes
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
        # np.stack needs x1 and x2 of one shape; the partials are finite
        # differences of this evaluator
        shapes = set()

        def x_eval(x1, x2, t):
            shapes.add((np.shape(x1), np.shape(x2)))
            return np.stack([x1, x2, 0.05 * np.sin(t) * np.sin(np.pi * x1) * np.sin(np.pi * x2)])

        chart = user_chart(x_eval, self.GRID.domain, 1.0)
        v0 = eigenmode(self.GRID)
        traj = solve_direct(chart, const_kappa, self.GRID, v0, 0.005, 1e-3)
        assert shapes == {((14, 9), (14, 9))}   # the full mesh, dense
        with dense_meshes():
            ref = solve_direct(chart, const_kappa, self.GRID, v0, 0.005, 1e-3)
        assert traj.fields.tobytes() == ref.fields.tobytes()

    @pytest.mark.parametrize("provider,shape", [
        (lambda x1, x2, t: (1.0 + t) * np.sin(np.pi * x1), (12, 1)),
        (lambda x1, x2, t: 2.5, ()),
    ], ids=["x1_only", "scalar"])
    def test_forcing_is_broadcast_to_the_grid(self, graph, const_kappa, eigenmode,
                                              provider, shape):
        grid = self.GRID
        X1, X2 = grid.interior_mesh()
        assert np.shape(provider(*grid.interior_mesh(sparse=True), 0.0)) == shape
        for t in (0.0, 0.37):
            F = timestepper._eval_forcing(provider, grid, t)
            assert F.shape == (grid.ndof,)
            assert F.tobytes() == np.broadcast_to(provider(X1, X2, t), X1.shape).ravel().tobytes()
        dense = lambda x1, x2, t: np.broadcast_to(provider(X1, X2, t), X1.shape)
        v0 = eigenmode(grid)
        traj = solve_direct(graph, const_kappa, grid, v0, 0.005, 1e-3, F_provider=provider)
        ref = solve_direct(graph, const_kappa, grid, v0, 0.005, 1e-3, F_provider=dense)
        assert traj.fields.tobytes() == ref.fields.tobytes()


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
            calls.append(matrix)
            return factorize(matrix)

        monkeypatch.setattr(timestepper, "factorize", counting)
        chart = make_chart(chart_name, horizon=1.0)
        solve_direct(chart, const_kappa, unit_grid, eigenmode(unit_grid), 0.02, 1e-3)
        assert len(calls) == lus

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


class TestStepFrames:
    """The march evaluates each step time once and shows its frames to observers."""

    @pytest.mark.parametrize("theta", [0.5, 1.0])
    def test_observers_see_every_step_frame_once_in_order(self, graph, const_kappa, unit_grid,
                                                          eigenmode, count_calls, theta):
        assembled = count_calls(operator, "assemble_L")
        seen, filled, alive = [], [], []
        refs = []

        def observe(k, frame, traj):
            seen.append((k, frame.t))
            filled.append(traj.fields[min(k + 1, traj.nsteps)].copy())
            refs.append(weakref.ref(frame))
            alive.append(sum(r() is not None for r in refs))

        traj = solve_direct(graph, const_kappa, unit_grid, eigenmode(unit_grid), 0.01, 1e-3,
                            theta=theta, observers=(observe,))
        assert seen == [(k, k * 1e-3) for k in range(traj.nsteps + 1)]
        # each L(t_k) once; backward Euler never needs L(t_0)
        first = 0 if theta < 1.0 else 1
        assert [args[3] for args in assembled] == [k * 1e-3 for k in range(first, traj.nsteps + 1)]
        for k, vals in enumerate(filled):
            assert np.array_equal(vals, traj.fields[min(k + 1, traj.nsteps)])
        assert max(alive) <= 2

    def test_observers_leave_the_march_unchanged(self, graph, const_kappa, unit_grid,
                                                 eigenmode):
        plain = solve_direct(graph, const_kappa, unit_grid, eigenmode(unit_grid), 0.01, 1e-3)
        observed = solve_direct(graph, const_kappa, unit_grid, eigenmode(unit_grid), 0.01,
                                1e-3, observers=(lambda k, frame, traj: frame.centre,))
        assert np.array_equal(plain.fields, observed.fields)

    def test_picard_with_operators_from_direct_frames(self, graph, const_kappa, unit_grid,
                                                      eigenmode, count_calls):
        lam1, lam2 = lambda_select(graph, const_kappa, unit_grid, [0.0, 0.02])
        v0 = eigenmode(unit_grid)
        own, own_hist = solve_picard(graph, const_kappa, unit_grid, lam1, lam2, v0, 0.02, 2e-3)
        assembled = count_calls(operator, "assemble_L")
        operators = []
        direct = solve_direct(graph, const_kappa, unit_grid, v0, 0.02, 2e-3,
                              observers=(lambda k, frame, traj: operators.append(frame.L),))
        shared, hist = solve_picard(graph, const_kappa, unit_grid, lam1, lam2, v0, 0.02, 2e-3,
                                    operators=operators)
        assert len(assembled) == direct.nsteps + 1
        assert len({id(L) for L in operators}) == direct.nsteps + 1
        assert np.array_equal(shared.fields, own.fields)
        assert hist.diff_norms == own_hist.diff_norms
        for wrong in (operators[:-1], operators + operators[-1:]):
            with pytest.raises(ParameterError, match="operators L"):
                solve_picard(graph, const_kappa, unit_grid, lam1, lam2, v0, 0.02, 2e-3,
                             operators=wrong)

    def test_static_problem_hands_one_L_to_every_step(self, const_kappa, eigenmode,
                                                      count_calls):
        chart = make_chart("translating_patch", horizon=1.0)
        grid = make_grid((0.0, 1.5, 0.0, 1.0), 12, 9)
        lam1, lam2 = lambda_select(chart, const_kappa, grid, [0.0])
        v0 = eigenmode(grid)
        operators = []
        direct = solve_direct(chart, const_kappa, grid, v0, 0.02, 2e-3,
                              observers=(lambda k, frame, traj: operators.append(frame.L),))
        assert len(operators) == direct.nsteps + 1
        assert len({id(L) for L in operators}) == 1
        # one separately assembled L per step time gives the same bits
        per_step = [assemble_L(chart, const_kappa, grid, 0.0) for _ in operators]
        ref, ref_hist = solve_picard(chart, const_kappa, grid, lam1, lam2, v0, 0.02, 2e-3,
                                     operators=per_step)
        shared, hist = solve_picard(chart, const_kappa, grid, lam1, lam2, v0, 0.02, 2e-3,
                                    operators=operators)
        frames_here = count_calls(operator, "assemble_L")
        own, own_hist = solve_picard(chart, const_kappa, grid, lam1, lam2, v0, 0.02, 2e-3)
        assert len(frames_here) == 1
        assert np.array_equal(shared.fields, ref.fields)
        assert np.array_equal(own.fields, ref.fields)
        assert hist.diff_norms == own_hist.diff_norms == ref_hist.diff_norms

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
