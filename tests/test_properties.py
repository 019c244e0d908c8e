"""Property tests over drawn grids and weights.

Grids have n1 != n2 nodes per axis (single-node axes included) on
non-unit rectangles; the comparison weights lie in [0.2, 3].  The draws are
derandomized and no example database is kept (conftest.py moves Hypothesis's
cache of source constants to the temporary directory).
"""

import dataclasses
import functools
import math
import sys

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from evolvesurf import coefficients, timestepper  # noqa: E402
from evolvesurf import (  # noqa: E402
    AssumptionViolationError,
    assemble_A,
    assemble_B_parts,
    assemble_L,
    estimate_C_A,
    estimate_C_sharp,
    lambda_select,
    m_quantities,
    make_chart,
    make_diffusion,
    make_grid,
    smallness_report,
    solve_direct,
    solve_picard,
)
from evolvesurf.cli import _sine_product_solution  # noqa: E402
from evolvesurf.coefficients import (  # noqa: E402
    DIFFUSION_PARAMS,
    DIFFUSION_PRESETS,
    _spectral_cn_ratio,
    maximal_regularity_ratio,
)
from evolvesurf.config import RunConfig, parse_config, serialize_config  # noqa: E402
from evolvesurf.diagnostics import (  # noqa: E402
    SOLUTION_PARTIALS,
    EnergyBalance,
    _flux_sq,
    _mass,
    _Regularity,
    solve_reported,
)
from evolvesurf.geometry import PRESET_NAMES, PRESET_PARAMS, metric_fields  # noqa: E402
from evolvesurf.operator import (  # noqa: E402
    SineBasis,
    StepFrame,
    StepFrames,
    _on_mesh,
    max_abs_entry,
    static_problem,
    stencil_weights,
    weighted_symmetry_defect,
)

from test_coefficients import (  # noqa: E402
    _lu_C_A,
    _lu_C_sharp,
    _lu_mr_ratio,
    _stepwise_cn_ratio,
    exhaustive_C_star_sums,
)
from oracles import cell_center_mesh, plain_flux_sq, plain_mass  # noqa: E402
from test_geometry import dense_meshes  # noqa: E402
from test_operator import (  # noqa: E402
    assembled_by_coo,
    assert_same_entries,
    diagonal_stencil_weights,
)
from test_timestepper import (  # noqa: E402
    _modal_reference,
    _sine_modes,
    _uncached_lu_march,
    count_krylov_work,
)

PROPERTY = settings(max_examples=20, deadline=None, database=None, derandomize=True)


@st.composite
def grids(draw):
    n1 = draw(st.integers(1, 12))
    n2 = draw(st.integers(1, 12).filter(lambda n: n != n1))
    a = draw(st.floats(-1.0, 1.0))
    c = draw(st.floats(-1.0, 1.0))
    b = a + draw(st.floats(0.3, 2.5))
    d = c + draw(st.floats(0.3, 2.5))
    return make_grid((a, b, c, d), n1, n2)


weights = st.floats(0.2, 3.0)


@PROPERTY
@given(grid=grids(), lam1=weights, lam2=weights, seed=st.integers(0, 2 ** 16))
def test_estimators_match_lu_references(grid, lam1, lam2, seed):
    A = assemble_A(grid, lam1, lam2)
    assert estimate_C_sharp(grid, lam1, lam2, 3, seed=seed) == pytest.approx(
        _lu_C_sharp(A, grid, 3, seed), rel=1e-12)
    assert estimate_C_A(grid, lam1, lam2, 0.6, 2, seed=seed, nsteps=24, pieces=3) == \
        pytest.approx(_lu_C_A(A, 0.6, 2, seed, nsteps=24, pieces=3), rel=1e-12)
    F = np.random.default_rng(seed).standard_normal((9, grid.ndof))
    assert maximal_regularity_ratio(grid, lam1, lam2, F, 0.02) == pytest.approx(
        _lu_mr_ratio(A, F, 0.02), rel=1e-12)


@PROPERTY
@given(grid=grids(), lam1=weights, lam2=weights, T=st.floats(-4.0, 1.0).map(lambda e: 10.0 ** e),
       nsteps=st.integers(1, 60), pieces=st.integers(1, 12), seed=st.integers(0, 2 ** 16))
@example(grid=make_grid((0.0, 2.5, 0.0, 1.8), 2, 3), lam1=0.2, lam2=0.3, T=1e-4, nsteps=50,
         pieces=7, seed=0)   # dt mu from 2e-6 to 1e-5: a near +1
@example(grid=make_grid((0.0, 0.3, 0.0, 0.4), 12, 11), lam1=3.0, lam2=2.5, T=10.0, nsteps=3,
         pieces=8, seed=1)   # dt mu from 2e3 to 1e5, pieces > nsteps: a near -1
@example(grid=make_grid((0.0, 1.0, 0.0, 1.0), 9, 4), lam1=1.0, lam2=1.0, T=0.4, nsteps=31,
         pieces=4, seed=2)   # dt mu from 0.25 to 6.2, pieces not dividing nsteps
def test_closed_form_matches_the_stepwise_march(grid, lam1, lam2, T, nsteps, pieces, seed):
    # pieces of constant forcing (estimate_C_A's batch) and one forcing per
    # step (maximal_regularity_ratio) against the march one step at a time
    basis = SineBasis(grid, lam1, lam2)
    mu, dt, w = basis.eigenvalues, T / nsteps, grid.h1 * grid.h2
    k_idx = np.minimum((np.arange(nsteps + 1) * pieces) // nsteps, pieces - 1)
    fhat = basis.forward(np.random.default_rng(seed).standard_normal((3, pieces, grid.ndof)))
    ratios = _spectral_cn_ratio(mu, fhat, k_idx.tolist(), dt)
    for probe, ratio in zip(fhat, ratios):
        assert ratio == pytest.approx(_stepwise_cn_ratio(mu, probe, k_idx, dt, w), rel=1e-13)
    assert estimate_C_A(grid, lam1, lam2, T, 3, seed=seed, nsteps=nsteps, pieces=pieces) == \
        pytest.approx(max(ratios), rel=1e-15)
    F = np.random.default_rng(seed + 1).standard_normal((nsteps + 1, grid.ndof))
    assert maximal_regularity_ratio(grid, lam1, lam2, F, dt) == pytest.approx(
        _stepwise_cn_ratio(mu, basis.forward(F), range(nsteps + 1), dt, w), rel=1e-13)


@PROPERTY
@given(grid=grids(), lam1=weights, lam2=weights, shift=st.floats(1e-4, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_shifted_solver_inverts_I_plus_sA(grid, lam1, lam2, shift, seed):
    system = sp.identity(grid.ndof) + shift * assemble_A(grid, lam1, lam2)
    r = np.random.default_rng(seed).standard_normal(grid.ndof)
    v = SineBasis(grid, lam1, lam2).shifted_solver(lam1, lam2, shift)(r)
    scale = abs(system).sum(axis=1).max()   # infinity norm of I + sA
    assert np.linalg.norm(system @ v - r) <= 1e-13 * scale * np.linalg.norm(r)


@PROPERTY
@given(grid=grids(), lam1=weights, lam2=weights, preset=st.sampled_from(PRESET_NAMES),
       diffusion=st.sampled_from(DIFFUSION_PRESETS), t=st.floats(0.0, 2.0))
def test_B_parts_sum_to_L_minus_A(grid, lam1, lam2, preset, diffusion, t):
    chart = make_chart(preset, domain=grid.domain, horizon=2.0)
    kappa = make_diffusion(diffusion)
    parts = assemble_B_parts(chart, kappa, grid, lam1, lam2, t)
    total = sum(parts[f"B{i}"] for i in range(1, 6))
    defect = total - (assemble_L(chart, kappa, grid, t) - assemble_A(grid, lam1, lam2))
    assert max_abs_entry(defect) <= 1e-10


@PROPERTY
@given(grid=grids(), lam1=weights, lam2=weights, theta=st.floats(0.5, 1.0),
       dt=st.floats(1e-4, 0.1), seed=st.integers(0, 2 ** 16))
@example(grid=make_grid((0.0, 1.5, 0.0, 0.8), 5, 2), lam1=0.8, lam2=1.3, theta=0.5, dt=1e-2,
         seed=0)
@example(grid=make_grid((0.0, 1.5, 0.0, 0.8), 4, 1), lam1=0.8, lam2=1.3, theta=0.5, dt=1e-2,
         seed=1)
@example(grid=make_grid((0.0, 1.5, 0.0, 0.8), 1, 3), lam1=0.8, lam2=1.3, theta=1.0, dt=1e-2,
         seed=2)
@example(grid=make_grid((-0.5, 1.0, 0.2, 2.0), 2, 7), lam1=1.1, lam2=0.6, theta=0.7, dt=3e-2,
         seed=3)
def test_dia_operators_equal_coo_reference(grid, lam1, lam2, theta, dt, seed):
    # every preset x both diffusivities x t in {0, 0.37} on each drawn grid, and
    # on axes of one and two nodes, where two stencil offsets share a diagonal
    A = assemble_A(grid, lam1, lam2)
    ref_A = assembled_by_coo(assemble_A, grid, lam1, lam2)
    assert_same_entries(A, ref_A)
    v = np.random.default_rng(seed).standard_normal(grid.ndof)
    for preset in PRESET_NAMES:
        chart = make_chart(preset, domain=grid.domain, horizon=2.0)
        for diffusion in DIFFUSION_PRESETS:
            kappa = make_diffusion(diffusion)
            for t in (0.0, 0.37):
                L = assemble_L(chart, kappa, grid, t)
                ref = assembled_by_coo(assemble_L, chart, kappa, grid, t)
                assert_same_entries(L, ref)
                assert (L @ v).tobytes() == (ref @ v).tobytes()
                weights = np.array(stencil_weights(L, grid))
                assert weights.tobytes() == np.array(diagonal_stencil_weights(ref, grid)).tobytes()
                parts = assemble_B_parts(chart, kappa, grid, lam1, lam2, t)
                ref_parts = assembled_by_coo(assemble_B_parts, chart, kappa, grid, lam1, lam2, t)
                for name, part in parts.items():
                    assert_same_entries(part, ref_parts[name])
                # L - A stays DIA: a scipy that falls back to CSR arithmetic fails here
                B = L - A
                assert B.format == "dia"
                assert_same_entries(B, ref - ref_A)
                # the marcher's refilled system buffer
                marcher = timestepper._ThetaMarcher(dt, theta, StepFrames(chart, kappa, grid))
                system = marcher._system(L)
                assert system.format == "dia"
                ref_system = sp.identity(grid.ndof, format="csr") + theta * dt * ref
                assert_same_entries(system, ref_system)


@PROPERTY
@given(grid=grids(), preset=st.sampled_from(PRESET_NAMES),
       diffusion=st.sampled_from(DIFFUSION_PRESETS), t=st.floats(0.0, 2.0))
def test_flux_stencil_is_selfadjoint_in_weighted_L2(grid, preset, diffusion, t):
    chart = make_chart(preset, domain=grid.domain, horizon=2.0)
    frame = StepFrame(chart, make_diffusion(diffusion), grid, t)
    defect, scale = weighted_symmetry_defect(frame)
    assert defect <= 1e-10 * max(scale, 1.0)


# a parameter value of the preset family, 0 among them
family_value = st.one_of(st.just(0.0), st.floats(0.1, 2.0), st.floats(-2.0, -0.1))


@PROPERTY
@given(grid=grids(), values=st.fixed_dictionaries({key: family_value for key in
                                                   ("gamma", "epsilon", "omega", "c")}),
       t1=st.floats(0.0, 1.0), gap=st.floats(0.25, 1.0))
def test_static_metric_flag_freezes_the_metric(grid, values, t1, gap):
    # a wrong flag would march a frozen operator without any error; each
    # preset reads its own parameters from the drawn values
    X1, X2 = grid.full_mesh()
    for name in PRESET_NAMES:
        chart = make_chart(name, domain=grid.domain, horizon=2.0,
                           **{key: values[key] for key in PRESET_PARAMS[name]})
        if not chart.static_metric:
            continue
        m1, m2 = (metric_fields(chart, X1, X2, t, h_fd=grid.h_fd) for t in (t1, t1 + gap))
        for key in ("g11", "g12", "g22", "G"):
            assert getattr(m1, key).tobytes() == getattr(m2, key).tobytes()
        assert not np.any(m1.dGdt) and not np.any(m2.dGdt)


# the presets of a moving surface with small parameters, each with the
# parameters it reads
moving_charts = st.one_of(
    st.tuples(st.just("isotropic_scaling"),
              st.fixed_dictionaries({"gamma": st.floats(-0.5, 0.5)})),
    st.tuples(st.just("graph_oscillation"),
              st.fixed_dictionaries({"epsilon": st.floats(-0.05, 0.05),
                                     "omega": st.floats(0.5, 2.0)})),
    st.tuples(st.just("translating_patch"), st.fixed_dictionaries({"c": st.floats(-1.5, 1.5)})),
)


@PROPERTY
@given(grid=grids(), chart=moving_charts, diffusion=st.sampled_from(DIFFUSION_PRESETS),
       theta=st.floats(0.5, 1.0), dt=st.floats(1e-3, 0.05), nsteps=st.integers(1, 8),
       seed=st.integers(0, 2 ** 16))
def test_picard_converges_to_the_direct_march(grid, chart, diffusion, theta, dt, nsteps,
                                              seed):
    # the fixed point of the Picard stages is the direct theta march at every
    # theta; a rough random datum, and every draw must converge
    name, params = chart
    T = nsteps * dt
    chart = make_chart(name, domain=grid.domain, horizon=T, **params)
    kappa = make_diffusion(diffusion)
    lam1, lam2 = lambda_select(chart, kappa, grid, np.linspace(0.0, T, 5))
    v0 = np.random.default_rng(seed).standard_normal(grid.ndof)
    tol = 1e-8
    traj, hist = solve_picard(chart, kappa, grid, lam1, lam2, v0, T, dt, tol=tol,
                              max_iter=60, theta=theta)
    direct = solve_direct(chart, kappa, grid, v0, T, dt, theta=theta)
    assert hist.converged
    scale = np.max(np.abs(direct.fields))
    assert np.max(np.abs(traj.fields - direct.fields)) <= 10.0 * tol * scale


@PROPERTY
@given(grid=grids(), chart=st.one_of(st.just(("flat_static", {})), moving_charts),
       diffusion=st.sampled_from(DIFFUSION_PRESETS), theta=st.floats(0.5, 1.0),
       dt=st.floats(1e-3, 0.05), nsteps=st.integers(2, 8),
       stride=st.one_of(st.sampled_from((1, 2, 7)), st.integers(9, 50)),
       seed=st.integers(0, 2 ** 16))
def test_strided_march_keeps_the_full_rows_and_reports(grid, chart, diffusion, theta, dt,
                                                       nsteps, stride, seed):
    # the kept rows of every stride-th step, and the reports read from the
    # march's window, are the bits of the march that keeps every step and of
    # its reports; a stride above nsteps keeps only the datum
    name, params = chart
    chart = make_chart(name, domain=grid.domain, horizon=nsteps * dt, **params)
    kappa = make_diffusion(diffusion)
    v0 = np.random.default_rng(seed).standard_normal(grid.ndof)
    full, ref, decay_ref, regularity_ref = solve_reported(chart, kappa, grid, v0, nsteps * dt,
                                                          dt, theta=theta)
    traj, ledger, decay, regularity = solve_reported(chart, kappa, grid, v0, nsteps * dt, dt,
                                                     theta=theta, stride=stride)
    assert traj.steps == range(0, full.nsteps + 1, stride)
    assert traj.times.tobytes() == full.times.tobytes()
    assert traj.fields.tobytes() == full.fields[::stride].tobytes()
    for key in ("times", "mass", "dissipation", "dilation", "residual_abs", "residual_rel"):
        assert getattr(ledger, key).tobytes() == getattr(ref, key).tobytes()
    assert decay == decay_ref
    assert regularity == regularity_ref


@PROPERTY
@given(grid=grids(), preset=st.sampled_from(PRESET_NAMES),
       values=st.fixed_dictionaries({key: family_value for key in
                                     ("gamma", "epsilon", "omega", "c")}),
       diffusion=st.sampled_from(DIFFUSION_PRESETS), theta=st.sampled_from((0.5, 1.0)),
       dt=st.floats(1e-3, 0.05), seed=st.integers(0, 2 ** 16))
def test_fused_quadratures_match_the_plain_forms(grid, preset, values, diffusion, theta, dt,
                                                 seed):
    # the reports' reductions (one squared row and one dot product per nodal
    # quadrature, three scaled three-operand sums of unscaled half-sums for
    # the flux quadrature) against the term-by-term forms, on the frames,
    # windows and products L(t_k) v_k of a march
    nsteps = 3
    chart = make_chart(preset, domain=grid.domain, horizon=nsteps * dt,
                       **{key: values[key] for key in PRESET_PARAMS[preset]})
    kappa = make_diffusion(diffusion)
    ledger, regularity = EnergyBalance(grid), _Regularity(grid, dt)
    seen = []
    solve_direct(chart, kappa, grid, np.random.default_rng(seed).standard_normal(grid.ndof),
                 nsteps * dt, dt, theta=theta,
                 observers=(ledger.observe, regularity.observe,
                            lambda k, frame, window, Lv: seen.append((frame, window, Lv))))

    def close(got, ref, scale=None):
        return abs(got - ref) <= 1e-13 * (abs(ref) if scale is None else scale)

    for k, (frame, (prev, u, nxt), Lv) in enumerate(seen):
        sqrtG, d0, fluxes = frame.interior_sqrtG, frame.coefficients["d0"], frame.cell_fluxes
        mass, diss = plain_mass(u, grid, sqrtG), plain_flux_sq(u, grid, fluxes)
        assert close(_mass(u, grid, sqrtG), mass)
        assert close(_flux_sq(u, grid, fluxes), diss)
        assert close(ledger.mass[k], 0.5 * mass)
        assert close(ledger.diss_rate[k], diss)
        # d0 may change sign: relative to the integral of |d0| u^2
        assert close(ledger.dil_rate[k], 0.5 * plain_mass(u, grid, sqrtG * d0),
                     0.5 * plain_mass(u, grid, sqrtG * np.abs(d0)))
        if 0 < k < nsteps:
            assert close(regularity.dt_sq[k - 1],
                         plain_mass((nxt - prev) / (2.0 * dt), grid, sqrtG))
            assert close(regularity.div_sq[k - 1],
                         plain_mass(-(Lv - d0.ravel() * u), grid, sqrtG))
    assert len(seen) == nsteps + 1 and len(regularity.div_sq) == nsteps - 1


# the presets whose operator moves, with parameters that keep it moving
nonzero = lambda lo, hi: st.one_of(st.floats(lo, hi), st.floats(-hi, -lo))
moving_operators = st.one_of(
    st.tuples(st.just("isotropic_scaling"), st.fixed_dictionaries({"gamma": nonzero(0.05, 0.5)})),
    st.tuples(st.just("graph_oscillation"),
              st.fixed_dictionaries({"epsilon": nonzero(0.005, 0.05),
                                     "omega": st.floats(0.5, 2.0)})),
)


@PROPERTY
@given(grid=grids(), chart=moving_operators, diffusion=st.sampled_from(DIFFUSION_PRESETS),
       theta=st.floats(0.5, 1.0), dt=st.floats(1e-3, 0.05), nsteps=st.integers(1, 8),
       seed=st.integers(0, 2 ** 16))
def test_moving_march_matches_per_step_lu(grid, chart, diffusion, theta, dt, nsteps, seed):
    # every GMRES step solves to round-off, with one preconditioner apply per
    # iteration: a fresh sparse LU per step is the reference, from a rough
    # random datum
    name, params = chart
    chart = make_chart(name, domain=grid.domain, horizon=nsteps * dt, **params)
    kappa = make_diffusion(diffusion)
    assert not StepFrames(chart, kappa, grid).static
    v0 = np.random.default_rng(seed).standard_normal(grid.ndof)
    with pytest.MonkeyPatch.context() as patch:
        _, iterations, forwards = count_krylov_work(patch)
        traj = solve_direct(chart, kappa, grid, v0, nsteps * dt, dt, theta=theta)
    ref = _uncached_lu_march(chart, kappa, grid, v0, nsteps, dt, theta)
    assert traj.nsteps == len(iterations) == nsteps
    assert len(forwards) == sum(iterations)
    assert np.max(np.abs(traj.fields - ref)) <= 1e-13 * np.max(np.abs(ref))


@PROPERTY
@given(grid=grids(), gamma=nonzero(0.1, 1.0), kappa=st.floats(0.5, 2.0),
       theta=st.floats(0.5, 1.0), dt=st.floats(1e-3, 0.02), nsteps=st.integers(2, 12),
       tol=st.floats(1e-6, 1e-2), seed=st.integers(0, 2 ** 16))
def test_picard_and_direct_marches_equal_the_modal_reference(grid, gamma, kappa, theta, dt,
                                                            nsteps, tol, seed):
    # isotropic_scaling with constant kappa marches each sine mode as one
    # scalar theta-recurrence (TestSineModeReference); tol is relative to the
    # datum's size.  A diff norm is a norm of the difference of two near-equal
    # iterates and carries their rounding, so it is gated relative to the
    # iterate's z-norm, and a ratio d_{m+1}/d_m by what those errors give it
    T = nsteps * dt
    chart = make_chart("isotropic_scaling", domain=grid.domain, horizon=T, gamma=gamma)
    diffusion = make_diffusion("constant", value=kappa)
    lam = kappa * np.exp(-gamma * T)
    v0 = np.random.default_rng(seed).standard_normal(grid.ndof)
    direct = solve_direct(chart, diffusion, grid, v0, T, dt, theta=theta)
    picard, hist = solve_picard(chart, diffusion, grid, lam, lam, v0, T, dt,
                                tol=tol * np.linalg.norm(v0), theta=theta)
    ref, current, z_norms, diff_norms, ratios = _modal_reference(
        grid, gamma, kappa, lam, v0, dt, nsteps, theta, hist.iterations)
    assert hist.converged
    assert np.max(np.abs(_sine_modes(direct.fields, grid) - ref)) <= \
        1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(_sine_modes(picard.fields, grid) - current)) <= \
        1e-12 * np.max(np.abs(current))
    assert len(hist.z_norms) == len(hist.diff_norms) == len(z_norms)
    np.testing.assert_allclose(hist.z_norms, z_norms, rtol=1e-10, atol=0.0)
    slack = 1e-10 * np.array(z_norms)
    assert np.all(np.abs(np.subtract(hist.diff_norms, diff_norms)) <= slack)
    assert len(hist.ratios) == len(ratios)
    for m, (got, want) in enumerate(zip(hist.ratios, ratios)):
        assert abs(got - want) <= (slack[m + 1] + want * slack[m]) / diff_norms[m]


def assert_same_bits(open_result, dense_result):
    # tobytes compares signed zeros too; an open result must also be dense
    assert np.shape(open_result) == np.shape(dense_result)
    assert np.asarray(open_result, dtype=float).tobytes() == \
        np.asarray(dense_result, dtype=float).tobytes()


def assert_same_metric(open_mf, dense_mf):
    for item in dataclasses.fields(open_mf):
        a, b = getattr(open_mf, item.name), getattr(dense_mf, item.name)
        assert (a is None) == (b is None), item.name
        if item.name in ("g1", "g2"):
            # tangent components, scalars where constant
            for u, v in zip(a, b, strict=True):
                assert_same_bits(*np.broadcast_arrays(u, v, dense_mf.G)[:2])
        elif a is not None:
            assert_same_bits(a, b)


@PROPERTY
@given(grid=grids(), preset=st.sampled_from(PRESET_NAMES),
       values=st.fixed_dictionaries({key: family_value for key in
                                     ("gamma", "epsilon", "omega", "c")}),
       diffusion=st.sampled_from(DIFFUSION_PRESETS), base=st.floats(0.5, 2.0),
       amp=family_value, t=st.floats(0.0, 2.0))
def test_open_meshes_give_the_dense_bits(grid, preset, values, diffusion, base, amp, t):
    # each sine and cosine evaluated on its axis and broadcast: the same
    # products in the same order as on the dense mesh, so the same bits
    chart = make_chart(preset, domain=grid.domain, horizon=2.0,
                       **{key: values[key] for key in PRESET_PARAMS[preset]})
    kappa = make_diffusion(diffusion, **({"value": base} if diffusion == "constant"
                                         else {"base": base, "amp": amp}))
    exact = _sine_product_solution(grid.domain)
    meshes = (grid.full_mesh, functools.partial(cell_center_mesh, grid), grid.interior_mesh)
    opened = [mesh(sparse=True) for mesh in meshes]
    dense = [mesh() for mesh in meshes]
    for (o1, o2), (d1, d2) in zip(opened, dense):
        assert o1.shape == (d1.shape[0], 1) and o2.shape == (1, d2.shape[1])
        for kwargs in ({}, {"want_derivs": True}):
            assert_same_metric(metric_fields(chart, o1, o2, t, h_fd=grid.h_fd, **kwargs),
                               metric_fields(chart, d1, d2, t, h_fd=grid.h_fd, **kwargs))
        for key in ("d1", "d2"):
            partial = kappa.partial(key, grid.domain, grid.h_fd)
            assert_same_bits(np.broadcast_to(partial(o1, o2, t), d1.shape), partial(d1, d2, t))
        assert_same_bits(np.broadcast_to(kappa.value(o1, o2, t), d1.shape),
                         kappa.value(d1, d2, t))
        for name in SOLUTION_PARTIALS:
            assert_same_bits(exact.partial(name, o1, o2, t), exact.partial(name, d1, d2, t))

    def coefficients_or_error(frame):
        # a drawn kappa can dip to or below 0, which a frame refuses
        try:
            return frame.coefficients
        except AssumptionViolationError as exc:
            return str(exc)

    frame = StepFrame(chart, kappa, grid, t)
    with dense_meshes():
        ref = StepFrame(chart, kappa, grid, t)
        ref_coefficients = coefficients_or_error(ref)
    got = coefficients_or_error(frame)
    if isinstance(ref_coefficients, str):
        assert got == ref_coefficients
    else:
        assert got.keys() == ref_coefficients.keys()
        for key, arr in ref_coefficients.items():
            assert_same_bits(got[key], arr)
        for u, v in zip(frame.cell_fluxes, ref.cell_fluxes, strict=True):
            assert_same_bits(u, v)


def per_array_scan(chart, kappa, grid, times, lambda1, lambda2, margin):
    """(weights or the error text, M, m1_mixed2): M1..M5 and the weights from
    whole-mesh arrays per scan time, each quantity in a loop of its own."""
    X1, X2 = grid.full_mesh(sparse=True)
    shape = (grid.n1 + 2, grid.n2 + 2)
    kmin = min(float(_on_mesh(kappa, X1, X2, t).min()) for t in times)
    minima = dict.fromkeys(("min_kg11", "min_kg12", "min_kg22"), np.inf)
    for t in times:
        mf = metric_fields(chart, X1, X2, t, h_fd=grid.h_fd, want_dGdt=False)
        k = _on_mesh(kappa, X1, X2, t)
        for key, ginv in (("min_kg11", mf.ginv11), ("min_kg12", mf.ginv12),
                          ("min_kg22", mf.ginv22)):
            minima[key] = min(minima[key], float((k * ginv).min()))
    lam = ((1.0 - margin) * minima["min_kg11"], (1.0 - margin) * minima["min_kg22"])
    if kmin <= 0.0:
        weights = f"kappa must be strictly positive; scan minimum {kmin:.6g}"
    elif min(lam) <= 0.0:
        weights = (f"non-positive coefficient floor: min kappa*g^11 = {minima['min_kg11']:.6g}, "
                   f"min kappa*g^22 = {minima['min_kg22']:.6g}")
    else:
        weights = lam

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
        # kappa (1/R) d_a(R g^ab) through v_f = (d_f G/G)/2 - g^ae d_a g_ef
        i11, i12, i22 = mf.ginv11, mf.ginv12, mf.ginv22
        v1 = 0.5 * (i22 * mf.dg22_d1 - i11 * mf.dg11_d1) - i12 * mf.dg11_d2 - i22 * mf.dg12_d2
        v2 = 0.5 * (i11 * mf.dg11_d2 - i22 * mf.dg22_d2) - i12 * mf.dg22_d1 - i11 * mf.dg12_d1
        M[1] = max(M[1], float(np.abs(k * (i11 * v1 + i12 * v2)).max()))
        M[2] = max(M[2], float(np.abs(k * (i12 * v1 + i22 * v2)).max()))
        dk1 = np.broadcast_to(np.asarray(k1(X1, X2, t), dtype=float), shape)
        dk2 = np.broadcast_to(np.asarray(k2(X1, X2, t), dtype=float), shape)
        m4 = np.abs(mf.g22 / G * dk1 - mf.g12 / G * dk2).max() \
            + np.abs(mf.g11 / G * dk1 - mf.g12 / G * dk2).max()
        M[3] = max(M[3], float(m4))
        M[4] = max(M[4], float(np.abs(0.5 * mf.dGdt / G).max()))
    return weights, M, m1_factor2


@PROPERTY
@given(grid=grids(), preset=st.sampled_from(PRESET_NAMES),
       values=st.fixed_dictionaries({key: family_value for key in
                                     ("gamma", "epsilon", "omega", "c")}),
       diffusion=st.sampled_from(DIFFUSION_PRESETS), base=st.floats(0.5, 2.0),
       amp=family_value, ntimes=st.integers(1, 4), lam1=weights, lam2=weights,
       margin=st.floats(0.0, 0.5))
def test_one_pass_scan_gives_the_per_array_bits(grid, preset, values, diffusion, base, amp,
                                                ntimes, lam1, lam2, margin):
    # M1 reads the weights through max |x - lam| = max(x_max - lam, lam - x_min);
    # the drawn weights fall below, inside and above the coefficient range
    chart = make_chart(preset, domain=grid.domain, horizon=2.0,
                       **{key: values[key] for key in PRESET_PARAMS[preset]})
    kappa = make_diffusion(diffusion, **({"value": base} if diffusion == "constant"
                                         else {"base": base, "amp": amp}))
    times = np.linspace(0.0, 2.0, ntimes)
    weights, M, m1_mixed2 = per_array_scan(chart, kappa, grid, times, lam1, lam2, margin)
    try:
        got = lambda_select(chart, kappa, grid, times, margin=margin)
    except AssumptionViolationError as exc:
        got = str(exc)
    if isinstance(weights, str):
        assert got == weights
    else:
        assert np.array(got).tobytes() == np.array(weights).tobytes()
    got_M, got_mixed2 = m_quantities(chart, kappa, lam1, lam2, grid, times)
    assert got_M.tobytes() == M.tobytes()
    assert np.float64(got_mixed2).tobytes() == np.float64(m1_mixed2).tobytes()


@PROPERTY
@given(grid=grids(), preset=st.sampled_from(PRESET_NAMES),
       values=st.fixed_dictionaries({key: family_value for key in
                                     ("gamma", "epsilon", "omega", "c")}),
       diffusion=st.sampled_from(DIFFUSION_PRESETS), base=st.floats(0.5, 2.0),
       amp=st.floats(-0.4, 0.4), T=st.floats(0.05, 6.0), ntimes=st.integers(1, 11),
       margin=st.floats(0.0, 0.5), seed=st.integers(0, 2 ** 16))
@example(grid=make_grid((-0.5, 1.0, 0.2, 1.4), 13, 9), preset="graph_oscillation",
         values={"gamma": 0.0, "epsilon": 0.05, "omega": 3.0, "c": 0.0},
         diffusion="constant", base=1.0, amp=0.0, T=6.0, ntimes=11, margin=0.05,
         seed=42)   # C_star(t) not monotone: four scan times are estimated
def test_pruned_C_star_is_the_exhaustive_maximum(grid, preset, values, diffusion, base, amp,
                                                 T, ntimes, margin, seed):
    chart = make_chart(preset, domain=grid.domain, horizon=T,
                       **{key: values[key] for key in PRESET_PARAMS[preset]})
    kappa = make_diffusion(diffusion, **({"value": base} if diffusion == "constant"
                                         else {"base": base, "amp": amp}))
    times = np.linspace(0.0, T, ntimes)
    bounds = []

    def recording(parts, cf):
        bounds.append(scan_bound(parts, cf))
        return bounds[-1]

    scan_bound = coefficients._scan_bound
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(coefficients, "_scan_bound", recording)
        rep = smallness_report(chart, kappa, grid, times, margin=margin, probes=1, seed=seed)
    sums = exhaustive_C_star_sums(chart, kappa, grid, times, seed)
    c_star = 0.0
    for total in sums:   # the loop of the report before it pruned
        c_star = max(c_star, total)
    assert np.float64(rep.C_star_est).tobytes() == np.float64(c_star).tobytes()
    # a static problem scans its first time, whose coefficients every time shares
    assert len(bounds) == (1 if static_problem(chart, kappa) else ntimes)
    for bound, total in zip(bounds, sums):
        assert bound >= total


finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def run_configs(draw):
    """Valid RunConfigs: every preset with any subset of its parameters, an
    optional h_fd, and every scalar anywhere in its bound."""
    def params(names):
        return {name: draw(finite) for name in names if draw(st.booleans())}

    preset = draw(st.sampled_from(PRESET_NAMES))
    diffusion = draw(st.sampled_from(DIFFUSION_PRESETS))
    a, b, c, d = (*sorted(draw(st.lists(finite, min_size=2, max_size=2, unique=True))),
                  *sorted(draw(st.lists(finite, min_size=2, max_size=2, unique=True))))
    n1, n2 = draw(st.integers(min_value=3)), draw(st.integers(min_value=3))
    # a valid rectangle has grid steps whose squares are normal floats
    assume(all(sys.float_info.min <= h * h < math.inf
               for h in ((b - a) / (n1 + 1), (d - c) / (n2 + 1))))
    return RunConfig(
        surface_preset=preset, horizon=draw(positive), n1=n1, n2=n2,
        dt=draw(positive), domain=(a, b, c, d), surface_params=params(PRESET_PARAMS[preset]),
        diffusion_preset=diffusion, diffusion_params=params(DIFFUSION_PARAMS[diffusion]),
        h_fd=draw(st.none() | positive), theta=draw(st.floats(0.5, 1.0)), tol=draw(positive),
        max_iter=draw(st.integers(min_value=1)), probes=draw(st.integers(min_value=1)),
        margin=draw(st.floats(0.0, 1.0, exclude_max=True)), seed=draw(st.integers(min_value=0)),
        scan_times=draw(st.integers(min_value=2)),
        v0_k1=draw(st.integers(min_value=1)), v0_k2=draw(st.integers(min_value=1)),
        out_dir=draw(st.just("") | st.from_regex(r"[\w./-]([\w ./-]*[\w./-])?", fullmatch=True)),
        snapshot_stride=draw(st.integers(min_value=1)), dump_matrices=draw(st.booleans()))


@PROPERTY
@given(cfg=run_configs())
def test_config_text_round_trips(cfg):
    text = serialize_config(cfg)
    assert parse_config(text) == cfg
    assert serialize_config(parse_config(text)) == text
