"""Property tests over drawn grids and weights.

Grids have n1 != n2 nodes per axis (single-node axes included) on
non-unit rectangles; the comparison weights lie in [0.2, 3].  The draws are
derandomized and no example database is kept (conftest.py moves Hypothesis's
cache of source constants to the temporary directory).
"""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from evolvesurf import (  # noqa: E402
    assemble_A,
    assemble_B_parts,
    assemble_L,
    estimate_C_A,
    estimate_C_sharp,
    lambda_select,
    make_chart,
    make_diffusion,
    make_grid,
    solve_direct,
    solve_picard,
)
from evolvesurf.cli import _sine_product_solution  # noqa: E402
from evolvesurf.coefficients import DIFFUSION_PRESETS, maximal_regularity_ratio  # noqa: E402
from evolvesurf.diagnostics import SOLUTION_PARTIALS  # noqa: E402
from evolvesurf.geometry import PRESET_NAMES, PRESET_PARAMS, metric_fields  # noqa: E402
from evolvesurf.operator import (  # noqa: E402
    StepFrame,
    max_abs_entry,
    shifted_A_solver,
    stencil_weights,
    weighted_symmetry_defect,
)

from test_coefficients import _lu_C_A, _lu_C_sharp, _lu_mr_ratio  # noqa: E402
from test_geometry import dense_meshes  # noqa: E402
from test_operator import (  # noqa: E402
    assembled_by_coo,
    assert_same_entries,
    diagonal_stencil_weights,
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
@given(grid=grids(), lam1=weights, lam2=weights, shift=st.floats(1e-4, 1.0),
       seed=st.integers(0, 2 ** 16))
def test_shifted_A_solver_inverts_I_plus_sA(grid, lam1, lam2, shift, seed):
    system = sp.identity(grid.ndof) + shift * assemble_A(grid, lam1, lam2)
    r = np.random.default_rng(seed).standard_normal(grid.ndof)
    v = shifted_A_solver(grid, lam1, lam2, shift)(r)
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
def test_dia_operators_equal_coo_reference(grid, lam1, lam2, theta, dt, seed):
    # every preset x both diffusivities x t in {0, 0.37} on each drawn grid
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
                assert stencil_weights(L, grid) == diagonal_stencil_weights(ref, grid)
                parts = assemble_B_parts(chart, kappa, grid, lam1, lam2, t)
                ref_parts = assembled_by_coo(assemble_B_parts, chart, kappa, grid, lam1, lam2, t)
                for name, part in parts.items():
                    assert_same_entries(part, ref_parts[name])
                # the sums stay DIA: a scipy that falls back to CSR arithmetic fails here
                B = L - A
                system = sp.identity(grid.ndof, format="dia") + theta * dt * L
                assert B.format == system.format == "dia"
                assert_same_entries(B, ref - ref_A)
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


def assert_same_bits(open_result, dense_result):
    # tobytes compares signed zeros too; an open result must also be dense
    assert np.shape(open_result) == np.shape(dense_result)
    assert np.asarray(open_result, dtype=float).tobytes() == \
        np.asarray(dense_result, dtype=float).tobytes()


def assert_same_metric(open_mf, dense_mf):
    for item in dataclasses.fields(open_mf):
        a, b = getattr(open_mf, item.name), getattr(dense_mf, item.name)
        assert (a is None) == (b is None), item.name
        if a is not None:
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
    meshes = (grid.full_mesh, grid.cell_center_mesh, grid.interior_mesh)
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

    frame = StepFrame(chart, kappa, grid, t)
    with dense_meshes():
        ref = StepFrame(chart, kappa, grid, t)
        ref_coefficients, ref_centre = ref.coefficients, ref.centre
    assert frame.coefficients.keys() == ref_coefficients.keys()
    for key, arr in ref_coefficients.items():
        assert_same_bits(frame.coefficients[key], arr)
    assert_same_metric(frame.centre[0], ref_centre[0])
    assert_same_bits(frame.centre[1], ref_centre[1])
