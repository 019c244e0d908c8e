"""The structural checks: one measurement per fact, and the ``verify`` suite.

A measurement returns raw numbers and its caller applies the tolerance; the
acceptance tests call them with their pinned inputs.  ``VERIFY`` holds
``(group, fn)`` pairs; ``fn(cfg, rng)`` returns the group's check records,
drawing from one generator in table order.
"""

import math

import numpy as np
import scipy.sparse as sp

from . import coefficients as co
from . import diagnostics as dg
from . import geometry as geo
from . import operator as op


def inverse_metric_defect(chart, x1, x2, times):
    """Max |g^ab g_bc - delta_ac| and min G over the points (x1, x2) at each time."""
    defect = 0.0
    g_min = math.inf
    for t in times:
        mf = geo.metric_fields(chart, x1, x2, float(t), want_dGdt=False)
        p11 = mf.ginv11 * mf.g11 + mf.ginv12 * mf.g12
        p12 = mf.ginv11 * mf.g12 + mf.ginv12 * mf.g22
        p22 = mf.ginv12 * mf.g12 + mf.ginv22 * mf.g22
        defect = max(defect, float(np.max(np.abs(p11 - 1.0))),
                     float(np.max(np.abs(p12))),
                     float(np.max(np.abs(p22 - 1.0))))
        g_min = min(g_min, float(np.min(mf.G)))
    return defect, g_min


def reduction_defects(grid):
    """Max |L - A| on flat_static at t = 0.5, and max over t in {0, 0.5, 1} of
    |L(t) - (e^{-2t} A + 2 I)| on isotropic_scaling (gamma 1); kappa 1, A(1, 1)."""
    kappa = co.make_diffusion("constant", value=1.0)
    A = op.assemble_A(grid, 1.0, 1.0)
    flat = geo.make_chart("flat_static", domain=grid.domain, horizon=1.0)
    d_flat = op.max_abs_entry(op.assemble_L(flat, kappa, grid, 0.5) - A)
    iso = geo.make_chart("isotropic_scaling", domain=grid.domain, horizon=1.0, gamma=1.0)
    d_iso = 0.0
    for t in (0.0, 0.5, 1.0):
        ref = math.exp(-2.0 * t) * A + 2.0 * sp.identity(grid.ndof)
        d_iso = max(d_iso, op.max_abs_entry(op.assemble_L(iso, kappa, grid, t) - ref))
    return d_flat, d_iso


def decomposition_defect(chart, kappa, grid, lambda1, lambda2, times):
    """Max |B1 + ... + B5 - (L(t) - A)| over ``times``, and the last StepFrame."""
    A = op.assemble_A(grid, lambda1, lambda2)
    defect = 0.0
    for t in times:
        frame = op.StepFrame(chart, kappa, grid, float(t))
        parts = op.assemble_B_parts(chart, kappa, grid, lambda1, lambda2, float(t),
                                    coefficients=frame.coefficients)
        total = sum(parts[f"B{i}"] for i in range(1, 6))
        defect = max(defect, op.max_abs_entry(total - (frame.L - A)))
    return defect, frame


def bound_violations(B, A, bound, grid, fields):
    """Count the rows f of ``fields`` with ||B f|| > bound ||A f||, and the min slack."""
    violations = 0
    min_slack = math.inf
    for f in fields:
        lhs = op.field_l2(B @ f, grid)
        rhs = bound * op.field_l2(A @ f, grid)
        min_slack = min(min_slack, rhs - lhs)
        if lhs > rhs:
            violations += 1
    return violations, min_slack


def halving_factors():
    """Residual ratio n = 31 over n = 63 of each identity oracle (order 2 gives ~4)."""
    res = [op.verify_anisotropic_identities(geo.make_grid((1.0, 2.0, 1.0, 2.0), n, n), 1.0, 1.0)
           for n in (31, 63)]
    return {key: res[0][key] / res[1][key] for key in res[0]}


# the verify suite


def _check(name, value, tol, passed=None):
    return {"name": name, "value": value, "tol": tol,
            "passed": value <= tol if passed is None else passed}


def _preset_charts(cfg):
    """Every preset chart on the configured domain; the configured one has its parameters."""
    for name in geo.PRESET_NAMES:
        params = cfg.surface_params if name == cfg.surface_preset else {}
        yield name, geo.make_chart(name, domain=cfg.domain, horizon=cfg.horizon, **params)


def _metric_checks(cfg, rng):
    checks = []
    for name, chart in _preset_charts(cfg):
        a, b, c, d = chart.domain
        x1 = rng.uniform(a, b, 2000)
        x2 = rng.uniform(c, d, 2000)
        defect, g_min = inverse_metric_defect(chart, x1, x2, rng.uniform(0.0, chart.horizon, 5))
        checks.append(_check(f"metric_identity_{name}", defect, 1e-12))
        checks.append(_check(f"metric_positive_{name}", g_min, 0.0, g_min > 0.0))
    return checks


def _reduction_checks(cfg, rng):
    grid = geo.make_grid((0.0, 1.0, 0.0, 1.0), min(cfg.n1, 32), min(cfg.n2, 32))
    d_flat, d_iso = reduction_defects(grid)
    return [_check("reduction_flat", d_flat, 1e-12),
            _check("reduction_isotropic", d_iso, 1e-10)]


def _decomposition_checks(cfg, rng):
    """The last two checks read the frame of the last time."""
    grid = geo.make_grid((0.0, 1.0, 0.0, 1.0), 32, 32)
    kappa = co.make_diffusion("constant", value=1.0)
    chart = geo.make_chart("graph_oscillation", domain=grid.domain,
                           horizon=max(cfg.horizon, 1.0), epsilon=0.05, omega=1.0)
    times = np.linspace(0.0, chart.horizon, 5)
    rep = co.smallness_report(chart, kappa, grid, times, margin=cfg.margin,
                              probes=max(4, cfg.probes // 4), seed=cfg.seed)
    defect, frame = decomposition_defect(chart, kappa, grid, rep.lambda1, rep.lambda2, times)
    symmetry, scale = op.weighted_symmetry_defect(frame)
    # perturbation bound with estimated constants, inflated by 1.1
    A = op.assemble_A(grid, rep.lambda1, rep.lambda2)
    bound = 2.0 * rep.C_sharp_est * rep.M.sum() * 1.1
    violations, _ = bound_violations(frame.L - A, A, bound, grid,
                                     rng.standard_normal((100, grid.ndof)))
    return [_check("decomposition_sum", defect, 1e-10),
            _check("weighted_selfadjointness", symmetry, 1e-10 * max(scale, 1.0)),
            _check("perturbation_bound_violations", float(violations), 0.0)]


def _anisotropic_checks(cfg, rng):
    return [_check(f"order2_{key.replace('_residual', '')}", factor, 4.5,
                   3.5 <= factor <= 4.5)
            for key, factor in halving_factors().items()]


def _dilation_checks(cfg, rng):
    grid = geo.make_grid(cfg.domain, min(cfg.n1, 32), min(cfg.n2, 32), h_fd=cfg.h_fd)
    return [_check(f"dilation_identity_{name}",
                   dg.transport_identity_residual(chart, grid, 0.5 * chart.horizon), 1e-5)
            for name, chart in _preset_charts(cfg)]


VERIFY = (
    ("metric", _metric_checks),
    ("reduction", _reduction_checks),
    ("decomposition", _decomposition_checks),
    ("anisotropic", _anisotropic_checks),
    ("dilation", _dilation_checks),
)
