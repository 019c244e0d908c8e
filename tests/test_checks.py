"""The shared structural measurements of ``evolvesurf.checks`` can fail.

The acceptance suite and ``verify`` trust these measurements, so each one is
shown to report a defect when the fact it measures is broken.
"""

import numpy as np
import scipy.sparse as sp

from evolvesurf import checks, lambda_select, user_chart
from evolvesurf import operator as op
from evolvesurf.geometry import PARTIAL_KEYS


def test_bound_violations_counts_every_field_above_the_bound(unit_grid):
    A = op.assemble_A(unit_grid, 1.0, 1.0)
    fields = np.random.default_rng(0).standard_normal((100, unit_grid.ndof))
    count, slack = checks.bound_violations(2.0 * A, A, 1.9, unit_grid, fields)
    assert count == 100 and slack < 0.0
    count, slack = checks.bound_violations(2.0 * A, A, 2.1, unit_grid, fields)
    assert count == 0 and slack > 0.0


def test_decomposition_defect_sees_a_dropped_part(graph, const_kappa, unit_grid,
                                                  monkeypatch):
    times = np.linspace(0.0, 1.0, 3)
    lam1, lam2 = lambda_select(graph, const_kappa, unit_grid, times)
    defect, frame = checks.decomposition_defect(graph, const_kappa, unit_grid,
                                                lam1, lam2, times)
    assert defect <= 1e-10
    assert frame.t == 1.0

    full = op.assemble_B_parts

    def without_B3(*args, **kwargs):
        parts = full(*args, **kwargs)
        parts["B3"] = sp.csr_matrix(parts["B3"].shape)
        return parts

    monkeypatch.setattr(op, "assemble_B_parts", without_B3)
    defect, _ = checks.decomposition_defect(graph, const_kappa, unit_grid, lam1, lam2, times)
    assert defect > 1e-10


def test_inverse_metric_defect_sees_a_nearly_degenerate_chart(graph):
    # tangents 1e-4 apart in angle: G ~ 1e-8, and g^ab g_bc loses ~8 digits
    def tangent(shift):
        def ev(x1, x2, t):
            s = np.asarray(x1, dtype=float) + np.asarray(x2, dtype=float) + shift
            return np.stack([np.cos(s), np.sin(s), np.zeros_like(s)])
        return ev

    # the defect reads only the tangents; the other partials are zero
    zero = lambda x1, x2, t: (0.0, 0.0, 0.0)
    chart = user_chart({**dict.fromkeys(PARTIAL_KEYS, zero), "x": tangent(0.0),
                        "d1": tangent(0.0), "d2": tangent(1e-4)}, (0.0, 1.0, 0.0, 1.0), 1.0)
    rng = np.random.default_rng(3)
    x1, x2 = rng.uniform(0.0, 1.0, (2, 2000))
    defect, g_min = checks.inverse_metric_defect(chart, x1, x2, [0.0, 0.5])
    assert defect > 1e-12
    assert 0.0 < g_min < 1e-7

    defect, g_min = checks.inverse_metric_defect(graph, x1, x2, [0.0, 0.5])
    assert defect <= 1e-12 and g_min >= 1.0 - 1e-9
