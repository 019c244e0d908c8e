"""Evolving charts over a fixed parameter rectangle and their metric data.

A chart is a time-dependent embedding (X1, X2, t) -> R^3 over the closure of a
rectangle U = (a, b) x (c, d), valid for t in [0, T].  Everything downstream
(operator assembly, quadrature, coefficient scans) consumes the first
fundamental form g_ab = g_a . g_b, its inverse g^ab, the area factor
G = det(g_ab) and the dilation rate dG/dt sampled from a chart.

The four preset charts are one closed form,

    x(X, t) = (s X1 + c t, s X2, a phi),  s = exp(gamma t),
    a = epsilon sin(omega t),  phi = sin(pi X1) sin(pi X2),

and each preset is the choice of parameters it reads (``PRESET_PARAMS``):
flat_static none, isotropic_scaling gamma, graph_oscillation epsilon and
omega, translating_patch c.  One table gives the analytic partials of the
form and one sympy builder its symbolic form; ``static_metric`` is derived,
true when gamma = 0 and there is no height term.  User-supplied charts fall
back to second-order finite differences with step ``h_fd`` (one-sided at the
closure of the rectangle and at t = 0, T); ``default_h_fd`` is its default.
A partial is three broadcastable components: a preset's constant components
(s(t), 0.0) stay Python floats, and only ``user_chart`` stacks them densely.

Evaluators take broadcastable ``x1, x2``.  The package's own sites pass open
meshes, ``GridSpec.full_mesh(sparse=True)`` and its siblings: x1 of shape
(n1, 1), x2 of shape (1, n2).  Every partial of phi is factor * f1(pi X1) *
f2(pi X2), so a preset evaluates each sine or cosine on its axis and
broadcasts only the products: O(n1 + n2) transcendental calls per
evaluation, not O(n1 n2), with the same bits as on a dense mesh.  The
evaluators of ``user_chart`` receive x1 and x2 broadcast to one dense shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateChartError, DomainError, ParameterError

# Keys for the partial-derivative table of a chart.  "d1" is d/dX1, "d12" is
# d^2/dX1 dX2, "dtd1" is d^2/dt dX1, "dtd12" is d^3/dt dX1 dX2, and so on.
PARTIAL_KEYS = (
    "x", "d1", "d2", "d11", "d12", "d22",
    "dt", "dtd1", "dtd2", "dtd11", "dtd12", "dtd22",
)


@dataclass(frozen=True, eq=False)
class Chart:
    """Evolving parametrization of a surface patch.

    ``evals`` maps partial-derivative keys to vectorized evaluators
    ``(x1, x2, t) -> (x_1, x_2, x_3)``, three components broadcastable with
    x1 and x2.  Only "x" is mandatory; missing partials are synthesized by
    finite differences on demand.
    """

    name: str
    domain: tuple  # (a, b, c, d)
    horizon: float
    evals: dict
    static_metric: bool = False
    sym_builder: Optional[Callable] = None

    def extent(self):
        a, b, c, d = self.domain
        return max(b - a, d - c)

    def partial(self, key, h_fd):
        """Evaluator for one partial, analytic when supplied, FD otherwise."""
        if key in self.evals:
            return self.evals[key]
        return _fd_partial(self, key, h_fd)

    def check_point(self, X, t):
        a, b, c, d = self.domain
        x1, x2 = float(X[0]), float(X[1])
        eps = 1e-12 * max(self.extent(), 1.0)
        if not (a - eps <= x1 <= b + eps and c - eps <= x2 <= d + eps):
            raise DomainError(f"X = ({x1}, {x2}) outside closure of {self.domain[:2]}x{self.domain[2:]}")
        if not (-1e-12 <= t <= self.horizon + 1e-12):
            raise DomainError(f"t = {t} outside [0, {self.horizon}]")


@dataclass(frozen=True)
class MetricSample:
    """Pointwise metric package at one (X, t)."""

    g1: np.ndarray        # tangent vector d x/d X1, shape (3,)
    g2: np.ndarray        # tangent vector d x/d X2, shape (3,)
    g_ab: np.ndarray      # first fundamental form, shape (2, 2)
    ginv_ab: np.ndarray   # inverse metric, shape (2, 2)
    G: float              # det(g_ab) > 0
    dGdt: float
    sqrtG: float


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid of interior nodes on the rectangle.

    Boundary nodes carry homogeneous Dirichlet data and are eliminated from
    all matrices; fields are flat arrays of length n1*n2 in row-major order
    (X1 index slow, X2 index fast).
    """

    domain: tuple
    n1: int
    n2: int
    h_fd: float

    @property
    def h1(self):
        a, b = self.domain[0], self.domain[1]
        return (b - a) / (self.n1 + 1)

    @property
    def h2(self):
        c, d = self.domain[2], self.domain[3]
        return (d - c) / (self.n2 + 1)

    @property
    def ndof(self):
        return self.n1 * self.n2

    def index(self, i, j):
        return i * self.n2 + j

    def x1_full(self):
        a, b = self.domain[0], self.domain[1]
        return np.linspace(a, b, self.n1 + 2)

    def x2_full(self):
        c, d = self.domain[2], self.domain[3]
        return np.linspace(c, d, self.n2 + 2)

    def x1_interior(self):
        return self.x1_full()[1:-1]

    def x2_interior(self):
        return self.x2_full()[1:-1]

    # ``sparse`` is numpy.meshgrid's: True gives the open mesh, shapes (n, 1)
    # and (1, m), which evaluators broadcast

    def interior_mesh(self, sparse=False):
        return np.meshgrid(self.x1_interior(), self.x2_interior(), indexing="ij", sparse=sparse)

    def full_mesh(self, sparse=False):
        return np.meshgrid(self.x1_full(), self.x2_full(), indexing="ij", sparse=sparse)

    def to_grid(self, values):
        return np.asarray(values).reshape(self.n1, self.n2)

    def pad_dirichlet(self, values):
        """Interior field -> full-grid array with the zero boundary ring."""
        full = np.zeros((self.n1 + 2, self.n2 + 2))
        full[1:-1, 1:-1] = self.to_grid(values)
        return full


def default_h_fd(extent):
    """Default finite-difference step on a rectangle of the given extent."""
    return 1e-5 * max(extent, 1.0)


def make_grid(domain, n1, n2, h_fd=None):
    a, b, c, d = (float(v) for v in domain)
    if not (b > a and d > c):
        raise ParameterError(f"degenerate rectangle {domain}")
    if n1 < 1 or n2 < 1:
        raise ParameterError("need at least one interior node per axis")
    if h_fd is None:
        h_fd = default_h_fd(max(b - a, d - c))
    if h_fd <= 0:
        raise ParameterError("h_fd must be positive")
    return GridSpec((a, b, c, d), int(n1), int(n2), float(h_fd))


# ---------------------------------------------------------------------------
# finite-difference fallbacks for missing chart partials

def _fd1(func, which, lo, hi, h):
    """Second-order FD of ``func`` in one coordinate, one-sided near the ends.

    ``which`` is 0 (X1), 1 (X2) or 2 (t).  Sample coordinates are clamped to
    [lo, hi] before evaluation; clamped samples only feed stencils that are
    never selected for those elements.
    """

    def deriv(x1, x2, t):
        x1 = np.asarray(x1, dtype=float)
        x2 = np.asarray(x2, dtype=float)
        coords = [x1, x2, np.asarray(t, dtype=float)]
        base = coords[which]

        def at(offset):
            shifted = np.clip(base + offset * h, lo, hi)
            args = list(coords)
            args[which] = shifted
            return func(args[0], args[1], args[2])

        fm2, fm1, fp1, fp2 = at(-2), at(-1), at(1), at(2)
        f0 = func(x1, x2, t)
        central = (fp1 - fm1) / (2.0 * h)
        forward = (-3.0 * f0 + 4.0 * fp1 - fp2) / (2.0 * h)
        backward = (3.0 * f0 - 4.0 * fm1 + fm2) / (2.0 * h)
        near_lo = base < lo + h
        near_hi = base > hi - h
        return np.where(near_lo, forward, np.where(near_hi, backward, central))

    return deriv


# derivation chain: each missing key is one FD application on a lower key
_FD_CHAIN = {
    "d1": ("x", 0), "d2": ("x", 1),
    "d11": ("d1", 0), "d12": ("d1", 1), "d22": ("d2", 1),
    "dt": ("x", 2), "dtd1": ("d1", 2), "dtd2": ("d2", 2),
    "dtd11": ("d11", 2), "dtd12": ("d12", 2), "dtd22": ("d22", 2),
}


def _fd_partial(chart, key, h_fd):
    base_key, which = _FD_CHAIN[key]
    base = chart.evals.get(base_key) or _fd_partial(chart, base_key, h_fd)
    a, b, c, d = chart.domain
    lo, hi = ((a, b), (c, d), (0.0, chart.horizon))[which]
    return _fd1(base, which, lo, hi, h_fd)


# ---------------------------------------------------------------------------
# preset charts: the closed form of the module docstring.  A preset is the
# parameters it reads, with their defaults; the others are 0.

PRESET_PARAMS = {
    "flat_static": {},
    "isotropic_scaling": {"gamma": 1.0},
    "graph_oscillation": {"epsilon": 0.05, "omega": 1.0},
    "translating_patch": {"c": 1.0},
}
PRESET_NAMES = tuple(PRESET_PARAMS)

# X-partials of phi by index string ("" for phi itself): (factor, f1, f2) with
# the partial equal to factor * f1(pi X1) * f2(pi X2)
_PHI_PARTIALS = {
    "": (1.0, np.sin, np.sin),
    "1": (math.pi, np.cos, np.sin), "2": (math.pi, np.sin, np.cos),
    "11": (-math.pi ** 2, np.sin, np.sin), "12": (math.pi ** 2, np.cos, np.cos),
    "22": (-math.pi ** 2, np.sin, np.sin),
}


def phi_term(coef, index):
    """Evaluator ``(x1, x2, t) -> coef(t) * d_index phi``, multiplied left to right.

    ((coef(t) * factor) * f1(pi x1)) * f2(pi x2): on an open mesh each
    factor is evaluated on its axis, and only the last product is 2-D.
    """
    factor, f1, f2 = _PHI_PARTIALS[index]
    pi = math.pi
    return lambda x1, x2, t: coef(t) * factor * f1(pi * x1) * f2(pi * x2)


def preset_params(kind, table, name, params):
    """Defaults of preset ``name`` of ``table`` updated by ``params``, each one it reads."""
    if name not in table:
        raise ParameterError(f"unknown {kind} preset '{name}'")
    unread = sorted(set(params) - set(table[name]))
    if unread:
        raise ParameterError(f"{kind} preset '{name}' does not read {', '.join(unread)}")
    return {**table[name], **params}


def _c3(f0, f1, f2):
    """Bundle three component evaluators into one evaluator of a 3-tuple."""
    return lambda x1, x2, t: (f0(x1, x2, t), f1(x1, x2, t), f2(x1, x2, t))


_Z = lambda x1, x2, t: 0.0


def _closed_form(gamma=0.0, c=0.0, epsilon=0.0, omega=0.0):
    """(evals, static_metric, sym_builder) of the closed form.

    A term whose parameter is 0 is left out, not multiplied by 0: without a
    height term the third component is the scalar 0.0 and no sine is
    evaluated.  The metric is static when gamma = 0 and there is no height
    term (epsilon = 0 or omega = 0).
    """
    def s(t):
        try:
            return math.exp(gamma * t)
        except OverflowError:   # metric_fields refuses the chart at t, naming X and t
            return math.inf

    ds = lambda t: gamma * s(t)
    height = epsilon != 0.0 and omega != 0.0
    amp = lambda t: epsilon * math.sin(omega * t)
    damp = lambda t: epsilon * omega * math.cos(omega * t)

    planar = {
        "x": (lambda x1, x2, t: s(t) * x1 + c * t if c else s(t) * x1,
              lambda x1, x2, t: s(t) * x2),
        "d1": (lambda x1, x2, t: s(t), _Z), "d2": (_Z, lambda x1, x2, t: s(t)),
        "dt": (lambda x1, x2, t: (ds(t) * x1 + c if c else ds(t) * x1) if gamma else c,
               (lambda x1, x2, t: ds(t) * x2) if gamma else _Z),
        "dtd1": (lambda x1, x2, t: ds(t), _Z), "dtd2": (_Z, lambda x1, x2, t: ds(t)),
    }
    evals = {}
    for key in PARTIAL_KEYS:
        timed = key.startswith("dt")
        third = phi_term(damp if timed else amp, key[3:] if timed else key[1:]) if height else _Z
        evals[key] = _c3(*planar.get(key, (_Z, _Z)), third)

    def sym(X1, X2, t):
        import sympy as sp
        return (sp.exp(gamma * t) * X1 + c * t, sp.exp(gamma * t) * X2,
                epsilon * sp.sin(omega * t) * sp.sin(sp.pi * X1) * sp.sin(sp.pi * X2))

    return evals, gamma == 0.0 and not height, sym


def make_chart(name, domain=(0.0, 1.0, 0.0, 1.0), horizon=1.0, **params):
    """Build a preset chart by name; see PRESET_PARAMS for the catalogue."""
    params = preset_params("surface", PRESET_PARAMS, name, params)
    if horizon <= 0:
        raise ParameterError("horizon must be positive")
    evals, static, sym = _closed_form(**{k: float(v) for k, v in params.items()})
    return Chart(name=name, domain=tuple(float(v) for v in domain), horizon=float(horizon),
                 evals=evals, static_metric=static, sym_builder=sym)


def _dense(ev):
    """``ev`` called with x1 and x2 of one shape, its components stacked to (3, ...)."""

    def dense(x1, x2, t):
        if np.shape(x1) != np.shape(x2):
            x1, x2 = np.broadcast_arrays(x1, x2)
        return np.stack(np.broadcast_arrays(*ev(x1, x2, t), x1)[:3])

    return dense


def user_chart(x_eval, domain, horizon, partials=None, name="user", static_metric=False):
    """Wrap a user embedding; missing partials use the FD fallback.

    The evaluators receive x1 and x2 of one shape (zero-copy broadcast views
    of an open mesh), so user code may stack or index them as dense arrays.
    They may return a ``(3, ...)`` array or a 3-tuple; either is stacked.
    """
    evals = {key: _dense(ev) for key, ev in {"x": x_eval, **(partials or {})}.items()}
    return Chart(name=name, domain=tuple(float(v) for v in domain), horizon=float(horizon),
                 evals=evals, static_metric=static_metric, sym_builder=None)


# ---------------------------------------------------------------------------
# metric evaluation

@dataclass
class MetricFields:
    """Vectorized metric data over an array of sample points at one time.

    ``g1`` and ``g2`` are 3-tuples of components, and the ``dgab_dc`` fields
    dot products of components: scalars where constant.  The others have
    the sample shape.
    """

    g1: tuple
    g2: tuple
    g11: np.ndarray
    g12: np.ndarray
    g22: np.ndarray
    G: np.ndarray
    sqrtG: np.ndarray
    ginv11: np.ndarray
    ginv12: np.ndarray
    ginv22: np.ndarray
    dGdt: Optional[np.ndarray] = None
    # spatial derivatives of the metric (present when want_derivs=True)
    dg11_d1: Optional[np.ndarray] = None
    dg11_d2: Optional[np.ndarray] = None
    dg12_d1: Optional[np.ndarray] = None
    dg12_d2: Optional[np.ndarray] = None
    dg22_d1: Optional[np.ndarray] = None
    dg22_d2: Optional[np.ndarray] = None


def _dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _refuse_degenerate(name, values, x1, x2, t, positive=False):
    """Raise DegenerateChartError unless every sample of ``values`` is finite,
    and positive if ``positive``.

    Two reductions on the passing path.  The error names the first
    non-finite sample, or else the smallest one.
    """
    v = np.atleast_1d(values)
    lo, hi = v.min(), v.max()   # nan propagates into both
    if (lo > 0.0 if positive else lo > -np.inf) and hi < np.inf:
        return
    k = int(np.argmin(np.where(np.isfinite(v), v, -np.inf)))
    where = (np.broadcast_to(x1, v.shape).ravel()[k], np.broadcast_to(x2, v.shape).ravel()[k])
    raise DegenerateChartError(where, t, v.ravel()[k], name=name)


@np.errstate(over="ignore", invalid="ignore")   # a non-finite G or dG/dt is refused below
def metric_fields(chart, x1, x2, t, h_fd=None, want_dGdt=True, want_derivs=False):
    """Sample the metric package over broadcastable arrays of points at time t.

    The fields have the broadcast shape of x1 and x2; an open mesh gives the
    same bits as the dense one.  Raises DegenerateChartError if G = det(g_ab)
    is not a finite positive number, or dG/dt (when asked for) not a finite
    one, anywhere in the sample: an overflowing chart is refused here, before
    any operator is built from it.
    """
    if h_fd is None:
        h_fd = default_h_fd(chart.extent())
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    shape = np.broadcast(x1, x2).shape

    g1 = tuple(chart.partial("d1", h_fd)(x1, x2, t))
    g2 = tuple(chart.partial("d2", h_fd)(x1, x2, t))
    g11, g12, g22 = (np.broadcast_to(g, shape)
                     for g in (_dot3(g1, g1), _dot3(g1, g2), _dot3(g2, g2)))
    G = g11 * g22 - g12 * g12

    _refuse_degenerate("G", G, x1, x2, t, positive=True)

    out = MetricFields(
        g1=g1, g2=g2, g11=g11, g12=g12, g22=g22, G=G, sqrtG=np.sqrt(G),
        ginv11=g22 / G, ginv12=-g12 / G, ginv22=g11 / G,
    )

    if want_dGdt:
        m1 = chart.partial("dtd1", h_fd)(x1, x2, t)
        m2 = chart.partial("dtd2", h_fd)(x1, x2, t)
        dg11 = 2.0 * _dot3(m1, g1)
        dg12 = _dot3(m1, g2) + _dot3(g1, m2)
        dg22 = 2.0 * _dot3(m2, g2)
        out.dGdt = dg11 * g22 + g11 * dg22 - 2.0 * g12 * dg12
        _refuse_degenerate("dG/dt", out.dGdt, x1, x2, t)

    if want_derivs:
        (out.dg11_d1, out.dg11_d2, out.dg12_d1, out.dg12_d2,
         out.dg22_d1, out.dg22_d2) = metric_derivatives(chart, x1, x2, t, h_fd, g1, g2)

    return out


def metric_derivatives(chart, x1, x2, t, h_fd, g1, g2):
    """(d_1 g_11, d_2 g_11, d_1 g_12, d_2 g_12, d_1 g_22, d_2 g_22) at (x1, x2, t).

    ``g1`` and ``g2`` are the chart's first X-partials there; the second
    ones are evaluated here.  Dot products of components: scalars where
    constant.
    """
    d11 = chart.partial("d11", h_fd)(x1, x2, t)
    d12 = chart.partial("d12", h_fd)(x1, x2, t)
    d22 = chart.partial("d22", h_fd)(x1, x2, t)
    return (2.0 * _dot3(d11, g1), 2.0 * _dot3(d12, g1),
            _dot3(d11, g2) + _dot3(g1, d12), _dot3(d12, g2) + _dot3(g1, d22),
            2.0 * _dot3(d12, g2), 2.0 * _dot3(d22, g2))


def volume_divergence(ginv11, ginv12, ginv22, dg):
    """(c^1, c^2) with c^b = (1/R) d_a(R g^ab), R = sqrt(G), in inverse-metric terms.

    ``dg`` is the tuple of ``metric_derivatives``.  With d_a g^ab =
    -g^ae d_a g_ef g^fb and Jacobi's d_a G / G = g^ef d_a g_ef, c^b = g^bf v_f:

        v_1 = (g^22 d_1 g_22 - g^11 d_1 g_11)/2 - g^12 d_2 g_11 - g^22 d_2 g_12,
        v_2 = (g^11 d_2 g_11 - g^22 d_2 g_22)/2 - g^12 d_1 g_22 - g^11 d_1 g_12.

    Every product pairs the inverse metric with a metric derivative and no
    power of G is formed, so the field is finite wherever those are; a form
    through G**2 overflows once G passes about 1e154.  The manufactured
    forcing's first-order coefficients and the M2/M3 of the smallness scan
    read it.
    """
    a11_1, a11_2, a12_1, a12_2, a22_1, a22_2 = dg
    v1 = 0.5 * (ginv22 * a22_1 - ginv11 * a11_1) - ginv12 * a11_2 - ginv22 * a12_2
    v2 = 0.5 * (ginv11 * a11_2 - ginv22 * a22_2) - ginv12 * a22_1 - ginv11 * a12_1
    return ginv11 * v1 + ginv12 * v2, ginv12 * v1 + ginv22 * v2


def eval_chart(chart, X, t):
    """Embedding point x(X, t) for X in closure(U), t in [0, T]."""
    chart.check_point(X, t)
    return np.asarray(chart.evals["x"](float(X[0]), float(X[1]), float(t)), dtype=float).reshape(3)


def motion_velocity(chart, X, t):
    """Surface motion velocity w = dx/dt at the chart point."""
    chart.check_point(X, t)
    w = chart.partial("dt", default_h_fd(chart.extent()))(float(X[0]), float(X[1]), float(t))
    return np.asarray(w, dtype=float).reshape(3)


def metric_sample(chart, X, t):
    """Pointwise MetricSample at (X, t); raises on a degenerate metric."""
    chart.check_point(X, t)
    mf = metric_fields(chart, float(X[0]), float(X[1]), float(t))
    g_ab = np.array([[float(mf.g11), float(mf.g12)], [float(mf.g12), float(mf.g22)]])
    ginv = np.array([[float(mf.ginv11), float(mf.ginv12)], [float(mf.ginv12), float(mf.ginv22)]])
    return MetricSample(
        g1=np.asarray(mf.g1, dtype=float).reshape(3),
        g2=np.asarray(mf.g2, dtype=float).reshape(3),
        g_ab=g_ab, ginv_ab=ginv,
        G=float(mf.G), dGdt=float(mf.dGdt), sqrtG=float(mf.sqrtG),
    )


def nondegeneracy_scan(chart, grid, times):
    """Scan the closure grid over the given times.

    Returns estimates of the nondegeneracy floor (min of G, which equals
    |g1 x g2|^2) and of the partial-derivative ceiling: the largest value,
    over components j and index pairs (a, b), of
    |d_a x_j| + |d_a d_b x_j| + |dt d_a x_j| + |dt d_a d_b x_j|.
    """
    times = list(times)
    if not times:
        raise ParameterError("empty time sample")
    X1, X2 = grid.full_mesh(sparse=True)
    h_fd = grid.h_fd
    lam_min = math.inf
    lam_max = 0.0
    for t in times:
        mf = metric_fields(chart, X1, X2, t, h_fd=h_fd, want_dGdt=False)
        lam_min = min(lam_min, float(np.min(mf.G)))
        p = {"d1": mf.g1, "d2": mf.g2}
        p.update((key, chart.partial(key, h_fd)(X1, X2, t))
                 for key in ("d11", "d12", "d22", "dtd1", "dtd2", "dtd11", "dtd12", "dtd22"))
        # (a, ab) over the index pairs (1, 1), (1, 2), (2, 1), (2, 2)
        for a, ab in (("1", "11"), ("1", "12"), ("2", "12"), ("2", "22")):
            for j in range(3):
                total = (np.abs(p["d" + a][j]) + np.abs(p["d" + ab][j])
                         + np.abs(p["dtd" + a][j]) + np.abs(p["dtd" + ab][j]))
                lam_max = max(lam_max, float(np.max(total)))
    return {"lambda_min_est": lam_min, "lambda_max_est": lam_max}
