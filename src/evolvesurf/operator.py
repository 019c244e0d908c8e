"""Sparse assembly of the pulled-back diffusion operator and its split parts.

Three operators live here, each a ``scipy.sparse`` DIA matrix over the
interior nodes of a GridSpec with homogeneous Dirichlet rows eliminated:

* ``assemble_A``   -- the constant anisotropic Laplacian
                      A f = -(lam1 d^2/dX1^2 + lam2 d^2/dX2^2) f,
                      standard 5-point stencil, symmetric positive definite;
* ``assemble_L``   -- the time-dependent pulled-back operator
                      L f = -(1/sqrtG) d_a(kappa sqrtG g^ab d_b f)
                            + (dG/dt)/(2G) f,
                      flux form with arithmetic face averages for the
                      diagonal terms and a centered cross stencil for the
                      mixed terms;
* ``assemble_B_parts`` -- the perturbation B(t) = L(t) - A split into five
                      matrices: the second-order remainder, the volume-factor
                      gradient term, the metric-derivative term, the
                      diffusivity-gradient term and the zeroth-order dilation
                      term.  Exact discrete product rules make the five parts
                      sum to L - A at roundoff level while each part stays a
                      consistent discretization of its continuous formula.
                      It returns the matrices only; ``operator_norm_est``
                      estimates a part's L2 norm by power iteration.

On a grid each operator is a set of stencil diagonals: the (di, dj)
neighbor of node (i, j) lies on the diagonal di*n2 + dj.  ``_stencil_matrix``
writes each stencil term into its diagonal of a ``scipy.sparse.dia_matrix``;
everything else -- B(t) = L(t) - A and the theta-scheme systems
I + theta dt L and I - (1-theta) dt A -- is scipy's DIA arithmetic, which adds
diagonals of equal offset and stays DIA.  A DIA matvec sums each row in
column order, as a CSR matvec on the same entries does.  ``stencil_weights``
reads the preconditioner weights off the diagonals, and ``stencil_entries``
lists the in-grid entries for the matrix dump.

A ``StepFrame`` is everything one time t evaluates: the coefficient fields
(one full-mesh evaluation of the metric and the diffusivity), L(t) and the
cell-centre metric of the energy ledger, each built on first use.
``StepFrames`` builds them for the march and the reports; it also holds the
one test for a static problem, which gets a single frame.  The verify checks
and ``weighted_symmetry_defect`` read single frames.
``coefficient_fields`` and a standalone ``assemble_L`` go through a frame too.

``SineBasis`` is the DST-I eigenbasis of A, built from the grid and the
weights: every solve with A or I + s A (Picard stages, the C_sharp and C_A
estimators, the GMRES preconditioner) is a division per mode there.  The
transform is a pair of dense products with the orthonormal sine matrix of
each axis (``sine_matrix``, built once per node count), O(n1 n2 (n1 + n2))
per transform; up to about 150 nodes per axis that beats an FFT, and its
cost does not depend on the factors of n + 1.  ``factorize`` (sparse LU) is
left for a static L.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ParameterError
from .geometry import metric_fields

# ---------------------------------------------------------------------------
# stencil machinery

# (di, dj) stencil offsets of L and of A, the entries of the matrix dump
L_OFFSETS = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1))
A_OFFSETS = ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))


def _block(n1, n2, di, dj):
    """Index ranges (i0, i1, j0, j1) of the nodes whose (di, dj) neighbor is interior."""
    return max(0, -di), n1 - max(0, di), max(0, -dj), n2 - max(0, dj)


def _stencil_matrix(grid, terms):
    """Assemble a DIA matrix from (di, dj, coefficient) stencil terms.

    ``coefficient`` is a scalar or an (n1, n2) array giving the entry that
    row (i, j) places on column (i+di, j+dj), stored at that column of the
    diagonal di*n2 + dj.  Neighbors outside the interior are dropped
    (homogeneous Dirichlet data).  Terms on one diagonal are added in term
    order: a repeated offset, or two offsets that meet on one diagonal when
    an axis has one or two nodes (they fill disjoint positions).  The
    diagonals start at -0.0, the identity of addition, so a single term
    keeps its bits, a signed zero included.  They are stored in ascending
    offset order, so a DIA matvec sums each row in column order, as a CSR
    matvec does.
    """
    n1, n2 = grid.n1, grid.n2
    offsets = sorted({di * n2 + dj for di, dj, _ in terms})
    data = np.full((len(offsets), n1 * n2), -0.0)
    for di, dj, coeff in terms:
        i0, i1, j0, j1 = _block(n1, n2, di, dj)
        diag = data[offsets.index(di * n2 + dj)].reshape(n1, n2)
        carr = np.broadcast_to(np.asarray(coeff, dtype=float), (n1, n2))
        diag[i0 + di:i1 + di, j0 + dj:j1 + dj] += carr[i0:i1, j0:j1]
    return sp.dia_matrix((data, offsets), shape=(n1 * n2, n1 * n2))


def stencil_entries(mat, grid, offsets):
    """Rows, columns and values of the in-grid entries of ``mat`` at the (di, dj) ``offsets``.

    ``mat`` is a DIA matrix of this module.  The entries come in CSR order
    (by row, then column) and include the explicit zeros of the stencil.
    """
    n1, n2 = grid.n1, grid.n2
    idx = np.arange(n1 * n2).reshape(n1, n2)
    diagonals = dict(zip(mat.offsets.tolist(), mat.data))
    rows, cols, vals = [], [], []
    for di, dj in offsets:
        i0, i1, j0, j1 = _block(n1, n2, di, dj)
        col = idx[i0 + di:i1 + di, j0 + dj:j1 + dj].ravel()
        rows.append(idx[i0:i1, j0:j1].ravel())
        cols.append(col)
        vals.append(diagonals[di * n2 + dj][col])
    rows, cols, vals = map(np.concatenate, (rows, cols, vals))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], vals[order]


def max_abs_entry(mat):
    """max |M_ij| of a sparse matrix: its stored values, the rest being zeros.

    A DIA matrix of this module stores zeros outside the grid, so they cannot
    raise it.
    """
    return float(np.abs(mat.data).max())


def _shifts(full):
    """Center and neighbor views of a full-grid array, as interior blocks."""
    return {
        "c": full[1:-1, 1:-1],
        "ip": full[2:, 1:-1], "im": full[:-2, 1:-1],
        "jp": full[1:-1, 2:], "jm": full[1:-1, :-2],
    }


# second-difference and first-difference stencils used by the B-split
def _d11_terms(grid, rowcoeff):
    q = 1.0 / grid.h1 ** 2
    return [(1, 0, rowcoeff * q), (-1, 0, rowcoeff * q), (0, 0, -2.0 * rowcoeff * q)]


def _d22_terms(grid, rowcoeff):
    q = 1.0 / grid.h2 ** 2
    return [(0, 1, rowcoeff * q), (0, -1, rowcoeff * q), (0, 0, -2.0 * rowcoeff * q)]


def _d12_terms(grid, rowcoeff):
    q = 1.0 / (4.0 * grid.h1 * grid.h2)
    return [(1, 1, rowcoeff * q), (-1, -1, rowcoeff * q),
            (1, -1, -rowcoeff * q), (-1, 1, -rowcoeff * q)]


def _dc1_terms(grid, rowcoeff):
    q = 1.0 / (2.0 * grid.h1)
    return [(1, 0, rowcoeff * q), (-1, 0, -rowcoeff * q)]


def _dc2_terms(grid, rowcoeff):
    q = 1.0 / (2.0 * grid.h2)
    return [(0, 1, rowcoeff * q), (0, -1, -rowcoeff * q)]


def _m1d2_terms(grid, rowcoeff):
    # average over i+-1 of the centered X2 difference
    q = 1.0 / (4.0 * grid.h2)
    return [(1, 1, rowcoeff * q), (1, -1, -rowcoeff * q),
            (-1, 1, rowcoeff * q), (-1, -1, -rowcoeff * q)]


def _m2d1_terms(grid, rowcoeff):
    q = 1.0 / (4.0 * grid.h1)
    return [(1, 1, rowcoeff * q), (-1, 1, -rowcoeff * q),
            (1, -1, rowcoeff * q), (-1, -1, -rowcoeff * q)]


# ---------------------------------------------------------------------------
# operator assembly


def assemble_A(grid, lambda1, lambda2):
    """Constant anisotropic Dirichlet Laplacian on the interior grid."""
    if lambda1 <= 0 or lambda2 <= 0:
        raise ParameterError(f"lambda coefficients must be positive, got ({lambda1}, {lambda2})")
    q1 = lambda1 / grid.h1 ** 2
    q2 = lambda2 / grid.h2 ** 2
    terms = [
        (0, 0, 2.0 * q1 + 2.0 * q2),
        (1, 0, -q1), (-1, 0, -q1),
        (0, 1, -q2), (0, -1, -q2),
    ]
    return _stencil_matrix(grid, terms)


def _on_mesh(kappa, X1, X2, t):
    """Diffusivity values on a mesh, dense or open, broadcast to its full shape."""
    return np.broadcast_to(np.asarray(kappa.value(X1, X2, t), dtype=float),
                           np.broadcast_shapes(np.shape(X1), np.shape(X2)))


class StepFrame:
    """What one step time t evaluates on ``grid``, each piece built on first use and kept.

    * ``coefficients`` -- ``coefficient_fields``: one full-mesh evaluation of
      the metric (with dG/dt) and of the diffusivity; without ``kappa`` (None)
      it holds only the metric entries R, Ginv*, R_int and d0;
    * ``L`` -- ``assemble_L`` from the coefficients;
    * ``centre`` -- the cell-centre MetricFields (without dG/dt) and
      diffusivity of the energy ledger's dissipation.

    Both meshes are open (``sparse=True``), so the chart's sines and cosines
    are evaluated per axis.  Interior-node data are slices of the full-mesh
    arrays: the metric is evaluated pointwise, so a slice carries the same
    bits as an evaluation on the interior mesh.  The rest of the full-mesh
    MetricFields is not kept.
    """

    def __init__(self, chart, kappa, grid, t):
        self.chart = chart
        self.kappa = kappa
        self.grid = grid
        self.t = t

    @functools.cached_property
    def coefficients(self):
        X1, X2 = self.grid.full_mesh(sparse=True)
        mf = metric_fields(self.chart, X1, X2, self.t, h_fd=self.grid.h_fd)
        R = mf.sqrtG
        cf = {
            "R": R, "Ginv11": mf.ginv11, "Ginv12": mf.ginv12, "Ginv22": mf.ginv22,
            "R_int": R[1:-1, 1:-1],
            "d0": (0.5 * mf.dGdt / mf.G)[1:-1, 1:-1],
        }
        if self.kappa is not None:
            K = _on_mesh(self.kappa, X1, X2, self.t)
            cf.update({"K": np.array(K),
                       "C11": K * R * mf.ginv11,
                       "C12": K * R * mf.ginv12,
                       "C22": K * R * mf.ginv22})
        return cf

    @functools.cached_property
    def interior_sqrtG(self):
        """sqrt(G) on the interior nodes, contiguous for the reports' quadratures."""
        return np.ascontiguousarray(self.coefficients["R_int"])

    @functools.cached_property
    def L(self):
        return assemble_L(self.chart, self.kappa, self.grid, self.t,
                          coefficients=self.coefficients)

    @functools.cached_property
    def centre(self):
        C1, C2 = self.grid.cell_center_mesh(sparse=True)
        mf = metric_fields(self.chart, C1, C2, self.t, h_fd=self.grid.h_fd, want_dGdt=False)
        return mf, None if self.kappa is None else _on_mesh(self.kappa, C1, C2, self.t)


class StepFrames:
    """Source of the StepFrames of ``chart`` and ``kappa`` on ``grid``.

    ``frame(t)`` is the frame at t.  A static problem -- a rigid chart and a
    diffusivity that is time-independent or None -- has one frame, evaluated
    at t = 0 and returned for every t.
    """

    def __init__(self, chart, kappa, grid):
        self.chart = chart
        self.kappa = kappa
        self.grid = grid
        self.static = chart.static_metric and (
            kappa is None or getattr(kappa, "time_independent", False))
        self._static_frame = None

    def frame(self, t):
        if not self.static:
            return StepFrame(self.chart, self.kappa, self.grid, t)
        if self._static_frame is None:
            self._static_frame = StepFrame(self.chart, self.kappa, self.grid, 0.0)
        return self._static_frame


def coefficient_fields(chart, kappa, grid, t):
    """Nodal coefficient data on the full grid at time t.

    Returns full-grid arrays K (diffusivity), R (sqrt G), the inverse-metric
    components, the flux coefficients C^ab = K R g^ab, and the interior
    arrays R_int and d0 = (dG/dt)/(2G).
    """
    return StepFrame(chart, kappa, grid, t).coefficients


def assemble_L(chart, kappa, grid, t, coefficients=None):
    """Flux-form discretization of the pulled-back diffusion operator.

    ``coefficients`` is ``coefficient_fields(chart, kappa, grid, t)`` when the
    caller holds it already (a StepFrame does).
    """
    cf = coefficient_fields(chart, kappa, grid, t) if coefficients is None else coefficients
    inv_r = 1.0 / cf["R_int"]
    c11 = _shifts(cf["C11"])
    c22 = _shifts(cf["C22"])
    c12 = _shifts(cf["C12"])

    face1p = 0.5 * (c11["c"] + c11["ip"])
    face1m = 0.5 * (c11["c"] + c11["im"])
    face2p = 0.5 * (c22["c"] + c22["jp"])
    face2m = 0.5 * (c22["c"] + c22["jm"])

    q1 = inv_r / grid.h1 ** 2
    q2 = inv_r / grid.h2 ** 2
    qx = inv_r / (4.0 * grid.h1 * grid.h2)

    terms = [
        # divergence-form diagonal fluxes
        (1, 0, -face1p * q1), (-1, 0, -face1m * q1),
        (0, 1, -face2p * q2), (0, -1, -face2m * q2),
        (0, 0, (face1p + face1m) * q1 + (face2p + face2m) * q2 + cf["d0"]),
        # centered cross differences of the mixed fluxes
        (1, 1, -(c12["ip"] + c12["jp"]) * qx),
        (-1, -1, -(c12["im"] + c12["jm"]) * qx),
        (1, -1, (c12["ip"] + c12["jm"]) * qx),
        (-1, 1, (c12["im"] + c12["jp"]) * qx),
    ]
    return _stencil_matrix(grid, terms)


def assemble_B_parts(chart, kappa, grid, lambda1, lambda2, t, coefficients=None):
    """Split L(t) - A into the five-part perturbation decomposition.

    Returns {"B1"..."B5": DIA matrix}; B5 is diagonal (d0).  The parts sum to
    assemble_L - assemble_A exactly up to roundoff.  A part repeats stencil
    offsets, which ``_stencil_matrix`` adds in term order.  ``coefficients``
    is as in ``assemble_L``.
    """
    if lambda1 <= 0 or lambda2 <= 0:
        raise ParameterError("lambda coefficients must be positive")
    cf = coefficient_fields(chart, kappa, grid, t) if coefficients is None else coefficients
    inv_r = 1.0 / cf["R_int"]
    h1, h2 = grid.h1, grid.h2

    K = cf["K"]
    R = cf["R"]
    ginv = {"11": cf["Ginv11"], "12": cf["Ginv12"], "22": cf["Ginv22"]}
    C = {"11": cf["C11"], "12": cf["C12"], "22": cf["C22"]}

    def sh(arr, d):
        s = _shifts(arr)
        return (s["ip"], s["im"]) if d == 1 else (s["jp"], s["jm"])

    def bar(arr, d):
        p, m = sh(arr, d)
        return 0.5 * (p + m)

    def delta(arr, d):
        p, m = sh(arr, d)
        return (p - m) / (2.0 * (h1 if d == 1 else h2))

    # --- B1: second-order remainder with face-averaged coefficients
    c11 = _shifts(C["11"])
    c22 = _shifts(C["22"])
    s11 = 0.25 * (c11["im"] + 2.0 * c11["c"] + c11["ip"]) * inv_r
    s22 = 0.25 * (c22["jm"] + 2.0 * c22["c"] + c22["jp"]) * inv_r
    s12 = (bar(C["12"], 1) + bar(C["12"], 2)) * inv_r
    b1_terms = (_d11_terms(grid, -(s11 - lambda1))
                + _d22_terms(grid, -(s22 - lambda2))
                + _d12_terms(grid, -s12))
    B1 = _stencil_matrix(grid, b1_terms)

    # --- B2/B3/B4: exact three-way split of the first-order flux remainder.
    # For each index pair (a, b) the centered difference of C^ab = K*R*g^ab
    # splits exactly as  Kbar*Rbar*delta(g^ab)  (metric-derivative part, B3)
    #                  + Kbar*delta(R)*g^ab_bar (volume-factor part, B2)
    #                  + delta(K)*avg(R*g^ab)   (diffusivity part, B4).
    op_for_pair = {
        (1, "11"): _dc1_terms, (2, "22"): _dc2_terms,
        (1, "12"): _m1d2_terms, (2, "12"): _m2d1_terms,
    }
    b2_terms, b3_terms, b4_terms = [], [], []
    for (d, ab), op in op_for_pair.items():
        Q = R * ginv[ab]
        b3 = bar(K, d) * bar(R, d) * delta(ginv[ab], d) * inv_r
        b2 = bar(K, d) * delta(R, d) * bar(ginv[ab], d) * inv_r
        b4 = delta(K, d) * bar(Q, d) * inv_r
        b2_terms += op(grid, -b2)
        b3_terms += op(grid, -b3)
        b4_terms += op(grid, -b4)
    B2 = _stencil_matrix(grid, b2_terms)
    B3 = _stencil_matrix(grid, b3_terms)
    B4 = _stencil_matrix(grid, b4_terms)

    # --- B5: zeroth-order dilation term
    B5 = _stencil_matrix(grid, [(0, 0, cf["d0"])])

    return {"B1": B1, "B2": B2, "B3": B3, "B4": B4, "B5": B5}


def assemble_B(chart, kappa, grid, lambda1, lambda2, t):
    """Full perturbation B(t) = L(t) - A as one DIA matrix."""
    return assemble_L(chart, kappa, grid, t) - assemble_A(grid, lambda1, lambda2)


def operator_norm_est(m, iters=50, seed=0):
    """Discrete L2->L2 operator norm by power iteration on M^T M."""
    n = m.shape[0]
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n)
    nv = np.linalg.norm(v)
    if nv == 0.0:
        return 0.0
    v /= nv
    # DIA's transpose stores its offsets in descending order, and a matvec
    # with it would sum each row backwards; CSR sums in column order
    mt = m.T.tocsr()
    sigma2 = 0.0
    for _ in range(iters):
        w = mt @ (m @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        sigma2 = nw
        v = w / nw
    return float(np.sqrt(sigma2))


# ---------------------------------------------------------------------------
# norms of grid functions


def field_l2(values, grid):
    """Discrete L2(U) norm, h1*h2-weighted sum over interior nodes."""
    v = np.asarray(values).ravel()
    return float(np.sqrt(grid.h1 * grid.h2 * np.dot(v, v)))


def half_power_norm(values, grid, lambda1, lambda2):
    """Square root of lam1*||d1 f||^2 + lam2*||d2 f||^2.

    One-sided difference quotients on the faces of the grid, including the
    faces that touch the zero Dirichlet boundary; coincides with the discrete
    quadratic form <A f, f> h1 h2 of the 5-point operator.
    """
    full = grid.pad_dirichlet(values)
    d1 = np.diff(full[:, 1:-1], axis=0) / grid.h1
    d2 = np.diff(full[1:-1, :], axis=1) / grid.h2
    s = lambda1 * np.sum(d1 * d1) + lambda2 * np.sum(d2 * d2)
    return float(np.sqrt(grid.h1 * grid.h2 * s))


def gradient_norm(values, grid):
    return half_power_norm(values, grid, 1.0, 1.0)


def hessian_seminorm(values, grid):
    """Frobenius L2 norm of the discrete Hessian (centered quotients)."""
    p = grid.pad_dirichlet(values)
    d11 = (p[2:, 1:-1] - 2.0 * p[1:-1, 1:-1] + p[:-2, 1:-1]) / grid.h1 ** 2
    d22 = (p[1:-1, 2:] - 2.0 * p[1:-1, 1:-1] + p[1:-1, :-2]) / grid.h2 ** 2
    d12 = (p[2:, 2:] - p[2:, :-2] - p[:-2, 2:] + p[:-2, :-2]) / (4.0 * grid.h1 * grid.h2)
    s = np.sum(d11 * d11) + 2.0 * np.sum(d12 * d12) + np.sum(d22 * d22)
    return float(np.sqrt(grid.h1 * grid.h2 * s))


def sobolev_h1_norm(values, grid):
    """Discrete W^{1,2}(U) norm: sqrt(||f||^2 + ||grad f||^2)."""
    return float(np.hypot(field_l2(values, grid), gradient_norm(values, grid)))


# ---------------------------------------------------------------------------
# structural diagnostics


def weighted_symmetry_defect(frame):
    """Asymmetry of W (L - D0) with W = diag(sqrtG h1 h2) at a StepFrame, relative scale.

    The divergence-form part of the operator is selfadjoint in L2(sqrtG dX);
    its flux discretization should reproduce that to roundoff.
    """
    cf = frame.coefficients
    w = (cf["R_int"] * frame.grid.h1 * frame.grid.h2).ravel()
    M = sp.diags(w) @ (frame.L - sp.diags(cf["d0"].ravel()))
    return max_abs_entry(M - M.T), max_abs_entry(M)


def apply_stencil_full(values_full, grid, lambda1, lambda2):
    """Apply -(lam1 d11 + lam2 d22) to a full-grid sample, interior output."""
    p = np.asarray(values_full, dtype=float)
    d11 = (p[2:, 1:-1] - 2.0 * p[1:-1, 1:-1] + p[:-2, 1:-1]) / grid.h1 ** 2
    d22 = (p[1:-1, 2:] - 2.0 * p[1:-1, 1:-1] + p[1:-1, :-2]) / grid.h2 ** 2
    return -(lambda1 * d11 + lambda2 * d22)


def verify_anisotropic_identities(grid, lambda1, lambda2):
    """Residual checks of the two closed-form identities of the operator.

    * fundamental solution: E(X) = log(lam2 X1^2 + lam1 X2^2)/2 is annihilated
      by the continuous operator away from the origin; the discrete residual
      is O(h^2).  The grid rectangle must exclude the origin.
    * rescaled heat solution: Phi(X, t) = phi(X1/sqrt(lam1), X2/sqrt(lam2), t)
      with phi a heat kernel solves the anisotropic heat equation; the
      Crank-Nicolson residual is O(h^2 + dt^2) with dt tied to h; three
      steps are checked.
    """
    if lambda1 <= 0 or lambda2 <= 0:
        raise ParameterError("lambda coefficients must be positive")
    a, b, c, d = grid.domain
    if a <= 0.0 <= b and c <= 0.0 <= d:
        raise ParameterError("fundamental-solution check needs a domain away from the origin")

    X1, X2 = grid.full_mesh()
    E = 0.5 * np.log(lambda2 * X1 ** 2 + lambda1 * X2 ** 2)
    fund = float(np.max(np.abs(apply_stencil_full(E, grid, lambda1, lambda2))))

    # rescaled heat kernel, centered on the image of the rectangle center;
    # the time offset keeps higher derivatives small so the O(h^2 + dt^2)
    # leading term dominates already on coarse grids
    t0 = 0.5
    c1 = 0.5 * (a + b) / np.sqrt(lambda1)
    c2 = 0.5 * (c + d) / np.sqrt(lambda2)

    def phi_pull(t):
        y1 = X1 / np.sqrt(lambda1)
        y2 = X2 / np.sqrt(lambda2)
        r2 = (y1 - c1) ** 2 + (y2 - c2) ** 2
        return np.exp(-r2 / (4.0 * (t + t0))) / (4.0 * np.pi * (t + t0))

    dt = min(grid.h1, grid.h2)
    heat = 0.0
    for k in range(3):
        t = k * dt
        f0, f1 = phi_pull(t), phi_pull(t + dt)
        resid = ((f1[1:-1, 1:-1] - f0[1:-1, 1:-1]) / dt
                 + 0.5 * (apply_stencil_full(f1, grid, lambda1, lambda2)
                          + apply_stencil_full(f0, grid, lambda1, lambda2)))
        heat = max(heat, float(np.max(np.abs(resid))))
    return {"fundsol_residual": fund, "scaled_heat_residual": heat}


# solver utilities shared by the steppers and the estimators

def factorize(matrix):
    """Sparse LU with minimum-degree ordering on the pattern of M^T + M.

    The 5- and 9-point stencil matrices are structurally symmetric, and this
    ordering keeps about half the fill of the default column ordering.  The
    conversion to CSC drops explicit zeros (the cross terms of a rigid chart
    with g^12 = 0), which sets the pattern that is ordered and factored.
    """
    return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")


def stencil_weights(mat, grid):
    """Mean weights (lambda1, lambda2) of the X1 and X2 neighbor couplings of L(t).

    The GMRES preconditioner reads them off the diagonals +-n2 and +-1 of
    ``mat``, skipping the positions of +-1 that wrap to the next grid row.  An
    axis with a single interior node has no couplings and reads 0.
    """
    n2 = grid.n2
    in_row = np.arange(mat.shape[0] - 1) % n2 != n2 - 1

    def mean_weight(w, h):
        return -w.mean() * h ** 2 if w.size else 0.0

    return (mean_weight(np.concatenate([mat.diagonal(n2), mat.diagonal(-n2)]), grid.h1),
            mean_weight(np.concatenate([mat.diagonal(1)[in_row], mat.diagonal(-1)[in_row]]),
                        grid.h2))


@functools.lru_cache(maxsize=16)
def sine_matrix(n):
    """Orthonormal DST-I matrix S[k, l] = sqrt(2/(n+1)) sin(pi k l/(n+1)), k, l = 1..n.

    The product k l is reduced modulo 2(n+1), the period of the sine, so the
    argument stays below 2 pi.  S is symmetric and orthogonal, hence its own
    inverse.  Cached per n and read-only.
    """
    k = np.arange(1, n + 1)
    S = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * (np.outer(k, k) % (2 * (n + 1))) / (n + 1))
    S.flags.writeable = False
    return S


class SineBasis:
    """Orthonormal DST-I eigenbasis of A = assemble_A(grid, lambda1, lambda2).

    The sine modes sin(pi k i/(n1+1)) sin(pi l j/(n2+1)) diagonalize the
    5-point operator with eigenvalues lambda1 mu1_k + lambda2 mu2_l, where
    mu_k = (4/h^2) sin^2(pi k/(2(n+1))).  The orthonormal DST-I maps into and
    out of that basis as the dense products S1 V S2 with the symmetric,
    orthogonal ``sine_matrix`` of each axis, so it is its own inverse and
    preserves the Euclidean norm: ``forward(f)`` carries the same l2 norm as
    f.  A transform costs O(n1 n2 (n1 + n2)) operations, with no dependence
    on the factors of n + 1.  Against an O(n log n) FFT-based DST-I
    (scipy's) the products win up to about 150 nodes per axis, the largest
    grid of any workload, test or demo.  Time per 2-D transform, BLAS on one
    thread of a 2-vCPU Xeon KVM guest:

        grid       15^2    63^2    127^2    150x100  255^2   511^2
        products   4 us    28 us   0.23 ms  0.21 ms  1.8 ms  12.7 ms
        FFT        21 us   82 us   0.27 ms  1.79 ms  0.83 ms  4.7 ms

    (151 is prime, the slow case of an FFT.)  Leading axes of the arguments
    are batch axes.
    """

    def __init__(self, grid, lambda1, lambda2):
        def eigenvalues(n, h):
            return 4.0 / h ** 2 * np.sin(0.5 * np.pi * np.arange(1, n + 1) / (n + 1)) ** 2

        self._S1 = sine_matrix(grid.n1)
        self._S2 = sine_matrix(grid.n2)
        self._mu1 = eigenvalues(grid.n1, grid.h1)
        self._mu2 = eigenvalues(grid.n2, grid.h2)
        self.eigenvalues = self._eigenvalues(lambda1, lambda2)

    def _eigenvalues(self, lambda1, lambda2):
        return lambda1 * self._mu1[:, None] + lambda2 * self._mu2[None, :]

    def shifted_solver(self, lambda1, lambda2, shift):
        """Callable r -> (I + shift A)^{-1} r for A = assemble_A(grid, lambda1, lambda2).

        The sine modes diagonalize A at any weights, so a basis serves every
        (lambda1, lambda2) on its grid: only the eigenvalues are formed here.
        """
        denom = 1.0 + shift * self._eigenvalues(lambda1, lambda2)

        def solve(r):
            return self.inverse(self.forward(r) / denom)

        return solve

    def forward(self, values):
        """Mode coefficients, shape (..., n1, n2), of grid functions (..., ndof)."""
        values = np.asarray(values)
        shape = values.shape[:-1] + self.eigenvalues.shape
        return self._S1 @ np.reshape(values, shape) @ self._S2

    def inverse(self, coeffs):
        """Grid functions, shape (..., ndof), from mode coefficients (..., n1, n2)."""
        out = self._S1 @ coeffs @ self._S2
        return out.reshape(out.shape[:-2] + (-1,))


def shifted_A_solver(grid, lambda1, lambda2, shift):
    """Callable r -> (I + shift A)^{-1} r for A = assemble_A(grid, lambda1, lambda2).

    Divides by 1 + shift (lambda1 mu1_k + lambda2 mu2_l) in the SineBasis.
    """
    return SineBasis(grid, lambda1, lambda2).shifted_solver(lambda1, lambda2, shift)
