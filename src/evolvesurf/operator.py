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
                      It returns the matrices only.  ``lower_order_parts``
                      writes the weight-free parts B2..B4 in one pass
                      (``refill_lower_order_parts`` into reused buffers);
                      ``operator_norm_est`` estimates a part's L2 norm from
                      below by Lanczos on M^T M, and ``schur_bound`` bounds
                      it from above by sqrt(||M||_1 ||M||_inf), read off the
                      diagonals.

On a grid each operator is a set of stencil diagonals: the (di, dj)
neighbor of node (i, j) lies on the diagonal di*n2 + dj.
``_stencil_diagonals`` is the one assembly builder: it allocates the
diagonals of a ``scipy.sparse.dia_matrix`` and hands out, per stencil
offset, the view of the block that offset fills.  ``assemble_L``, the
per-step assembly of a moving march, writes its nine terms straight into
those views, and ``lower_order_parts`` the terms of B2..B4;
``_stencil_matrix`` adds (di, dj, coefficient) terms into them for A, B1 and
B5.  B(t) = L(t) - A is scipy's DIA arithmetic, which adds
diagonals of equal offset and stays DIA.  A DIA matvec sums each row in
column order, as a CSR matvec on the same entries does.
``stencil_weights`` sums the preconditioner weights over views of the
diagonals, and ``stencil_entries`` lists the in-grid entries for the matrix
dump.

A ``StepFrame`` is everything one time t evaluates: the coefficient fields
(one full-mesh evaluation of the metric and the diffusivity), and what is
built from them on first use: L(t) and the cell-centre flux coefficients of
the energy ledger, corner means of the C^ab that L(t) reads.  No piece
evaluates the chart or the diffusivity again.
``StepFrames`` builds them for the march and the reports; a static problem
(``static_problem``, the one test, which the smallness scan shares) gets a
single frame.  The verify checks and ``weighted_symmetry_defect`` read
single frames.  ``coefficient_fields`` and a standalone ``assemble_L`` go
through a frame too.

``SineBasis`` is the DST-I eigenbasis of A, built from the grid and the
weights: every solve with A or I + s A (Picard stages, the C_sharp and C_A
estimators, the GMRES preconditioner) is a division per mode there.  The
transform is a pair of products with the orthonormal sine matrix of each
axis (``sine_matrix``, built once per node count), O(n1 n2 (n1 + n2)) per
transform, dense below SINE_FOLD_NODES nodes and folded by the parity of
the sine from there on (half the multiply-adds); its cost does not depend
on the factors of n + 1.  ``factorize`` (sparse LU) is
left for a static L; it imports ``scipy.sparse.linalg`` on first use, so a
run that factorizes nothing loads neither that module nor the
``scipy.linalg`` it pulls in.
"""

from __future__ import annotations

import functools
import math

import numpy as np
import scipy.sparse as sp

from .errors import AssumptionViolationError, ParameterError
from .geometry import metric_fields

# ---------------------------------------------------------------------------
# stencil machinery

# (di, dj) stencil offsets of L and of A, the entries of the matrix dump
L_OFFSETS = tuple((di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1))
A_OFFSETS = ((-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))


def _block(n1, n2, di, dj):
    """Index ranges (i0, i1, j0, j1) of the nodes whose (di, dj) neighbor is interior."""
    return max(0, -di), n1 - max(0, di), max(0, -dj), n2 - max(0, dj)


def _stencil_diagonals(grid, pairs):
    """A DIA matrix with the diagonals of the (di, dj) stencil offsets ``pairs``, and their views.

    The diagonals start at -0.0, the identity of addition, and are stored in
    ascending offset order, so a DIA matvec sums each row in column order, as
    a CSR matvec does.  ``views[di, dj]`` is the block of the diagonal
    di*n2 + dj that holds the entries of the nodes ``_block(n1, n2, di, dj)``
    (those whose (di, dj) neighbor is interior): element [i - i0, j - j0] is
    the entry that row (i, j) places on column (i+di, j+dj), stored at that
    column.  Neighbors outside the interior have no place (homogeneous
    Dirichlet data).  Two offsets meet on one diagonal only when an axis has
    one or two nodes, and then their blocks are disjoint.
    """
    n1, n2 = grid.n1, grid.n2
    offsets = sorted({di * n2 + dj for di, dj in pairs})
    data = np.full((len(offsets), n1 * n2), -0.0)
    views = {}
    for di, dj in pairs:
        views[di, dj] = _block_view(data[offsets.index(di * n2 + dj)], n1, n2, di, dj)
    return sp.dia_matrix((data, offsets), shape=(n1 * n2, n1 * n2)), views


def _block_view(diagonal, n1, n2, di, dj):
    """The (n1, n2)-shaped view of the stored diagonal di*n2 + dj that holds the (di, dj) block.

    Element [i - i0, j - j0] is the entry that row (i, j) places on column
    (i+di, j+dj), stored at that column, for the nodes ``_block(n1, n2, di, dj)``.
    """
    i0, i1, j0, j1 = _block(n1, n2, di, dj)
    return diagonal.reshape(n1, n2)[i0 + di:i1 + di, j0 + dj:j1 + dj]


def _stencil_matrix(grid, terms):
    """Assemble a DIA matrix from (di, dj, coefficient) stencil terms.

    ``coefficient`` is a scalar or an (n1, n2) array giving the entry that
    row (i, j) places on column (i+di, j+dj); it is added into the view of
    its offset (``_stencil_diagonals``).  Terms of a repeated offset are
    added in term order, and a single term keeps its bits, a signed zero
    included.
    """
    n1, n2 = grid.n1, grid.n2
    mat, views = _stencil_diagonals(grid, [(di, dj) for di, dj, _ in terms])
    for di, dj, coeff in terms:
        i0, i1, j0, j1 = _block(n1, n2, di, dj)
        carr = np.broadcast_to(np.asarray(coeff, dtype=float), (n1, n2))
        views[di, dj] += carr[i0:i1, j0:j1]
    return mat


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


@np.errstate(over="ignore", invalid="ignore")   # its callers refuse a non-finite kappa
def _on_mesh(kappa, X1, X2, t):
    """Diffusivity values on a mesh, dense or open, broadcast to its full shape."""
    return np.broadcast_to(np.asarray(kappa.value(X1, X2, t), dtype=float),
                           np.broadcast_shapes(np.shape(X1), np.shape(X2)))


def refuse_kappa(K, t):
    """Raise AssumptionViolationError unless the diffusivity values K at t are positive and finite."""
    if not K.min() > 0.0:   # nan fails too
        raise AssumptionViolationError(
            f"kappa must be strictly positive; minimum {K.min():.6g} at t = {t:.6g}")
    if not K.max() < np.inf:
        raise AssumptionViolationError(
            f"kappa must be finite; maximum {K.max():.6g} at t = {t:.6g}")


def mesh_coefficients(mf, K):
    """``coefficient_fields`` from a full-mesh MetricFields and diffusivity K."""
    R = mf.sqrtG
    return {
        "R": R, "Ginv11": mf.ginv11, "Ginv12": mf.ginv12, "Ginv22": mf.ginv22,
        "R_int": R[1:-1, 1:-1],
        "d0": (0.5 * mf.dGdt / mf.G)[1:-1, 1:-1],
        "K": np.array(K),
        "C11": K * R * mf.ginv11,
        "C12": K * R * mf.ginv12,
        "C22": K * R * mf.ginv22,
    }


class StepFrame:
    """What one step time t evaluates on ``grid``, each piece built on first use and kept.

    * ``coefficients`` -- ``coefficient_fields``: one full-mesh evaluation of
      the metric (with dG/dt) and of the diffusivity.  A diffusivity that is
      not strictly positive and finite on the mesh raises
      AssumptionViolationError, a metric that is not finite
      DegenerateChartError (``metric_fields``);
    * ``L`` -- ``assemble_L`` from the coefficients;
    * ``cell_fluxes`` -- (C11, C12, C22) at the cell centres, each the mean of
      its cell's four corner values of the coefficients: the weights of the
      energy ledger's dissipation, with no evaluation of their own.

    The mesh is open (``sparse=True``), so the chart's sines and cosines are
    evaluated per axis.  Interior-node data are slices of the full-mesh
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
        mf = metric_fields(self.chart, X1, X2, self.t)
        K = _on_mesh(self.kappa, X1, X2, self.t)
        refuse_kappa(K, self.t)
        return mesh_coefficients(mf, K)

    @functools.cached_property
    def interior_sqrtG(self):
        """sqrt(G) on the interior nodes, contiguous for the reports' quadratures."""
        return np.ascontiguousarray(self.coefficients["R_int"])

    @functools.cached_property
    def interior_d0(self):
        """d0 on the interior nodes, flat and contiguous for the regularity report's L v - d0 v."""
        return np.ascontiguousarray(self.coefficients["d0"]).ravel()

    @functools.cached_property
    def interior_sqrtG_d0(self):
        """sqrt(G) d0 on the interior nodes, the weight of the energy ledger's dilation rate."""
        return self.interior_sqrtG * self.coefficients["d0"]

    @functools.cached_property
    def L(self):
        return assemble_L(self.chart, self.kappa, self.grid, self.t,
                          coefficients=self.coefficients)

    @functools.cached_property
    def cell_fluxes(self):
        cf = self.coefficients
        return tuple(0.25 * (c[:-1, :-1] + c[1:, :-1] + c[:-1, 1:] + c[1:, 1:])
                     for c in (cf["C11"], cf["C12"], cf["C22"]))


def static_problem(chart, kappa):
    """True for a rigid chart with a time-independent diffusivity, whose
    coefficients carry the same bits at every t."""
    return chart.static_metric and kappa.time_independent


class StepFrames:
    """Source of the StepFrames of ``chart`` and ``kappa`` on ``grid``.

    ``frame(t)`` is the frame at t.  A static problem -- a rigid chart and a
    time-independent diffusivity -- has one frame, evaluated at t = 0 and
    returned for every t.
    """

    def __init__(self, chart, kappa, grid):
        self.chart = chart
        self.kappa = kappa
        self.grid = grid
        self.static = static_problem(chart, kappa)
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
    caller holds it already (a StepFrame does).  Each of the nine stencil
    terms is written straight into its diagonal view (``_stencil_diagonals``),
    computed on its own block only:

    * X1 and X2 fluxes -f1(i+-1/2) q1 and -f2(j+-1/2) q2, with the face means
      f1 = (C11 + C11 shifted by one node)/2 formed once per face, on the
      (n1+1) x n2 and n1 x (n2+1) face grids, and q_a = 1/(sqrtG h_a^2);
    * the main diagonal (f1(i+1/2) + f1(i-1/2)) q1 + (f2(j+1/2) + f2(j-1/2)) q2
      + d0;
    * the cross terms -+(C12 at the i-neighbor + C12 at the j-neighbor) qx,
      qx = 1/(4 sqrtG h1 h2), minus on the (1, 1) and (-1, -1) offsets.

    The minus signs ride on -q1, -q2 and -qx (x (-q) rounds as -(x q)), and
    the main diagonal is d0 minus its flux sum taken with -q1 and -q2: that
    sum is positive, so it rounds as the flux sum plus d0.
    """
    cf = coefficient_fields(chart, kappa, grid, t) if coefficients is None else coefficients
    n1, n2 = grid.n1, grid.n2
    L, views = _stencil_diagonals(grid, L_OFFSETS)
    nq = -1.0 / cf["R_int"]
    nq1 = nq / grid.h1 ** 2
    nq2 = nq / grid.h2 ** 2
    nqx = nq / (4.0 * grid.h1 * grid.h2)
    C11, C12, C22 = cf["C11"], cf["C12"], cf["C22"]
    face1 = C11[:-1, 1:-1] + C11[1:, 1:-1]
    face1 *= 0.5
    face2 = C22[1:-1, :-1] + C22[1:-1, 1:]
    face2 *= 0.5

    # divergence-form diagonal fluxes: row (i, j) reads the face toward its neighbor
    for (di, dj), face, q in (((1, 0), face1, nq1), ((-1, 0), face1, nq1),
                              ((0, 1), face2, nq2), ((0, -1), face2, nq2)):
        i0, i1, j0, j1 = _block(n1, n2, di, dj)
        fi, fj = max(di, 0), max(dj, 0)
        np.multiply(face[i0 + fi:i1 + fi, j0 + fj:j1 + fj], q[i0:i1, j0:j1], out=views[di, dj])
    main = views[0, 0]
    np.add(face1[1:], face1[:-1], out=main)
    main *= nq1
    flux2 = face2[:, 1:] + face2[:, :-1]
    flux2 *= nq2
    main += flux2
    np.subtract(cf["d0"], main, out=main)

    # centered cross differences of the mixed fluxes
    qx = np.negative(nqx)
    for (di, dj), q in (((1, 1), nqx), ((-1, -1), nqx), ((1, -1), qx), ((-1, 1), qx)):
        i0, i1, j0, j1 = _block(n1, n2, di, dj)
        out = views[di, dj]
        np.add(C12[1 + di + i0:1 + di + i1, 1 + j0:1 + j1],
               C12[1 + i0:1 + i1, 1 + dj + j0:1 + dj + j1], out=out)
        out *= q[i0:i1, j0:j1]
    return L


def assemble_B_parts(chart, kappa, grid, lambda1, lambda2, t, coefficients=None):
    """Split L(t) - A into the five-part perturbation decomposition.

    Returns {"B1"..."B5": DIA matrix}; B5 is diagonal (d0).  The parts sum to
    assemble_L - assemble_A exactly up to roundoff.  B1 repeats stencil
    offsets, which ``_stencil_matrix`` adds in term order.  ``coefficients``
    is as in ``assemble_L``; B2..B4 (no weights) are ``lower_order_parts``.
    """
    if lambda1 <= 0 or lambda2 <= 0:
        raise ParameterError("lambda coefficients must be positive")
    cf = coefficient_fields(chart, kappa, grid, t) if coefficients is None else coefficients
    inv_r = 1.0 / cf["R_int"]

    # --- B1: second-order remainder with face-averaged coefficients
    c11 = _shifts(cf["C11"])
    c22 = _shifts(cf["C22"])
    s11 = 0.25 * (c11["im"] + 2.0 * c11["c"] + c11["ip"]) * inv_r
    s22 = 0.25 * (c22["jm"] + 2.0 * c22["c"] + c22["jp"]) * inv_r
    c12 = _shifts(cf["C12"])
    s12 = (0.5 * (c12["ip"] + c12["im"]) + 0.5 * (c12["jp"] + c12["jm"])) * inv_r
    b1_terms = (_d11_terms(grid, -(s11 - lambda1))
                + _d22_terms(grid, -(s22 - lambda2))
                + _d12_terms(grid, -s12))
    return {"B1": _stencil_matrix(grid, b1_terms),
            **lower_order_parts(grid, cf),
            "B5": _stencil_matrix(grid, [(0, 0, cf["d0"])])}


# the stencil offsets of the first-order parts B2..B4, symmetric under negation
_FIRST_ORDER_OFFSETS = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def lower_order_parts(grid, cf):
    """The first-order parts B2, B3, B4 of ``assemble_B_parts``.

    Returns {"B2": B2, "B3": B3, "B4": B4} from the coefficients
    ``cf``; no weights.  For each index pair (a, b) the centered difference of
    C^ab = K R g^ab along X_d splits exactly as

        Kbar Rbar delta(g^ab)  (metric-derivative part, B3)
      + Kbar delta(R) g^ab_bar (volume-factor part, B2)
      + delta(K) avg(R g^ab)   (diffusivity part, B4),

    each divided by sqrtG.  The bars and deltas of K and R are formed once per
    direction.  Each term is multiplied straight into its diagonal view
    (``_stencil_diagonals``), in the order of the ``stencils`` of
    ``refill_lower_order_parts``, which writes them, so the diagonals carry
    the bits of adding the terms one by one.  B5 = diag(d0) is built by
    ``assemble_B_parts``.
    """
    return refill_lower_order_parts(lower_order_buffers(grid), grid, cf)


def lower_order_buffers(grid):
    """The DIA matrices of B2, B3, B4 on ``grid`` and their views (``_stencil_diagonals``).

    Their diagonals hold -0.0.  ``refill_lower_order_parts`` writes the parts
    of one set of coefficients after another into them.
    """
    return {name: _stencil_diagonals(grid, _FIRST_ORDER_OFFSETS) for name in ("B2", "B3", "B4")}


def refill_lower_order_parts(buffers, grid, cf):
    """``lower_order_parts`` of ``cf`` written into ``buffers`` (``lower_order_buffers``).

    The diagonals are refilled with -0.0 first, so the parts carry the bits
    of fresh ones.  The matrices returned are the buffers' own: each set of
    parts is read before the next is written.
    """
    for mat, _ in buffers.values():
        mat.data.fill(-0.0)
    n1, n2, h1, h2 = grid.n1, grid.n2, grid.h1, grid.h2
    inv_r = 1.0 / cf["R_int"]
    K, R = cf["K"], cf["R"]
    # one stencil per direction d and inverse-metric component: the denominator
    # of its differences and the (di, dj, sign) of each term; a term places
    # sign * b / denom on its offset, b being the part's row coefficient.  The
    # g^12 stencils average a centered difference over the other axis and share
    # the four corner offsets, where the second adds to the first.
    stencils = (
        (1, "Ginv11", 2.0 * h1, ((1, 0, -1.0), (-1, 0, 1.0))),
        (2, "Ginv22", 2.0 * h2, ((0, 1, -1.0), (0, -1, 1.0))),
        (1, "Ginv12", 4.0 * h2, ((1, 1, -1.0), (1, -1, 1.0), (-1, 1, -1.0), (-1, -1, 1.0))),
        (2, "Ginv12", 4.0 * h1, ((1, 1, -1.0), (-1, 1, 1.0), (1, -1, -1.0), (-1, -1, 1.0))),
    )

    def pm(arr, d):   # the neighbors along X_d of the interior nodes
        return (arr[2:, 1:-1], arr[:-2, 1:-1]) if d == 1 else (arr[1:-1, 2:], arr[1:-1, :-2])

    shared = {}
    for d, step in ((1, 2.0 * h1), (2, 2.0 * h2)):
        (Kp, Km), (Rp, Rm) = pm(K, d), pm(R, d)
        Kbar = 0.5 * (Kp + Km)
        shared[d] = (Kbar * (0.5 * (Rp + Rm)), Kbar * ((Rp - Rm) / step), (Kp - Km) / step,
                     (Rp, Rm), step)

    written = set()
    for d, key, denom, terms in stencils:
        KRbar, KdR, dK, (Rp, Rm), step = shared[d]
        Gp, Gm = pm(cf[key], d)
        rows = {"B2": KdR * (0.5 * (Gp + Gm)) * inv_r,
                "B3": KRbar * ((Gp - Gm) / step) * inv_r,
                "B4": dK * (0.5 * (Rp * Gp + Rm * Gm)) * inv_r}
        q = 1.0 / denom
        for di, dj, sign in terms:
            i0, i1, j0, j1 = _block(n1, n2, di, dj)
            for name, b in rows.items():
                view = buffers[name][1][di, dj]
                if (di, dj) in written:
                    view += b[i0:i1, j0:j1] * (sign * q)
                else:
                    np.multiply(b[i0:i1, j0:j1], sign * q, out=view)
            written.add((di, dj))
    return {name: mat for name, (mat, _) in buffers.items()}


def dia_transpose(mat):
    """Transpose of a square DIA matrix of this module, read off its diagonals.

    Each diagonal is shifted by its offset and stored under the negated
    offset, in ascending offset order, so a matvec with it sums each row in
    column order, as a CSR matvec does; scipy's own DIA transpose stores the
    offsets in descending order and would sum each row backwards.
    """
    n = mat.shape[0]
    order = np.argsort(-mat.offsets)
    data = np.zeros((len(order), n))
    for row, diag, off in zip(data, mat.data[order], mat.offsets[order]):
        lo, hi = max(0, -off), min(n, n - off)
        if lo < hi:   # an offset past the matrix (an axis of one node) stores nothing
            row[lo:hi] = diag[lo + off:hi + off]
    return sp.dia_matrix((data, -mat.offsets[order]), shape=(n, n))


def schur_bound(m):
    """Upper bound sqrt(||M||_1 ||M||_inf) of the L2->L2 norm of ``m`` (the Schur test).

    ``m`` is a DIA matrix of this module, whose entries are stored at their
    column and whose places outside the matrix hold zeros: the column sums
    are |data| summed over the diagonal axis, and the row sums are the same
    entries shifted by their offsets, as ``dia_transpose`` shifts them.
    """
    n = m.shape[0]
    mag = np.abs(m.data)
    if not mag.size:
        return 0.0
    rows = np.zeros(n)
    for diag, off in zip(mag, m.offsets):
        lo, hi = max(0, -off), min(n, n - off)
        if lo < hi:
            rows[lo:hi] += diag[lo + off:hi + off]
    return math.sqrt(float(mag.sum(axis=0).max()) * float(rows.max()))


def operator_norm_est(m, steps=15, seed=0):
    """Discrete L2->L2 operator norm of ``m``, a lower bound from Lanczos on M^T M.

    This is the V-recurrence of Golub-Kahan bidiagonalization: from the
    ``default_rng(seed)`` normal vector, each step forms M^T M v and
    reorthogonalizes it against every kept basis vector, a second time (DGKS)
    when the first pass removes more than 1 - 1/sqrt(2) of its norm (not of
    w - alpha v_k - beta v_{k-1}: against that, single passes lost
    orthogonality over a full Krylov space).  The product with M^T is one
    with ``dia_transpose(m)``.  It stops at breakdown, when the new norm is at
    most n eps max |alpha| (the Krylov space is exhausted, as for a diagonal
    matrix with repeated entries), or after min(steps, n) steps, and returns
    the square root of the largest eigenvalue of the tridiagonal
    (``_top_eigenvalue``, by numpy: no run imports ``scipy.linalg`` for it).
    Norms are
    ``math.sqrt(w @ w)``, the bits of ``np.linalg.norm`` of a float vector,
    and max |alpha| is kept as the steps go.  ``steps`` below 1 raises
    ParameterError.
    """
    if steps < 1:
        raise ParameterError(f"steps must be at least 1, got {steps!r}")
    n = m.shape[1]
    v = np.random.default_rng(seed).standard_normal(n)
    nv = math.sqrt(v @ v)
    if nv == 0.0:
        return 0.0
    mt = dia_transpose(m)
    basis = np.empty((min(steps, n), n))
    basis[0] = v / nv
    alpha, beta = [], []
    breakdown = n * np.finfo(float).eps
    alpha_max = 0.0
    for k in range(len(basis)):
        w = mt @ (m @ basis[k])
        kept = basis[:k + 1]
        coeffs = kept @ w
        alpha.append(coeffs[k])
        alpha_max = max(alpha_max, abs(coeffs[k]))
        if k + 1 == len(basis):
            break
        norm_in = math.sqrt(w @ w)
        w -= coeffs @ kept
        if math.sqrt(w @ w) < norm_in / math.sqrt(2.0):
            w -= (kept @ w) @ kept
        b = math.sqrt(w @ w)
        if b <= breakdown * alpha_max:
            break
        beta.append(b)
        basis[k + 1] = w / b
    return float(np.sqrt(max(_top_eigenvalue(alpha, beta), 0.0)))


def _top_eigenvalue(alpha, beta):
    """Largest eigenvalue of the symmetric tridiagonal with diagonal ``alpha``
    and off-diagonal ``beta``: numpy's dense ``eigvalsh`` of the k x k matrix
    (k at most ``steps`` of ``operator_norm_est``, 15 by default), which
    reads its lower triangle."""
    return float(np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta, -1))[-1])


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
    import scipy.sparse.linalg as spla   # on first use: only a static L is factorized

    return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")


def stencil_weights(mat, grid):
    """Mean weights (lambda1, lambda2) of the X1 and X2 neighbor couplings of L(t).

    The GMRES preconditioner reads them off the diagonals +-n2 and +-1 of
    ``mat``, a DIA matrix of this module that stores them.  Each coupling
    (di, dj) is summed over its block of its diagonal (``_block_view``, a
    view of the data that skips the positions of +-1 wrapping to the next
    grid row), and a mean is the two sums of an axis over their count, so
    no entry is copied.  An axis with a single interior node has no
    couplings and reads 0.
    """
    n1, n2 = grid.n1, grid.n2
    rows = dict(zip(mat.offsets.tolist(), mat.data))

    def mean_weight(di, dj, h):
        i0, i1, j0, j1 = _block(n1, n2, di, dj)
        count = 2 * (i1 - i0) * (j1 - j0)   # the blocks of (di, dj) and (-di, -dj)
        if not count:
            return 0.0
        total = sum(_block_view(rows[s * (di * n2 + dj)], n1, n2, s * di, s * dj).sum()
                    for s in (1, -1))
        return -total / count * h ** 2

    return mean_weight(1, 0, grid.h1), mean_weight(0, 1, grid.h2)


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


# nodes per axis from which the sine products fold by parity (``_SineAxis``):
# the crossover measured in ``SineBasis``'s docstring, BLAS on one thread
SINE_FOLD_NODES = 101


class _SineAxis:
    """The products with the sine matrix S of one axis: S x over axis -2, x S over axis -1.

    Below SINE_FOLD_NODES nodes they are dense products with
    ``sine_matrix(n)``.  From there on they fold by the parity of the sine,
    S[n+1-k, l] = (-1)^(l+1) S[k, l] (k, l = 1..n): over the first
    c = ceil(n/2) entries, the sums p_k = x_k + x_{n+1-k} give the rows of
    odd l through the c x c block of those rows, and the differences
    q_k = x_k - x_{n+1-k} the rows of even l through the floor(n/2) x c
    block.  For odd n, p holds twice the middle entry, so the first block's
    middle column is halved (exactly), and q's middle entry is 0.  A column
    of x costs n c multiply-adds instead of n^2, and one sum and one
    difference pass.  Each product is an explicit ``np.matmul`` call, which
    the tests count.
    """

    def __init__(self, n):
        S = sine_matrix(n)
        self.folded = n >= SINE_FOLD_NODES
        if not self.folded:
            self.S = S
            return
        self.c = c = (n + 1) // 2
        sums = S[0::2, :c].copy()
        if n % 2:
            sums[:, -1] *= 0.5
        diffs = S[1::2, :c].copy()
        self.halves = (sums, diffs)   # for S x
        # for x S; contiguous, which BLAS multiplies faster than the transposed views
        self.halves_T = (np.ascontiguousarray(sums.T), np.ascontiguousarray(diffs.T))

    def left(self, x):
        """S x over axis -2 of x."""
        if not self.folded:
            return np.matmul(self.S, x)
        c, (sums, diffs) = self.c, self.halves
        head, tail = x[..., :c, :], x[..., ::-1, :][..., :c, :]
        out = np.empty(x.shape)
        np.matmul(sums, head + tail, out=out[..., 0::2, :])
        np.matmul(diffs, head - tail, out=out[..., 1::2, :])
        return out

    def right(self, x):
        """x S over axis -1 of x (S is symmetric)."""
        if not self.folded:
            return np.matmul(x, self.S)
        c, (sums, diffs) = self.c, self.halves_T
        head, tail = x[..., :c], x[..., ::-1][..., :c]
        out = np.empty(x.shape)
        np.matmul(head + tail, sums, out=out[..., 0::2])
        np.matmul(head - tail, diffs, out=out[..., 1::2])
        return out


class SineBasis:
    """Orthonormal DST-I eigenbasis of A = assemble_A(grid, lambda1, lambda2).

    The sine modes sin(pi k i/(n1+1)) sin(pi l j/(n2+1)) diagonalize the
    5-point operator with eigenvalues lambda1 mu1_k + lambda2 mu2_l, where
    mu_k = (4/h^2) sin^2(pi k/(2(n+1))).  The orthonormal DST-I maps into and
    out of that basis as the products S1 V S2 with the symmetric, orthogonal
    ``sine_matrix`` of each axis, so it is its own inverse and preserves the
    Euclidean norm: ``forward(f)`` carries the same l2 norm as f.  A
    transform costs O(n1 n2 (n1 + n2)) operations, with no dependence on the
    factors of n + 1.  An axis of fewer than SINE_FOLD_NODES nodes takes the
    dense product; any other folds it by the parity of the sine
    (``_SineAxis``), half the multiply-adds for one sum/difference pass.
    Time per n x n transform, BLAS on one thread of a 2-vCPU Xeon KVM guest
    (medians of 21 alternating ``timeit`` rounds on a shared host):

        n      dense     folded    FFT
        15     5 us      23 us     22 us
        63     28 us     46 us     60 us
        95     82 us     95 us     129 us
        100    81 us     93 us     818 us
        101    125 us    100 us    218 us
        127    236 us    181 us    218 us
        150    355 us    255 us    2.76 ms
        255    2.17 ms   2.07 ms   1.17 ms
        511    14.2 ms   11.9 ms   5.7 ms

    The crossover is SINE_FOLD_NODES = 101: in 21 alternating rounds per
    size, the fold was faster in none at every size from 95 to 100 and in
    17 to 21 at every size measured from 101 to 127 (the dense product's
    time jumps between 100 and 101 nodes), and a grid of at most 100 nodes
    per axis keeps the bits of the dense products.  The FFT is scipy's
    DST-I, which no run imports; it wins from about 255 nodes per axis where
    n + 1 has small factors (101 and 151 are prime, the slow case).  Leading
    axes of the arguments are batch axes.
    """

    def __init__(self, grid, lambda1, lambda2):
        def eigenvalues(n, h):
            return 4.0 / h ** 2 * np.sin(0.5 * np.pi * np.arange(1, n + 1) / (n + 1)) ** 2

        self._axis1, self._axis2 = _SineAxis(grid.n1), _SineAxis(grid.n2)
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

    def _transform(self, fields):
        return self._axis2.right(self._axis1.left(fields))

    def forward(self, values):
        """Mode coefficients, shape (..., n1, n2), of grid functions (..., ndof)."""
        values = np.asarray(values)
        shape = values.shape[:-1] + self.eigenvalues.shape
        return self._transform(np.reshape(values, shape))

    def inverse(self, coeffs):
        """Grid functions, shape (..., ndof), from mode coefficients (..., n1, n2)."""
        out = self._transform(coeffs)
        return out.reshape(out.shape[:-2] + (-1,))
