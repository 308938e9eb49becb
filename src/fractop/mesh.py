"""Structured quadrilateral/hexahedral meshes with isoparametric bilinear
and trilinear elements.

This is the only module that knows the grid layout, built by one path for
both dimensions.  Node and element numbering is lexicographic (x fastest,
then y, then z) so generated fixtures and output files are bit-stable; the
element corners follow the VTK order of ``_CORNERS_2D``/``_CORNERS_3D``.
Displacement DOFs are interleaved per node.  Strains are engineering Voigt
vectors, the normal rows then the ``_SHEAR_PAIRS`` rows that fit the
dimension: 2D [exx, eyy, gxy], 3D [exx, eyy, ezz, gyz, gxz, gxy].  All field
assemblies are driven by the arrays precomputed here.

The mesh owns every sum of element arrays into global ones: vectors
(``Mesh.scatter``), CSR matrices (``Mesh.assemble``, through one cached
``CsrPattern`` per pair of block widths) and the LAPACK lower band storage
of a symmetric positive definite matrix (``Mesh.band_pattern``), which the
forward solves use for K_uu on the free DOFs and for K_dd.  Both patterns
add up each entry's terms in the order ``tocsr`` does, so a band entry
equals its CSR entry bit for bit.  The band is narrow because its rows
follow ``Mesh.structured_order``, the nodes ordered along the grid's short
axes first; each ``forward.Problem`` builds its two band patterns once, on
first use.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# Reference corner signs.  Ordering matches VTK quad (type 9) / hexahedron
# (type 12) so connectivity can be written to legacy VTK files unchanged.
_CORNERS_2D = np.array(
    [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
_CORNERS_3D = np.array(
    [[-1.0, -1.0, -1.0], [1.0, -1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, -1.0],
     [-1.0, -1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
_CORNERS = {2: _CORNERS_2D, 3: _CORNERS_3D}

# Engineering shear strains gyz, gxz, gxy: tensor Voigt slot -> axis pair.
# A dimension keeps the pairs whose axes it has.
_SHEAR_PAIRS = {3: (1, 2), 4: (0, 2), 5: (0, 1)}


@dataclass(frozen=True)
class QuadratureRule:
    """Full Gauss rule (2 points per axis) on the reference element."""

    points: np.ndarray   # (nq, dim) local coordinates
    weights: np.ndarray  # (nq,) reference-volume weights


def quadrature(dimension: int) -> QuadratureRule:
    """2-point Gauss rule per axis, exact for bi/trilinear products.

    Point ordering is lexicographic over the axes (first axis fastest).
    """
    if dimension not in (2, 3):
        raise ValueError(f"unsupported dimension {dimension}")
    g = 1.0 / np.sqrt(3.0)
    axis = np.array([-g, g])
    grids = np.meshgrid(*([axis] * dimension), indexing="ij")
    # first axis fastest -> transpose the meshgrid stacking order
    pts = np.stack([grid.T.ravel() for grid in grids], axis=1)
    return QuadratureRule(points=pts, weights=np.ones(len(pts)))


def shape_values(dimension: int, local_point) -> tuple[np.ndarray, np.ndarray]:
    """Shape function values and reference gradients at one local point.

    Returns
    -------
    values : (nen,) array, partition of unity.
    gradients : (nen, dim) array, rows sum to the zero vector.
    """
    xi = np.asarray(local_point, dtype=float)
    if dimension not in _CORNERS:
        raise ValueError(f"unsupported dimension {dimension}")
    corners = _CORNERS[dimension]
    # N_a = prod_k (1 + xi_k * c_ak) / 2^dim
    terms = 1.0 + corners * xi[None, :]          # (nen, dim)
    values = terms.prod(axis=1) / 2.0**dimension
    gradients = np.empty_like(corners)
    for k in range(dimension):
        others = np.delete(terms, k, axis=1).prod(axis=1)
        gradients[:, k] = corners[:, k] * others / 2.0**dimension
    return values, gradients


@dataclass
class Mesh:
    """Conforming structured grid of quads (2D) or hexes (3D).

    The mesh owns its layout, ``elem_udofs`` (element DOF table) and
    ``voigt_rows`` (tensor Voigt slot of each engineering strain row), and
    precomputed per-element, per-quadrature-point geometry: ``dN_dx``
    (physical shape gradients), ``w_detj`` (weight times Jacobian
    determinant) and ``b_u`` (engineering strain-displacement matrices).
    These arrays are never mutated after construction; named node sets are
    the only post-construction additions.

    ``scatter`` and ``assemble`` sum element arrays into global vectors and
    CSR matrices; ``assemble`` fills one ``CsrPattern`` per pair of block
    widths, built on first use and cached.  ``band_pattern`` builds the
    scatter into the lower band of a matrix on the global indices it is
    given, which ``structured_order`` (cached) keeps narrow.  The mesh's own
    operators, ``mass_matrix`` (int N_a N_b) and ``laplace_matrix`` (int
    grad N_a . grad N_b), are assembled on first use and cached.
    """

    dimension: int
    counts: tuple[int, ...]
    extents: tuple[float, ...]
    coords: np.ndarray            # (n_nodes, dim)
    conn: np.ndarray              # (n_elems, nen)
    node_sets: dict[str, np.ndarray] = field(default_factory=dict)

    # geometry caches, filled by build_structured_mesh
    quad_rule: QuadratureRule = None
    shape_n: np.ndarray = None    # (nq, nen)
    dn_dx: np.ndarray = None      # (n_elems, nq, nen, dim)
    w_detj: np.ndarray = None     # (n_elems, nq)
    b_u: np.ndarray = None        # (n_elems, nq, len(voigt_rows), nen*dim)

    # layout, derived from dimension and conn
    elem_udofs: np.ndarray = field(init=False)   # (n_elems, nen*dim)
    voigt_rows: np.ndarray = field(init=False)   # [0, 1, 5] / [0, ..., 5]
    # CSR patterns of ``assemble``, by (row width, column width)
    _csr_patterns: dict = field(init=False, default_factory=dict,
                                repr=False, compare=False)

    def __post_init__(self):
        self.elem_udofs = self.udofs_of(self.conn.ravel()).reshape(
            self.n_elems, -1)
        shear = [slot for slot, (_, j) in _SHEAR_PAIRS.items()
                 if j < self.dimension]
        self.voigt_rows = np.array(list(range(self.dimension)) + shear)

    @property
    def n_nodes(self) -> int:
        return self.coords.shape[0]

    @property
    def n_elems(self) -> int:
        return self.conn.shape[0]

    @property
    def nodes_per_elem(self) -> int:
        return self.conn.shape[1]

    @property
    def n_udof(self) -> int:
        return self.dimension * self.n_nodes

    def udofs_of(self, nodes, component=None):
        """Global displacement DOF indices for the given nodes.

        With ``component`` None all components are returned, interleaved
        (node-major).
        """
        nodes = np.asarray(nodes, dtype=int)
        if component is None:
            return (nodes[:, None] * self.dimension
                    + np.arange(self.dimension)[None, :]).ravel()
        return nodes * self.dimension + component

    def total_volume(self) -> float:
        return float(self.w_detj.sum())

    def interpolate(self, nodal: np.ndarray) -> np.ndarray:
        """Nodal scalar field -> values at all quadrature points (n_elems, nq)."""
        return np.einsum("qa,ea->eq", self.shape_n, nodal[self.conn])

    def qp_gradient(self, nodal: np.ndarray) -> np.ndarray:
        """Nodal scalar field -> gradients at quadrature points (n_elems, nq, dim)."""
        return np.einsum("eqad,ea->eqd", self.dn_dx, nodal[self.conn])

    def _element_index(self, width: int):
        """Global indices and their count for element arrays of ``width``
        entries: ``conn`` for one per node, ``elem_udofs`` for one per DOF."""
        if width == self.nodes_per_elem:
            return self.conn, self.n_nodes
        if width == self.elem_udofs.shape[1]:
            return self.elem_udofs, self.n_udof
        raise ValueError(f"element arrays of width {width} match neither "
                         f"the nodes nor the DOFs of an element")

    def scatter(self, *element_values) -> np.ndarray:
        """Sum element vectors ``(n_elems, width)`` into one global vector.

        One ``np.bincount`` over the arrays concatenated in the order given:
        it adds the entries one after another, as ``np.add.at`` into zeros
        would array by array, so the sums are the same to the bit."""
        index, size = self._element_index(element_values[0].shape[1])
        if len(element_values) > 1:
            index = np.tile(index, (len(element_values), 1))
        return np.bincount(index.ravel(),
                           weights=np.concatenate(element_values).ravel(),
                           minlength=size)

    def assemble(self, blocks: np.ndarray) -> sp.csr_matrix:
        """Sum element blocks ``(n_elems, rows, cols)`` into a CSR matrix;
        rows and columns each index nodes or DOFs by their width.

        The matrix is filled through the ``csr_pattern`` of its two widths,
        so its data, indices and indptr equal, bit for bit, those of the
        COO matrix of the element entries converted by ``tocsr`` (but for
        the sign of a zero that only -0.0 entries sum to); every
        element-pair entry is stored, zeros included."""
        return self.csr_pattern(blocks.shape[1], blocks.shape[2]).fill(blocks)

    def csr_pattern(self, row_width: int, col_width: int) -> "CsrPattern":
        """The CSR pattern of element blocks with ``row_width`` rows and
        ``col_width`` columns, built on first use and cached."""
        key = (row_width, col_width)
        if key not in self._csr_patterns:
            rows, cols, order, shape = self._summation(row_width, col_width)
            first = np.ones(order.size, dtype=bool)
            first[1:] = ((rows[order[1:]] != rows[order[:-1]])
                         | (cols[order[1:]] != cols[order[:-1]]))
            # tocsr's own structure, so the index dtype is scipy's choice too
            csr = sp.coo_matrix((np.ones(order.size), (rows, cols)),
                                shape=shape).tocsr()
            for array in (csr.indices, csr.indptr):
                array.flags.writeable = False
            self._csr_patterns[key] = CsrPattern(
                order=order, slots=np.cumsum(first) - 1, indices=csr.indices,
                indptr=csr.indptr, shape=shape)
        return self._csr_patterns[key]

    def band_pattern(self, order, width: int) -> "BandPattern":
        """The ``BandPattern`` of element matrices ``(n_elems, width,
        width)``, restricted and permuted to the global indices ``order``:
        the indices left out of ``order`` are eliminated.  Built afresh on
        every call; the caller keeps it.

        The kept entries are listed in the order ``tocsr`` sums them, so the
        band repeats the CSR values (and so the rounding) of ``assemble``.
        """
        rows, cols, summation, (size, _) = self._summation(width, width)
        position = np.full(size, -1)
        position[order] = np.arange(order.size)
        row = position[rows[summation]]
        col = position[cols[summation]]
        keep = (row >= col) & (col >= 0)
        offset = row[keep] - col[keep]
        band_width = int(offset.max(initial=0)) + 1
        return BandPattern(order=order, entries=summation[keep],
                           slots=col[keep] * band_width + offset,
                           bandwidth=band_width - 1)

    def _summation(self, row_width: int, col_width: int):
        """Global row ``rows`` and column ``cols`` of every entry ``[e, a,
        b]`` of flattened element blocks of the two widths, the entries'
        positions in the order in which ``tocsr`` adds up duplicates (rows
        filled in input order, then scipy's own per-row sort of the column
        indices) and the matrix shape."""
        row_idx, n_rows = self._element_index(row_width)
        col_idx, n_cols = self._element_index(col_width)
        rows = np.repeat(row_idx, col_idx.shape[1], axis=1).ravel()
        cols = np.tile(col_idx, (1, row_idx.shape[1])).ravel()
        by_row = np.argsort(rows, kind="stable")
        indptr = np.concatenate(([0], np.cumsum(np.bincount(
            rows, minlength=n_rows))))
        unsummed = sp.csr_matrix((by_row.astype(float), cols[by_row], indptr),
                                 shape=(n_rows, n_cols))
        unsummed.sort_indices()
        return rows, cols, unsummed.data.astype(np.intp), (n_rows, n_cols)

    @cached_property
    def structured_order(self) -> np.ndarray:
        """Nodes sorted by coordinate, the axis with the most elements
        slowest and the one with the fewest fastest (ties keep the mesh's
        own order); read-only.

        On an ``nx`` x ``ny`` grid with ``ny <= nx`` the node half-bandwidth
        of a Q1 matrix is then ``ny + 2``, against ``nx + 2`` in the mesh's
        own x-fastest numbering (Cuthill & McKee 1969)."""
        axes = np.argsort(self.counts, kind="stable")
        order = np.lexsort(self.coords[:, axes].T)
        order.flags.writeable = False
        return order

    @cached_property
    def mass_matrix(self) -> sp.csr_matrix:
        return self.assemble(np.einsum("eq,qa,qb->eab", self.w_detj,
                                       self.shape_n, self.shape_n))

    @cached_property
    def laplace_matrix(self) -> sp.csr_matrix:
        return self.assemble(np.einsum("eq,eqad,eqbd->eab", self.w_detj,
                                       self.dn_dx, self.dn_dx))


@dataclass(frozen=True)
class CsrPattern:
    """Where each entry of flattened element blocks lands in a CSR matrix.

    ``order`` lists the entries in the order ``tocsr`` sums them and
    ``slots`` the position of each in ``data``, nondecreasing; ``indices``
    and ``indptr`` are the ones ``tocsr`` builds, index dtype included.
    They are read-only: every matrix ``fill`` returns shares them.
    """

    order: np.ndarray
    slots: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    def fill(self, blocks: np.ndarray) -> sp.csr_matrix:
        """The CSR matrix the element ``blocks`` sum to.  ``np.bincount``
        adds each slot's entries one after another in ``order``, as
        ``tocsr`` does, but starting from +0.0."""
        data = np.bincount(self.slots, weights=blocks.reshape(-1)[self.order],
                           minlength=self.indices.size)
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=self.shape)


@dataclass(frozen=True)
class BandPattern:
    """Scatter of element matrices into the lower band of an SPD matrix.

    Band row/column ``k`` is global index ``order[k]`` (a free DOF or a
    node); indices outside ``order`` are eliminated.  ``entries`` picks the
    lower-triangle entries of the flattened element matrices and ``slots``
    gives the flat position of each in the C-ordered ``(n, bandwidth + 1)``
    transpose of LAPACK's lower band storage, so ``assemble`` returns the
    Fortran-ordered array LAPACK works on, with no transposing copy.
    """

    order: np.ndarray
    entries: np.ndarray
    slots: np.ndarray
    bandwidth: int

    def assemble(self, blocks: np.ndarray) -> np.ndarray:
        """Lower band, shape ``(bandwidth + 1, n)``, of the matrix the
        element ``blocks`` sum to; its entry ``[i - j, j]`` is ``A[i, j]``.
        Only the lower triangle is read, so the matrix is taken symmetric.
        Each entry equals, bit for bit, the one ``Mesh.assemble`` sums from
        the same blocks."""
        n = self.order.size
        band = np.bincount(self.slots,
                           weights=blocks.reshape(-1)[self.entries],
                           minlength=n * (self.bandwidth + 1))
        return band.reshape(n, self.bandwidth + 1).T


def build_structured_mesh(dimension: int, counts, extents) -> Mesh:
    """Build a conforming structured grid over the box [0, L1] x ... .

    Parameters
    ----------
    dimension : 2 or 3.
    counts : elements per axis, each >= 1.
    extents : box edge lengths per axis, each > 0.
    """
    counts = tuple(int(c) for c in counts)
    extents = tuple(float(e) for e in extents)
    if dimension not in (2, 3):
        raise ValueError(f"unsupported dimension {dimension}")
    if len(counts) != dimension or len(extents) != dimension:
        raise ValueError("counts/extents length must equal dimension")
    if any(c < 1 for c in counts):
        raise ValueError(f"element counts must be >= 1, got {counts}")
    if not all(0.0 < e < np.inf for e in extents):
        raise ValueError(f"extents must be finite and > 0, got {extents}")

    axes = [np.linspace(0.0, extents[k], counts[k] + 1) for k in range(dimension)]
    grids = np.meshgrid(*axes, indexing="ij")
    # lexicographic: x fastest
    coords = np.stack([g.T.ravel() for g in grids], axis=1)

    # element origins in the same order, plus one node offset per corner
    nodes = np.arange(len(coords)).reshape([c + 1 for c in counts[::-1]])
    origins = nodes[(slice(-1),) * dimension].ravel()
    strides = np.cumprod([1] + [c + 1 for c in counts[:-1]])
    offsets = (_CORNERS[dimension] > 0) @ strides
    conn = origins[:, None] + offsets[None, :]

    mesh = Mesh(dimension=dimension, counts=counts, extents=extents,
                coords=coords, conn=conn)
    _precompute_geometry(mesh)
    return mesh


def _precompute_geometry(mesh: Mesh) -> None:
    rule = quadrature(mesh.dimension)
    nq = len(rule.weights)
    nen = mesh.nodes_per_elem
    dim = mesh.dimension

    shape_n = np.empty((nq, nen))
    dn_dxi = np.empty((nq, nen, dim))
    for q in range(nq):
        shape_n[q], dn_dxi[q] = shape_values(dim, rule.points[q])

    elem_coords = mesh.coords[mesh.conn]                     # (ne, nen, dim)
    # J_qp[e, q, i, j] = d x_i / d xi_j
    jac = np.einsum("qak,eai->eqik", dn_dxi, elem_coords)
    detj = np.linalg.det(jac)
    if np.any(detj <= 0.0):
        raise ValueError("non-positive Jacobian determinant in mesh")
    jinv = np.linalg.inv(jac)
    dn_dx = np.einsum("qak,eqki->eqai", dn_dxi, jinv)
    w_detj = detj * rule.weights[None, :]

    # b[e, q, row, a, i]: normal rows dN_a/dx_i at component i, shear row
    # of pair (i, j) dN_a/dx_j at component i and dN_a/dx_i at component j
    b = np.zeros((mesh.n_elems, nq, len(mesh.voigt_rows), nen, dim))
    for i in range(dim):
        b[:, :, i, :, i] = dn_dx[..., i]
    for row, slot in enumerate(mesh.voigt_rows[dim:], start=dim):
        i, j = _SHEAR_PAIRS[slot]
        b[:, :, row, :, i] = dn_dx[..., j]
        b[:, :, row, :, j] = dn_dx[..., i]

    mesh.quad_rule = rule
    mesh.shape_n = shape_n
    mesh.dn_dx = dn_dx
    mesh.w_detj = w_detj
    mesh.b_u = b.reshape(mesh.n_elems, nq, -1, nen * dim)


def tag_box(mesh: Mesh, bounds, name: str, tol: float = 1e-9) -> Mesh:
    """Tag nodes inside an axis-aligned box given as (min, max) per axis."""
    bounds = np.asarray(bounds, dtype=float).reshape(mesh.dimension, 2)
    lo = bounds[:, 0] - tol
    hi = bounds[:, 1] + tol
    mask = np.all((mesh.coords >= lo) & (mesh.coords <= hi), axis=1)
    if name in mesh.node_sets:
        raise ValueError(f"node set {name!r} already defined")
    nodes = np.flatnonzero(mask)
    if nodes.size == 0:
        warnings.warn(f"region {name!r} matched no nodes", stacklevel=2)
    mesh.node_sets[name] = nodes
    return mesh
