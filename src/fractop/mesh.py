"""Structured quadrilateral/hexahedral meshes with isoparametric bilinear
and trilinear elements.

Node and element numbering is lexicographic (x fastest, then y, then z) so
generated fixtures and output files are bit-stable between runs.  All field
assemblies in the package are driven by the geometry arrays precomputed here
(shape gradients, weighted Jacobian determinants and strain-displacement
matrices at every quadrature point).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

# Reference corner signs.  Ordering matches VTK quad (type 9) / hexahedron
# (type 12) so connectivity can be written to legacy VTK files unchanged.
_CORNERS_2D = np.array(
    [[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
_CORNERS_3D = np.array(
    [[-1.0, -1.0, -1.0], [1.0, -1.0, -1.0], [1.0, 1.0, -1.0], [-1.0, 1.0, -1.0],
     [-1.0, -1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])


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
    corners = _CORNERS_2D if dimension == 2 else _CORNERS_3D
    if dimension not in (2, 3):
        raise ValueError(f"unsupported dimension {dimension}")
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

    The mesh owns precomputed per-element, per-quadrature-point geometry:
    ``dN_dx`` (physical shape gradients), ``w_detj`` (weight times Jacobian
    determinant) and ``b_u`` (engineering strain-displacement matrices).
    These arrays are never mutated after construction; named node sets are
    the only post-construction additions.
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
    b_u: np.ndarray = None        # (n_elems, nq, n_strain, nen*dim)

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
    def n_strain(self) -> int:
        return 3 if self.dimension == 2 else 6

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
    if any(e <= 0.0 for e in extents):
        raise ValueError(f"extents must be > 0, got {extents}")

    axes = [np.linspace(0.0, extents[k], counts[k] + 1) for k in range(dimension)]
    grids = np.meshgrid(*axes, indexing="ij")
    # lexicographic: x fastest
    coords = np.stack([g.T.ravel() for g in grids], axis=1) \
        if dimension == 2 else \
        np.stack([g.transpose(2, 1, 0).ravel() for g in grids], axis=1)

    nx = counts[0]
    ny = counts[1]
    npx, npy = nx + 1, ny + 1
    if dimension == 2:
        i, j = np.meshgrid(np.arange(nx), np.arange(ny), indexing="ij")
        i = i.T.ravel()
        j = j.T.ravel()
        n0 = i + j * npx
        conn = np.stack([n0, n0 + 1, n0 + 1 + npx, n0 + npx], axis=1)
    else:
        nz = counts[2]
        i, j, k = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz),
                              indexing="ij")
        i = i.transpose(2, 1, 0).ravel()
        j = j.transpose(2, 1, 0).ravel()
        k = k.transpose(2, 1, 0).ravel()
        n0 = i + j * npx + k * npx * npy
        lay = npx * npy
        bottom = np.stack([n0, n0 + 1, n0 + 1 + npx, n0 + npx], axis=1)
        conn = np.concatenate([bottom, bottom + lay], axis=1)

    mesh = Mesh(dimension=dimension, counts=counts, extents=extents,
                coords=coords, conn=conn.astype(int))
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

    nstr = mesh.n_strain
    b_u = np.zeros((mesh.n_elems, nq, nstr, nen * dim))
    # engineering Voigt rows: 2D [exx, eyy, gxy]; 3D [exx, eyy, ezz, gyz, gxz, gxy]
    for a in range(nen):
        dx = dn_dx[:, :, a, 0]
        dy = dn_dx[:, :, a, 1]
        if dim == 2:
            b_u[:, :, 0, 2 * a + 0] = dx
            b_u[:, :, 1, 2 * a + 1] = dy
            b_u[:, :, 2, 2 * a + 0] = dy
            b_u[:, :, 2, 2 * a + 1] = dx
        else:
            dz = dn_dx[:, :, a, 2]
            b_u[:, :, 0, 3 * a + 0] = dx
            b_u[:, :, 1, 3 * a + 1] = dy
            b_u[:, :, 2, 3 * a + 2] = dz
            b_u[:, :, 3, 3 * a + 1] = dz
            b_u[:, :, 3, 3 * a + 2] = dy
            b_u[:, :, 4, 3 * a + 0] = dz
            b_u[:, :, 4, 3 * a + 2] = dx
            b_u[:, :, 5, 3 * a + 0] = dy
            b_u[:, :, 5, 3 * a + 1] = dx

    mesh.quad_rule = rule
    mesh.shape_n = shape_n
    mesh.dn_dx = dn_dx
    mesh.w_detj = w_detj
    mesh.b_u = b_u


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
