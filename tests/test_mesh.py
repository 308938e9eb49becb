import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from fractop import mesh as fm
from fractop.forward import strain_tensor6


def test_single_quad_element():
    m = fm.build_structured_mesh(2, [1, 1], [1.0, 1.0])
    assert m.n_nodes == 4
    assert m.n_elems == 1


def test_two_hex_elements():
    m = fm.build_structured_mesh(3, [2, 1, 1], [2.0, 1.0, 1.0])
    assert m.n_nodes == 12
    assert m.n_elems == 2


def test_beam_mesh_counts_lexicographic():
    m = fm.build_structured_mesh(2, [20, 8], [8.0, 2.0])
    assert m.n_nodes == 21 * 9
    assert m.n_elems == 160
    # lexicographic node ordering: x fastest
    assert np.allclose(m.coords[1] - m.coords[0], [0.4, 0.0])
    assert np.allclose(m.coords[21] - m.coords[0], [0.0, 0.25])
    span = m.coords[m.conn[0]].max(axis=0) - m.coords[m.conn[0]].min(axis=0)
    assert np.allclose(span, [0.4, 0.25])


@pytest.mark.parametrize("args", [
    (2, [0, 1], [1, 1]),
    (2, [1, 1], [1, -1]),
    (2, [1, 1], [0, 1]),
    (4, [1, 1, 1, 1], [1, 1, 1, 1]),
])
def test_invalid_mesh_arguments(args):
    with pytest.raises(ValueError):
        fm.build_structured_mesh(*args)


def test_bilinear_center_and_corner():
    vals, _ = fm.shape_values(2, [0.0, 0.0])
    assert np.allclose(vals, 0.25)
    vals, _ = fm.shape_values(2, [-1.0, -1.0])
    assert np.allclose(vals, [1.0, 0.0, 0.0, 0.0])


def test_trilinear_center():
    vals, _ = fm.shape_values(3, [0.0, 0.0, 0.0])
    assert np.allclose(vals, 0.125)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=3),
       st.lists(st.floats(min_value=-1.0, max_value=1.0), min_size=3,
                max_size=3))
def test_partition_of_unity(dim, point):
    vals, grads = fm.shape_values(dim, point[:dim])
    assert abs(vals.sum() - 1.0) < 1e-12
    assert np.abs(grads.sum(axis=0)).max() < 1e-12


def test_quadrature_rules():
    q2 = fm.quadrature(2)
    assert len(q2.weights) == 4
    assert np.allclose(np.abs(q2.points), 1.0 / np.sqrt(3.0))
    assert np.allclose(q2.weights, 1.0)
    assert q2.weights.sum() == pytest.approx(4.0)
    q3 = fm.quadrature(3)
    assert len(q3.weights) == 8
    assert q3.weights.sum() == pytest.approx(8.0)
    with pytest.raises(ValueError):
        fm.quadrature(1)


@pytest.mark.parametrize("dim,counts,extents", [
    (2, [3, 2], [1.5, 2.0]),
    (3, [2, 3, 2], [1.0, 1.5, 0.5]),
])
def test_integrating_one_gives_box_volume(dim, counts, extents):
    m = fm.build_structured_mesh(dim, counts, extents)
    assert m.total_volume() == pytest.approx(np.prod(extents), rel=1e-12)


def test_isoparametric_corners_reproduce_nodes():
    m = fm.build_structured_mesh(2, [2, 2], [2.0, 1.0])
    corners = fm._CORNERS_2D
    for e in range(m.n_elems):
        for a in range(4):
            vals, _ = fm.shape_values(2, corners[a])
            mapped = vals @ m.coords[m.conn[e]]
            assert np.allclose(mapped, m.coords[m.conn[e, a]])


def test_hexahedron_corners_in_vtk_order():
    extents = np.array([1.0, 2.0, 3.0])
    m = fm.build_structured_mesh(3, [1, 1, 1], extents)
    vtk_hexahedron = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
                               [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1]])
    assert np.array_equal((fm._CORNERS_3D + 1) / 2, vtk_hexahedron)
    assert np.array_equal(m.coords[m.conn[0]],
                          (fm._CORNERS_3D + 1) / 2 * extents)


@pytest.mark.parametrize("dim,counts,extents,rows", [
    (2, [3, 2], [1.5, 2.0], [0, 1, 5]),
    (3, [2, 3, 2], [1.0, 1.5, 0.5], [0, 1, 2, 3, 4, 5]),
])
def test_affine_displacement_gives_symmetric_gradient(dim, counts, extents,
                                                      rows):
    # u = G x: every quadrature point sees sym(G), tensor shear components
    # (half the engineering shear) at the tensor Voigt slots
    m = fm.build_structured_mesh(dim, counts, extents)
    assert m.voigt_rows.tolist() == rows
    assert np.array_equal(m.elem_udofs[-1], m.udofs_of(m.conn[-1]))
    grad = np.random.default_rng(1).uniform(-1.0, 1.0, (dim, dim))
    u = (m.coords @ grad.T).ravel()
    sym = np.zeros((3, 3))
    sym[:dim, :dim] = 0.5 * (grad + grad.T)
    voigt = [sym[0, 0], sym[1, 1], sym[2, 2], sym[1, 2], sym[0, 2], sym[0, 1]]
    eps = strain_tensor6(m, u)
    assert np.abs(eps - voigt).max() <= 1e-14


def test_tag_region_empty_warns():
    m = fm.build_structured_mesh(2, [1, 1], [1.0, 1.0])
    with pytest.warns(UserWarning):
        fm.tag_box(m, [(2.0, 3.0), (2.0, 3.0)], "nothing")
    assert m.node_sets["nothing"].size == 0


def test_tag_region_duplicate_name_rejected():
    m = fm.build_structured_mesh(2, [1, 1], [1.0, 1.0])
    fm.tag_box(m, [(0.0, 1.0), (0.0, 1.0)], "all")
    with pytest.raises(ValueError):
        fm.tag_box(m, [(0.0, 1.0), (0.0, 1.0)], "all")


def test_tag_loaded_band_on_beam_top():
    # band 3 <= x <= 5 on the top edge of the bend-beam analog
    m = fm.build_structured_mesh(2, [20, 8], [8.0, 2.0])
    fm.tag_box(m, [(3.0, 5.0), (2.0, 2.0)], "load")
    nodes = m.node_sets["load"]
    # node spacing 0.4: x in {3.2, 3.6, 4.0, 4.4, 4.8}
    assert nodes.size == 5
    assert np.all(m.coords[nodes, 1] == 2.0)
    assert np.all((m.coords[nodes, 0] >= 3.0) & (m.coords[nodes, 0] <= 5.0))


def test_positive_jacobians_cached():
    m = fm.build_structured_mesh(3, [2, 2, 2], [1.0, 1.0, 1.0])
    assert np.all(m.w_detj > 0.0)


@pytest.mark.parametrize("dim,counts", [(2, [3, 2]), (3, [2, 1, 2])])
def test_scatter_and_assemble_match_a_dense_element_loop(dim, counts):
    # node x node, DOF x DOF, DOF x node and node x DOF blocks, each against
    # a plain per-element sum
    m = fm.build_structured_mesh(dim, counts, [1.0] * dim)
    rng = np.random.default_rng(4)
    tables = {"node": (m.conn, m.n_nodes), "dof": (m.elem_udofs, m.n_udof)}
    for idx, size in tables.values():
        first, second = rng.normal(size=(2,) + idx.shape)
        dense = np.zeros(size)
        for values in (first, second):      # in order, as np.add.at sums
            for e in range(m.n_elems):
                dense[idx[e]] += values[e]
        assert np.array_equal(m.scatter(first, second), dense)
    for row_idx, n_rows in tables.values():
        for col_idx, n_cols in tables.values():
            blocks = rng.normal(size=(m.n_elems, row_idx.shape[1],
                                      col_idx.shape[1]))
            blocks[1] = 0.0       # exact-zero blocks stay stored entries
            dense = np.zeros((n_rows, n_cols))
            for e in range(m.n_elems):
                dense[np.ix_(row_idx[e], col_idx[e])] += blocks[e]
            csr = m.assemble(blocks)
            assert csr.shape == (n_rows, n_cols)
            assert np.abs(csr.toarray() - dense).max() <= 1e-14
            # the pattern fill gives the bytes of COO -> CSR
            ref = sp.coo_matrix(
                (blocks.ravel(), fm.element_pairs(row_idx, col_idx)),
                shape=(n_rows, n_cols)).tocsr()
            for name in ("data", "indices", "indptr"):
                assert getattr(csr, name).dtype == getattr(ref, name).dtype
                assert np.array_equal(getattr(csr, name),
                                      getattr(ref, name))
            assert csr.nnz == len(set(zip(*fm.element_pairs(row_idx,
                                                            col_idx))))
            assert m.assemble(np.zeros_like(blocks)).nnz == csr.nnz
    assert m.assemble(np.ones((m.n_elems, dim * 2 ** dim, 2 ** dim))
                      ).shape == (m.n_udof, m.n_nodes)
    with pytest.raises(ValueError):
        m.scatter(np.ones((m.n_elems, 3)))


@pytest.mark.parametrize("dim,counts,extents", [
    (2, [3, 2], [1.5, 2.0]),
    (3, [2, 3, 2], [1.0, 1.5, 0.5]),
])
def test_mass_and_laplace_matrices_are_cached_operators(dim, counts, extents):
    m = fm.build_structured_mesh(dim, counts, extents)
    ones = np.ones(m.n_nodes)
    assert ones @ m.mass_matrix @ ones == pytest.approx(np.prod(extents),
                                                        rel=1e-12)
    assert np.abs(m.laplace_matrix @ ones).max() <= 1e-13
    x = m.coords[:, 0]
    # int grad x . grad x = volume
    assert x @ m.laplace_matrix @ x == pytest.approx(np.prod(extents),
                                                     rel=1e-12)
    assert m.mass_matrix is m.mass_matrix
    assert m.laplace_matrix is m.laplace_matrix
