"""Spatial smoothing of the solid sensitivity field and three-iteration
history averaging.

Filtering uses the cubic-exponential weight w = exp(-3 (r / r_min)^3) over
node neighborhoods; the weighted average preserves constants exactly.  Only
the solid part of the sensitivity is filtered, before the volume term is
added.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.spatial import cKDTree

from .mesh import Mesh

# neighbors beyond 2 r_min carry weight < 4e-11 and are truncated
CUTOFF_FACTOR = 2.0


@dataclass
class FilterKernel:
    """Row-normalized sparse smoothing operator on mesh nodes."""

    weights: sp.csr_matrix        # raw weights, self-weight 1 on the diagonal
    row_sums: np.ndarray


def filter_weight(distance, r_min: float):
    """Smooth weight factor exp(-3 (d / r_min)^3)."""
    d = np.asarray(distance, dtype=float)
    return np.exp(-3.0 * (d / r_min) ** 3)


def build_kernel(mesh: Mesh, r_min: float) -> FilterKernel:
    """Assemble neighbor weights for all nodes within the cutoff radius."""
    if r_min <= 0:
        raise ValueError("r_min must be positive")
    tree = cKDTree(mesh.coords)
    cutoff = CUTOFF_FACTOR * r_min
    pairs = tree.query_pairs(cutoff, output_type="ndarray")
    if pairs.size:
        # query_pairs uses strict < cutoff internally for open pairs; enforce
        # the strict cutoff explicitly for determinism at the boundary
        dist = np.linalg.norm(mesh.coords[pairs[:, 0]] - mesh.coords[pairs[:, 1]],
                              axis=1)
        keep = dist < cutoff
        pairs = pairs[keep]
        dist = dist[keep]
        w = filter_weight(dist, r_min)
        rows = np.concatenate([pairs[:, 0], pairs[:, 1],
                               np.arange(mesh.n_nodes)])
        cols = np.concatenate([pairs[:, 1], pairs[:, 0],
                               np.arange(mesh.n_nodes)])
        vals = np.concatenate([w, w, np.ones(mesh.n_nodes)])
    else:
        rows = cols = np.arange(mesh.n_nodes)
        vals = np.ones(mesh.n_nodes)
    weights = sp.coo_matrix((vals, (rows, cols)),
                            shape=(mesh.n_nodes, mesh.n_nodes)).tocsr()
    row_sums = np.asarray(weights.sum(axis=1)).ravel()
    return FilterKernel(weights=weights, row_sums=row_sums)


def filter_field(kernel: FilterKernel, values: np.ndarray) -> np.ndarray:
    """Weighted neighborhood average of a nodal field."""
    values = np.asarray(values, dtype=float)
    if values.shape[0] != kernel.weights.shape[0]:
        raise ValueError("field length does not match kernel")
    return (kernel.weights @ values) / kernel.row_sums


def history_average(current: np.ndarray, history):
    """Average the filtered sensitivity with its two predecessors, the last
    two entries of ``history``, once there are two; until then (the first
    two iterations) return a copy of ``current``."""
    current = np.asarray(current, dtype=float)
    if len(history) < 2:
        return current.copy()
    return (current + history[-1] + history[-2]) / 3.0
