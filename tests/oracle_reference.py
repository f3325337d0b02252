"""The per-edge intersection oracle: the reference the wedge-closure count is checked against.

:func:`count_exact_reference` counts T_ij = |N(i) ∩ N(j)| for every edge
i < j with the edge samplers' kernel, :func:`common_neighbour_counts`,
in blocks of ``EDGE_BLOCK`` edges, and derives the per-vertex counts and
the total from them.  ``exact.count_exact`` must give the same profile,
array for array.  Nothing here is used by the library.
"""

from __future__ import annotations

import numpy as np

from trisample import Graph, TriangleProfile
from trisample.exact import common_neighbour_counts

# Edges counted per call of common_neighbour_counts; bounds the working
# memory of its _GATHER-entry windows.
EDGE_BLOCK = 1024


def count_exact_reference(g: Graph) -> TriangleProfile:
    """Exact total, per-vertex and per-edge counts, one edge intersection at a time."""
    edges = g.edge_array()
    edge_counts = np.empty(len(edges), dtype=np.int64)
    for lo in range(0, len(edges), EDGE_BLOCK):
        a, b = edges[lo : lo + EDGE_BLOCK].T
        edge_counts[lo : lo + len(a)] = common_neighbour_counts(g, a, b)
    per_vertex = np.zeros(g.n, dtype=np.int64)
    np.add.at(per_vertex, edges[:, 0], edge_counts)
    np.add.at(per_vertex, edges[:, 1], edge_counts)
    if np.any(per_vertex % 2):
        raise AssertionError("local vertex counts must be even before halving")
    per_vertex //= 2
    vertex_sum = int(per_vertex.sum())
    if vertex_sum % 3:
        raise AssertionError("vertex counts must sum to a multiple of 3")
    return TriangleProfile(total=vertex_sum // 3, per_vertex=per_vertex, edges=edges, edge_counts=edge_counts)
