"""Reference triangle oracle that shares no code with trisample.

Local counts come from the sparse product ``(A @ A) ∘ A``: entry
``(i, j)`` is ``|N(i) ∩ N(j)|`` on every edge and zero elsewhere.  Rows
are processed in blocks so the product never holds more than a few
million entries.  From the local counts follow T, T_i, T_ij, the
single-trial variance of each sampler (the closed forms of the README,
evaluated in exact rational arithmetic) and the trial count s_ε that
reaches relative error ε at 95% confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

Z_95 = 1.96
EPSILON = 0.1
BLOCK_WORK = 500_000  # bound on the entries of one block of A @ A

KINDS = ("qopt-uniform", "qopt-degree", "edge-uniform", "edge-degree")


@dataclass(frozen=True)
class Reference:
    """Exact triangle structure of one graph, computed without trisample."""

    n: int
    m: int
    total: int
    per_vertex: np.ndarray  # T_i
    edge_rows: np.ndarray  # (i, j, T_ij) for each edge, i < j
    edge_cols: np.ndarray
    edge_counts: np.ndarray
    var1: dict  # kind -> variance of a single trial (float)

    def variance(self, kind: str, s: int) -> float:
        return self.var1[kind] / s

    def s_eps(self, kind: str, epsilon: float = EPSILON) -> int:
        """Trials for relative error ``epsilon`` at 95% confidence."""
        return max(1, math.ceil(Z_95**2 * self.var1[kind] / (epsilon * self.total) ** 2))


def reference_counts(edges: np.ndarray, n: int) -> Reference:
    """Exact T, T_i, T_ij and closed-form variances for canonical ``edges``."""
    m = len(edges)
    rows = np.concatenate([edges[:, 0], edges[:, 1]])
    cols = np.concatenate([edges[:, 1], edges[:, 0]])
    adj = sp.csr_matrix((np.ones(2 * m, dtype=np.int64), (rows, cols)), shape=(n, n))
    degrees = np.diff(adj.indptr)
    row_work = adj @ degrees.astype(np.int64)
    bounds = [0]
    acc = 0
    for i, w in enumerate(row_work.tolist()):
        if acc and acc + w > BLOCK_WORK:
            bounds.append(i)
            acc = 0
        acc += w
    bounds.append(n)

    twice_per_vertex = np.zeros(n, dtype=np.int64)
    sq_per_vertex = np.zeros(n, dtype=np.int64)  # sum over j of T_ij^2
    out_rows, out_cols, out_counts = [], [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        block = adj[lo:hi]
        local = (block @ adj).multiply(block).tocoo()
        r = local.row.astype(np.int64) + lo
        c = local.col.astype(np.int64)
        v = local.data.astype(np.int64)
        twice_per_vertex += np.bincount(r, weights=v, minlength=n).astype(np.int64)
        sq_per_vertex += np.bincount(r, weights=v * v, minlength=n).astype(np.int64)
        upper = r < c
        out_rows.append(r[upper])
        out_cols.append(c[upper])
        out_counts.append(v[upper])
    per_vertex = twice_per_vertex // 2
    total = int(per_vertex.sum()) // 3

    t_sq = Fraction(total * total)
    tri = per_vertex.tolist()
    deg = degrees.tolist()
    sq = sq_per_vertex.tolist()
    var1 = {
        "qopt-uniform": Fraction(n, 9) * sum(t * t for t in tri) - t_sq,
        "qopt-degree": Fraction(2 * m, 9) * sum(Fraction(t * t, d) for t, d in zip(tri, deg) if t)
        - t_sq,
        "edge-uniform": Fraction(n, 36) * sum(d * q for d, q in zip(deg, sq)) - t_sq,
        "edge-degree": Fraction(m, 18) * sum(sq) - t_sq,
    }
    return Reference(
        n=n,
        m=m,
        total=total,
        per_vertex=per_vertex,
        edge_rows=np.concatenate(out_rows),
        edge_cols=np.concatenate(out_cols),
        edge_counts=np.concatenate(out_counts),
        var1={k: float(v) for k, v in var1.items()},
    )
