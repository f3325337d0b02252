import functools
import itertools

import numpy as np
import pytest

import trisample
from trisample import Graph, SampleStreams, cli, estimator, exact

PAW_EDGES = [(0, 1), (0, 2), (1, 2), (2, 3)]
K3_EDGES = [(0, 1), (0, 2), (1, 2)]
K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
PATH3_EDGES = [(0, 1), (1, 2)]  # triangle-free
# two disjoint triangles and an isolated vertex: 7 vertices, the profile of no other fixture
TWO_TRIANGLES_EDGES = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]


@pytest.fixture
def paw() -> Graph:
    return Graph.from_edges(PAW_EDGES)


@pytest.fixture
def k3() -> Graph:
    return Graph.from_edges(K3_EDGES)


@pytest.fixture
def k4() -> Graph:
    return Graph.from_edges(K4_EDGES)


@pytest.fixture
def path3() -> Graph:
    return Graph.from_edges(PATH3_EDGES)


def without_pairs_draws(seed_streams):
    """``seed_streams`` whose pairs substream fails any draw: for checking
    that a run's estimate does not depend on it."""

    class NoDraws:
        def __getattr__(self, name):
            raise AssertionError(f"the pairs substream was used: {name}")

    return lambda seed: SampleStreams(seed_streams(seed).vertices, NoDraws())


def stream_pairs(source):
    """One pass over an edge stream as (u, v) int tuples, read through its arrays."""
    for edges in source.arrays():
        yield from map(tuple, edges.tolist())


def gnp_edges(n: int, p: float, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Erdos-Renyi edge list; vectorized so big test graphs stay cheap."""
    iu, ju = np.triu_indices(n, k=1)
    mask = rng.random(iu.size) < p
    return list(zip(iu[mask].tolist(), ju[mask].tolist()))


def gnp_graph(n: int, p: float, rng: np.random.Generator) -> Graph:
    return Graph.from_edges(gnp_edges(n, p, rng), n=n)


def chung_lu_graph(n: int, m: int, rng: np.random.Generator, gamma: float = 2.5) -> Graph:
    """Power-law expected degrees: ``m`` draws of both endpoints in proportion
    to ``(k + 1) ** (-1 / (gamma - 1))``, without loops and repeats; hubs
    at the low ids."""
    weights = (np.arange(n) + 1.0) ** (-1.0 / (gamma - 1.0))
    u, v = rng.choice(n, size=(2, m), p=weights / weights.sum())
    pairs = np.sort(np.stack([u, v], axis=1)[u != v], axis=1)
    return Graph.from_edges(np.unique(pairs, axis=0), n=n)


def hub_graph(n: int, p: float, hub_degree: int, rng: np.random.Generator) -> Graph:
    """G(n, p) plus edges from vertex 0 to ``hub_degree`` random others."""
    edges = set(gnp_edges(n, p, rng))
    edges |= {(0, int(j)) for j in rng.choice(np.arange(1, n), size=hub_degree, replace=False)}
    return Graph.from_edges(sorted(edges), n=n)


def brute_force_triangles(n: int, edges: list[tuple[int, int]]) -> int:
    """Independent triple-enumeration oracle, built straight from the edge list."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    count = 0
    for a, b, c in itertools.combinations(range(n), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            count += 1
    return count


def _cross_checked(count_exact):
    """``count_exact`` that checks the total of every graph with n <= 50
    against :func:`brute_force_triangles`."""

    @functools.wraps(count_exact)
    def checked(g: Graph):
        profile = count_exact(g)
        if g.n <= 50:
            if profile.total != brute_force_triangles(g.n, g.edge_array().tolist()):
                raise AssertionError("wedge-closure count disagrees with triple enumeration")
        return profile

    return checked


# Every small graph the suite counts, through the library's own callers
# too, is cross-checked by triple enumeration.
_checked_count_exact = _cross_checked(exact.count_exact)
for _module in (trisample, exact, estimator, cli):
    _module.count_exact = _checked_count_exact


def brute_force_local_counts(n: int, edges: list[tuple[int, int]]):
    """Independent per-vertex / per-edge local counts from the raw edge list."""
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    per_vertex = [0] * n
    per_edge = {}
    for u, v in edges:
        key = (min(u, v), max(u, v))
        per_edge[key] = sum(1 for d in range(n) if d in adj[u] and d in adj[v])
    for a, b, c in itertools.combinations(range(n), 3):
        if b in adj[a] and c in adj[a] and c in adj[b]:
            per_vertex[a] += 1
            per_vertex[b] += 1
            per_vertex[c] += 1
    return per_vertex, per_edge
