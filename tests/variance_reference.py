"""The per-pair variance loops: the references the array analytics are checked against.

:func:`variance_loop` sums T_ij^2 / (p_i q_{j|i}) one ordered pair at a
time, through the scalar accessors ``p(i)`` and ``q(i, j)`` and the
``per_edge`` mapping, in the order the library's array sum must name
in its support-violation error.  :func:`variance_fraction` sums the same
terms in fractions, with each built-in strategy's p and q written out
from the degrees and ``per_edge``: the exact value the closed forms
round once.  Nothing here is used by the library.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from trisample import Graph, TriangleProfile


def variance_loop(
    profile: TriangleProfile,
    p: Callable[[int], float],
    q: Callable[[int, int], float],
    s: int = 1,
) -> float:
    """Generic variance of ``s`` trials for scalar (p, q) accessors."""
    if s < 1:
        raise ValueError("trial count must be at least 1")
    acc = 0.0
    for (i, j), c in profile.per_edge.items():
        if c == 0:
            continue
        for a, b in ((i, j), (j, i)):
            pq = p(a) * q(a, b)
            if pq <= 0.0:
                raise ValueError(
                    f"support violation: pair ({a},{b}) has local count {c} "
                    "but zero draw probability"
                )
            acc += (c * c) / pq
    return (acc / 36.0 - profile.total**2) / s


def variance_fraction(g: Graph, profile: TriangleProfile, kind: str) -> Fraction:
    """Exact single-trial variance of the built-in strategy ``kind``."""
    deg = g.degrees.tolist()
    twice = [0] * g.n  # 2 T_i
    for (i, j), c in profile.per_edge.items():
        twice[i] += c
        twice[j] += c
    p = {
        "optimal": lambda i: Fraction(twice[i], 6 * profile.total),
        "qopt-uniform": lambda i: Fraction(1, g.n),
        "qopt-degree": lambda i: Fraction(deg[i], 2 * g.m),
        "edge-uniform": lambda i: Fraction(1, g.n),
        "edge-degree": lambda i: Fraction(deg[i], 2 * g.m),
    }[kind]

    def q(i, c):  # q_{j|i} of a pair with local count c
        return Fraction(1, deg[i]) if kind.startswith("edge") else Fraction(c, twice[i])

    acc = Fraction(0)
    for (i, j), c in profile.per_edge.items():
        if c:
            acc += sum(Fraction(c * c) / (p(a) * q(a, c)) for a in (i, j))
    return acc / 36 - profile.total**2
