"""The per-pair variance loop: the reference the array analytics are checked against.

:func:`variance_loop` sums T_ij^2 / (p_i q_{j|i}) one ordered pair at a
time, through the scalar accessors ``p(i)`` and ``q(i, j)`` and the
``per_edge`` mapping, in the order the library's array sum must name
in its support-violation error.  Nothing here is used by the library.
"""

from __future__ import annotations

from typing import Callable

from trisample import TriangleProfile


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
