"""The per-pair variance loop: the reference the array analytics are checked against.

:func:`variance_loop` sums T_ij^2 / (p_i q_{j|i}) one ordered pair at a
time, for p and q such as the reference ones of
:mod:`trial_reference`, in the order the library's array sum must name
in its support-violation error.  Given p and q as Fractions, it is the
exact value that the closed forms and the generic sum round once.
Nothing here is used by the library.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from trisample import TriangleProfile


def variance_loop(
    profile: TriangleProfile,
    p: Sequence[Fraction],
    q: Callable[[int, int], Fraction],
) -> Fraction:
    """Single-trial variance for p_i = ``p[i]`` and q_{j|i} = ``q(i, j)``."""
    acc = Fraction(0)
    for (i, j), c in profile.per_edge.items():
        if c == 0:
            continue
        for a, b in ((i, j), (j, i)):
            pq = p[a] * q(a, b)
            if pq <= 0:
                raise ValueError(
                    f"support violation: pair ({a},{b}) has local count {c} "
                    "but zero draw probability"
                )
            acc += c * c / pq
    return acc / 36 - profile.total**2
