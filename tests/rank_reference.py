"""Reference rank: Gauss-Jordan elimination over `fractions.Fraction`.

`corr._rational_rank` eliminates over Python ints without fractions
(Bareiss).  This module keeps the fraction elimination it replaced, so the
two can be checked against each other.
"""

from __future__ import annotations

from fractions import Fraction


def rational_rank(rows) -> int:
    """Exact rank over Q by fraction-arithmetic Gaussian elimination."""
    m = [[Fraction(v) for v in row] for row in rows]
    if not m:
        return 0
    cols = len(m[0])
    rank = 0
    pivot_row = 0
    for col in range(cols):
        pivot = next((rr for rr in range(pivot_row, len(m)) if m[rr][col]), None)
        if pivot is None:
            continue
        m[pivot_row], m[pivot] = m[pivot], m[pivot_row]
        lead = m[pivot_row][col]
        m[pivot_row] = [v / lead for v in m[pivot_row]]
        for rr in range(len(m)):
            if rr != pivot_row and m[rr][col]:
                f = m[rr][col]
                m[rr] = [a - f * b for a, b in zip(m[rr], m[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(m):
            break
    return rank
