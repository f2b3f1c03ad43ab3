"""Reference structural classes: one nested construction per builder.

`corr` builds identities, ideal inclusions, quotient maps and the one-sided
inverses through one block-map helper, and `dual` as the column tuple.  This
module keeps the constructions they replaced, each with its own nested
generator and `dual` as an index loop, so the two can be checked against each
other.
"""

from __future__ import annotations

from enchilada.algebras import quotient
from enchilada.corr import CorrClass, _columns, _private_units


def identity_corr(a):
    r = a.block_count
    rows = tuple(tuple(1 if i == j else 0 for j in range(r)) for i in range(r))
    return CorrClass._trusted(a, a, rows)


def zero_corr(a, b):
    rows = tuple(tuple(0 for _ in range(b.block_count)) for _ in range(a.block_count))
    return CorrClass._trusted(a, b, rows)


def ideal_inclusion_corr(ideal):
    members = ideal.sorted_members
    s = ideal.parent.block_count
    rows = tuple(tuple(1 if j == m else 0 for j in range(s)) for m in members)
    return CorrClass._trusted(ideal.algebra, ideal.parent, rows)


def quotient_corr(b, ideal):
    survivors = [j for j in range(b.block_count) if j not in ideal.members]
    col_of = {j: c for c, j in enumerate(survivors)}
    rows = tuple(
        tuple(1 if j in col_of and col_of[j] == c else 0 for c in range(len(survivors)))
        for j in range(b.block_count)
    )
    return CorrClass._trusted(b, quotient(b, ideal), rows)


def left_inverse(x):
    picks = _private_units(x.matrix, _columns(x))
    if picks is None:
        return None
    r, s = x.shape
    rows = tuple(tuple(1 if picks[i] == j else 0 for i in range(r)) for j in range(s))
    return CorrClass._trusted(x.target, x.source, rows)


def right_inverse(x):
    picks = _private_units(_columns(x), x.matrix)
    if picks is None:
        return None
    r, s = x.shape
    rows = tuple(tuple(1 if picks[j] == i else 0 for i in range(r)) for j in range(s))
    return CorrClass._trusted(x.target, x.source, rows)


def dual(x):
    # The transpose of any class; corr.dual refuses non-Hilbert-bimodules first.
    r, s = x.shape
    rows = tuple(tuple(x.matrix[i][j] for i in range(r)) for j in range(s))
    return CorrClass._trusted(x.target, x.source, rows)
