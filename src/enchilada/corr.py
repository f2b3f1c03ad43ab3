"""Morphisms as multiplicity matrices, with the categorical constructions.

A correspondence class X : A -> B between algebras with r and s blocks is an
r x s matrix over N ∪ {INF}.  Entry (i, j) counts how many times source
block i appears in the left action on the fiber over target block j.  Two
classes with the same endpoints are isomorphic exactly when their matrices
agree, so equality of CorrClass values is isomorphism.  Under this encoding:

  * composition is matrix multiplication (the balanced tensor product),
  * zero rows of X are the blocks annihilated by the left action (ker phi_X),
  * nonzero columns span the right-support ideal (B_X),
  * partial permutation matrices are exactly the Hilbert bimodules,

and the kernel / cokernel / image constructions below are ideal inclusions
and quotient maps read off from those supports.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .algebras import FdCStarAlgebra, IdealRef, quotient
from .cardinal import INF, card
from .errors import ValidationError

__all__ = [
    "CorrClass",
    "identity_corr",
    "zero_corr",
    "compose",
    "direct_sum",
    "right_support",
    "left_kernel",
    "is_full",
    "phi_injective",
    "tensor_is_zero",
    "ideal_inclusion_corr",
    "quotient_corr",
    "kernel",
    "cokernel",
    "schubert_image",
    "schubert_coimage",
    "is_hilbert_bimodule",
    "is_left_full_hilbert_bimodule",
    "left_inverse",
    "right_inverse",
    "is_split_mono",
    "is_split_epi",
    "is_invertible",
    "dual",
    "restrict_right",
    "factor_through_quotient",
    "mono_finite_rank_test",
    "epi_finite_rank_test",
    "finite_rank_tests",
]

@dataclass(frozen=True)
class CorrClass:
    """The isomorphism class of a nondegenerate correspondence A -> B."""

    source: FdCStarAlgebra
    target: FdCStarAlgebra
    matrix: tuple[tuple[int | float, ...], ...]

    def __post_init__(self):
        r, s = self.source.block_count, self.target.block_count
        rows = tuple(tuple(map(card, row)) for row in self.matrix)
        if len(rows) != r:
            raise ValidationError(f"matrix has {len(rows)} rows, source has {r} blocks")
        for row in rows:
            if len(row) != s:
                raise ValidationError(
                    f"matrix row has {len(row)} entries, target has {s} blocks"
                )
        object.__setattr__(self, "matrix", rows)

    @classmethod
    def _trusted(cls, source, target, rows) -> CorrClass:
        """A class from rows that are already an r x s tuple of tuples of
        entries that `card` accepts; skips the check in __post_init__."""
        x = object.__new__(cls)
        x.__dict__.update(source=source, target=target, matrix=rows)  # frozen only blocks setattr
        return x

    @property
    def shape(self) -> tuple[int, int]:
        return (self.source.block_count, self.target.block_count)

    @property
    def is_zero(self) -> bool:
        """True for the zero morphism: every entry vanishes."""
        return all(not x for row in self.matrix for x in row)

    @property
    def all_finite(self) -> bool:
        return all(INF not in row for row in self.matrix)

    def __repr__(self) -> str:
        body = "[" + ", ".join(
            "[" + ", ".join("INF" if v == INF else _entry_text(v) for v in row) + "]"
            for row in self.matrix
        ) + "]"
        return f"CorrClass({list(self.source.blocks)} -> {list(self.target.blocks)}; {body})"


def _entry_text(v: int) -> str:
    # str() refuses ints beyond sys.get_int_max_str_digits(); hex() does not.
    try:
        return str(v)
    except ValueError:
        return hex(v)


def _block_map(source, target, cols) -> CorrClass:
    """The class with row i the unit vector at column cols[i], zero if None."""
    zero = (0,) * target.block_count
    rows = tuple(zero if j is None else zero[:j] + (1,) + zero[j + 1 :] for j in cols)
    return CorrClass._trusted(source, target, rows)


def identity_corr(a: FdCStarAlgebra) -> CorrClass:
    """The identity morphism: the algebra acting on itself, identity matrix."""
    return _block_map(a, a, range(a.block_count))


def zero_corr(a: FdCStarAlgebra, b: FdCStarAlgebra) -> CorrClass:
    """The zero morphism A -> B."""
    return CorrClass._trusted(a, b, ((0,) * b.block_count,) * a.block_count)


def _total(terms) -> int | float:
    """The sum of non-negative entries.

    Python raises OverflowError when an int beyond float range meets INF in a
    sum or product; the true value is then INF.
    """
    try:
        return sum(terms)
    except OverflowError:
        return INF


# The smallest r·k·s at which compose multiplies an r x k by a k x s matrix
# through numpy, and the smallest r·s: below either the Python loop is faster,
# since numpy converts all (r + s)·k input entries (see DECISIONS.md).
WIDE_COMPOSE_MIN = 216
_WIDE_COMPOSE_MIN_RS = 16
_FLOAT_EXACT = 2.0**53  # every int below it converts to float64 exactly
_INT64_LIMIT = 2**63


def _wide_product(xm, ym, r: int, k: int, s: int):
    """The cardinal product of two non-empty matrices through numpy, as rows
    of Python ints and INF; None when an entry or a sum may not be exact.

    The finite parts multiply as int64; a result entry is INF where a term
    pairs INF with a nonzero entry, which two boolean products find.
    """
    try:
        a = np.fromiter(chain.from_iterable(xm), np.float64, r * k).reshape(r, k)
        b = np.fromiter(chain.from_iterable(ym), np.float64, k * s).reshape(k, s)
    except OverflowError:  # an int beyond float range
        return None
    a_nonzero, b_nonzero = a != 0, b != 0
    a_inf, b_inf = np.isinf(a), np.isinf(b)
    a[a_inf] = 0.0
    b[b_inf] = 0.0
    a_max, b_max = a.max(), b.max()
    # Every entry converted exactly, and no int64 sum of k terms can wrap.
    if max(a_max, b_max) >= _FLOAT_EXACT or int(a_max) * int(b_max) * k >= _INT64_LIMIT:
        return None
    product = a.astype(np.int64) @ b.astype(np.int64)
    inf = (a_inf @ b_nonzero) | (a_nonzero @ b_inf)
    if inf.any():
        product = product.astype(object)  # Python ints, so INF can sit among them
        product[inf] = INF
    return tuple(map(tuple, product.tolist()))


def compose(x: CorrClass, y: CorrClass) -> CorrClass:
    """Composition A -> C of X : A -> B with Y : B -> C (tensor over B).

    The matrix is the cardinal product X.matrix * Y.matrix, where a term
    with a zero factor is skipped: that is the rule INF * 0 = 0.  Products
    of at least WIDE_COMPOSE_MIN terms go through numpy when every entry
    and sum is exact there, unless the result has fewer than 16 entries;
    both paths give the same rows.
    """
    if x.target != y.source:
        raise ValidationError(
            f"cannot compose: first ends at {x.target!r}, second starts at {y.source!r}"
        )
    r, k = x.shape
    s = y.target.block_count
    rows = None
    if r * s >= _WIDE_COMPOSE_MIN_RS and r * k * s >= WIDE_COMPOSE_MIN:
        rows = _wide_product(x.matrix, y.matrix, r, k, s)
    if rows is None:
        cols = _columns(y)
        rows = tuple(
            tuple(_total(a * b for a, b in zip(row, col) if a and b) for col in cols)
            for row in x.matrix
        )
    return CorrClass._trusted(x.source, y.target, rows)


def direct_sum(x: CorrClass, y: CorrClass) -> CorrClass:
    """Entrywise sum of two classes with the same endpoints.

    Not cancellative: INF + 1 and INF + 2 give the same class.
    """
    if x.source != y.source or x.target != y.target:
        raise ValidationError("direct sum requires equal endpoints")
    rows = tuple(
        tuple(map(_total, zip(xr, yr))) for xr, yr in zip(x.matrix, y.matrix)
    )
    return CorrClass._trusted(x.source, x.target, rows)


def right_support(x: CorrClass) -> IdealRef:
    """The ideal B_X of the target spanned by the inner products: nonzero columns."""
    members = frozenset(j for j, col in enumerate(_columns(x)) if any(col))
    return IdealRef._trusted(x.target, members)


def left_kernel(x: CorrClass) -> IdealRef:
    """The kernel of the left-action homomorphism: the all-zero rows."""
    members = frozenset(i for i, row in enumerate(x.matrix) if not any(row))
    return IdealRef._trusted(x.source, members)


def is_full(x: CorrClass) -> bool:
    """True when the right support is all of the target."""
    return right_support(x).is_all


def phi_injective(x: CorrClass) -> bool:
    """True when the left action has trivial kernel (no zero rows)."""
    return left_kernel(x).is_zero


def tensor_is_zero(x: CorrClass, y: CorrClass) -> bool:
    """Vanishing of the composite: the right support of X lies in ker phi_Y.

    Equivalent to compose(x, y) being the zero matrix.
    """
    if x.target != y.source:
        raise ValidationError("tensor_is_zero requires composable classes")
    return right_support(x).members <= left_kernel(y).members


def ideal_inclusion_corr(ideal: IdealRef) -> CorrClass:
    """The inclusion of an ideal as a correspondence from its algebra."""
    return _block_map(ideal.algebra, ideal.parent, ideal.sorted_members)


def quotient_corr(b: FdCStarAlgebra, ideal: IdealRef) -> CorrClass:
    """The quotient map B -> B/I as a correspondence."""
    if ideal.parent != b:
        raise ValidationError("ideal does not belong to this algebra")
    survivors = [j for j in range(b.block_count) if j not in ideal.members]
    col_of = {j: c for c, j in enumerate(survivors)}
    return _block_map(b, quotient(b, ideal), map(col_of.get, range(b.block_count)))


def kernel(x: CorrClass) -> CorrClass:
    """A kernel of X: the inclusion of ker phi_X.

    Composing with X gives zero, and any W with W * X = 0 factors through it
    uniquely (by restricting W to the kernel columns).  The kernel of the
    zero morphism is the identity.
    """
    return ideal_inclusion_corr(left_kernel(x))


def cokernel(x: CorrClass) -> CorrClass:
    """A cokernel of X: the quotient map of the target by the right support B_X.

    The cokernel of the zero morphism is the identity (quotient by the zero
    ideal).
    """
    return quotient_corr(x.target, right_support(x))


def schubert_image(x: CorrClass) -> CorrClass:
    """The kernel of the cokernel of X: the inclusion of B_X."""
    return ideal_inclusion_corr(right_support(x))


def schubert_coimage(x: CorrClass) -> CorrClass:
    """The cokernel of the kernel of X: the quotient by ker phi_X."""
    return quotient_corr(x.source, left_kernel(x))


def is_hilbert_bimodule(x: CorrClass) -> bool:
    """True when the class carries a compatible left inner product.

    At finite dimension this happens exactly when the matrix is a partial
    permutation: 0/1 entries with at most one 1 per row and per column.
    Then the supported source blocks act irreducibly on disjoint fibers, so
    the left action maps an ideal isomorphically onto the compact operators
    of the module.
    """
    col_ones = [0] * x.target.block_count
    for row in x.matrix:
        row_ones = 0
        for j, v in enumerate(row):
            if v == 1:
                row_ones += 1
                col_ones[j] += 1
            elif v:
                return False
        if row_ones > 1:
            return False
    return all(c <= 1 for c in col_ones)


def is_left_full_hilbert_bimodule(x: CorrClass) -> bool:
    """A Hilbert bimodule whose left action is faithful.

    Matrix criterion: a partial permutation with no zero row.  The dual
    class is then a one-sided inverse, compose(x, dual(x)) is the identity,
    so these classes are split monomorphisms; they are not all of them (see
    is_split_mono).  They are exactly the kernels, up to isomorphism.
    """
    return is_hilbert_bimodule(x) and phi_injective(x)


def _columns(x: CorrClass) -> tuple[tuple[int | float, ...], ...]:
    return tuple(zip(*x.matrix)) or ((),) * x.target.block_count


def _private_units(lines, cross) -> list[int] | None:
    """For each line i, a position j whose cross line cross[j] equals e_i.

    Lines are the rows and cross lines the columns, or the other way round.
    Returns the first such position of every line, or None as soon as one
    line has none.  Distinct lines need distinct cross lines, so there can
    be no answer when the lines outnumber the cross lines.
    """
    if len(lines) > len(cross):
        return None
    picks = []
    for line in lines:
        for j, v in enumerate(line):
            if v == 1 and sum(map(bool, cross[j])) == 1:
                picks.append(j)
                break
        else:
            return None
    return picks


def left_inverse(x: CorrClass) -> CorrClass | None:
    """A class M : B -> A with compose(x, M) the identity of A, or None.

    One exists exactly when every row i of X owns a column equal to the unit
    vector e_i (see DECISIONS.md); the witness has a single 1 per column, at
    the row of B that is the chosen column.
    """
    picks = _private_units(x.matrix, _columns(x))
    if picks is None:
        return None
    row_of = {j: i for i, j in enumerate(picks)}
    return _block_map(x.target, x.source, map(row_of.get, range(x.target.block_count)))


def right_inverse(x: CorrClass) -> CorrClass | None:
    """A class M : B -> A with compose(M, x) the identity of B, or None.

    One exists exactly when every column j of X owns a row equal to the unit
    vector e_j; the witness has a single 1 per row, at the column of A that
    is the chosen row.
    """
    picks = _private_units(_columns(x), x.matrix)
    if picks is None:
        return None
    return _block_map(x.target, x.source, picks)


def is_split_mono(x: CorrClass) -> bool:
    """Split monomorphisms: classes with a one-sided inverse M, X * M = 1.

    Matrix criterion: every row i owns a column equal to e_i.  This is wider
    than the left-full Hilbert bimodules: the diagonal embedding [[1, 1]] is
    undone by [[1], [0]].  left_inverse builds the witness.
    """
    return _private_units(x.matrix, _columns(x)) is not None


def is_split_epi(x: CorrClass) -> bool:
    """Split epimorphisms: classes with a one-sided inverse M, M * X = 1.

    Matrix criterion: every column j owns a row equal to e_j, so [[1], [1]]
    is split by [[1, 0]].  right_inverse builds the witness.
    """
    return _private_units(_columns(x), x.matrix) is not None


def is_invertible(x: CorrClass) -> bool:
    """Invertible classes (Morita equivalences): permutation matrices.

    Block sizes need not match; a single 1 between M_2 and M_3 is invertible.
    These are exactly the classes that are both split mono and split epi.
    """
    r, s = x.shape
    return r == s and is_left_full_hilbert_bimodule(x)


def dual(x: CorrClass) -> CorrClass:
    """The dual class of a Hilbert bimodule: the transposed matrix.

    Composing on either side recovers the support ideals as diagonal 0/1
    endomorphism matrices: x * dual(x) is the left-support diagonal on the
    source, dual(x) * x the right-support diagonal on the target.  Requesting
    the dual of a non-Hilbert-bimodule class is an error, not a transpose.
    """
    if not is_hilbert_bimodule(x):
        raise ValidationError("dual is only defined for Hilbert bimodule classes")
    return CorrClass._trusted(x.target, x.source, _columns(x))


def restrict_right(x: CorrClass, sub: IdealRef) -> CorrClass:
    """Restrict the right-module structure to an ideal containing the support.

    Keeps the columns at the ideal's blocks; composing the result with the
    ideal inclusion recovers X.
    """
    if sub.parent != x.target:
        raise ValidationError("restriction ideal must live in the target algebra")
    if not right_support(x).members <= sub.members:
        raise ValidationError("right support is not contained in the restriction ideal")
    cols = sub.sorted_members
    rows = tuple(tuple(row[j] for j in cols) for row in x.matrix)
    return CorrClass._trusted(x.source, sub.algebra, rows)


def factor_through_quotient(x: CorrClass, ideal: IdealRef) -> CorrClass:
    """Factor X through A/I when the ideal acts trivially (I inside ker phi_X).

    Keeps the rows outside the ideal; composing the quotient map with the
    result recovers X.
    """
    if ideal.parent != x.source:
        raise ValidationError("factoring ideal must live in the source algebra")
    if not ideal.members <= left_kernel(x).members:
        raise ValidationError("ideal is not contained in the left kernel")
    rows = tuple(row for i, row in enumerate(x.matrix) if i not in ideal.members)
    return CorrClass._trusted(quotient(x.source, ideal), x.target, rows)


def _int_rows(x: CorrClass, what: str) -> tuple[tuple[int, ...], ...]:
    if not x.all_finite:
        raise ValidationError(f"{what} requires finite entries, found INF")
    return x.matrix


def _rational_rank(rows: tuple[tuple[int, ...], ...]) -> int:
    """Exact rank over Q by fraction-free (Bareiss) elimination over ints.

    After k pivots each entry below the pivot rows is a (k+1)-minor of the
    input, so every division by the previous pivot is exact (Sylvester's
    identity; see DECISIONS.md).
    """
    m = [list(row) for row in rows]
    rank, prev = 0, 1
    for col in range(len(m[0]) if m else 0):
        pivot = next((rr for rr in range(rank, len(m)) if m[rr][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        lead, top = m[rank][col], m[rank]
        for rr in range(rank + 1, len(m)):
            f = m[rr][col]
            m[rr] = [(lead * a - f * b) // prev for a, b in zip(m[rr], top)]
        prev = lead
        rank += 1
        if rank == len(m):
            break
    return rank


def finite_rank_tests(x: CorrClass, what: str = "finite_rank_tests") -> tuple[bool, bool]:
    """Both rank probes, (mono, epi), from one rank of the matrix."""
    rank = _rational_rank(_int_rows(x, what))
    return rank == x.source.block_count, rank == x.target.block_count


def mono_finite_rank_test(x: CorrClass) -> bool:
    """Left-cancellability against every finite-entry test morphism.

    True exactly when the rows are linearly independent over Q, so G * X and
    H * X can only agree for G = H.  This is a desk-scale probe: it says
    nothing about monomorphism status against tests with infinite
    multiplicities, which remains undecided here.
    """
    return finite_rank_tests(x, "mono_finite_rank_test")[0]


def epi_finite_rank_test(x: CorrClass) -> bool:
    """Right-cancellability against every finite-entry test morphism.

    True exactly when the columns are linearly independent over Q.  Quotient
    maps always pass; matrices with a zero column never do.  Like the mono
    probe, this does not settle epimorphism status in the full category:
    full classes such as [[1, 1]] fail right cancellation yet have full
    support.
    """
    return finite_rank_tests(x, "epi_finite_rank_test")[1]
