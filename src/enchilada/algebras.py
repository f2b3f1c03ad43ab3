"""Objects of the category: finite-dimensional C*-algebras and their ideals.

An algebra is recorded by its ordered tuple of matrix-block sizes; the empty
tuple is the zero algebra.  Every closed two-sided ideal of such a direct sum
is spanned by a subset of the blocks, so ideals are stored as index subsets.
Block order matters for matrix indexing; isomorphism only sees the multiset
of sizes.

At finite dimension the multiplier algebra of A is A itself and the
adjointable operators on a module coincide with the compacts; the rest of
the package relies on that identification without further comment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import ValidationError

__all__ = [
    "FdCStarAlgebra",
    "IdealRef",
    "ZERO_ALGEBRA",
    "make_algebra",
    "make_ideal",
    "quotient",
    "algebras_isomorphic",
]


@dataclass(frozen=True)
class FdCStarAlgebra:
    """A finite direct sum of full complex matrix blocks."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(self.blocks)
        for n in blocks:
            if isinstance(n, bool) or not isinstance(n, int) or n < 1:
                raise ValidationError(f"block sizes must be positive integers, got {n!r}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    @property
    def dim(self) -> int:
        """Linear dimension: the sum of the squared block sizes."""
        return sum(n * n for n in self.blocks)

    @property
    def is_zero(self) -> bool:
        return not self.blocks

    def __repr__(self) -> str:
        return f"FdCStarAlgebra({list(self.blocks)})"


ZERO_ALGEBRA = FdCStarAlgebra(())


@dataclass(frozen=True)
class IdealRef:
    """A closed two-sided ideal, as a set of parent block indices (0-based)."""

    parent: FdCStarAlgebra
    members: frozenset[int]

    def __post_init__(self):
        members = frozenset(self.members)
        for i in members:
            if isinstance(i, bool) or not isinstance(i, int):
                raise ValidationError(f"ideal members must be integers, got {i!r}")
            if not 0 <= i < self.parent.block_count:
                raise ValidationError(
                    f"ideal member {i} is not a block index of {self.parent!r}"
                )
        object.__setattr__(self, "members", members)

    @classmethod
    def _trusted(cls, parent, members) -> IdealRef:
        """An ideal from a frozenset of block indices of `parent` that are
        already known valid; skips the check in __post_init__."""
        ideal = object.__new__(cls)
        ideal.__dict__.update(parent=parent, members=members)  # frozen only blocks setattr
        return ideal

    @property
    def sorted_members(self) -> tuple[int, ...]:
        return tuple(sorted(self.members))

    @property
    def algebra(self) -> FdCStarAlgebra:
        """The ideal itself as an algebra: the member blocks in parent order."""
        return FdCStarAlgebra(tuple(self.parent.blocks[i] for i in self.sorted_members))

    @property
    def is_zero(self) -> bool:
        return not self.members

    @property
    def is_all(self) -> bool:
        return len(self.members) == self.parent.block_count

    def __repr__(self) -> str:
        return f"IdealRef({list(self.parent.blocks)}, members={sorted(self.members)})"


def make_algebra(blocks: Iterable[int]) -> FdCStarAlgebra:
    """Build an algebra from block sizes; the empty list is the zero algebra."""
    return FdCStarAlgebra(tuple(blocks))


def make_ideal(parent: FdCStarAlgebra, members: Iterable[int]) -> IdealRef:
    """Build the ideal of `parent` spanned by the given block indices."""
    return IdealRef(parent, frozenset(members))


def quotient(algebra: FdCStarAlgebra, ideal: IdealRef) -> FdCStarAlgebra:
    """The quotient algebra: the blocks not in the ideal, in original order."""
    if ideal.parent != algebra:
        raise ValidationError("ideal does not belong to this algebra")
    return FdCStarAlgebra(
        tuple(n for i, n in enumerate(algebra.blocks) if i not in ideal.members)
    )


def algebras_isomorphic(a: FdCStarAlgebra, b: FdCStarAlgebra) -> bool:
    """True when the multisets of block sizes coincide."""
    return sorted(a.blocks) == sorted(b.blocks)
