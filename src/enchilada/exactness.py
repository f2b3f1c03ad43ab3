"""Exact sequences of correspondence classes.

A chain ... -> A -> B -> C -> ... is exact at an interior node when the
Schubert image of the incoming arrow equals the kernel of the outgoing
arrow.  Both are ideal inclusions, so subobject equality reduces to equality
of those inclusions, i.e. of the ideals' block sets; exact_at is the one
place that comparison is made, and check_sequence the one loop over nodes.

A short sequence 0 -> A -> B -> C -> 0 is exact iff the left action of A is
faithful, the right support of X matches the kernel of the action on Y, and
Y is full.  Each condition is the verdict at one node: node 1 compares the
empty image of 0 -> A with ker phi_X, node 2 compares B_X with ker phi_Y, and
node 3 compares B_Y with all of C, the kernel of C -> 0.  So a report stores
only node verdicts: on any zero-ended five-term chain it is flagged short and
reads the three conditions off them, and check_short_exact is check_sequence
on the chain padded with zero morphisms.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebras import FdCStarAlgebra, ZERO_ALGEBRA
from .corr import CorrClass, left_kernel, right_support, zero_corr
from .errors import ValidationError

__all__ = [
    "NodeVerdict",
    "Condition",
    "ExactnessReport",
    "SequenceSpec",
    "exact_at",
    "check_short_exact",
    "check_sequence",
]


@dataclass(frozen=True)
class NodeVerdict:
    """Witnesses for exactness at one node: the two ideals being compared."""

    algebra: FdCStarAlgebra
    image_members: frozenset[int]
    kernel_members: frozenset[int]

    @property
    def exact(self) -> bool:
        return self.image_members == self.kernel_members

    def to_json(self) -> dict:
        return {
            "algebra": {"blocks": list(self.algebra.blocks)},
            "image": [i + 1 for i in sorted(self.image_members)],
            "kernel": [i + 1 for i in sorted(self.kernel_members)],
            "exact": self.exact,
        }


@dataclass(frozen=True)
class Condition:
    name: str
    holds: bool

    def to_json(self) -> dict:
        return {"name": self.name, "holds": self.holds}


# The conditions of the short exact theorem, in node order: each holds
# exactly when its node of 0 -> A -> B -> C -> 0 is exact.
_SHORT_EXACT_CONDITIONS = ("phi_X injective", "B_X = ker phi_Y", "Y full")


@dataclass(frozen=True)
class ExactnessReport:
    """Per-node verdicts; a short sequence's conditions are read off them."""

    nodes: tuple[tuple[int, NodeVerdict], ...]
    short: bool

    @property
    def exact(self) -> bool:
        return all(v.exact for _, v in self.nodes)

    @property
    def conditions(self) -> tuple[Condition, ...]:
        names = _SHORT_EXACT_CONDITIONS if self.short else ()
        return tuple(Condition(name, v.exact) for name, (_, v) in zip(names, self.nodes))

    def failing(self) -> list[str]:
        out = [c.name for c in self.conditions if not c.holds]
        out.extend(f"node {k}" for k, v in self.nodes if not v.exact)
        return out

    def to_json(self) -> dict:
        out = {
            "exact": self.exact,
            "nodes": [{"node": k, **v.to_json()} for k, v in self.nodes],
        }
        if self.short:
            out["conditions"] = [c.to_json() for c in self.conditions]
        return out


@dataclass(frozen=True)
class SequenceSpec:
    """A chain A_0 -> A_1 -> ... -> A_n with matching correspondences."""

    algebras: tuple[FdCStarAlgebra, ...]
    correspondences: tuple[CorrClass, ...]

    def __post_init__(self):
        algebras = tuple(self.algebras)
        corrs = tuple(self.correspondences)
        if not algebras:
            raise ValidationError("a sequence needs at least one algebra")
        if len(corrs) != len(algebras) - 1:
            raise ValidationError(
                f"{len(algebras)} algebras require {len(algebras) - 1} correspondences"
            )
        for k, x in enumerate(corrs):
            if x.source != algebras[k] or x.target != algebras[k + 1]:
                raise ValidationError(f"correspondence {k + 1} does not match its endpoints")
        object.__setattr__(self, "algebras", algebras)
        object.__setattr__(self, "correspondences", corrs)


def exact_at(x: CorrClass, y: CorrClass) -> NodeVerdict:
    """Exactness at the middle node of A -> B -> C.

    Compares the Schubert image of X with the kernel of Y as subobjects of B;
    both are ideal inclusions, so this is equality of the two inclusion
    morphisms, i.e. of the ideals B_X and ker phi_Y.
    """
    if x.target != y.source:
        raise ValidationError("exactness needs composable correspondences")
    return NodeVerdict(x.target, right_support(x).members, left_kernel(y).members)


def check_short_exact(x: CorrClass, y: CorrClass) -> ExactnessReport:
    """Verdict for 0 -> A -> B -> C -> 0 built from X : A -> B and Y : B -> C.

    This is check_sequence on the chain padded with zero morphisms, so the
    report carries the three node verdicts and the three characterizing
    conditions (faithful left action on X, B_X = ker phi_Y, Y full).
    """
    if x.target != y.source:
        raise ValidationError("short sequence needs composable correspondences")
    return check_sequence(
        SequenceSpec(
            (ZERO_ALGEBRA, x.source, x.target, y.target, ZERO_ALGEBRA),
            (zero_corr(ZERO_ALGEBRA, x.source), x, y, zero_corr(y.target, ZERO_ALGEBRA)),
        )
    )


def check_sequence(seq: SequenceSpec) -> ExactnessReport:
    """Exactness of a chain at every interior node.

    A single morphism has no interior nodes and is vacuously exact.  On a
    short sequence 0 -> A -> B -> C -> 0 (five algebras, zero at both ends)
    the report is flagged short, and names the three conditions of the short
    exact theorem by reading them off its node verdicts.
    """
    corrs = seq.correspondences
    nodes = tuple((k + 1, exact_at(corrs[k], corrs[k + 1])) for k in range(len(corrs) - 1))
    a = seq.algebras
    return ExactnessReport(nodes, len(a) == 5 and a[0].is_zero and a[-1].is_zero)
