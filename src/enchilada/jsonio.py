"""JSON wire formats for algebras, ideals, classes, and sequences.

Conventions: block indices are 1-based in files and 0-based in memory,
"inf" is the only non-integer matrix token, matrices are row-major, and
matrix dimensions must match the block counts of the endpoint algebras.
"""

from __future__ import annotations

from .algebras import FdCStarAlgebra, IdealRef, make_ideal
from .cardinal import INF
from .corr import CorrClass
from .errors import ValidationError
from .exactness import SequenceSpec

__all__ = [
    "algebra_to_json",
    "algebra_from_json",
    "ideal_to_json",
    "ideal_from_json",
    "cardinal_to_json",
    "corr_to_json",
    "corr_from_json",
    "sequence_to_json",
    "sequence_from_json",
    "MAX_BLOCKS",
]

# The most blocks an algebra read from JSON may have: two classes between such
# algebras compose in tens of milliseconds through numpy, and in about a second
# in the exact loop that compose falls back to once an entry reaches 2^53.
MAX_BLOCKS = 256


def _require_dict(obj, what: str) -> dict:
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} must be a JSON object, got {type(obj).__name__}")
    return obj


def _require_list(obj, what: str) -> list:
    if not isinstance(obj, list):
        raise ValidationError(f"{what} must be a JSON array, got {type(obj).__name__}")
    return obj


def algebra_to_json(a: FdCStarAlgebra) -> dict:
    return {"blocks": list(a.blocks)}


def algebra_from_json(obj) -> FdCStarAlgebra:
    obj = _require_dict(obj, "algebra")
    blocks = _require_list(obj.get("blocks"), 'algebra "blocks"')
    if len(blocks) > MAX_BLOCKS:
        raise ValidationError(f"algebras have at most {MAX_BLOCKS} blocks, got {len(blocks)}")
    return FdCStarAlgebra(tuple(blocks))


def ideal_to_json(ideal: IdealRef) -> dict:
    return {"members": [i + 1 for i in ideal.sorted_members]}


def ideal_from_json(parent: FdCStarAlgebra, obj) -> IdealRef:
    obj = _require_dict(obj, "ideal")
    members = _require_list(obj.get("members"), 'ideal "members"')
    shifted = set()
    for i in members:
        if isinstance(i, bool) or not isinstance(i, int) or i < 1:
            raise ValidationError(f"ideal members are 1-based block indices, got {i!r}")
        shifted.add(i - 1)
    return make_ideal(parent, shifted)


def cardinal_to_json(c: int | float) -> int | str:
    return "inf" if c == INF else c


_TO_WIRE = {INF: "inf"}  # every other entry is an int, its own wire form


def corr_to_json(x: CorrClass) -> dict:
    return {
        "source": algebra_to_json(x.source),
        "target": algebra_to_json(x.target),
        "matrix": [list(map(_TO_WIRE.get, row, row)) for row in x.matrix],
    }


def corr_from_json(obj) -> CorrClass:
    obj = _require_dict(obj, "correspondence")
    source = algebra_from_json(obj.get("source"))
    target = algebra_from_json(obj.get("target"))
    matrix = _require_list(obj.get("matrix"), 'correspondence "matrix"')
    rows = [_require_list(row, "matrix row") for row in matrix]
    return CorrClass(source, target, rows)


def sequence_to_json(seq: SequenceSpec) -> dict:
    return {
        "algebras": [algebra_to_json(a) for a in seq.algebras],
        "correspondences": [corr_to_json(x) for x in seq.correspondences],
    }


def sequence_from_json(obj) -> SequenceSpec:
    obj = _require_dict(obj, "sequence")
    algebras = tuple(
        algebra_from_json(a) for a in _require_list(obj.get("algebras"), '"algebras"')
    )
    corrs = tuple(
        corr_from_json(x)
        for x in _require_list(obj.get("correspondences"), '"correspondences"')
    )
    return SequenceSpec(algebras, corrs)
