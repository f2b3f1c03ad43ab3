import pytest

from enchilada import (
    INF,
    CorrClass,
    SequenceSpec,
    ValidationError,
    ZERO_ALGEBRA,
    make_algebra,
    make_ideal,
    zero_corr,
)
from enchilada.jsonio import (
    algebra_from_json,
    algebra_to_json,
    cardinal_to_json,
    corr_from_json,
    corr_to_json,
    ideal_from_json,
    ideal_to_json,
    sequence_from_json,
    sequence_to_json,
)

C1 = make_algebra([1])
C2 = make_algebra([1, 1])


def test_algebra_roundtrip():
    for a in (ZERO_ALGEBRA, C1, make_algebra([2, 3, 1])):
        assert algebra_from_json(algebra_to_json(a)) == a
    assert algebra_to_json(C2) == {"blocks": [1, 1]}


def test_ideal_roundtrip_one_based():
    ideal = make_ideal(C2, {1})
    data = ideal_to_json(ideal)
    assert data == {"members": [2]}
    assert ideal_from_json(C2, data) == ideal
    with pytest.raises(ValidationError):
        ideal_from_json(C2, {"members": [0]})
    with pytest.raises(ValidationError):
        ideal_from_json(C2, {"members": [3]})


def test_corr_roundtrip_with_inf():
    x = CorrClass(C2, C2, ((1, INF), (0, 2)))
    data = corr_to_json(x)
    assert data["matrix"] == [[1, "inf"], [0, 2]]
    assert corr_from_json(data) == x


def test_corr_to_json_writes_each_entry_as_cardinal_to_json():
    # 314159 is hash(INF), so it meets INF's key in corr_to_json's entry table.
    x = CorrClass(C2, C2, ((INF, 314159), (0, 2**80)))
    assert corr_to_json(x)["matrix"] == [[cardinal_to_json(v) for v in row] for row in x.matrix]


def test_corr_roundtrip_empty_matrices():
    for x in (zero_corr(ZERO_ALGEBRA, C2), zero_corr(C2, ZERO_ALGEBRA)):
        assert corr_from_json(corr_to_json(x)) == x


def test_corr_canonical_roundtrip_is_identity():
    x = CorrClass(C1, C2, ((1, 0),))
    once = corr_to_json(x)
    assert corr_to_json(corr_from_json(once)) == once


def test_corr_bad_inputs():
    with pytest.raises(ValidationError):
        corr_from_json({"source": {"blocks": [1]}, "target": {"blocks": [1]}})
    with pytest.raises(ValidationError):
        corr_from_json(
            {"source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [[1, 2]]}
        )
    with pytest.raises(ValidationError):
        corr_from_json(
            {"source": {"blocks": [1]}, "target": {"blocks": [1]}, "matrix": [["Inf"]]}
        )
    with pytest.raises(ValidationError):
        corr_from_json(
            {"source": {"blocks": [0]}, "target": {"blocks": [1]}, "matrix": [[1]]}
        )
    with pytest.raises(ValidationError):
        corr_from_json([1, 2, 3])


def test_sequence_roundtrip():
    x = CorrClass(C1, C2, ((1, 0),))
    y = CorrClass(C2, C1, ((0,), (1,)))
    seq = SequenceSpec((C1, C2, C1), (x, y))
    data = sequence_to_json(seq)
    assert sequence_from_json(data) == seq
    with pytest.raises(ValidationError):
        sequence_from_json({"algebras": [{"blocks": [1]}], "correspondences": [corr_to_json(x)]})
