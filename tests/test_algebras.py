import itertools

import pytest

from enchilada import (
    ValidationError,
    ZERO_ALGEBRA,
    algebras_isomorphic,
    make_algebra,
    make_ideal,
    quotient,
)


def test_make_algebra():
    assert make_algebra([]).dim == 0
    assert make_algebra([]).is_zero
    assert make_algebra([1, 1]).dim == 2
    assert make_algebra([2, 3]).dim == 13
    assert make_algebra([2, 3]).block_count == 2


def test_make_algebra_rejects_bad_blocks():
    with pytest.raises(ValidationError):
        make_algebra([0])
    with pytest.raises(ValidationError):
        make_algebra([2, -1])
    with pytest.raises(ValidationError):
        make_algebra([1.5])


def test_quotient_examples():
    a = make_algebra([1, 1])
    assert quotient(a, make_ideal(a, {0})) == make_algebra([1])
    b = make_algebra([2, 3])
    assert quotient(b, make_ideal(b, set())) == b
    c = make_algebra([1, 2, 2])
    assert quotient(c, make_ideal(c, {1, 2})) == make_algebra([1])


def test_quotient_requires_matching_parent():
    a, b = make_algebra([1, 1]), make_algebra([1, 2])
    with pytest.raises(ValidationError):
        quotient(b, make_ideal(a, {0}))


def test_ideal_validation():
    a = make_algebra([1, 1])
    with pytest.raises(ValidationError):
        make_ideal(a, {2})
    with pytest.raises(ValidationError):
        make_ideal(a, {-1})
    ideal = make_ideal(a, {1})
    assert ideal.algebra == make_algebra([1])
    assert ideal.sorted_members == (1,)


def test_ideal_repr():
    assert repr(make_ideal(make_algebra([1, 2]), [1])) == "IdealRef([1, 2], members=[1])"


def test_algebras_isomorphic():
    assert algebras_isomorphic(make_algebra([1, 2]), make_algebra([2, 1]))
    assert not algebras_isomorphic(make_algebra([1, 1]), make_algebra([2]))
    assert algebras_isomorphic(ZERO_ALGEBRA, make_algebra([]))


def test_quotient_invariants():
    for blocks in itertools.chain.from_iterable(
        itertools.product(range(1, 4), repeat=r) for r in range(0, 3)
    ):
        a = make_algebra(blocks)
        assert quotient(a, make_ideal(a, set())) == a
        full = make_ideal(a, range(a.block_count))
        assert quotient(a, full).is_zero
        for size in range(a.block_count + 1):
            for members in itertools.combinations(range(a.block_count), size):
                ideal = make_ideal(a, members)
                assert quotient(a, ideal).dim + ideal.algebra.dim == a.dim


def test_ideal_members_must_be_integers():
    a = make_algebra([1, 1])
    for bad in (True, 1.0, "0"):
        with pytest.raises(ValidationError, match=f"ideal members must be integers, got {bad!r}"):
            make_ideal(a, {bad})
