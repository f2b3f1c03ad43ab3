import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import cardinal_reference as ref
from cardinal_reference import Cardinal
from enchilada import INF, CorrClass, ValidationError, card, compose, direct_sum, make_algebra

cardinals = st.one_of(st.integers(0, 40).map(Cardinal), st.just(ref.INF))
# Zero and INF drawn often, so that INF meets 0 in most products.
entries = st.one_of(st.sampled_from([0, INF, 10**400]), st.integers(0, 40))


def test_arithmetic_table():
    assert ref.INF + 0 == ref.INF
    assert ref.INF + 5 == ref.INF
    assert ref.INF + ref.INF == ref.INF
    assert ref.INF * 0 == Cardinal(0)
    assert 0 * ref.INF == Cardinal(0)
    assert ref.INF * 3 == ref.INF
    assert 4 * ref.INF == ref.INF
    assert ref.INF * ref.INF == ref.INF
    assert Cardinal(2) + Cardinal(3) == Cardinal(5)
    assert Cardinal(2) * Cardinal(3) == Cardinal(6)


def test_coercion_and_equality():
    assert card(7) == 7
    assert card("inf") is INF
    assert card(INF) is INF
    assert card(float("inf")) is INF
    assert Cardinal(7) == 7
    assert Cardinal(1) != ref.INF
    assert Cardinal(0) != "anything"
    assert not Cardinal(0)
    assert ref.INF
    assert hash(Cardinal(3)) == hash(Cardinal(3))


def test_ordering():
    assert Cardinal(2) < Cardinal(5) < ref.INF
    assert not ref.INF < ref.INF
    assert max(Cardinal(1), ref.INF) is ref.INF


def test_invalid_values():
    for bad in ("Inf", 2.5, -1, True, math.nan, -math.inf):
        with pytest.raises(ValidationError):
            card(bad)
    with pytest.raises(ValidationError):
        Cardinal(-1)
    with pytest.raises(ValidationError):
        int(ref.INF)


def test_repr():
    c1 = make_algebra([1])
    assert repr(CorrClass(c1, c1, [[INF]])).endswith("[[INF]])")
    assert repr(Cardinal(4)) == "4"


@given(cardinals, cardinals)
def test_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(cardinals, cardinals, cardinals)
def test_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(cardinals)
def test_units_and_annihilator(a):
    assert a + Cardinal(0) == a
    assert a * Cardinal(1) == a
    assert a * Cardinal(0) == Cardinal(0)


def _matrices(rows: int, cols: int, count: int):
    return st.lists(
        st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=rows, max_size=rows),
        min_size=count,
        max_size=count,
    )


@given(st.data())
def test_compose_and_direct_sum_match_reference(data):
    r, s, t = (data.draw(st.integers(0, 4)) for _ in range(3))
    a, b, c = (make_algebra([1] * n) for n in (r, s, t))
    x, x2 = (CorrClass(a, b, m) for m in data.draw(_matrices(r, s, 2)))
    y = CorrClass(b, c, data.draw(_matrices(s, t, 1))[0])
    rx, rx2, ry = (ref.from_entries(z.matrix) for z in (x, x2, y))
    assert compose(x, y).matrix == ref.to_entries(ref.compose(rx, ry, t))
    assert direct_sum(x, x2).matrix == ref.to_entries(ref.direct_sum(rx, rx2))
