import enum
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cardinal_reference as ref
from cardinal_reference import Cardinal
from enchilada import INF, CorrClass, ValidationError, card, compose, direct_sum, make_algebra
from enchilada import corr
from enchilada.corr import WIDE_COMPOSE_MIN, _wide_product

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


def test_int_subclass_entries_are_stored_as_plain_ints():
    # card passes a plain int through and converts an int subclass, so a
    # class holds plain ints whatever entries it was built from.
    class Level(enum.IntEnum):
        TWO = 2

    assert type(card(Level.TWO)) is int and card(Level.TWO) == 2
    x = CorrClass(make_algebra([1]), make_algebra([1, 1]), ((Level.TWO, 0),))
    assert [type(v) for v in x.matrix[0]] == [int, int] and x.matrix == ((2, 0),)


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


def _int64_edge(k: int) -> int:
    """The largest m with m * m * k <= 2**63: sums of k products of entries up
    to m reach 2**63 - 1 or less, except when m * m * k is 2**63 itself."""
    return math.isqrt(2**63 // k)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_compose_matches_reference_on_both_sides_of_the_numpy_gate(data):
    # Half the draws have 8 to 12 blocks a side, above the gate; the others
    # have 0 to 12, mostly below it, with empty algebras among them.
    low = data.draw(st.sampled_from([0, 8]))
    assert 8**3 >= WIDE_COMPOSE_MIN
    r, k, s = (data.draw(st.integers(low, 12)) for _ in range(3))
    # Each draw mixes small entries with a few values at the edges of the
    # numpy path: float64 is exact below 2**53, int64 sums stay exact while
    # max|x|·max|y|·k < 2**63, and an int beyond float range cannot convert.
    edge = _int64_edge(max(k, 1))
    special = [2**53 - 1, 2**53, 2**53 + 1, edge - 1, edge, edge + 1, 10**30, 10**400]
    values = [0, 0, 0, 1, 2, 3, INF, *data.draw(st.lists(st.sampled_from(special), max_size=2))]
    a, b, c = (make_algebra([1] * n) for n in (r, k, s))
    entry = st.sampled_from(values)
    x = CorrClass(a, b, [data.draw(st.lists(entry, min_size=k, max_size=k)) for _ in range(r)])
    y = CorrClass(b, c, [data.draw(st.lists(entry, min_size=s, max_size=s)) for _ in range(k)])
    got = compose(x, y).matrix
    assert got == ref.to_entries(ref.compose(ref.from_entries(x.matrix), ref.from_entries(y.matrix), s))
    assert {type(v) for row in got for v in row} <= {int, float}  # no numpy scalars


@pytest.mark.parametrize(
    "n, x_entry, y_entry, wide",
    [
        (8, 3, INF, True),
        (8, 2**53 - 1, 1, True),    # exact in float64, and (2**53 - 1)·1·8 < 2**63
        (8, 2**53 + 1, 1, False),   # float64 would round it to 2**53
        (9, _int64_edge(9), _int64_edge(9), True),  # sums of 9 products stay below 2**63
        (9, _int64_edge(9) + 1, _int64_edge(9) + 1, False),
        (8, _int64_edge(8) - 1, _int64_edge(8) - 1, True),
        (8, _int64_edge(8), _int64_edge(8), False),  # 2**30 · 2**30 · 8 is 2**63 itself
        (8, 10**400, 1, False),     # beyond float range
        # Shapes r x k x s that the size gate keeps on the loop: fewer than
        # WIDE_COMPOSE_MIN terms, or thin, with fewer than 16 result entries.
        pytest.param((5, 5, 5), 3, INF, False, id="5x5x5"),
        pytest.param((1, 512, 1), 3, INF, False, id="1x512x1"),
        pytest.param((1, 256, 2), 3, INF, False, id="1x256x2"),
        pytest.param((3, 256, 5), 3, INF, False, id="3x256x5"),
        pytest.param((1, 14, 16), 3, INF, True, id="1x14x16"),
        pytest.param((16, 1, 16), 3, INF, True, id="16x1x16"),
    ],
)
def test_numpy_path_runs_exactly_when_its_arithmetic_is_exact(
    monkeypatch, n, x_entry, y_entry, wide
):
    r, k, s = (n, n, n) if isinstance(n, int) else n
    a, b, c = (make_algebra([1] * m) for m in (r, k, s))
    # Uniform rows make every sum as large as the entries allow.
    x = CorrClass(a, b, [[x_entry] * k] * r)
    y = CorrClass(b, c, [[y_entry] * s] * k)
    products = []

    def spy(*args):
        products.append(_wide_product(*args))
        return products[-1]

    monkeypatch.setattr(corr, "_wide_product", spy)
    want = ref.to_entries(ref.compose(ref.from_entries(x.matrix), ref.from_entries(y.matrix), s))
    assert compose(x, y).matrix == want
    assert any(p is not None for p in products) == wide
