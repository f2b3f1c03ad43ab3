"""The fraction-free rank against the Fraction elimination it replaced."""

from hypothesis import given
from hypothesis import strategies as st

from enchilada.corr import _rational_rank
from rank_reference import rational_rank

# Zero drawn often, so that pivots go missing and columns get skipped.
entries = st.sampled_from([0, 0, 0, 1, 2, 3, 10**400])

# The finite classify-predicates input of the cli-wide benchmark workload
# (seed 0): 28 x 19 with entries 0..3, one digit per entry.
CLI_WIDE_28x19 = """
0003011303010232310 2212003103200332020 1220021111033220333 1223312100231020220
3000313302013330330 1113221023233002203 0200011333000000011 2102133022033221123
2020122330003302033 3000031300121301130 1102000000130120102 1003322031303212213
2032001002303102033 2032110110032020013 2100331302211013031 1331312001023003333
3131013223003103213 0023332302302231201 0210220131032131331 3000222332132122131
2111201002133310110 3333120001230301001 2103313120202330013 0013133300232131233
1110103010021012130 2000202020212103303 0232300112110012212 1223010033302002322
"""


@given(st.data())
def test_rank_matches_fraction_elimination(data):
    r, s = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 6))
    rows = tuple(
        tuple(data.draw(st.lists(entries, min_size=s, max_size=s))) for _ in range(r)
    )
    assert _rational_rank(rows) == rational_rank(rows)


def test_rank_of_empty_and_zero_matrices():
    assert _rational_rank(()) == rational_rank(()) == 0
    assert _rational_rank(((), ())) == rational_rank(((), ())) == 0
    zero = ((0,) * 5,) * 4
    assert _rational_rank(zero) == rational_rank(zero) == 0


def test_rank_of_the_cli_wide_input():
    rows = tuple(tuple(map(int, line)) for line in CLI_WIDE_28x19.split())
    assert (len(rows), len(rows[0])) == (28, 19)
    assert _rational_rank(rows) == rational_rank(rows) == 19
