"""The structural classes against their one-construction-per-builder reference.

Identities, zero maps, ideal inclusions, quotient maps and the one-sided
inverses are built as block maps, and `dual` as the column tuple; each must
give the reference's endpoints, matrix and tuple rows, entry types included.
"""

import itertools

import numpy as np
import pytest

import block_map_reference as ref
from enchilada import (
    INF,
    ZERO_ALGEBRA,
    CorrClass,
    ValidationError,
    cokernel,
    dual,
    enumerate_corrs,
    ideal_inclusion_corr,
    identity_corr,
    is_hilbert_bimodule,
    kernel,
    left_inverse,
    left_kernel,
    make_algebra,
    make_ideal,
    quotient_corr,
    right_inverse,
    right_support,
    schubert_coimage,
    schubert_image,
    zero_corr,
)
from sized_algebras import SIZED_ALGEBRAS


def _assert_same(got, want):
    if want is None:
        assert got is None
        return
    assert (got.source, got.target, got.matrix) == (want.source, want.target, want.matrix)
    assert type(got.matrix) is tuple and all(type(row) is tuple for row in got.matrix)
    assert [type(v) for row in got.matrix for v in row] == [
        type(v) for row in want.matrix for v in row
    ]


def _assert_ideal_maps(a, ideal):
    _assert_same(ideal_inclusion_corr(ideal), ref.ideal_inclusion_corr(ideal))
    _assert_same(quotient_corr(a, ideal), ref.quotient_corr(a, ideal))


def _assert_class_maps(x):
    _assert_same(left_inverse(x), ref.left_inverse(x))
    _assert_same(right_inverse(x), ref.right_inverse(x))
    if is_hilbert_bimodule(x):
        _assert_same(dual(x), ref.dual(x))
    else:
        with pytest.raises(ValidationError, match="Hilbert bimodule"):
            dual(x)
    _assert_same(kernel(x), ref.ideal_inclusion_corr(left_kernel(x)))
    _assert_same(cokernel(x), ref.quotient_corr(x.target, right_support(x)))
    _assert_same(schubert_image(x), ref.ideal_inclusion_corr(right_support(x)))
    _assert_same(schubert_coimage(x), ref.quotient_corr(x.source, left_kernel(x)))


def test_builders_match_the_reference_on_every_small_ideal_and_class():
    assert SIZED_ALGEBRAS[0] == ZERO_ALGEBRA
    for a in SIZED_ALGEBRAS:
        _assert_same(identity_corr(a), ref.identity_corr(a))
        for b in SIZED_ALGEBRAS:
            _assert_same(zero_corr(a, b), ref.zero_corr(a, b))
            for x in enumerate_corrs(a, b, 2):
                _assert_class_maps(x)
        r = a.block_count
        for k in range(r + 1):
            for members in itertools.combinations(range(r), k):
                _assert_ideal_maps(a, make_ideal(a, members))


def _with_private_units(rng, r, s, values):
    # An r x s class in which every row owns a column equal to its unit
    # vector, at randomly placed columns; the other entries drawn from values.
    rows = rng.choice(values, size=(r, s)).tolist()
    for i, j in enumerate(rng.permutation(s)[:r].tolist()):
        for i2 in range(r):
            rows[i2][j] = int(i2 == i)
    return rows


def test_builders_match_the_reference_at_cli_wide_scale():
    # 16-32 blocks, as the cli-wide requests have; entries hold INF, so that
    # the inverse searches skip INF columns and dual refuses such classes.
    rng = np.random.default_rng(2016)
    values = np.array([0, 0, 1, 2, INF], dtype=object)
    inf_split = 0
    for _ in range(20):
        a = make_algebra(rng.integers(1, 4, size=int(rng.integers(16, 33))).tolist())
        b = make_algebra(rng.integers(1, 4, size=int(rng.integers(a.block_count, 33))).tolist())
        _assert_same(identity_corr(a), ref.identity_corr(a))
        for p, q in [(a, b), (b, a), (a, ZERO_ALGEBRA), (ZERO_ALGEBRA, a)]:
            _assert_same(zero_corr(p, q), ref.zero_corr(p, q))
        r = a.block_count
        ideals = [frozenset(), frozenset(range(r))]
        ideals += [frozenset(np.flatnonzero(rng.random(r) < rng.random()).tolist()) for _ in range(8)]
        for members in ideals:
            _assert_ideal_maps(a, make_ideal(a, members))
        mono = CorrClass(a, b, _with_private_units(rng, a.block_count, b.block_count, values))
        epi = CorrClass(b, a, list(map(list, zip(*mono.matrix))))
        perm = CorrClass(a, b, _with_private_units(rng, a.block_count, b.block_count, [0]))
        noise = CorrClass(a, b, rng.choice(values, size=(a.block_count, b.block_count)).tolist())
        for x in (mono, epi, perm, noise):
            _assert_class_maps(x)
        assert left_inverse(mono) is not None and right_inverse(epi) is not None
        assert is_hilbert_bimodule(perm)
        inf_split += any(INF in row for row in mono.matrix)
    assert inf_split > 10
