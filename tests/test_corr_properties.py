"""Law-level properties of the symbolic calculus, on seeded and exhaustive inputs."""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest

from enchilada import checks
from enchilada import (
    INF,
    CorrClass,
    FdCStarAlgebra,
    cokernel,
    compose,
    direct_sum,
    dual,
    enumerate_algebras,
    enumerate_chains,
    enumerate_corrs,
    epi_finite_rank_test,
    exact_at,
    ideal_inclusion_corr,
    identity_corr,
    is_full,
    is_hilbert_bimodule,
    is_invertible,
    is_left_full_hilbert_bimodule,
    is_split_epi,
    is_split_mono,
    kernel,
    left_inverse,
    left_kernel,
    make_ideal,
    mono_finite_rank_test,
    phi_injective,
    quotient,
    quotient_corr,
    random_algebra,
    random_corr,
    restrict_right,
    right_inverse,
    right_support,
    run_suite,
    schubert_coimage,
    schubert_image,
    tensor_is_zero,
    zero_corr,
)
from sized_algebras import SIZED_ALGEBRAS


def test_compose_laws_suite():
    result = run_suite("laws", np.random.default_rng(11), 120)
    assert result.ok, result.failures


def test_universal_properties_suite():
    result = run_suite("universal", np.random.default_rng(12), 40)
    assert result.ok, result.failures


def test_universal_suite_compares_each_mediator_with_the_drawn_one(monkeypatch):
    # The suite draws M and builds W = M * ker X (dually W' = coker X * M), so
    # a mediator other than M is reported.
    monkeypatch.setattr(checks, "restrict_right", lambda w, sub: zero_corr(w.source, sub.algebra))
    monkeypatch.setattr(
        checks,
        "factor_through_quotient",
        lambda w, ideal: zero_corr(quotient(w.source, ideal), w.target),
    )
    failures = run_suite("universal", np.random.default_rng(12), 40).failures
    assert any("kernel factorization failed" in f for f in failures)
    assert any("cokernel factorization failed" in f for f in failures)


def _bumped_compose(x, y):
    # Composition with one entry of the product changed, which is not associative.
    return checks._bumped(np.random.default_rng(0), compose(x, y)) or compose(x, y)


def _not_exact(x, y):
    return SimpleNamespace(exact=False)


def _source_identity(x):
    return identity_corr(x.source)


def _target_identity(x):
    return identity_corr(x.target)


def _zero_class(x):
    return zero_corr(x.source, x.target)


# The test ids keep the names of the suite functions that run_suite replaced.
_SUITE_IDS = {
    "laws": "suite_compose_laws",
    "universal": "suite_universal_properties",
    "schubert": "suite_schubert_identities",
    "oracle": "suite_tensor_oracle",
    "zero_tensor": "suite_zero_tensor",
}


@pytest.mark.parametrize(
    "suite, name, fake, message",
    [
        ("laws", "compose", _bumped_compose, "associativity"),
        ("laws", "identity_corr", lambda a: zero_corr(a, a), "unit law"),
        ("universal", "kernel", _source_identity, "generated W does not"),
        ("universal", "_bumped", lambda rng, m: m, "kernel mediator not unique"),
        ("universal", "_bumped", lambda rng, m: m, "cokernel mediator not unique"),
        ("universal", "cokernel", _target_identity, "generated W' is not"),
        ("schubert", "schubert_image", kernel, "image identity failed"),
        ("schubert", "schubert_coimage", cokernel, "coimage identity failed"),
        ("schubert", "exact_at", _not_exact, "kernel node not exact"),
        ("schubert", "exact_at", _not_exact, "cokernel node not exact"),
        ("oracle", "classify", _zero_class, "roundtrip failed"),
        ("zero_tensor", "tensor_is_zero", lambda x, y: False, "disagreement ("),
    ],
    ids=_SUITE_IDS.get,
)
def test_suites_report_each_planted_fault(monkeypatch, suite, name, fake, message):
    # Each fault breaks one law a suite checks, and the suite names that law.
    monkeypatch.setattr(checks, name, fake)
    result = run_suite(suite, np.random.default_rng(3), 20)
    assert not result.ok
    # Each failure reads "case n: <law> ...".
    assert any(f.split(": ", 1)[1].startswith(message) for f in result.failures), result.failures


def test_zero_tensor_suite_draws_vanishing_pairs_on_even_cases(monkeypatch):
    verdicts = []

    def recorded(x, y):
        verdicts.append(tensor_is_zero(x, y))
        return verdicts[-1]

    monkeypatch.setattr(checks, "tensor_is_zero", recorded)
    assert run_suite("zero_tensor", np.random.default_rng(25), 40).ok
    assert all(verdicts[0::2]) and not all(verdicts[1::2])


def test_schubert_identities_suite():
    result = run_suite("schubert", np.random.default_rng(13), 60)
    assert result.ok, result.failures


def test_direct_sum_laws():
    rng = np.random.default_rng(14)
    for _ in range(60):
        a, b = random_algebra(rng), random_algebra(rng)
        x = random_corr(rng, a, b, inf_prob=0.2)
        y = random_corr(rng, a, b, inf_prob=0.2)
        z = random_corr(rng, a, b, inf_prob=0.2)
        assert direct_sum(x, y) == direct_sum(y, x)
        assert direct_sum(direct_sum(x, y), z) == direct_sum(x, direct_sum(y, z))
        assert direct_sum(x, zero_corr(a, b)) == x


def test_enumerate_chains_counts_and_shares_classes():
    singles = list(enumerate_chains(1))
    assert len(singles) == 31 and all(len(chain) == 1 for chain in singles)
    pairs = list(enumerate_chains(2))
    assert len(pairs) == 499
    assert all(x.target == y.source for x, y in pairs)
    assert {x for (x,) in singles} == {x for pair in pairs for x in pair}
    algebras = enumerate_algebras()
    # The chain order, and so the 499 count above, rest on this order.
    assert algebras == tuple(FdCStarAlgebra(blocks) for blocks in ((), (1,), (1, 1)))
    table = [x for a, b in itertools.product(algebras, repeat=2) for x in enumerate_corrs(a, b, 1)]
    assert [x for (x,) in singles] == table  # the tables' classes, in order


def test_quotient_maps_are_the_cokernels_of_the_enumeration():
    # Reference: one quotient map per subset of blocks of each enumerated algebra.
    reference = {
        quotient_corr(b, make_ideal(b, members))
        for b in enumerate_algebras()
        for size in range(b.block_count + 1)
        for members in itertools.combinations(range(b.block_count), size)
    }
    assert reference == {cokernel(x) for (x,) in enumerate_chains(1)}
    assert len(reference) == 7


def test_zero_tensor_iff_zero_composite_exhaustive():
    for x, y in enumerate_chains(2):
        assert tensor_is_zero(x, y) == compose(x, y).is_zero


def test_restriction_to_support_preserves_composites():
    # X (x)_B Y and X (x)_{B_X} Y give the same class
    rng = np.random.default_rng(15)
    for _ in range(100):
        a, b, c = (random_algebra(rng) for _ in range(3))
        x = random_corr(rng, a, b, inf_prob=0.1)
        y = random_corr(rng, b, c, inf_prob=0.1)
        support = right_support(x)
        restricted = restrict_right(x, support)
        bridged = compose(ideal_inclusion_corr(support), y)
        assert compose(restricted, bridged) == compose(x, y)


def test_nonzero_left_kernel_gives_distinguishing_pair():
    rng = np.random.default_rng(16)
    found = 0
    for _ in range(120):
        a, b = random_algebra(rng), random_algebra(rng)
        x = random_corr(rng, a, b, inf_prob=0.1, zero_prob=0.5)
        ker = left_kernel(x)
        if ker.is_zero:
            continue
        found += 1
        w = ideal_inclusion_corr(ker)
        assert not w.is_zero
        assert compose(w, x).is_zero
        assert compose(w, x) == compose(zero_corr(w.source, a), x)
        assert w != zero_corr(w.source, a)
    assert found > 10


def test_invertible_iff_split_both_iff_permutation():
    algebras = enumerate_algebras()
    for a, b in itertools.product(algebras, repeat=2):
        for x in enumerate_corrs(a, b, 2):
            split_both = is_split_mono(x) and is_split_epi(x)
            assert is_invertible(x) == split_both
            r, s = x.shape
            perm = (
                all(sum(1 for v in row if v == 1) == 1 for row in x.matrix)
                and all(
                    sum(1 for i in range(r) if x.matrix[i][j] == 1) == 1
                    for j in range(s)
                )
                and all(v == 0 or v == 1 for row in x.matrix for v in row)
            )
            assert is_invertible(x) == perm


def _row_has_private_unit_column(x, i):
    r = x.source.block_count
    return any(
        x.matrix[i][j] == 1
        and all(not x.matrix[i2][j] for i2 in range(r) if i2 != i)
        for j in range(x.target.block_count)
    )


def _column_has_private_unit_row(x, j):
    s = x.target.block_count
    return any(
        x.matrix[i][j] == 1
        and all(not x.matrix[i][j2] for j2 in range(s) if j2 != j)
        for i in range(x.source.block_count)
    )


def test_one_sided_inverses_bounded_search():
    # Constructive direction: a left-full partial permutation is undone by its
    # dual.  The converse fails: a one-sided inverse M with X * M = 1 exists
    # exactly when every row of X holds a 1 that is alone in its column, a
    # strictly wider class than the partial permutations.  Witness:
    # [[1, 1]] * [[1], [0]] = [[1]].  (See DECISIONS.md.)
    algebras = enumerate_algebras()
    for a, b in itertools.product(algebras, repeat=2):
        ia = identity_corr(a)
        for x in enumerate_corrs(a, b, 2):
            if is_left_full_hilbert_bimodule(x):
                assert compose(x, dual(x)) == ia
            found = any(compose(x, m) == ia for m in enumerate_corrs(b, a, 3))
            private = all(
                _row_has_private_unit_column(x, i) for i in range(a.block_count)
            )
            assert found == private, x
            assert found == is_split_mono(x), x
            witness = left_inverse(x)
            assert (witness is not None) == found, x
            if found:
                assert compose(x, witness) == ia, x


def test_right_inverses_bounded_search():
    # The mirror statement: M * X = 1 for some M exactly when every column of
    # X holds a 1 that is alone in its row.  Witness: [[1, 0]] * [[1], [1]].
    algebras = enumerate_algebras()
    for a, b in itertools.product(algebras, repeat=2):
        ib = identity_corr(b)
        for x in enumerate_corrs(a, b, 1):
            found = any(compose(m, x) == ib for m in enumerate_corrs(b, a, 3))
            private = all(
                _column_has_private_unit_row(x, j) for j in range(b.block_count)
            )
            assert found == private, x
            assert found == is_split_epi(x), x
            witness = right_inverse(x)
            assert (witness is not None) == found, x
            if found:
                assert compose(witness, x) == ib, x


def _inf_table(a, b, top):
    # enumerate_corrs(a, b, top) with the entry `top` read as INF.
    return [
        CorrClass(a, b, [[INF if v == top else v for v in row] for row in x.matrix])
        for x in enumerate_corrs(a, b, top)
    ]


def test_one_sided_inverses_bounded_search_with_inf():
    # X has entries in {0, 1, INF} and at least one INF.  Searching M over
    # entries <= 1 is complete: if X * M = 1, every term X[i][k] * M[k][j]
    # with both factors nonzero is 1, so the rows of M under nonzero columns
    # of X are 0/1, and the other rows of M can be zeroed without changing
    # X * M.  The mirror argument holds for M * X = 1.
    algebras = enumerate_algebras()
    classes = monos = epis = 0
    for a, b in itertools.product(algebras, repeat=2):
        ia, ib = identity_corr(a), identity_corr(b)
        for x in _inf_table(a, b, 2):
            if all(INF not in row for row in x.matrix):
                continue
            classes += 1
            found = any(compose(x, m) == ia for m in enumerate_corrs(b, a, 1))
            witness = left_inverse(x)
            assert found == is_split_mono(x) == (witness is not None), x
            if found:
                assert compose(x, witness) == ia, x
            monos += found
            found = any(compose(m, x) == ib for m in enumerate_corrs(b, a, 1))
            witness = right_inverse(x)
            assert found == is_split_epi(x) == (witness is not None), x
            if found:
                assert compose(witness, x) == ib, x
            epis += found
    assert (classes, monos, epis) == (76, 2, 2)


def _pattern(x):
    # The 0/1 pattern of a class: 1 wherever the entry is nonzero.
    return CorrClass(x.source, x.target, [[int(bool(v)) for v in row] for row in x.matrix])


def _tables(algebras, top):
    # Every class over `algebras` with entries at most `top`, beside the same
    # class with the entry `top` read as INF.
    for a, b in itertools.product(algebras, repeat=2):
        yield from zip(enumerate_corrs(a, b, top), _inf_table(a, b, top))


SUPPORT_VERDICTS = (
    kernel,
    cokernel,
    schubert_image,
    schubert_coimage,
    left_kernel,
    right_support,
    is_full,
    phi_injective,
)


def test_support_verdicts_depend_only_on_the_zero_pattern():
    # Kernels, images and the support predicates read only which entries
    # vanish, so {0, 1} tables speak for every entry, INF included (see
    # DECISIONS.md).  The split and Hilbert-bimodule predicates read values
    # and are not covered.
    classes = 0
    for _, x in _tables(enumerate_algebras(), 3):
        p = _pattern(x)
        for verdict in SUPPORT_VERDICTS:
            assert verdict(x) == verdict(p), (verdict.__name__, x)
        classes += 1
    assert classes == 297


def _unit_blocks(x):
    # The same matrix between the algebras of as many blocks of size one.
    source, target = (FdCStarAlgebra((1,) * a.block_count) for a in (x.source, x.target))
    return CorrClass(source, target, x.matrix)


def _reading(value):
    # A verdict with the block sizes left out: a class's matrix, an ideal's
    # members, a predicate's bool.
    return getattr(value, "matrix", getattr(value, "members", value))


def test_symbolic_verdicts_do_not_read_block_sizes():
    # M_n is Morita equivalent to C, so resizing blocks changes no symbolic
    # verdict, the value-reading predicates included; the exhaustive searches
    # run over unit blocks on the strength of this (see DECISIONS.md).  The
    # rank probes refuse INF, so they see the finite twin of each class.
    verdicts = SUPPORT_VERDICTS + (
        is_split_mono,
        is_split_epi,
        is_hilbert_bimodule,
        is_left_full_hilbert_bimodule,
        is_invertible,
    )
    classes = 0
    for finite, x in _tables(SIZED_ALGEBRAS, 3):
        u = _unit_blocks(x)
        for verdict in verdicts:
            assert _reading(verdict(x)) == _reading(verdict(u)), (verdict.__name__, x)
        unit_finite = _unit_blocks(finite)
        for probe in (mono_finite_rank_test, epi_finite_rank_test):
            assert probe(finite) == probe(unit_finite), (probe.__name__, finite)
        classes += 1
    assert classes == 4381


def test_exact_at_depends_only_on_the_zero_pattern():
    # Every composable pair with entries in {0, 1, INF} over enumerate_algebras().
    algebras = enumerate_algebras()
    tables = {(a, b): _inf_table(a, b, 2) for a, b in itertools.product(algebras, repeat=2)}
    pairs = exact = 0
    for a, b, c in itertools.product(algebras, repeat=3):
        for x, y in itertools.product(tables[a, b], tables[b, c]):
            verdict = exact_at(x, y)
            assert verdict == exact_at(_pattern(x), _pattern(y)), (x, y)
            pairs += 1
            exact += verdict.exact
    assert (pairs, exact) == (8459, 677)


def test_diagonal_embedding_is_one_sided_invertible_but_not_hilbert_bimodule():
    from enchilada import is_hilbert_bimodule, make_algebra

    c1 = make_algebra([1])
    c2 = make_algebra([1, 1])
    x = CorrClass(c1, c2, ((1, 1),))
    m = CorrClass(c2, c1, ((1,), (0,)))
    assert compose(x, m) == identity_corr(c1)
    assert not is_hilbert_bimodule(x)
    assert is_split_mono(x)
    assert left_inverse(x) == m


def test_kernel_of_random_class_is_split_mono():
    rng = np.random.default_rng(17)
    for _ in range(80):
        a, b = random_algebra(rng), random_algebra(rng)
        x = random_corr(rng, a, b, inf_prob=0.2)
        k = kernel(x)
        assert is_split_mono(k)
        assert compose(k, x).is_zero


def test_left_full_hilbert_bimodules_are_exactly_kernels():
    # forward: a left-full partial permutation is a kernel of the quotient
    # by its support; backward: kernels are left-full partial permutations
    algebras = enumerate_algebras()
    for a, b in itertools.product(algebras, repeat=2):
        for x in enumerate_corrs(a, b, 1):
            if is_left_full_hilbert_bimodule(x):
                witness = cokernel(schubert_image(x))
                assert compose(x, witness).is_zero
                assert left_kernel(witness).members == right_support(x).members
            k = kernel(x)
            assert is_left_full_hilbert_bimodule(k)


def test_schubert_factorizations():
    rng = np.random.default_rng(18)
    for _ in range(80):
        a, b = random_algebra(rng), random_algebra(rng)
        x = random_corr(rng, a, b, inf_prob=0.15)
        assert schubert_image(x) == kernel(cokernel(x))
        assert schubert_coimage(x) == cokernel(kernel(x))
        # the class factors through both
        through_image = restrict_right(x, right_support(x))
        assert compose(through_image, schubert_image(x)) == x
        from enchilada import factor_through_quotient

        through_coimage = factor_through_quotient(x, left_kernel(x))
        assert compose(schubert_coimage(x), through_coimage) == x
