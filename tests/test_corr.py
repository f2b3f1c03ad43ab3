import itertools

import pytest

from enchilada import (
    INF,
    CorrClass,
    ValidationError,
    ZERO_ALGEBRA,
    cokernel,
    compose,
    direct_sum,
    dual,
    epi_finite_rank_test,
    factor_through_quotient,
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
    make_algebra,
    make_ideal,
    mono_finite_rank_test,
    phi_injective,
    quotient_corr,
    restrict_right,
    right_inverse,
    right_support,
    schubert_coimage,
    schubert_image,
    tensor_is_zero,
    zero_corr,
)

C1 = make_algebra([1])
C2 = make_algebra([1, 1])
C3 = make_algebra([1, 1, 1])


def corr(src, tgt, rows):
    return CorrClass(src, tgt, tuple(tuple(r) for r in rows))


def test_identity_corr():
    assert identity_corr(C2) == corr(C2, C2, [[1, 0], [0, 1]])
    assert identity_corr(ZERO_ALGEBRA).matrix == ()
    assert identity_corr(make_algebra([3])) == corr(make_algebra([3]), make_algebra([3]), [[1]])


def test_compose_examples():
    x = corr(C1, C2, [[1, 1]])
    y = corr(C2, C1, [[1], [0]])
    assert compose(x, y) == corr(C1, C1, [[1]])
    assert compose(identity_corr(C1), x) == x
    assert compose(x, identity_corr(C2)) == x
    k, l = corr(C1, C1, [[2]]), corr(C1, C1, [[3]])
    assert compose(k, l) == corr(C1, C1, [[6]])


def test_compose_against_concrete_oracle():
    # independent check of the [[2]] * [[3]] = [[6]] example
    from enchilada import classify, interior_tensor, realize

    k, l = corr(C1, C1, [[2]]), corr(C1, C1, [[3]])
    assert classify(interior_tensor(realize(k), realize(l))) == compose(k, l)


def test_compose_shape_mismatch():
    with pytest.raises(ValidationError):
        compose(corr(C1, C2, [[1, 0]]), corr(C1, C1, [[1]]))


def test_direct_sum():
    one = corr(C1, C1, [[1]])
    two = corr(C1, C1, [[2]])
    three = corr(C1, C1, [[3]])
    inf = corr(C1, C1, [[INF]])
    assert direct_sum(one, two) == three
    assert direct_sum(inf, one) == inf
    assert direct_sum(inf, two) == direct_sum(inf, one)  # summands differ
    with pytest.raises(ValidationError):
        direct_sum(one, corr(C1, C2, [[1, 0]]))


def test_huge_entries_meet_inf():
    # An int beyond float range cannot be added to or multiplied with the
    # float INF; the sum or product is still INF.
    assert compose(corr(C1, C2, [[10**400, INF]]), corr(C2, C1, [[1], [1]])).matrix == ((INF,),)
    assert compose(
        corr(C1, C2, [[10**300, INF]]), corr(C2, C1, [[10**300], [1]])
    ).matrix == ((INF,),)
    assert direct_sum(corr(C1, C1, [[10**400]]), corr(C1, C1, [[INF]])).matrix == ((INF,),)
    exact = compose(corr(C1, C2, [[10**300, 0]]), corr(C2, C1, [[10**300], [INF]]))
    assert exact.matrix == ((10**600,),)


def test_supports():
    assert right_support(corr(C1, C2, [[1, 0]])).members == {0}
    assert right_support(zero_corr(C1, C2)).members == set()
    assert right_support(corr(C2, C1, [[1], [1]])).members == {0}
    assert left_kernel(corr(C2, C1, [[1], [0]])).members == {1}
    assert left_kernel(identity_corr(C2)).members == set()
    assert left_kernel(zero_corr(C1, C1)).members == {0}


def test_fullness_and_injectivity():
    x = corr(C1, C2, [[1, 1]])
    assert is_full(x) and phi_injective(x)
    y = corr(C2, C1, [[1], [0]])
    assert is_full(y) and not phi_injective(y)
    z = corr(C1, C2, [[1, 0]])
    assert not is_full(z) and phi_injective(z)


def test_tensor_is_zero():
    x = corr(C1, C2, [[1, 0]])
    y = corr(C2, C1, [[0], [1]])
    assert tensor_is_zero(x, y)
    assert compose(x, y).is_zero
    nonzero = corr(C2, C1, [[1], [1]])
    assert not tensor_is_zero(identity_corr(C2), nonzero)
    with pytest.raises(ValidationError):
        tensor_is_zero(x, corr(C1, C1, [[1]]))


def test_ideal_inclusion_corr():
    assert ideal_inclusion_corr(make_ideal(C2, {1})) == corr(C1, C2, [[0, 1]])
    empty = ideal_inclusion_corr(make_ideal(C2, set()))
    assert empty.source.is_zero and empty.matrix == ()
    assert ideal_inclusion_corr(make_ideal(C2, {0, 1})) == identity_corr(C2)


def test_quotient_corr():
    assert quotient_corr(C2, make_ideal(C2, {0})) == corr(C2, C1, [[0], [1]])
    assert quotient_corr(C2, make_ideal(C2, set())) == identity_corr(C2)
    to_zero = quotient_corr(C2, make_ideal(C2, {0, 1}))
    assert to_zero.target.is_zero and to_zero.matrix == ((), ())


def test_kernel():
    x = corr(C2, C1, [[1], [0]])
    assert kernel(x) == corr(C1, C2, [[0, 1]])
    assert compose(kernel(x), x).is_zero
    assert kernel(identity_corr(C2)).source.is_zero
    assert kernel(zero_corr(C1, C2)) == identity_corr(C1)


def test_cokernel():
    x = corr(C1, C2, [[1, 0]])
    assert cokernel(x) == corr(C2, C1, [[0], [1]])
    assert compose(x, cokernel(x)).is_zero
    assert cokernel(corr(C1, C2, [[1, 1]])).target.is_zero
    assert cokernel(zero_corr(C1, C2)) == identity_corr(C2)


def test_schubert_image_and_coimage():
    x = corr(C1, C2, [[1, 0]])
    assert schubert_image(x) == corr(C1, C2, [[1, 0]])
    assert schubert_image(zero_corr(C1, C2)).source.is_zero
    assert schubert_image(corr(C1, C2, [[1, 1]])) == identity_corr(C2)

    y = corr(C2, C1, [[1], [0]])
    assert schubert_coimage(y) == corr(C2, C1, [[1], [0]])
    assert schubert_coimage(corr(C1, C2, [[1, 1]])) == identity_corr(C1)
    assert schubert_coimage(zero_corr(C2, C1)).target.is_zero


def test_is_hilbert_bimodule():
    assert is_hilbert_bimodule(corr(C1, C3, [[0, 1, 0]]))
    assert not is_hilbert_bimodule(corr(C1, C2, [[1, 1]]))
    assert not is_hilbert_bimodule(corr(C1, C1, [[2]]))
    assert not is_hilbert_bimodule(corr(C1, C1, [[INF]]))
    assert not is_hilbert_bimodule(corr(C2, C1, [[1], [1]]))


def test_split_mono():
    x = corr(C1, C3, [[0, 1, 0]])
    assert is_split_mono(x)
    assert compose(x, dual(x)) == identity_corr(C1)
    assert is_left_full_hilbert_bimodule(x)
    # the diagonal embedding is undone by a projection without being a
    # Hilbert bimodule (DECISIONS.md)
    diagonal = corr(C1, C2, [[1, 1]])
    assert is_split_mono(diagonal)
    assert not is_left_full_hilbert_bimodule(diagonal)
    assert left_inverse(diagonal) == corr(C2, C1, [[1], [0]])
    assert left_inverse(corr(C1, C1, [[2]])) is None
    assert is_split_mono(identity_corr(C2))


def test_split_epi():
    assert is_split_epi(corr(C3, C1, [[0], [1], [0]]))
    assert not is_split_epi(corr(C1, C2, [[1, 0]]))
    assert is_split_epi(identity_corr(C2))
    # the codiagonal C + C -> C is split by the inclusion of one summand
    codiagonal = corr(C2, C1, [[1], [1]])
    assert is_split_epi(codiagonal)
    assert right_inverse(codiagonal) == corr(C1, C2, [[1, 0]])
    assert compose(right_inverse(codiagonal), codiagonal) == identity_corr(C1)
    assert right_inverse(corr(C1, C2, [[1, 0]])) is None


def test_is_invertible():
    assert is_invertible(corr(C2, C2, [[0, 1], [1, 0]]))
    assert not is_invertible(corr(C1, C2, [[1, 0]]))
    # Morita equivalence between blocks of different size
    assert is_invertible(corr(make_algebra([2]), make_algebra([3]), [[1]]))


def test_dual():
    x = corr(C1, C3, [[0, 1, 0]])
    xd = dual(x)
    assert xd == corr(C3, C1, [[0], [1], [0]])
    assert compose(x, xd) == identity_corr(C1)
    assert compose(xd, x) == corr(C3, C3, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])

    assert dual(identity_corr(C2)) == identity_corr(C2)

    partial = corr(C2, C2, [[1, 0], [0, 0]])
    assert dual(partial) == partial
    assert compose(partial, dual(partial)) == partial
    assert compose(dual(partial), partial) == partial

    with pytest.raises(ValidationError):
        dual(corr(C1, C2, [[1, 1]]))


def test_restrict_right():
    x = corr(C1, C2, [[1, 0]])
    sub = make_ideal(C2, {0})
    assert restrict_right(x, sub) == corr(C1, C1, [[1]])
    assert restrict_right(x, make_ideal(C2, {0, 1})) == x

    wide = corr(C2, C2, [[2, 0], [1, 0]])
    narrowed = restrict_right(wide, sub)
    assert narrowed == corr(C2, C1, [[2], [1]])
    assert compose(narrowed, ideal_inclusion_corr(sub)) == wide

    with pytest.raises(ValidationError):
        restrict_right(corr(C1, C2, [[0, 1]]), sub)


def test_factor_through_quotient():
    x = corr(C2, C1, [[1], [0]])
    ideal = make_ideal(C2, {1})
    assert factor_through_quotient(x, ideal) == corr(C1, C1, [[1]])
    assert factor_through_quotient(x, make_ideal(C2, set())) == x

    tall = corr(C3, C1, [[1], [0], [0]])
    one_row = make_ideal(C3, {1})
    factored = factor_through_quotient(tall, one_row)
    assert factored == corr(C2, C1, [[1], [0]])
    assert compose(quotient_corr(C3, one_row), factored) == tall

    with pytest.raises(ValidationError):
        factor_through_quotient(x, make_ideal(C2, {0}))


def _left_cancellable_by_search(x, max_dim=2, max_entry=2):
    # oracle: exhaustive search for G != H with G * X = H * X
    for d in range(1, max_dim + 1):
        dom = make_algebra([1] * d)
        mats = list(
            itertools.product(range(max_entry + 1), repeat=d * x.source.block_count)
        )
        seen = {}
        for flat in mats:
            rows = tuple(
                flat[i * x.source.block_count : (i + 1) * x.source.block_count]
                for i in range(d)
            )
            g = CorrClass(dom, x.source, rows)
            key = compose(g, x).matrix
            if key in seen and seen[key] != g:
                return False, (seen[key], g)
            seen[key] = g
    return True, None


def test_mono_finite_rank_test():
    ok, _ = _left_cancellable_by_search(corr(C1, C2, [[1, 1]]))
    assert ok
    assert mono_finite_rank_test(corr(C1, C2, [[1, 1]]))

    cancellable, witness = _left_cancellable_by_search(corr(C2, C1, [[1], [1]]))
    assert not cancellable
    g, h = witness
    assert compose(g, corr(C2, C1, [[1], [1]])) == compose(h, corr(C2, C1, [[1], [1]]))
    assert not mono_finite_rank_test(corr(C2, C1, [[1], [1]]))

    assert mono_finite_rank_test(identity_corr(C2))
    with pytest.raises(ValidationError):
        mono_finite_rank_test(corr(C1, C1, [[INF]]))


def test_epi_finite_rank_test():
    assert not epi_finite_rank_test(corr(C1, C2, [[1, 1]]))
    assert epi_finite_rank_test(quotient_corr(C2, make_ideal(C2, {0})))
    assert not epi_finite_rank_test(corr(C1, C2, [[1, 0]]))
    with pytest.raises(ValidationError):
        epi_finite_rank_test(corr(C1, C1, [[INF]]))


def test_matrix_shape_validation():
    with pytest.raises(ValidationError):
        CorrClass(C2, C1, ((1,),))
    with pytest.raises(ValidationError):
        CorrClass(C1, C2, ((1,),))


def test_foreign_ideals_are_refused():
    foreign = make_ideal(make_algebra([2]), {0})
    with pytest.raises(ValidationError, match="ideal does not belong to this algebra"):
        quotient_corr(C2, foreign)
    x = corr(C1, C2, [[1, 0]])
    with pytest.raises(ValidationError, match="restriction ideal must live in the target algebra"):
        restrict_right(x, foreign)
    with pytest.raises(ValidationError, match="factoring ideal must live in the source algebra"):
        factor_through_quotient(x, foreign)


def test_repr_prints_an_entry_too_long_for_str_in_hex():
    # str() refuses ints of more than 4,300 digits by default.
    assert repr(corr(C1, C1, [[10**4000]])) == f"CorrClass([1] -> [1]; [[{10**4000}]])"
    big = 10**5000
    assert repr(corr(C1, C1, [[big]])) == f"CorrClass([1] -> [1]; [[{hex(big)}]])"
