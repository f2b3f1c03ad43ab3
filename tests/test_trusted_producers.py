"""Every public producer returns a class that survives the full entry check.

The producers build their results with `CorrClass._trusted`, which skips
the check in `__post_init__`.  Rebuilding each result through the public
constructor re-checks it, so a producer that leaks a list row, an entry
`card` would refuse, or a row of the wrong length fails here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from enchilada import (
    INF,
    CorrClass,
    classify,
    cokernel,
    compose,
    direct_sum,
    dual,
    enumerate_corrs,
    factor_through_quotient,
    ideal_inclusion_corr,
    identity_corr,
    kernel,
    left_inverse,
    left_kernel,
    make_algebra,
    quotient_corr,
    realize,
    restrict_right,
    right_inverse,
    right_support,
    schubert_coimage,
    schubert_image,
    zero_corr,
)

algebras = st.lists(st.integers(1, 2), max_size=3).map(make_algebra)
# Zero and 1 drawn often, so that supports, kernels and inverses are not trivial.
entries = st.sampled_from([0, 0, 1, 1, 2, INF, 10**400])


def _matrix(data, source, target, values=entries):
    s = target.block_count
    return [data.draw(st.lists(values, min_size=s, max_size=s)) for _ in source.blocks]


def _assert_checked(result):
    assert type(result.matrix) is tuple
    assert all(type(row) is tuple for row in result.matrix)
    assert result == CorrClass(result.source, result.target, result.matrix)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_producers_return_checked_classes(data):
    a, b, c = data.draw(algebras), data.draw(algebras), data.draw(algebras)
    x = CorrClass(a, b, _matrix(data, a, b))
    x2 = CorrClass(a, b, _matrix(data, a, b))
    y = CorrClass(b, c, _matrix(data, b, c))
    results = [
        compose(x, y),
        direct_sum(x, x2),
        identity_corr(a),
        zero_corr(a, b),
        kernel(x),
        cokernel(x),
        schubert_image(x),
        schubert_coimage(x),
        ideal_inclusion_corr(right_support(x)),
        ideal_inclusion_corr(left_kernel(x)),
        quotient_corr(b, right_support(x)),
        dual(kernel(x)),
        dual(cokernel(x)),
        restrict_right(x, right_support(x)),
        factor_through_quotient(x, left_kernel(x)),
        *(w for w in (left_inverse(x), right_inverse(x)) if w is not None),
        *enumerate_corrs(a, b, 1),
    ]
    finite = CorrClass(a, b, _matrix(data, a, b, st.integers(0, 2)))
    results.append(classify(realize(finite)))
    for result in results:
        _assert_checked(result)


def test_inverse_witnesses_are_checked():
    # Random classes seldom have one-sided inverses; these do.
    a1, a2 = make_algebra([1]), make_algebra([1, 2])
    for x in (CorrClass(a1, a2, [[1, 1]]), CorrClass(a2, a1, [[1], [1]])):
        witnesses = [w for w in (left_inverse(x), right_inverse(x)) if w is not None]
        assert witnesses
        for w in witnesses:
            _assert_checked(w)
