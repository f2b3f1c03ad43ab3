"""Every public producer returns a class or ideal that survives the full check.

The producers build their results with `CorrClass._trusted` and
`IdealRef._trusted`, which skip the check in `__post_init__`.  Rebuilding
each result through the public constructor re-checks it, so a producer that
leaks a list row, an entry `card` would refuse (a numpy scalar among them),
a row of the wrong length or a member outside the algebra fails here.
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
    make_ideal,
    quotient_corr,
    realize,
    restrict_right,
    right_inverse,
    right_support,
    schubert_coimage,
    schubert_image,
    zero_corr,
)
from enchilada.corr import WIDE_COMPOSE_MIN

algebras = st.lists(st.integers(1, 2), max_size=3).map(make_algebra)
# Zero and 1 drawn often, so that supports, kernels and inverses are not trivial.
entries = st.sampled_from([0, 0, 1, 1, 2, INF, 10**400])
# Composing two classes over 8 blocks takes the numpy path.
wide = make_algebra([1, 2] * 4)
assert wide.block_count**3 >= WIDE_COMPOSE_MIN


def _matrix(data, source, target, values=entries):
    s = target.block_count
    return [data.draw(st.lists(values, min_size=s, max_size=s)) for _ in source.blocks]


def _assert_checked(result):
    assert type(result.matrix) is tuple
    assert all(type(row) is tuple for row in result.matrix)
    assert result == CorrClass(result.source, result.target, result.matrix)


def _assert_checked_ideal(ideal):
    assert type(ideal.members) is frozenset
    assert ideal == make_ideal(ideal.parent, ideal.members)


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
    small = st.sampled_from([0, 1, 2, 3, INF])
    u, v = (CorrClass(wide, wide, _matrix(data, wide, wide, small)) for _ in range(2))
    results.append(compose(u, v))
    for result in results:
        _assert_checked(result)
    for z in (x, y, u):
        _assert_checked_ideal(right_support(z))
        _assert_checked_ideal(left_kernel(z))


def test_inverse_witnesses_are_checked():
    # Random classes seldom have one-sided inverses; these do.
    a1, a2 = make_algebra([1]), make_algebra([1, 2])
    for x in (CorrClass(a1, a2, [[1, 1]]), CorrClass(a2, a1, [[1], [1]])):
        witnesses = [w for w in (left_inverse(x), right_inverse(x)) if w is not None]
        assert witnesses
        for w in witnesses:
            _assert_checked(w)
