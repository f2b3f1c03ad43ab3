import gc
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from enchilada import (
    CorrClass,
    InteriorTensor,
    ValidationError,
    ZERO_ALGEBRA,
    classify,
    compacts_span_defect,
    compose,
    dual,
    enumerate_corrs,
    identity_corr,
    interior_tensor,
    interior_tensor_norm,
    is_hilbert_bimodule,
    is_isomorphic,
    left_kernel,
    make_algebra,
    random_algebra,
    random_corr,
    rank_one,
    realize,
    right_support,
    run_suite,
    validate,
)
from enchilada import concrete
from enchilada.concrete import ConcreteCorr, ConcreteModule
from compacts_reference import compacts_span_defect as reference_compacts
from sized_algebras import SIZED_ALGEBRAS

C1 = make_algebra([1])
C2 = make_algebra([1, 1])
M2 = make_algebra([2])


def test_realize_identity_of_m2():
    x = realize(identity_corr(M2))
    assert x.module.fiber_dims == (2,)
    # canonical inner product <x, y> = x* y on 2x2 matrices
    a = x.module.as_element([np.array([[1, 2], [3, 4]], dtype=complex)])
    b = x.module.as_element([np.array([[0, 1], [1, 0]], dtype=complex)])
    (ip,) = x.module.inner_product(a, b)
    assert np.allclose(ip, a[0].conj().T @ b[0])
    assert classify(x) == identity_corr(M2)


def test_realize_multiplicity_two():
    x = realize(CorrClass(C1, C1, ((2,),)))
    assert x.module.fiber_dims == (2,)
    # scalar action: a acts as a * I_2
    mat = x.action_matrix(0, (np.array([[3.0]]),))
    assert np.allclose(mat, 3.0 * np.eye(2))


def test_realize_diagonal_embedding():
    x = realize(CorrClass(C1, C2, ((1, 1),)))
    assert x.module.fiber_dims == (1, 1)
    for j in range(2):
        assert np.allclose(x.action_matrix(j, (np.array([[2.0]]),)), 2.0 * np.eye(1))
    assert classify(x) == CorrClass(C1, C2, ((1, 1),))


def test_realize_rejects_inf():
    with pytest.raises(ValidationError):
        realize(CorrClass(C1, C1, (("inf",),)))


def test_realize_caps_action_size(monkeypatch):
    # Refused before numpy is asked for the (1, 1, d, d) array.
    for k in (4097, 10**9):
        with pytest.raises(ValidationError, match="exceeds"):
            realize(CorrClass(C1, C1, ((k,),)))
    # The cap bounds n_i^2 d_j^2 for every unit-image array, inclusively.
    monkeypatch.setattr(concrete, "MAX_ACTION_ENTRIES", 16)
    assert realize(CorrClass(C1, C1, ((4,),))).module.fiber_dims == (4,)
    assert realize(CorrClass(M2, C1, ((1,),))).module.fiber_dims == (2,)
    with pytest.raises(ValidationError):
        realize(CorrClass(C1, C1, ((5,),)))
    with pytest.raises(ValidationError):
        realize(CorrClass(make_algebra([1, 2]), C1, ((1,), (1,))))


def test_interior_tensor_caps_action_size(monkeypatch):
    # Both factors are small; their product's fiber (64 * 65) is not.
    x = realize(CorrClass(C1, C1, ((64,),)))
    y = realize(CorrClass(C1, C1, ((65,),)))
    with pytest.raises(ValidationError, match="exceeds"):
        InteriorTensor(x, y).corr
    monkeypatch.setattr(concrete, "MAX_ACTION_ENTRIES", 36)
    two, three, four = (realize(CorrClass(C1, C1, ((k,),))) for k in (2, 3, 4))
    assert InteriorTensor(two, three).corr.module.fiber_dims == (6,)
    with pytest.raises(ValidationError):
        InteriorTensor(two, four).corr


def test_action_cap_bounds_the_total(monkeypatch):
    # Three (1, 1, 9, 9) arrays of 81 entries each: every one is under the cap,
    # their total of 243 is not.
    monkeypatch.setattr(concrete, "MAX_ACTION_ENTRIES", 100)
    with pytest.raises(ValidationError, match="exceeds"):
        realize(CorrClass(make_algebra([1, 1, 1]), C1, ((3,), (3,), (3,))))
    assert realize(CorrClass(make_algebra([1, 1]), C1, ((3,), (4,)))).module.fiber_dims == (7,)


def test_action_cap_precedes_identity_images():
    # The identity images of a 1000 x 1000 block would hold 10^12 entries;
    # they are built only for blocks that occur, and only after the cap.
    big = make_algebra([1000])
    assert realize(CorrClass(big, C1, ((0,),))).module.fiber_dims == (0,)
    with pytest.raises(ValidationError, match="exceeds"):
        realize(CorrClass(big, C1, ((1,),)))


def _traced_peak(fn, *args):
    # The most memory fn allocated at once, beyond what existed before.
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_zero_fibers_build_no_plan_and_no_identity_image():
    # A 1000 x 1000 block has 10^6 units and 10^12 identity-image entries.
    # With only zero fibers, realize, validate and classify need the block
    # offsets alone: neither the plan's index arrays nor an identity image.
    big = make_algebra([1000])
    kind = CorrClass(big, C1, ((0,),))
    x, peak = _traced_peak(realize, kind)
    assert x.action[0][0].shape == (1000, 1000, 0, 0)
    report, validate_peak = _traced_peak(validate, x)
    got, classify_peak = _traced_peak(classify, x)
    assert report.ok and got == kind
    assert max(peak, validate_peak, classify_peak) < 100_000
    assert "checks" not in vars(concrete._plan(big.blocks))


def test_validate_memory_stays_near_its_input():
    # M_4 + M_4 -> C with k = (64, 64): a 512-dimensional fiber and 67 MB of
    # action, near MAX_ACTION_ENTRIES.  The gathered products go in chunks,
    # so validate's peak stays below the 79.7 MB that the per-block loop it
    # replaced allocated here; one unchunked gather takes about 426 MB.  The
    # single-stack copy is validated: the realization itself is checked as a
    # small identity sum, which needs no chunks.
    x = _single_stack(realize(CorrClass(make_algebra([4, 4]), C1, ((64,), (64,)))))
    assert sum(arr.nbytes for arr in x._stacks) == 32 * 512 * 512 * 8
    report, peak = _traced_peak(validate, x)
    assert report.ok
    assert peak <= 79.7e6


def test_chunked_products_match_one_chunk(monkeypatch):
    # M_4 + M_4 -> C with k = (32, 32): 64 relation rows of 256 x 256, so the
    # default budget takes four chunks.  The report matches the exhaustive
    # loops on the realization's single-stack copy (the realization itself is
    # checked as a small identity sum), and on a perturbed copy it is the same
    # for one row per chunk, the default and a single chunk.
    x = _single_stack(realize(CorrClass(make_algebra([4, 4]), C1, ((32,), (32,)))))
    assert x.module.fiber_dims == (256,)
    assert 2 * 32 * 256**2 == 4 * concrete._CHUNK_ENTRIES
    assert _assert_validators_bounded_by_loops(x).ok
    rng = np.random.default_rng(50)
    action = [list(per) for per in x.action]
    noise = rng.standard_normal(action[0][1].shape) + 1j * rng.standard_normal(action[0][1].shape)
    action[0][1] = action[0][1] + 1e-6 * noise
    bumped = ConcreteCorr(x.source, x.module, tuple(map(tuple, action)))
    reports = []
    for budget in (1, concrete._CHUNK_ENTRIES, 2**40):
        monkeypatch.setattr(concrete, "_CHUNK_ENTRIES", budget)
        reports.append([(c.name, c.violation) for c in validate(bumped).checks])
    assert reports[0] == reports[1] == reports[2]
    assert all(v > concrete.VALIDATE_TOL for _, v in reports[0][:2])
    # M_3 + M_2 -> C in chunks of three rows: a change to any one unit image
    # reads as it does in one chunk, so no relation row falls between chunks.
    x = realize(CorrClass(make_algebra([3, 2]), C1, ((1,), (1,))))
    for i, n in enumerate(x.source.blocks):
        for p, q in itertools.product(range(n), repeat=2):
            action = [list(per) for per in x.action]
            action[0][i] = action[0][i].copy()
            action[0][i][p, q] += 1e-3 * rng.standard_normal((5, 5))
            bumped = ConcreteCorr(x.source, x.module, tuple(map(tuple, action)))
            reports = []
            for budget in (3 * 5 * 5, 2**40):
                monkeypatch.setattr(concrete, "_CHUNK_ENTRIES", budget)
                reports.append([(c.name, c.violation) for c in validate(bumped).checks])
            assert reports[0] == reports[1]
            assert reports[0][0][1] > concrete.VALIDATE_TOL


def test_one_chunk_path_matches_the_chunked_path(monkeypatch):
    # A relation product that fits one chunk is formed as one gathered
    # product; at one row per chunk every product with more than one row
    # goes through the chunked path.  On the same perturbed and rotated
    # actions both give equal violations and failure names.
    rng = np.random.default_rng(29)
    cases = [x for _kind, x in _perturbed_realizations(34, cases=150)]
    for orthogonal in (True, False) * 25:
        a, b = random_algebra(rng), random_algebra(rng)
        cases.append(_rotate(realize(random_corr(rng, a, b)), rng, orthogonal))

    def reports():
        return [
            ([(c.name, c.violation) for c in report.checks], report.failures())
            for report in map(validate, cases)
        ]

    one_chunk = reports()
    monkeypatch.setattr(concrete, "_CHUNK_ENTRIES", 1)
    assert reports() == one_chunk
    assert 20 < sum(bool(failures) for _, failures in one_chunk) < len(cases)


def test_identity_fill_allocates_only_its_stack():
    # Block i's identity is written as its n_i^2 ones through index arrays on
    # the plan; an np.eye(n_i^2) image beside the stack would double the peak.
    x = realize(CorrClass(make_algebra([32]), C1, ((1,),)))
    stacks, peak = _traced_peak(lambda: x._stacks)
    assert stacks[0].nbytes == 32**4 * 8
    assert peak < 1.05 * stacks[0].nbytes


def test_identity_indices_live_and_die_with_their_plan():
    # The index arrays are held by the plan instance, so a plan that _plan's
    # cache evicts takes them with it.
    plan = concrete._Plan((2, 3))
    rows, p, q = plan.eye(1)
    assert plan.eye(1)[0] is rows
    assert rows.tolist() == [4 + k for k in range(9)] and (p * 3 + q).tolist() == list(range(9))
    ref = weakref.ref(plan)
    del plan
    gc.collect()
    assert ref() is None


def test_validate_realizations_pass():
    rng = np.random.default_rng(21)
    for _ in range(15):
        a, b = random_algebra(rng), random_algebra(rng)
        k = random_corr(rng, a, b)
        report = validate(realize(k))
        assert report.ok
        assert report.max_violation <= 1e-9


def test_validate_flags_broken_adjoint():
    x = realize(identity_corr(M2))
    tampered = [list(per) for per in x.action]
    arr = np.array(tampered[0][0], copy=True)
    arr[0, 1] += 0.1  # breaks e_{01}* = e_{10}
    tampered[0][0] = arr
    broken = ConcreteCorr(x.source, x.module, tuple(tuple(p) for p in tampered))
    report = validate(broken)
    assert not report.ok
    assert "star-adjoint" in report.failures()
    with pytest.raises(ValidationError):
        classify(broken)


def _adjoint_violation_loop(x):
    worst = 0.0
    for j in range(x.target.block_count):
        for i, n in enumerate(x.source.blocks):
            arr = x.action[j][i]
            for p in range(n):
                for q in range(n):
                    worst = max(worst, concrete._max_abs(arr[p, q].conj().T - arr[q, p]))
    return worst


def _nondegeneracy_violation_loop(x):
    worst = 0.0
    for j, d in enumerate(x.module.fiber_dims):
        if d == 0:
            continue
        total = np.zeros((d, d), dtype=complex)
        for i, n in enumerate(x.source.blocks):
            for p in range(n):
                total += x.action[j][i][p, p]
        worst = max(worst, concrete._max_abs(total - np.eye(d)))
    return worst


def _mult_violation_loop(x):
    worst = 0.0
    for j, d in enumerate(x.module.fiber_dims):
        units = []
        for i, n in enumerate(x.source.blocks):
            for p in range(n):
                for q in range(n):
                    units.append((i, p, q, x.action[j][i][p, q]))
        for i1, p1, q1, u in units:
            for i2, p2, q2, v in units:
                prod = u @ v
                if i1 == i2 and q1 == p2:
                    prod = prod - x.action[j][i1][p1, q2]
                worst = max(worst, concrete._max_abs(prod))
    return worst


def _assert_validators_bounded_by_loops(x):
    # validate measures the matrix-unit relations, not every product, so its
    # numbers are bounded by the loops' (DECISIONS.md): each relation residual
    # is one product of the loop, except P_i P_k, a sum of n_i n_k of them, and
    # the adjoint check compares a subset of the loop's pairs.  The absolute
    # terms allow for the other summation order.
    report = validate(x)
    got = {c.name: c.violation for c in report.checks}
    mult = _mult_violation_loop(x)
    adjoint = _adjoint_violation_loop(x)
    nondegeneracy = _nondegeneracy_violation_loop(x)
    blocks = x.source.blocks
    factor = max(
        [1] + [n * m for i, n in enumerate(blocks) for k, m in enumerate(blocks) if i != k]
    )
    assert got["nondegeneracy"] == pytest.approx(nondegeneracy, rel=1e-12, abs=1e-14)
    assert got["star-adjoint"] <= adjoint + 1e-14
    assert got["star-multiplicativity"] <= factor * (mult + 1e-14)
    assert report.ok == (max(mult, adjoint, nondegeneracy) <= report.tol)
    return report


def _perturbed_realizations(seed, cases=300):
    # Realized random classes; two in three get noise of scale 1e-12 to 1e-1
    # on some of their unit-image arrays.
    rng = np.random.default_rng(seed)
    for case in range(cases):
        a, b = random_algebra(rng), random_algebra(rng)
        kind = random_corr(rng, a, b)
        x = realize(kind)
        if case % 3:
            action = [list(per) for per in x.action]
            for j, per in enumerate(action):
                for i, arr in enumerate(per):
                    if arr.size and rng.random() < 0.3:
                        scale = 10.0 ** rng.integers(-12, 0)
                        noise = rng.standard_normal(arr.shape) + 1j * rng.standard_normal(arr.shape)
                        action[j][i] = arr + scale * noise
            x = ConcreteCorr(x.source, x.module, tuple(tuple(per) for per in action))
        yield kind, x


def test_batched_validators_match_loops():
    # The loops above are the exhaustive reference for validate's three checks.
    failing = 0
    for _kind, x in _perturbed_realizations(31):
        failing += not _assert_validators_bounded_by_loops(x).ok
    assert failing > 50


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_classify_refuses_exactly_what_validate_refuses(seed):
    # classify runs validate's report: it refuses an action exactly when
    # validate fails it, naming validate's failures and largest violation,
    # and returns the realized class for every other action.
    refused = 0
    for kind, x in _perturbed_realizations(seed):
        report = validate(x)
        if report.ok:
            assert classify(x) == kind
            continue
        message = (
            f"action fails validation: {report.failures()} "
            f"(max violation {report.max_violation:.3e})"
        )
        with pytest.raises(ValidationError) as err:
            classify(x)
        assert str(err.value) == message
        refused += 1
    assert refused > 50


def _zero_source():
    # The zero algebra acting on a nonzero fiber: there are no unit images.
    return ConcreteCorr(ZERO_ALGEBRA, ConcreteModule(M2, (3,)), ((),))


def test_zero_source_on_a_nonzero_fiber_is_degenerate():
    # The unit images sum to 0, not to the identity, so the action is
    # degenerate by exactly 1; and no algebra element reaches the compacts.
    x = _zero_source()
    report = validate(x)
    assert [(c.name, c.violation) for c in report.checks] == [
        ("star-multiplicativity", 0.0),
        ("star-adjoint", 0.0),
        ("nondegeneracy", 1.0),
    ]
    assert report.failures() == ["nondegeneracy"]
    with pytest.raises(ValidationError, match=r"action fails validation: \['nondegeneracy'\]"):
        classify(x)
    assert compacts_span_defect(x) == 1.0


def test_validate_flags_broken_cross_block_product():
    # Two rank-one projections on one fiber, self-adjoint and idempotent, but
    # not orthogonal: only the product e_0 e_1 of different blocks is nonzero.
    x = realize(CorrClass(C2, C1, ((1,), (1,))))
    v = np.array([1.0, 1.0]) / np.sqrt(2.0)
    images = (np.diag([1.0, 0.0]).reshape(1, 1, 2, 2), np.outer(v, v).reshape(1, 1, 2, 2))
    broken = ConcreteCorr(x.source, x.module, (images,))
    report = _assert_validators_bounded_by_loops(broken)
    assert "star-multiplicativity" in report.failures()
    assert "star-adjoint" not in report.failures()
    with pytest.raises(ValidationError):
        classify(broken)


def test_cross_block_products_group_units_by_block():
    # M_2 + C on C^3: block 0 by E_pq on the first two coordinates, block 1
    # by the projection onto v = (0, 1, 1) / sqrt 2.  Only P_0 P_1 breaks,
    # with largest entry 1/2; grouping the diagonal units e_11 of block 0 and
    # e_00 of block 1 together would hide it.
    v = np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)
    block0 = np.zeros((2, 2, 3, 3))
    for p, q in itertools.product(range(2), repeat=2):
        block0[p, q, p, q] = 1.0
    images = (block0, np.outer(v, v)[None, None])
    x = ConcreteCorr(make_algebra([2, 1]), ConcreteModule(C1, (3,)), (images,))
    got = {c.name: c.violation for c in validate(x).checks}
    assert got["star-multiplicativity"] == pytest.approx(0.5)
    assert got["star-adjoint"] == 0.0


def _with_images(x, j, i, arr):
    action = [list(per) for per in x.action]
    action[j][i] = arr
    return ConcreteCorr(x.source, x.module, tuple(tuple(per) for per in action))


def test_validate_flags_non_first_diagonal_unit():
    # Only e_22 is touched, and not self-adjointly; the adjoint check, which
    # compares the first row of units with the first column, does not see it.
    x = realize(identity_corr(M2))
    arr = np.array(x.action[0][0], copy=True)
    arr[1, 1, 0, 1] += 0.1
    broken = _with_images(x, 0, 0, arr)
    report = validate(broken)
    assert not report.ok
    assert "star-multiplicativity" in report.failures()
    assert "star-adjoint" not in report.failures()
    with pytest.raises(ValidationError):
        classify(broken)


@pytest.mark.parametrize("order", [(0, 1), (1, 0)], ids=["P1P0", "P0P1"])
def test_validate_flags_one_sided_block_product(order):
    # Idempotents e and f with e f = 0 but f e != 0: only one ordered product
    # of the two block units breaks.
    x = realize(CorrClass(C2, C1, ((1,), (1,))))
    e, f = np.diag([1.0, 0.0]), np.array([[0.0, 0.0], [1.0, 1.0]])
    assert not (e @ f).any() and (f @ e).any()
    images = [None, None]
    images[order[0]], images[order[1]] = e.reshape(1, 1, 2, 2), f.reshape(1, 1, 2, 2)
    broken = ConcreteCorr(x.source, x.module, (tuple(images),))
    report = validate(broken)
    assert not report.ok
    assert "star-multiplicativity" in report.failures()
    with pytest.raises(ValidationError):
        classify(broken)


def test_validate_flags_corner_compression():
    # a -> a_11 from M_2 to C is unital, *-preserving and satisfies
    # e_pq = e_p1 e_1q, but e_12 e_21 = 0, not e_11: only the relation
    # e_1p e_q1 = delta_pq e_11 sees it.
    arr = np.zeros((2, 2, 1, 1))
    arr[0, 0] = 1.0
    broken = ConcreteCorr(M2, ConcreteModule(C1, (1,)), ((arr,),))
    report = validate(broken)
    assert report.failures() == ["star-multiplicativity"]
    with pytest.raises(ValidationError):
        classify(broken)


def test_validate_flags_nan_off_first_row_and_column():
    x = realize(CorrClass(M2, C1, ((1,),)))
    arr = np.array(x.action[0][0], copy=True)
    arr[1, 1, 0, 0] = np.nan
    broken = _with_images(x, 0, 0, arr)
    report = validate(broken)
    assert not report.ok
    assert "star-multiplicativity" in report.failures()
    with pytest.raises(ValidationError):
        classify(broken)


@pytest.mark.parametrize("entry", [(0, 1), (0, 0)], ids=["off-diagonal", "diagonal"])
def test_validate_flags_nan_entry(entry):
    x = realize(CorrClass(C1, C1, ((2,),)))
    arr = np.array(x.action[0][0], copy=True)
    arr[(0, 0) + entry] = np.nan
    broken = ConcreteCorr(x.source, x.module, ((arr,),))
    report = validate(broken)
    assert not report.ok
    assert report.failures()
    with pytest.raises(ValidationError):
        classify(broken)


def test_validate_zero_module_vacuous():
    x = realize(zero := CorrClass(C1, C1, ((0,),)))
    assert validate(x).ok
    assert classify(x) == zero


def test_interior_tensor_multiplicities():
    x = realize(CorrClass(C1, C1, ((2,),)))
    y = realize(CorrClass(C1, C1, ((3,),)))
    t = interior_tensor(x, y)
    assert t.module.fiber_dims == (6,)
    assert classify(t) == CorrClass(C1, C1, ((6,),))


def test_tensor_with_identity_is_identity():
    rng = np.random.default_rng(22)
    for _ in range(10):
        a, b = random_algebra(rng), random_algebra(rng)
        k = random_corr(rng, a, b)
        x = realize(k)
        assert is_isomorphic(interior_tensor(x, realize(identity_corr(b))), x)
        assert is_isomorphic(interior_tensor(realize(identity_corr(a)), x), x)


def test_tensor_of_disjoint_supports_is_zero():
    x = realize(CorrClass(C1, C2, ((1, 0),)))
    y = realize(CorrClass(C2, C1, ((0,), (1,))))
    t = InteriorTensor(x, y)
    assert t.corr.module.is_zero
    assert t.gram_norm < 1e-9


def test_classify_roundtrip_random():
    rng = np.random.default_rng(23)
    for _ in range(25):
        a, b = random_algebra(rng), random_algebra(rng)
        k = random_corr(rng, a, b)
        assert classify(realize(k)) == k


def test_oracle_matches_symbolic_composition():
    result = run_suite("oracle", np.random.default_rng(24), 40)
    assert result.ok, result.failures


def test_zero_tensor_three_way_agreement():
    result = run_suite("zero_tensor", np.random.default_rng(25), 40)
    assert result.ok, result.failures


def test_is_isomorphic():
    x = realize(CorrClass(C1, C2, ((1, 1),)))
    y = realize(CorrClass(C2, C1, ((1,), (0,))))
    z = realize(CorrClass(C2, C1, ((0,), (1,))))
    assert is_isomorphic(interior_tensor(x, y), interior_tensor(x, z))
    assert not is_isomorphic(y, z)
    assert is_isomorphic(y, y)
    with pytest.raises(ValidationError):
        is_isomorphic(x, y)


def _partial_permutations(a, b):
    for x in enumerate_corrs(a, b, 1):
        if is_hilbert_bimodule(x):
            yield x


def test_dual_tensor_identities():
    # dual (x) X recovers the right support diagonal, X (x) dual the left one
    rng = np.random.default_rng(26)
    algebras = SIZED_ALGEBRAS[1:]
    pairs = [
        (a, b)
        for a, b in itertools.product(algebras, repeat=2)
        if rng.random() < 0.4
    ]
    for a, b in pairs[:6]:
        for kind in _partial_permutations(a, b):
            x = realize(kind)
            xd = realize(dual(kind))
            left = classify(interior_tensor(x, xd))
            right = classify(interior_tensor(xd, x))
            rows = {i for i in range(a.block_count) if any(kind.matrix[i])}
            cols = right_support(kind).members
            assert left == CorrClass(
                a, a, tuple(
                    tuple(1 if i == j and i in rows else 0 for j in range(a.block_count))
                    for i in range(a.block_count)
                )
            )
            assert right == CorrClass(
                b, b, tuple(
                    tuple(1 if i == j and i in cols else 0 for j in range(b.block_count))
                    for i in range(b.block_count)
                )
            )


def test_rank_one_unit_vectors():
    mod = ConcreteModule(C1, (2,))
    basis = mod.basis()
    theta = rank_one(basis[0], basis[1])
    assert np.allclose(theta[0], np.array([[0, 1], [0, 0]]))
    x = mod.random_element(np.random.default_rng(27))
    (pos,) = rank_one(x, x)
    eigs = np.linalg.eigvalsh((pos + pos.conj().T) / 2)
    assert eigs.min() >= -1e-12


def test_rank_one_span_dimension():
    for kind in (identity_corr(M2), CorrClass(C1, C2, ((1, 1),))):
        x = realize(kind)
        basis = x.module.basis()
        vecs = [
            np.concatenate([t.ravel() for t in rank_one(u, v)])
            for u in basis
            for v in basis
        ]
        rank = np.linalg.matrix_rank(np.stack(vecs))
        assert rank == sum(d * d for d in x.module.fiber_dims)


def test_rank_one_requires_same_module():
    a = ConcreteModule(C1, (2,)).zero_element()
    b = ConcreteModule(C1, (3,)).zero_element()
    with pytest.raises(ValidationError):
        rank_one(a, b)


def test_hilbert_bimodule_oracle():
    # the numeric criterion: compacts inside the action span
    yes = realize(CorrClass(C1, make_algebra([1, 1, 1]), ((0, 1, 0),)))
    assert compacts_span_defect(yes) < 1e-9
    no_wide = realize(CorrClass(C1, C2, ((1, 1),)))
    assert compacts_span_defect(no_wide) > 1e-2
    no_mult = realize(CorrClass(C1, C1, ((2,),)))
    assert compacts_span_defect(no_mult) > 1e-2


def test_hilbert_bimodule_oracle_agrees_with_matrix_criterion():
    algebras = SIZED_ALGEBRAS[1:]
    for a, b in itertools.product(algebras[:3], repeat=2):
        for kind in enumerate_corrs(a, b, 2):
            numeric = compacts_span_defect(realize(kind)) < 1e-8
            assert numeric == is_hilbert_bimodule(kind), kind


def test_compacts_defect_matches_the_rank_one_reference():
    # Against rank_one on every pair of basis vectors: each class with entries
    # at most 2 over the nonzero sized algebras, 100 of them unitarily
    # rotated, and the zero source on a nonzero fiber.
    rng = np.random.default_rng(49)
    algebras = SIZED_ALGEBRAS[1:]
    cases = [
        realize(kind)
        for a, b in itertools.product(algebras, repeat=2)
        for kind in enumerate_corrs(a, b, 2)
    ]
    assert len(cases) == 1452
    picked = rng.choice(len(cases), size=100, replace=False)
    cases += [_rotate(cases[i], rng, orthogonal=False) for i in picked]
    cases.append(_zero_source())
    verdicts = {True: 0, False: 0}
    for x in cases:
        got, want = compacts_span_defect(x), reference_compacts(x)
        assert abs(got - want) <= 1e-12
        assert (got < 1e-8) == (want < 1e-8)
        verdicts[got < 1e-8] += 1
    assert min(verdicts.values()) > 100


def test_left_inner_product_compatibility():
    # solve phi(a) = theta_{x,y} on a Hilbert bimodule, then check
    # the compatibility identity <x, y>_left . z = x <y, z> on a basis
    kind = CorrClass(C2, C2, ((0, 1), (1, 0)))
    x = realize(kind)
    dims = x.module.fiber_dims
    cols = []
    for i, n in enumerate(x.source.blocks):
        for p in range(n):
            for q in range(n):
                cols.append(
                    np.concatenate([x.action[j][i][p, q].ravel() for j in range(len(dims))])
                )
    phi = np.stack(cols, axis=1)
    basis = x.module.basis()
    units = [
        (i, p, q)
        for i, n in enumerate(x.source.blocks)
        for p in range(n)
        for q in range(n)
    ]
    for u in basis:
        for v in basis:
            theta = rank_one(u, v)
            target = np.concatenate([t.ravel() for t in theta])
            coeff, *_ = np.linalg.lstsq(phi, target, rcond=None)
            assert np.linalg.norm(phi @ coeff - target) < 1e-9
            a_elt = [np.zeros((n, n), dtype=complex) for n in x.source.blocks]
            for c, (i, p, q) in zip(coeff, units):
                a_elt[i][p, q] += c
            for z in basis:
                lhs = x.apply(tuple(a_elt), z)
                rhs = x.module.right_mul(u, x.module.inner_product(v, z))
                for l, r in zip(lhs, rhs):
                    assert np.allclose(l, r, atol=1e-9)


def _count_solver(monkeypatch, name):
    # The shapes of the matrices passed to np.linalg.<name>, call by call.
    calls = []
    solve = getattr(np.linalg, name)

    def spy(r):
        calls.append(r.shape)
        return solve(r)

    monkeypatch.setattr(np.linalg, name, spy)
    return calls


def test_balancing_in_quotient(monkeypatch):
    # Also counts eigh calls: none to build the tensor, one per kept Gram
    # block over all four embeds of a pair.
    calls = _count_solver(monkeypatch, "eigh")
    solved = 0
    rng = np.random.default_rng(28)
    for _ in range(10):
        a, b, c = (random_algebra(rng, zero_prob=0.0) for _ in range(3))
        xk = random_corr(rng, a, b)
        yk = random_corr(rng, b, c)
        x, y = realize(xk), realize(yk)
        calls.clear()
        t = InteriorTensor(x, y)
        assert calls == []
        xe = x.module.random_element(rng)
        ye = y.module.random_element(rng)
        bb = tuple(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in b.blocks
        )
        lhs = t.embed(x.module.right_mul(xe, bb), ye)
        rhs = t.embed(xe, y.apply(bb, ye))
        for l, r in zip(lhs, rhs):
            assert np.abs(l - r).max(initial=0.0) < 1e-8
        # embed's coordinates carry the left action of t.corr.
        aa = tuple(
            rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            for n in a.blocks
        )
        lhs = t.embed(x.apply(aa, xe), ye)
        rhs = t.corr.apply(aa, t.embed(xe, ye))
        for l, r in zip(lhs, rhs):
            assert np.abs(l - r).max(initial=0.0) < 1e-8
        assert tuple(len(f) for f in lhs) == t.corr.module.fiber_dims
        assert len(calls) == sum(len(parts) for parts in t._layout)
        solved += len(calls)
    assert solved >= 10


def test_gram_positivity_and_quotient_dimension():
    rng = np.random.default_rng(29)
    for _ in range(10):
        a, b, c = (random_algebra(rng) for _ in range(3))
        x = realize(random_corr(rng, a, b))
        y = realize(random_corr(rng, b, c))
        t = InteriorTensor(x, y)
        for (_lj, lam) in t.gram_blocks:
            if lam.size:
                assert lam.min() >= -1e-9 * max(1.0, t.gram_norm)
        # quotient dimension equals the rank of the Gram form, each block's
        # eigenvalues counted above 1e-7 times its middle block's size
        for l, f in enumerate(t.corr.module.fiber_dims):
            rank = 0
            for (ll, j), lam in t.gram_blocks:
                if ll == l:
                    cut = 1e-7 * b.blocks[j]
                    rank += int(np.count_nonzero(lam > cut)) * x.module.fiber_dims[j]
            assert f == rank


def test_norm_matches_zero_predicate():
    from enchilada import tensor_is_zero

    rng = np.random.default_rng(30)
    for _ in range(20):
        a, b, c = (random_algebra(rng) for _ in range(3))
        y = random_corr(rng, b, c)
        if rng.random() < 0.5:
            allowed = left_kernel(y).members
            rows = tuple(
                tuple(int(rng.integers(0, 3)) if j in allowed else 0 for j in range(b.block_count))
                for _ in range(a.block_count)
            )
            x = CorrClass(a, b, rows)
        else:
            x = random_corr(rng, a, b)
        norm = interior_tensor_norm(realize(x), realize(y))
        assert (norm < 1e-9) == tensor_is_zero(x, y)


def _cast(x, convert):
    return ConcreteCorr(x.source, x.module, tuple(tuple(map(convert, per)) for per in x.action))


def _as_complex(arr):
    return arr.astype(complex)


def _classify_outcome(x):
    try:
        return classify(x)
    except ValidationError:
        return ValidationError


def _assert_same_verdicts(real, cplx):
    assert _classify_outcome(real) == _classify_outcome(cplx)
    got, want = validate(real), validate(cplx)
    assert got.ok == want.ok
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    for g, w in zip(got.checks, want.checks):
        assert abs(g.violation - w.violation) <= 1e-12


def test_real_unit_images_match_their_complex_casts():
    # The float64 path against the complex128 one on the same values: each
    # perturbed realization as drawn (complex noise on some arrays, so the
    # dtypes mix) and with its real part only, tensored with a realization.
    rng = np.random.default_rng(41)
    failing = 0
    for _kind, x in _perturbed_realizations(42, cases=150):
        y = realize(random_corr(rng, x.target, random_algebra(rng)))
        for left in (x, _cast(x, np.real)):
            cx, cy = _cast(left, _as_complex), _cast(y, _as_complex)
            _assert_same_verdicts(left, cx)
            failing += not validate(left).ok
            t, ct = InteriorTensor(left, y), InteriorTensor(cx, cy)
            assert [key for key, _ in t.gram_blocks] == [key for key, _ in ct.gram_blocks]
            cut = concrete.GRAM_NULL_TOL * max(1.0, t.gram_norm)
            ccut = concrete.GRAM_NULL_TOL * max(1.0, ct.gram_norm)
            for (_, lam), (_, clam) in zip(t.gram_blocks, ct.gram_blocks):
                assert np.allclose(lam, clam)
                assert np.count_nonzero(lam > cut) == np.count_nonzero(clam > ccut)
            assert t.corr.module == ct.corr.module
            _assert_same_verdicts(t.corr, ct.corr)
    assert failing > 50


def test_real_unit_images_stay_float64_and_read_only():
    k = CorrClass(make_algebra([1, 2]), make_algebra([2, 1]), ((1, 2), (0, 1)))
    l = CorrClass(make_algebra([2, 1]), make_algebra([1, 3]), ((1, 1), (2, 0)))
    x, y = realize(k), realize(l)
    t = InteriorTensor(x, y)
    for corr in (x, y, t.corr):
        for arr in (arr for per in corr.action for arr in per):
            assert arr.dtype == np.float64
            assert not arr.flags.writeable
        # validate's in-place residuals must not write through the read-only
        # arrays (a real array's .conj() is the array itself).
        assert validate(corr).ok
    assert classify(t.corr) == compose(k, l)
    # Integer input is real data; a complex cast stays complex even when its
    # values are real.
    ints = ConcreteCorr(
        x.source, x.module, [[arr.astype(int).tolist() for arr in per] for per in x.action]
    )
    assert {arr.dtype for per in ints.action for arr in per} == {np.dtype(np.float64)}
    cast = _cast(x, _as_complex)
    assert {arr.dtype for per in cast.action for arr in per} == {np.dtype(np.complex128)}
    # A complex perturbation makes its fiber complex128, the real block next
    # to it included, while the other fiber stays float64; the tensor action
    # built from it is complex128 too.
    action = [list(per) for per in x.action]
    action[0][1] = action[0][1] + 1e-3j
    bumped = ConcreteCorr(x.source, x.module, tuple(map(tuple, action)))
    assert {arr.dtype for arr in bumped.action[0]} == {np.dtype(np.complex128)}
    assert {arr.dtype for arr in bumped.action[1]} == {np.dtype(np.float64)}
    assert not validate(bumped).ok
    tensor = InteriorTensor(bumped, y).corr
    assert {arr.dtype for per in tensor.action for arr in per} == {np.dtype(np.complex128)}


def _rotate(x, rng, orthogonal):
    """x with every fiber conjugated by a random orthogonal or unitary matrix."""
    action = []
    for per, d in zip(x.action, x.module.fiber_dims):
        g = rng.standard_normal((d, d))
        if not orthogonal:
            g = g + 1j * rng.standard_normal((d, d))
        u, _ = np.linalg.qr(g)
        action.append(tuple(u @ arr @ u.conj().T for arr in per))
    return ConcreteCorr(x.source, x.module, tuple(action))


@pytest.mark.parametrize("orthogonal", [True, False], ids=["orthogonal", "unitary"])
def test_oracle_does_not_depend_on_the_fiber_basis(orthogonal):
    # realize gives block-diagonal identity representations in block order;
    # the same actions in a rotated basis (real for an orthogonal rotation,
    # complex for a unitary one) must classify, tensor and validate alike.
    rng = np.random.default_rng(43)
    dtype = np.float64 if orthogonal else np.complex128
    for _ in range(200):
        a, b, c = (random_algebra(rng) for _ in range(3))
        k, l = random_corr(rng, a, b), random_corr(rng, b, c)
        x, y = _rotate(realize(k), rng, orthogonal), _rotate(realize(l), rng, orthogonal)
        assert all(arr.dtype == dtype for corr in (x, y) for per in corr.action for arr in per)
        assert classify(x) == k
        assert classify(y) == l
        t = InteriorTensor(x, y)
        assert classify(t.corr) == compose(k, l)
        for corr in (x, y, t.corr):
            assert validate(corr).ok


def test_construction_copies_the_callers_arrays():
    x = realize(CorrClass(M2, C2, ((1, 2),)))
    a = np.array(x.action[0][0])
    assert a.dtype == np.float64
    kept = a.copy()
    corr = ConcreteCorr(x.source, x.module, ((a,), (x.action[1][0],)))
    assert a.flags.writeable
    a[0, 0] += 5.0
    assert np.array_equal(corr.action[0][0], kept)
    assert not corr.action[0][0].flags.writeable
    # The same for a complex128 array, which the dtype rule keeps as it is.
    c = x.action[0][0].astype(complex)
    corr = ConcreteCorr(x.source, x.module, ((c,), (x.action[1][0],)))
    assert c.flags.writeable and corr.action[0][0] is not c
    # realize and the tensor product hand over arrays that no caller holds,
    # so they are stored without a copy: each view's base is its fiber's
    # stack, which owns its data and is read-only.
    y = realize(CorrClass(C2, C1, ((1,), (1,))))
    for corr in (x, InteriorTensor(x, y).corr):
        assert all(
            arr.base is stack and stack.flags.owndata and not stack.flags.writeable
            for per, stack in zip(corr.action, corr._stacks)
            for arr in per
        )


def _block_diagonal(mats, dtype):
    # Each matrix padded with zeros to its place on the diagonal, so the
    # reference shares no slicing with _assemble.
    sizes = [len(m) for m in mats]
    d = sum(sizes)
    out = np.zeros((d, d), dtype=dtype)
    for m, before in zip(mats, itertools.accumulate([0] + sizes)):
        out = out + np.pad(m, (before, d - before - len(m)))
    return out


def _copy_major_action(source, fibers):
    # fibers[l] lists parts (mu, per), per[i] the (n_i, n_i, e, e) images of
    # block i: unit (p, q) of block i acts on fiber l as the block-diagonal sum
    # of np.kron(np.eye(mu), per[i][p, q]) over the parts.  A fiber's arrays
    # are complex when some image that enters it is.
    fibers = [[(mu, per) for mu, per in parts if mu and per[0].shape[2]] for parts in fibers]
    dtypes = [
        np.result_type(np.float64, *(arr for _, per in parts for arr in per)) for parts in fibers
    ]
    return tuple(
        tuple(
            np.array(
                [
                    [
                        _block_diagonal(
                            [np.kron(np.eye(mu), per[i][p, q]) for mu, per in parts], dtype
                        )
                        for q in range(n)
                    ]
                    for p in range(n)
                ]
            )
            for i, n in enumerate(source.blocks)
        )
        for parts, dtype in zip(fibers, dtypes)
    )


def _identity_images(source, k):
    # Block k of source in its identity representation: unit (p, q) of block k
    # acts as the matrix unit E_pq, every other block as zero.
    n = source.blocks[k]
    eye = np.eye(n)
    return tuple(
        np.array([[np.outer(eye[p], eye[q]) for q in range(n)] for p in range(n)])
        if i == k
        else np.zeros((m, m, n, n))
        for i, m in enumerate(source.blocks)
    )


def _assert_action_equals(corr, reference):
    assert len(corr.action) == len(reference)
    for per, ref in zip(corr.action, reference):
        assert len(per) == len(ref)
        for arr, want in zip(per, ref):
            assert arr.dtype == want.dtype
            assert np.array_equal(arr, want)


def test_assemble_places_copies_copy_major():
    # realize(K) holds K[i][j] copies of block i on fiber j, in block order;
    # the tensor with realize(L) holds L[j][l] copies of fiber j of the left
    # factor on its fiber l, in block order, here also for a unitarily
    # rotated (complex) left factor.
    rng, nested_rng = np.random.default_rng(48), np.random.default_rng(148)
    zero_entries = zero_fibers = nested = 0
    for case in range(60):
        a, b, c = (random_algebra(rng, zero_prob=0.0) for _ in range(3))
        k, l = random_corr(rng, a, b), random_corr(rng, b, c)
        x = realize(k)
        _assert_action_equals(
            x,
            _copy_major_action(
                a,
                [
                    [(k.matrix[i][j], _identity_images(a, i)) for i in range(a.block_count)]
                    for j in range(b.block_count)
                ],
            ),
        )
        if case % 2:
            x = _rotate(x, rng, orthogonal=False)
        lefts = [x]
        if case % 4 == 2 and x.action:
            # Also a copy complex in fiber 0 only: the constructor and the
            # tensor each keep a dtype per fiber.
            action = [list(per) for per in x.action]
            action[0] = [arr.astype(complex) for arr in action[0]]
            lefts.append(ConcreteCorr(x.source, x.module, tuple(map(tuple, action))))
        d = random_algebra(nested_rng, zero_prob=0.0)
        l2 = random_corr(nested_rng, c, d)
        for left in lefts:
            t = InteriorTensor(left, realize(l)).corr
            _assert_action_equals(
                t,
                _copy_major_action(
                    a,
                    [
                        [(l.matrix[j][m], left.action[j]) for j in range(b.block_count)]
                        for m in range(c.block_count)
                    ],
                ),
            )
            # The tensor of the tensor holds L2[m][n] copies of fiber m of t,
            # whose own parts are nested fibers of the left factor.
            t2 = InteriorTensor(t, realize(l2)).corr
            _assert_action_equals(
                t2,
                _copy_major_action(
                    a,
                    [
                        [(l2.matrix[m][n], t.action[m]) for m in range(c.block_count)]
                        for n in range(d.block_count)
                    ],
                ),
            )
            nested += any(t2.module.fiber_dims)
            if left is x:
                zero_fibers += 0 in x.module.fiber_dims + t.module.fiber_dims
        zero_entries += any(0 in row for row in k.matrix + l.matrix)
    assert zero_entries > 20 and zero_fibers > 10 and nested > 20


def _single_stack(x):
    # The same correspondence through the public constructor: one stack per
    # fiber, checked as a whole.
    return ConcreteCorr(x.source, x.module, x.action)


def _classify_or_failures(x):
    # classify's class, or the failure names its refusal lists.
    try:
        return classify(x)
    except ValidationError as err:
        return str(err).split(" (max violation")[0]


def _assert_same_as_single_stack(x):
    rebuilt = _single_stack(x)
    got, want = validate(x), validate(rebuilt)
    assert got.ok == want.ok and got.failures() == want.failures()
    assert [c.name for c in got.checks] == [c.name for c in want.checks]
    for g, w in zip(got.checks, want.checks):
        assert abs(g.violation - w.violation) <= 1e-12
    outcome = _classify_or_failures(x)
    assert outcome == _classify_or_failures(rebuilt)
    return outcome


def _left_factors(seed, cases):
    # The left factors of _perturbed_realizations, the unperturbed ones
    # rotated (orthogonal or unitary), with realized right factors L and L2.
    rng = np.random.default_rng(seed + 1)
    for case, (kind, x) in enumerate(_perturbed_realizations(seed, cases)):
        if case % 3 == 0:
            x = _rotate(x, rng, orthogonal=case % 2 == 0)
        c, d = random_algebra(rng), random_algebra(rng)
        yield x, realize(random_corr(rng, kind.target, c)), realize(random_corr(rng, c, d))


def test_summand_checks_match_the_single_stack():
    # validate and classify check each distinct summand of a tensor once;
    # rebuilt as one stack per fiber, the same correspondence must get the
    # same verdicts, failure names and classes, and violations within 1e-12.
    # The tensor of a tensor has nested parts.
    refused = classified = 0
    for x, y, z in _left_factors(51, 150):
        t = InteriorTensor(x, y).corr
        for corr in (t, InteriorTensor(t, z).corr):
            outcome = _assert_same_as_single_stack(corr)
            refused += isinstance(outcome, str)
            classified += isinstance(outcome, CorrClass) and any(corr.module.fiber_dims)
    assert refused > 50 and classified > 50


def test_a_bad_summand_after_the_first_is_caught():
    # Fiber 1 of the left factor is the second distinct summand of the
    # tensor's only fiber; a unit image off by 0.1 there must be refused,
    # with the failure names of the single-stack copy, on its own and nested.
    x = _with_images(realize(identity_corr(C2)), 1, 1, 1.1 * ONE)
    y = realize(CorrClass(C2, C1, ((1,), (1,))))
    t = InteriorTensor(x, y).corr
    for corr in (t, InteriorTensor(t, realize(CorrClass(C1, C1, ((2,),)))).corr):
        outcome = _assert_same_as_single_stack(corr)
        assert outcome.startswith("action fails validation: [")
    # The same on seeded pairs: one entry of one unit image of one fiber of
    # a valid left factor moved by 0.1, whichever summand that fiber is.
    rng = np.random.default_rng(52)
    caught = 0
    for x, y, _ in _left_factors(53, 90):
        # Fiber j of x enters the tensor when row j of y's class is nonzero.
        rows = classify(y).matrix
        kept = [j for j, dj in enumerate(x.module.fiber_dims) if dj and any(rows[j])]
        if not kept or not validate(x).ok:
            continue
        j = kept[rng.integers(len(kept))]
        i = rng.integers(x.source.block_count)
        arr = np.array(x.action[j][i])
        arr[(0,) * 4] += 0.1
        t = InteriorTensor(_with_images(x, j, i, arr), y).corr
        assert isinstance(_assert_same_as_single_stack(t), str)
        caught += 1
    assert caught > 15


def test_stacks_are_built_only_when_read():
    # realize builds parts only, and validate and classify check the one
    # identity summand: a stack of fiber 0 would hold 16 * 128^2 float64
    # entries, 2 MB, and of the tensor's 16 * 384^2, 18.9 MB.
    kind = CorrClass(make_algebra([4]), C1, ((32,),))
    x, peak = _traced_peak(realize, kind)
    report, validate_peak = _traced_peak(validate, x)
    got, classify_peak = _traced_peak(classify, x)
    t = InteriorTensor(x, realize(CorrClass(C1, C1, ((3,),)))).corr
    got_t, tensor_peak = _traced_peak(classify, t)
    assert report.ok and got == kind and got_t == CorrClass(x.source, C1, ((96,),))
    assert max(peak, validate_peak, classify_peak, tensor_peak) < 100_000
    assert "_stacks" not in vars(x) and "_stacks" not in vars(t)
    # Reading the action builds the layout that realize has always had.
    _assert_action_equals(x, _copy_major_action(x.source, [[(32, _identity_images(x.source, 0))]]))
    _assert_action_equals(t, _copy_major_action(x.source, [[(3, x.action[0])]]))


def _assembled_widths(monkeypatch):
    # The fiber width of every stack `_assemble` builds from now on.
    assemble, widths = concrete._assemble, []

    def spy(plan, s, d):
        widths.append(d)
        return assemble(plan, s, d)

    monkeypatch.setattr(concrete, "_assemble", spy)
    return widths


def test_identity_summands_are_checked_as_built(monkeypatch):
    # realize stores identity summands, and the report checks those new on a
    # fiber as one sum no wider than the fiber: on the identity of M_2^4,
    # four sums of width 2, not one of width 8.
    widths = _assembled_widths(monkeypatch)
    assert validate(realize(identity_corr(make_algebra([2, 2, 2, 2])))).ok
    assert widths == [2, 2, 2, 2]
    # They go through the stack `_assemble` makes: doubled images fail.
    fill = concrete._fill

    def doubled(out, parts, plan):
        width = fill(out, parts, plan)
        out *= 2.0
        return width

    x = realize(CorrClass(make_algebra([2, 1]), C2, ((1, 2), (0, 1))))
    assert validate(x).ok
    monkeypatch.setattr(concrete, "_fill", doubled)
    assert validate(x).failures() == ["star-multiplicativity", "nondegeneracy"]
    # classify reads the sums its plan has recorded, so it sees the fault on
    # a fresh plan.
    concrete._plan.cache_clear()
    with pytest.raises(ValidationError, match="action fails validation"):
        classify(x)


def test_classify_records_identity_sums_and_validate_measures_them(monkeypatch):
    # classify keeps each identity sum's violations on its plan, so a second
    # classify of a realized class assembles none; validate keeps no record
    # and assembles every sum on every call.
    kind = CorrClass(make_algebra([2, 1, 3]), C2, ((1, 2), (0, 1), (2, 0)))
    x = realize(kind)
    concrete._plan.cache_clear()
    widths = _assembled_widths(monkeypatch)
    assert classify(x) == kind
    assert widths == [5, 1]
    widths.clear()
    assert classify(realize(kind)) == kind
    assert widths == []
    m2_4 = realize(identity_corr(make_algebra([2, 2, 2, 2])))
    for _ in range(2):
        widths.clear()
        assert validate(m2_4).ok
        assert widths == [2, 2, 2, 2]
    # The record holds at most _RECORDED_SUMS sums; past that classify
    # measures each further sum on every call.
    monkeypatch.setattr(concrete, "_RECORDED_SUMS", 1)
    record = concrete._plan(x.source.blocks).record
    assert list(record) == [(0, 2), (1,)]
    other = CorrClass(x.source, C1, ((0,), (3,), (1,)))
    for _ in range(2):
        widths.clear()
        assert classify(realize(other)) == other
        assert widths == [4]
    assert list(record) == [(0, 2), (1,)]


def _classify_or_text(x):
    # classify's class, or the text of its refusal.
    try:
        return classify(x)
    except ValidationError as err:
        return str(err)


def test_classify_on_a_warm_plan_matches_a_fresh_plan(monkeypatch):
    # Realized, rotated and perturbed factors, their tensors and the nested
    # tensors of those: classify gives each the class, or the refusal text,
    # that it gives on a fresh plan, reads every identity sum from the plans'
    # records once they are warm, and refuses exactly what validate fails.
    corrs = []
    for x, y, z in _left_factors(61, 90):
        t = InteriorTensor(x, y).corr
        corrs += [x, y, t, InteriorTensor(t, z).corr]
    reports = [validate(corr) for corr in corrs]
    fresh = []
    for corr in corrs:
        concrete._plan.cache_clear()
        fresh.append(_classify_or_text(corr))
    warm = [_classify_or_text(corr) for corr in corrs]
    widths = _assembled_widths(monkeypatch)
    assert [_classify_or_text(corr) for corr in corrs] == warm == fresh
    assert widths == []
    for report, outcome in zip(reports, fresh):
        if report.ok:
            assert isinstance(outcome, CorrClass)
        else:
            assert outcome == (
                f"action fails validation: {report.failures()} "
                f"(max violation {report.max_violation:.3e})"
            )
    refused = sum(not report.ok for report in reports)
    assert refused > 50 and len(corrs) - refused > 150


def test_identity_blocks_are_one_summand_whatever_their_index(monkeypatch):
    # realize makes a new int for a block index on each fiber, and above the
    # interpreter's small-int cache equal indices are distinct objects.  Keyed
    # by value, block 299 on both fibers of x, and twice on the one fiber of
    # its tensor, is still one identity summand: one sum of width 1.
    a = make_algebra([1] * 300)
    x = realize(CorrClass(a, C2, tuple((i // 299,) * 2 for i in range(300))))
    t = InteriorTensor(x, realize(CorrClass(C2, C1, ((1,), (1,))))).corr
    widths = _assembled_widths(monkeypatch)
    for corr in (x, t):
        widths.clear()
        assert validate(corr).ok
        assert widths == [1]
    assert classify(t) == CorrClass(a, C1, tuple((2 * (i // 299),) for i in range(300)))


def test_gram_cutoff_is_null_tol_times_each_block_size(monkeypatch):
    # Over C -> C + M_2 -> C the Gram blocks of [[1, 1]] . [[1], [1]] have top
    # eigenvalues 1 and 2, the sizes of their middle blocks.  The cutoff is
    # GRAM_NULL_TOL times each block's size, read when the tensor is built, so
    # at 0.99 both summands are kept; a cutoff relative to the largest block
    # (1.98 absolute) dropped the first.
    monkeypatch.setattr(concrete, "GRAM_NULL_TOL", 0.99)
    c_m2 = make_algebra([1, 2])
    x, y = realize(CorrClass(C1, c_m2, ((1, 1),))), realize(CorrClass(c_m2, C1, ((1,), (1,))))
    t = interior_tensor(x, y)
    assert t.module.fiber_dims == (2,)
    assert classify(t) == CorrClass(C1, C1, ((2,),))


def test_vanishing_norm_is_exact_only_on_validated_factors():
    # On factors that pass validate every Gram eigenvalue is 0 or m, so the
    # norm is below VANISH_TOL exactly when the product is zero.  A
    # constructor-built C -> C action whose unit image is [[1e-8]] fails
    # validate, and after the realized [[1]] it gives a zero product whose
    # norm is 1e-8, above VANISH_TOL.
    x = realize(CorrClass(C1, C1, ((1,),)))
    faint = ConcreteCorr(C1, ConcreteModule(C1, (1,)), ((np.full((1, 1, 1, 1), 1e-8),),))
    assert not validate(faint).ok
    t = InteriorTensor(x, faint)
    assert t.gram_norm == interior_tensor_norm(x, faint) == 1e-8 > concrete.VANISH_TOL
    assert t.corr.module.fiber_dims == (0,)
    for y in (x, realize(CorrClass(C1, C1, ((0,),)))):
        assert validate(y).ok
        zero = interior_tensor(x, y).module.is_zero
        assert (interior_tensor_norm(x, y) < concrete.VANISH_TOL) == zero


def test_norm_reads_the_gram_spectra_only(monkeypatch):
    # interior_tensor_norm reads InteriorTensor's one Gram pass: equal norms
    # on the draws of random-check's zero-tensor suite, and the norm never
    # assembles the tensor's action.
    pairs = []

    def spy(x, y):
        norm = concrete.interior_tensor_norm(x, y)
        assert norm == InteriorTensor(x, y).gram_norm
        pairs.append(norm)
        return norm

    monkeypatch.setattr("enchilada.checks.interior_tensor_norm", spy)
    for seed in (0, 7):
        # run_random_checks gives the zero-tensor suite the fifth child seed.
        child = np.random.SeedSequence(seed).spawn(5)[4]
        assert run_suite("zero_tensor", np.random.default_rng(child), 100).ok
    assert len(pairs) == 200
    assert 50 < sum(norm < concrete.VANISH_TOL for norm in pairs) < 150
    x, y = realize(CorrClass(C1, M2, ((2,),))), realize(CorrClass(M2, C2, ((1, 3),)))
    # A realized right factor's spectra are read off its block sizes, so
    # neither its stacks nor the tensor's action are assembled.

    def refuse(*args):
        raise AssertionError("interior_tensor_norm assembled an action")

    monkeypatch.setattr(concrete, "_assemble", refuse)
    assert interior_tensor_norm(x, y) == 2.0


def _embed_shapes(t, rng):
    x, y = t._x, t._y
    out = t.embed(x.module.random_element(rng), y.module.random_element(rng))
    assert [f.shape for f in out] == [
        (d, cl) for d, cl in zip(t.corr.module.fiber_dims, t.corr.target.blocks)
    ]
    return out


def test_eigenvectors_only_on_first_embed(monkeypatch):
    # The tensor's action needs only the Gram spectra; embed solves for the
    # eigenvectors once per kept Gram block on its first call and reuses them.
    calls = _count_solver(monkeypatch, "eigh")
    rng = np.random.default_rng(44)
    solved = 0
    for _ in range(20):
        a, b, c = (random_algebra(rng) for _ in range(3))
        x = realize(random_corr(rng, a, b))
        y = realize(random_corr(rng, b, c))
        calls.clear()
        t = InteriorTensor(x, y)
        assert calls == []
        _embed_shapes(t, rng)
        kept = sum(len(parts) for parts in t._layout)
        assert len(calls) == kept
        _embed_shapes(t, rng)
        assert len(calls) == kept
        solved += kept
    assert solved > 20


def test_embed_keeps_an_eigenvalue_just_above_the_cut():
    # One Gram block R = Q diag(1, 1.01 cut, 0.99 cut) Q^T: the middle
    # eigenvalue is kept, the last dropped, and embed's fiber has the
    # dimension of corr's.
    cut = concrete.GRAM_NULL_TOL
    q, _ = np.linalg.qr(np.random.default_rng(45).standard_normal((3, 3)))
    r = q @ np.diag([1.0, 1.01 * cut, 0.99 * cut]) @ q.T
    y = ConcreteCorr(C1, ConcreteModule(C1, (3,)), ((r.reshape(1, 1, 3, 3),),))
    x = realize(CorrClass(C1, C1, ((2,),)))
    t = InteriorTensor(x, y)
    assert t.gram_norm == pytest.approx(1.0)
    assert t.corr.module.fiber_dims == (4,)
    out = _embed_shapes(t, np.random.default_rng(46))
    assert out[0].shape == (4, 1)


def test_classify_looks_its_plan_up_once_per_source():
    # The plan depends only on the source blocks, so a bounded cache keeps
    # it: a second classify on the same source is a cache hit with the same
    # outcome.  The bound holds every tuple of at most 3 blocks of size at
    # most 4, the sources of the numeric cross-check cases.
    keys = {b for r in range(1, 4) for b in itertools.product(range(1, 5), repeat=r)}
    assert concrete._plan.cache_info().maxsize >= len(keys) == 84
    for _kind, x in _perturbed_realizations(33, cases=60):
        outcomes = []
        for _ in range(2):
            before = concrete._plan.cache_info()
            try:
                outcomes.append(classify(x))
            except ValidationError as err:
                outcomes.append(str(err))
        after = concrete._plan.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert outcomes[0] == outcomes[1]


def test_plan_index_arrays_have_the_documented_size():
    # A plan's index arrays hold 5 N + (r + 5) S + 2 r (r - 1) numbers, with
    # N = sum_i n_i^2 and S = sum_i n_i, on the 84 cached block tuples and on
    # sixteen blocks of size 1.
    tuples = [b for r in range(1, 4) for b in itertools.product(range(1, 5), repeat=r)]
    for blocks in tuples + [(1,) * 16]:
        r, n, s = len(blocks), sum(b * b for b in blocks), sum(blocks)
        held = sum(arr.size for arr in vars(concrete._Plan(blocks).checks).values())
        assert held == 5 * n + (r + 5) * s + 2 * r * (r - 1), blocks


def test_repr_builds_no_stack():
    # The repr names the endpoints and the module, not the action, so
    # printing a realization or a tensor assembles nothing.
    x = realize(CorrClass(M2, C2, ((1, 2),)))
    t = InteriorTensor(x, realize(CorrClass(C2, C1, ((1,), (3,))))).corr
    for corr in (x, t):
        assert "action" not in repr(corr)
        assert "_stacks" not in vars(corr)


def test_numeric_round_trip_leaves_numpy_random_unimported():
    # realize, the tensor, classify and validate draw nothing at random, so
    # a process that runs them never imports numpy.random.
    script = (
        "import sys\n"
        "from enchilada import CorrClass, classify, interior_tensor, make_algebra, realize, validate\n"
        "a, b = make_algebra([1, 2]), make_algebra([2, 1])\n"
        "k, l = CorrClass(a, b, ((1, 2), (0, 1))), CorrClass(b, a, ((1, 0), (2, 1)))\n"
        "t = interior_tensor(realize(k), realize(l))\n"
        "assert validate(t).ok and classify(t) == CorrClass(a, a, ((5, 2), (2, 1)))\n"
        "print('numpy.random' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


ONE = np.ones((1, 1, 1, 1))


def test_module_shapes_are_checked():
    with pytest.raises(ValidationError, match="one fiber dimension per target block required"):
        ConcreteModule(C2, (1,))
    for bad in (-1, True, 1.0):
        message = f"fiber dimensions must be non-negative, got {bad!r}"
        with pytest.raises(ValidationError, match=message):
            ConcreteModule(C1, (bad,))
    module = ConcreteModule(C1, (2,))
    with pytest.raises(ValidationError, match="element needs one matrix per target block"):
        module.as_element([])
    message = r"fiber matrix has shape \(1, 1\), expected \(2, 1\)"
    with pytest.raises(ValidationError, match=message):
        module.as_element([np.zeros((1, 1))])


def test_action_shapes_are_checked():
    with pytest.raises(ValidationError, match="one action table per target block required"):
        ConcreteCorr(C1, ConcreteModule(C2, (1, 1)), ((ONE,),))
    with pytest.raises(ValidationError, match="one unit-image array per source block required"):
        ConcreteCorr(C2, ConcreteModule(C1, (1,)), ((ONE,),))
    message = (
        r"unit images for block 0 on fiber 0 have shape \(1, 1, 1, 1\), "
        r"expected \(1, 1, 2, 2\)"
    )
    with pytest.raises(ValidationError, match=message):
        ConcreteCorr(C1, ConcreteModule(C1, (2,)), ((ONE,),))


def _refused_with_peak(source, module, action, match):
    # The most memory the constructor allocated at once before refusing.
    def refuse():
        with pytest.raises(ValidationError, match=match):
            ConcreteCorr(source, module, action)

    return _traced_peak(refuse)[1]


def test_constructor_checks_every_shape_before_it_allocates():
    # A 1 x 1 image for a fiber declared 10^6 wide: a stack of that width
    # would take 7.28 TiB.  The shape is named, and nothing large is made,
    # also when the mis-shaped fiber follows a well-shaped one.
    message = (
        r"unit images for block 0 on fiber 0 have shape \(1, 1, 1, 1\), "
        r"expected \(1, 1, 1000000, 1000000\)"
    )
    peak = _refused_with_peak(C1, ConcreteModule(C1, (10**6,)), ((ONE,),), message)
    assert peak < 100_000
    wide = np.broadcast_to(np.zeros(()), (1, 1, 2000, 2000))
    message = r"block 0 on fiber 1 have shape \(1, 1, 1, 1\), expected \(1, 1, 2, 2\)"
    peak = _refused_with_peak(C1, ConcreteModule(C2, (2000, 2)), ((wide,), (ONE,)), message)
    assert peak < 100_000


def test_constructor_caps_the_action_before_it_allocates(monkeypatch):
    # M_64 -> C with a 65-wide fiber: 64^2 * 65^2 = 17,305,600 entries, over
    # 2^24, from an 8-byte broadcast view.  realize refuses the same size,
    # and so does the constructor, before its 138 MB stack.
    m64 = make_algebra([64])
    module = ConcreteModule(C1, (65,))
    images = np.broadcast_to(np.zeros(()), (64, 64, 65, 65))
    peak = _refused_with_peak(m64, module, ((images,),), "hold 17305600 entries, which exceeds")
    assert peak < 100_000
    with pytest.raises(ValidationError, match="hold 17305600 entries, which exceeds"):
        realize(CorrClass(C1, C1, ((4160,),)))
    # The cap is inclusive, as for realize.
    monkeypatch.setattr(concrete, "MAX_ACTION_ENTRIES", 16)
    x = ConcreteCorr(C1, ConcreteModule(C1, (4,)), ((np.zeros((1, 1, 4, 4)),),))
    assert x.action[0][0].shape == (1, 1, 4, 4)
    _refused_with_peak(C1, ConcreteModule(C1, (5,)), ((np.zeros((1, 1, 5, 5)),),), "exceeds")


def test_concrete_corr_is_immutable_and_keeps_its_repr():
    # Assignment and deletion raise, the action views are made once, and the
    # repr names the endpoints and the module only.
    x = realize(CorrClass(M2, C2, ((1, 2),)))
    for corr in (x, _single_stack(x)):
        with pytest.raises(AttributeError):
            corr.source = C1
        with pytest.raises(AttributeError):
            del corr.module
        assert corr.action is corr.action
        assert repr(corr) == (
            "ConcreteCorr(source=FdCStarAlgebra([2]), module=ConcreteModule("
            "target=FdCStarAlgebra([1, 1]), fiber_dims=(2, 4)))"
        )


def test_tensor_refuses_mismatched_endpoints_and_an_indefinite_gram_form():
    x = realize(identity_corr(C1))
    with pytest.raises(ValidationError, match="cannot tensor: first ends at"):
        InteriorTensor(x, realize(identity_corr(C2)))
    # A right factor whose unit image is -1 has the Gram block (-1).
    y = ConcreteCorr(C1, ConcreteModule(C1, (1,)), ((-ONE,),))
    for tensor in (InteriorTensor, interior_tensor_norm):
        with pytest.raises(ValidationError, match="tensor Gram form is not positive semidefinite"):
            tensor(x, y)


def test_classify_refuses_a_trace_off_an_integer(monkeypatch):
    # With the validation tolerance raised, a unit image scaled by 1.001
    # passes validation, and its projection trace 1.001 is no multiplicity.
    monkeypatch.setattr(concrete, "VALIDATE_TOL", 0.01)
    x = ConcreteCorr(C1, ConcreteModule(C1, (1,)), ((1.001 * ONE,),))
    assert validate(x).ok
    with pytest.raises(
        ValidationError, match=r"projection trace \(1\.001\+0j\) on fiber 0 is not a multiplicity"
    ):
        classify(x)


def test_compacts_span_defect_at_the_zero_algebra():
    # Into the zero algebra the module is zero and the defect reads 0.0; from
    # it onto a nonzero fiber nothing reaches the compacts, so it reads 1.0.
    assert compacts_span_defect(realize(CorrClass(C1, ZERO_ALGEBRA, ((),)))) == 0.0
    assert compacts_span_defect(realize(CorrClass(M2, ZERO_ALGEBRA, ((),)))) == 0.0
    assert compacts_span_defect(_zero_source()) == 1.0
    assert compacts_span_defect(realize(CorrClass(ZERO_ALGEBRA, M2, ()))) == 0.0
    assert compacts_span_defect(realize(CorrClass(ZERO_ALGEBRA, ZERO_ALGEBRA, ()))) == 0.0


def _non_finite_factor(bad):
    # C -> C on a 2-dimensional fiber: the identity with one diagonal entry bad.
    a = np.eye(2).reshape(1, 1, 2, 2)
    a[0, 0, 1, 1] = bad
    return ConcreteCorr(C1, ConcreteModule(C1, (2,)), ((a,),))


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 1e300])
def test_validate_reads_a_non_finite_or_overflowing_action_without_a_warning(bad):
    y = _non_finite_factor(bad)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not validate(y).ok
        with pytest.raises(ValidationError, match="action fails validation"):
            classify(y)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_tensor_refuses_a_non_finite_gram_block(bad):
    # eigvalsh reads the NaN block as [0, -0], a vanishing tensor, and the inf
    # block as [nan, nan], whose NaN max would drop from the norm.
    x, y = realize(CorrClass(C1, C1, ((1,),))), _non_finite_factor(bad)
    assert not validate(y).ok
    for tensor in (InteriorTensor, interior_tensor_norm):
        with pytest.raises(ValidationError, match="tensor Gram form has a non-finite entry"):
            tensor(x, y)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_compacts_span_defect_of_a_non_finite_action_is_infinite(bad, capfd):
    # As _max_abs reads NaN; least squares would not converge, and LAPACK
    # would complain on standard error.
    assert compacts_span_defect(_non_finite_factor(bad)) == math.inf
    assert capfd.readouterr().err == ""


def test_interior_tensor_is_immutable():
    x, y = realize(CorrClass(C1, M2, ((2,),))), realize(CorrClass(M2, C2, ((1, 3),)))
    t = InteriorTensor(x, y)
    for name in ("corr", "gram_norm", "gram_blocks", "_layout", "_weights"):
        with pytest.raises(AttributeError):
            setattr(t, name, None)
        with pytest.raises(AttributeError):
            delattr(t, name)
    # fiber l of corr holds mu copies of x's fiber j, as (j, mu) pairs.
    assert t._layout == (((0, 1),), ((0, 3),))
    assert t.gram_norm == 2.0
    _embed_shapes(t, np.random.default_rng(47))
    assert t._weights is t._weights


def test_tensor_keeps_no_gram_matrix(monkeypatch):
    # C -> C [[1]].[[512]]: the one Gram block R, like the right factor's
    # stack, is 512 x 512, 2 MB.  With the stack built first, the tensor holds
    # its spectrum and layout only; embed rebuilds R and solves it once.
    x, y = realize(CorrClass(C1, C1, ((1,),))), realize(CorrClass(C1, C1, ((512,),)))
    assert y.action[0][0].shape == (1, 1, 512, 512)
    tracemalloc.start()
    try:
        t = InteriorTensor(x, y)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024
    assert t.corr.module.fiber_dims == (512,)
    calls = _count_solver(monkeypatch, "eigh")
    rng = np.random.default_rng(48)
    _embed_shapes(t, rng)
    _embed_shapes(t, rng)
    assert calls == [(512, 512)]


def _overflowing_factor(kind):
    # C -> C on a 2-dimensional fiber whose unit image has finite entries that
    # R's symmetrization, (r + r^*) / 2, would carry past the largest float.
    a = np.eye(2, dtype=complex).reshape(1, 1, 2, 2)
    if kind == "real":
        a[0, 0, 1, 1] = 1e308
    else:
        a[0, 0, 0, 1], a[0, 0, 1, 0] = 1e308j, -1e308j
    return ConcreteCorr(C1, ConcreteModule(C1, (2,)), ((a,),))


@pytest.mark.parametrize("kind", ["real", "imaginary"])
def test_tensor_refuses_a_gram_block_that_would_overflow(kind):
    # The inf that R would hold reads as a NaN spectrum or makes eigvalsh fail.
    x, y = realize(CorrClass(C1, C1, ((1,),))), _overflowing_factor(kind)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nor does the check itself overflow
        for tensor in (InteriorTensor, interior_tensor_norm):
            with pytest.raises(ValidationError, match="tensor Gram form has a non-finite entry"):
                tensor(x, y)
    # A spread of half the largest float, from 0 to big, is still read.
    big = np.finfo(float).max / 2
    a = np.diag([1.0, big]).reshape(1, 1, 2, 2)
    y = ConcreteCorr(C1, ConcreteModule(C1, (2,)), ((a,),))
    assert interior_tensor_norm(x, y) == pytest.approx(big, rel=1e-12)


def test_norm_of_a_product_over_the_size_cap():
    # Each factor is within MAX_ACTION_ENTRIES, their product's 8192-wide fiber
    # (2^26 entries) is not: the product is refused when it is built, but the
    # norm reads the one 2 x 2 Gram block and allocates nothing of the product.
    x, y = realize(CorrClass(C1, C1, ((4096,),))), realize(CorrClass(C1, C1, ((2,),)))
    norm, peak = _traced_peak(interior_tensor_norm, x, y)
    assert norm == 1.0 and peak < 64 * 1024
    for tensor in (lambda x, y: InteriorTensor(x, y).corr, interior_tensor):
        with pytest.raises(ValidationError, match="hold 67108864 entries, which exceeds"):
            tensor(x, y)


def test_tensor_builds_its_product_on_first_read():
    # The Gram pass builds no action, so the cap on the product applies when
    # corr is read, by InteriorTensor(...).corr or interior_tensor alike.
    x, y = realize(CorrClass(C1, C1, ((4096,),))), realize(CorrClass(C1, C1, ((2,),)))
    t, peak = _traced_peak(InteriorTensor, x, y)
    assert t.gram_norm == 1.0 and peak < 64 * 1024
    with pytest.raises(ValidationError, match="hold 67108864 entries, which exceeds"):
        t.corr
    x, y = realize(CorrClass(C1, C1, ((64,),))), realize(CorrClass(C1, C1, ((65,),)))
    assert InteriorTensor(x, y).gram_norm == 1.0
    with pytest.raises(ValidationError, match="exceeds"):
        interior_tensor(x, y)
    # Once read, corr is kept and can be neither replaced nor deleted.
    t = InteriorTensor(realize(CorrClass(C1, C1, ((2,),))), realize(CorrClass(C1, C1, ((3,),))))
    corr = t.corr
    assert t.corr is corr and corr.module.fiber_dims == (6,)
    with pytest.raises(AttributeError):
        t.corr = None
    with pytest.raises(AttributeError):
        del t.corr
    assert t.corr is corr


def test_report_quiets_numpy_only_for_a_caller_built_stack(monkeypatch):
    # Realized factors and their tensors hold identity sums of 0s and 1s, which
    # cannot warn, so only a stack built through the constructor enters errstate.
    entered, errstate = [], np.errstate

    def counted(**kwargs):
        entered.append(kwargs)
        return errstate(**kwargs)

    monkeypatch.setattr(np, "errstate", counted)
    k, l = CorrClass(C1, M2, ((2,),)), CorrClass(M2, C2, ((1, 3),))
    assert validate(realize(k)).ok and classify(realize(k)) == k
    assert classify(interior_tensor(realize(k), realize(l))) == compose(k, l)
    assert entered == []
    built = ConcreteCorr(C1, ConcreteModule(C1, (1,)), ((ONE,),))
    assert validate(built).ok
    assert entered == [{"invalid": "ignore", "over": "ignore"}]


def _reference_spectra(x, y):
    # Each (l, j) Gram spectrum from R of the whole assembled fiber l of y.
    blocks = y.source.blocks
    return [
        ((l, j), np.linalg.eigvalsh(concrete._gram_block(y._stacks[l], blocks, j)))
        for l, e in enumerate(y.module.fiber_dims)
        if e
        for j, d in enumerate(x.module.fiber_dims)
        if d
    ]


def _mixed_factor(rng, b, c):
    # b -> c whose fibers mix identity leaves with real and complex stacks,
    # each stack a rotated identity representation of one block of b.
    def stack(i, orthogonal):
        rows = tuple((int(k == i),) for k in range(b.block_count))
        return _rotate(realize(CorrClass(b, C1, rows)), rng, orthogonal)._fibers[0]

    fibers = []
    for _ in c.blocks:
        parts = []
        for i in range(b.block_count):
            for leaf in (i, stack(i, True), stack(i, False)):
                mu = int(rng.integers(0, 3))
                if mu:
                    parts.append((mu, leaf))
        fibers.append(tuple(parts))
    dims = tuple(
        sum(mu * (b.blocks[s] if isinstance(s, int) else s.shape[1]) for mu, s in parts)
        for parts in fibers
    )
    return ConcreteCorr._trusted(b, c, dims, tuple(fibers))


def _right_factors(rng, b, c):
    # Right factors b -> c of every kind the tensor meets: realized, rotated
    # (real and complex), nested (a tensor's product, whose leaves are the
    # stacks of a rotated factor) and with mixed-dtype leaves.
    d = random_algebra(rng)
    l = random_corr(rng, b, c)
    inner = _rotate(realize(random_corr(rng, b, d)), rng, orthogonal=rng.random() < 0.5)
    nested = InteriorTensor(inner, realize(random_corr(rng, d, c))).corr
    yield "realized", realize(l)
    yield "orthogonal", _rotate(realize(l), rng, orthogonal=True)
    yield "unitary", _rotate(realize(l), rng, orthogonal=False)
    yield "nested", nested
    yield "nested twice", InteriorTensor(nested, realize(identity_corr(c))).corr
    yield "mixed", _mixed_factor(rng, b, c)


def test_gram_spectra_match_the_assembled_fiber():
    # The tensor reads each Gram spectrum from the fiber's distinct leaves; it
    # must equal eigvalsh of R on the whole assembled fiber, in the same
    # (l, j) order and length, to 1e-9 relative to the middle block's size,
    # and give the layout that spectrum gives under the per-block cutoff.
    rng = np.random.default_rng(61)
    seen, zero_fibers = {}, 0
    for _ in range(40):
        a, b, c = (random_algebra(rng) for _ in range(3))
        x = realize(random_corr(rng, a, b))
        for kind, y in _right_factors(rng, b, c):
            t = InteriorTensor(x, y)
            want = _reference_spectra(x, y)
            assert [lj for lj, _ in t.gram_blocks] == [lj for lj, _ in want]
            layout = tuple([] for _ in y.module.fiber_dims)
            for ((l, j), got), (_, lam) in zip(t.gram_blocks, want):
                m = b.blocks[j]
                assert got.shape == lam.shape
                assert np.abs(got - lam).max(initial=0.0) <= 1e-9 * m
                mu = int(np.count_nonzero(lam > concrete.GRAM_NULL_TOL * m))
                if mu:
                    layout[l].append((j, mu))
            assert t._layout == tuple(map(tuple, layout))
            assert t.gram_norm == pytest.approx(max([0.0] + [lam[-1] for _, lam in want]))
            seen[kind] = seen.get(kind, 0) + bool(want)
            zero_fibers += 0 in y.module.fiber_dims
    assert len(seen) == 6 and min(seen.values()) > 20 and zero_fibers > 20


def test_gram_spectra_solve_each_distinct_stack_once(monkeypatch):
    # A realized right factor needs no eigvalsh and no stack; a nested one
    # needs one call per distinct stack leaf and middle block; a factor built
    # through the constructor, one stack per fiber, one call per (l, j) pair,
    # whose spectrum is that call's result bit for bit.
    calls = _count_solver(monkeypatch, "eigvalsh")
    rng = np.random.default_rng(62)
    shared = 0
    for _ in range(40):
        a, b, c, d = (random_algebra(rng, zero_prob=0.0) for _ in range(4))
        x, y = realize(random_corr(rng, a, b)), realize(random_corr(rng, b, c))
        calls.clear()
        InteriorTensor(x, y)
        assert calls == [] and "_stacks" not in vars(y)
        inner = InteriorTensor(
            _rotate(realize(random_corr(rng, b, d)), rng, orthogonal=True),
            realize(random_corr(rng, d, c)),
        )
        nested = inner.corr
        calls.clear()
        t = InteriorTensor(x, nested)
        stacks = {k for parts in inner._layout for k, _ in parts}
        middle = [j for j, dj in enumerate(x.module.fiber_dims) if dj]
        assert len(calls) == len(stacks) * len(middle)
        assert "_stacks" not in vars(nested)
        shared += len(t.gram_blocks) - len(calls)
        built = _single_stack(y)
        calls.clear()
        t = InteriorTensor(x, built)
        assert calls == [(lam.size, lam.size) for _, lam in t.gram_blocks]
        for (l, j), lam in t.gram_blocks:
            r = concrete._gram_block(built._stacks[l], built.source.blocks, j)
            assert np.array_equal(lam, np.linalg.eigvalsh(r))
    assert shared > 10


def _count_spectra(monkeypatch):
    # The (j, e) of each concrete._spectrum call, call by call.
    calls = []
    spectrum = concrete._spectrum

    def spy(leaves, blocks, j, e, solved):
        calls.append((j, e))
        return spectrum(leaves, blocks, j, e, solved)

    monkeypatch.setattr(concrete, "_spectrum", spy)
    return calls


def test_tensor_builds_no_spectrum_until_gram_blocks_is_read(monkeypatch):
    # The layout and the norm come from the leaf tables: on realized and
    # nested realized right factors building the tensor, its product and its
    # norm solve nothing and build no spectrum; a mixed right factor solves
    # its stacks then.  The first read of gram_blocks builds one spectrum per
    # (l, j) from the kept stack spectra, with no new eigvalsh call, and the
    # second read returns the same tuple.
    solves, spectra = _count_solver(monkeypatch, "eigvalsh"), _count_spectra(monkeypatch)
    rng = np.random.default_rng(63)
    read = mixed = 0
    for _ in range(40):
        a, b, c, d = (random_algebra(rng) for _ in range(4))
        x = realize(random_corr(rng, a, b))
        nested = InteriorTensor(realize(random_corr(rng, b, d)), realize(random_corr(rng, d, c)))
        for y in (realize(random_corr(rng, b, c)), nested.corr, _mixed_factor(rng, b, c)):
            solves.clear()
            t = InteriorTensor(x, y)
            assert t.corr.source == a and t.gram_norm >= 0.0 and spectra == []
            if any(stacks for _, stacks in map(concrete._leaves, y._fibers)):
                mixed += bool(solves)
            else:
                assert solves == []
            solves.clear()
            blocks = t.gram_blocks
            assert solves == [] and t.gram_blocks is blocks
            assert spectra == [(j, y.module.fiber_dims[l]) for (l, j), _ in blocks]
            read += len(spectra)
            spectra.clear()
    assert read > 100 and mixed > 10


def test_tensor_refuses_a_negative_stack_beside_identities():
    # A stack with a negative Gram eigenvalue among a mixed fiber's identity
    # and rotated stack leaves is refused as before: the PSD test reads the
    # smallest stack eigenvalue against the global cut.
    rng = np.random.default_rng(64)
    beside = 0
    for _ in range(20):
        a, b, c = (random_algebra(rng, zero_prob=0.0) for _ in range(3))
        x, y = realize(random_corr(rng, a, b, zero_prob=0.0)), _mixed_factor(rng, b, c)
        i = int(rng.integers(b.block_count))
        rows = tuple((int(k == i),) for k in range(b.block_count))
        bad = -_single_stack(realize(CorrClass(b, C1, rows)))._fibers[0]
        fibers = ((*y._fibers[0], (1, bad)), *y._fibers[1:])
        dims = (y.module.fiber_dims[0] + b.blocks[i], *y.module.fiber_dims[1:])
        with pytest.raises(ValidationError, match="tensor Gram form is not positive semidefinite"):
            InteriorTensor(x, ConcreteCorr._trusted(b, c, dims, fibers))
        beside += any(isinstance(s, int) for _, s in y._fibers[0])
    assert beside > 5


def test_classify_reads_exact_counts_as_ints():
    # On realized, nested and twice nested factors, whose traces are identity
    # counts, each class must equal the class of the single-stack copy, whose
    # traces are measured, and the composite of the classes; and since
    # CorrClass._trusted skips card, every entry must be an int.
    rng = np.random.default_rng(65)
    nested = 0
    for _ in range(60):
        a, b, c, d = (random_algebra(rng) for _ in range(4))
        k, l, m = random_corr(rng, a, b), random_corr(rng, b, c), random_corr(rng, c, d)
        t = InteriorTensor(realize(k), realize(l)).corr
        t2 = InteriorTensor(t, realize(m)).corr
        for corr, want in ((realize(k), k), (t, compose(k, l)), (t2, compose(compose(k, l), m))):
            got, rebuilt = classify(corr), _single_stack(corr)
            assert all(isinstance(s, np.ndarray) for s in rebuilt._fibers)
            assert got == classify(rebuilt) == want
            assert all(type(v) is int for row in got.matrix for v in row)
        nested += any(t2.module.fiber_dims)
    assert nested > 20


def test_identity_spectra_allocate_nothing_of_the_fiber():
    # C -> M_2 -> C [[1]] . [[1024]]: the right fiber is 2048 wide and its one
    # Gram block 4096 x 4096, yet the spectrum is read off the block sizes.
    x, y = realize(CorrClass(C1, M2, ((1,),))), realize(CorrClass(M2, C1, ((1024,),)))
    t, peak = _traced_peak(InteriorTensor, x, y)
    assert peak < 2**20
    assert t.gram_norm == 2.0 and t._layout == (((0, 1024),),)
    norm, peak = _traced_peak(interior_tensor_norm, x, y)
    assert peak < 2**20 and norm == 2.0
    assert "_stacks" not in vars(y)


# Largest relative defect of <embed(x, y), embed(u, v)> = <y, <x, u> v>.
ISOMETRY_TOL = 1e-9


def _assert_embed_is_an_isometry(t, rng):
    x, y = t._x, t._y
    xe, ue = x.module.random_element(rng), x.module.random_element(rng)
    ye, ve = y.module.random_element(rng), y.module.random_element(rng)
    got = t.corr.module.inner_product(t.embed(xe, ye), t.embed(ue, ve))
    want = y.module.inner_product(ye, y.apply(x.module.inner_product(xe, ue), ve))
    for g, w in zip(got, want):
        assert np.abs(g - w).max(initial=0.0) <= ISOMETRY_TOL * max(1.0, np.abs(w).max(initial=0.0))


def test_embed_is_an_isometry():
    # embed maps x (x) y to the quotient; the quotient's inner product must be
    # the tensor form, on dense (rotated) factors and on tensors of tensors,
    # whose middle blocks of size >= 2 tell sqrt(lambda) from lambda apart.
    rng = np.random.default_rng(63)
    wide = 0
    for case in range(30):
        a, b, c = (random_algebra(rng, zero_prob=0.0) for _ in range(3))
        x = _rotate(realize(random_corr(rng, a, b)), rng, orthogonal=case % 2 == 0)
        y = _rotate(realize(random_corr(rng, b, c)), rng, orthogonal=case % 2 == 1)
        t = InteriorTensor(x, y)
        _assert_embed_is_an_isometry(t, rng)
        d = random_algebra(rng, zero_prob=0.0)
        outer = InteriorTensor(
            InteriorTensor(x, realize(identity_corr(b))).corr,
            InteriorTensor(y, realize(random_corr(rng, c, d))).corr,
        )
        _assert_embed_is_an_isometry(outer, rng)
        wide += any(b.blocks[j] > 1 for parts in t._layout for j, _ in parts)
    assert wide > 10
