"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines.
"""

import itertools
import time

import numpy as np

from enchilada import (
    compose,
    dual,
    enumerate_algebras,
    enumerate_corrs,
    gallery,
    identity_corr,
    is_left_full_hilbert_bimodule,
    is_split_mono,
    left_inverse,
    run_suite,
    suite_short_exact_theorem,
)
from enchilada.concrete import CLASSIFY_TOL, VANISH_TOL


def _report(num, name, ok, detail, started, limit):
    elapsed = time.perf_counter() - started
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} ({detail}, {elapsed:.2f}s)")
    assert elapsed < limit, f"criterion {num} exceeded {limit}s ({elapsed:.2f}s)"
    return ok


def test_criterion_1_oracle_equivalence():
    assert CLASSIFY_TOL == 1e-6
    started = time.perf_counter()
    result = run_suite(
        "oracle", np.random.default_rng(42), 200, max_blocks=3, max_dim=3, max_entry=2,
    )
    ok = _report(1, "oracle equivalence", result.ok, f"{result.cases} pairs", started, 60.0)
    assert ok, result.failures[:5]


def test_criterion_2_categorical_laws():
    started = time.perf_counter()
    result = run_suite(
        "laws", np.random.default_rng(1042), 500, max_blocks=3, max_dim=3,
        max_entry=2, inf_prob=0.2,
    )
    ok = _report(2, "categorical laws", result.ok, f"{result.cases} triples", started, 5.0)
    assert ok, result.failures[:5]


def test_criterion_3_universal_properties():
    started = time.perf_counter()
    result = run_suite(
        "universal", np.random.default_rng(2042), 100, max_blocks=3, max_dim=3,
        max_entry=2, inf_prob=0.15,
    )
    ok = _report(
        3, "kernel/cokernel universal properties", result.ok,
        f"{result.cases} factorizations", started, 10.0,
    )
    assert ok, result.failures[:5]


def test_criterion_4_schubert_identities():
    started = time.perf_counter()
    result = run_suite(
        "schubert", np.random.default_rng(3042), 200, max_blocks=3, max_dim=3,
        max_entry=2, inf_prob=0.2,
    )
    ok = _report(4, "schubert identities", result.ok, f"{result.cases} classes", started, 5.0)
    assert ok, result.failures[:5]


def test_criterion_5_short_exact_theorem():
    started = time.perf_counter()
    result = suite_short_exact_theorem()
    assert result.cases == 499  # blocks <= 2, any sizes, entries <= 1
    ok = _report(
        5, "short-exact theorem equivalence", result.ok,
        f"{result.cases} sequences, {len(result.failures)} disagreements",
        started, 5.0,
    )
    assert ok, result.failures[:5]


def test_criterion_6_split_mono_characterization():
    started = time.perf_counter()
    algebras = enumerate_algebras()
    mismatches = []
    witnessed = 0
    checked = 0
    for a, b in itertools.product(algebras, repeat=2):
        ia = identity_corr(a)
        for x in enumerate_corrs(a, b, 1):
            checked += 1
            if is_left_full_hilbert_bimodule(x):
                # constructive direction: the dual is a one-sided inverse
                assert compose(x, dual(x)) == ia, x
                witnessed += 1
            # split monos are wider than these (DECISIONS.md), and each
            # carries its own witness
            if is_split_mono(x):
                assert compose(x, left_inverse(x)) == ia, x
            found = any(compose(x, m) == ia for m in enumerate_corrs(b, a, 3))
            if found != is_split_mono(x):
                mismatches.append((x, found))
    ok = not mismatches
    detail = f"{checked} classes, {witnessed} dual witnesses, {len(mismatches)} mismatches"
    if mismatches:
        detail += (
            f"; first mismatch X={mismatches[0][0]!r}: the bounded search "
            f"says {mismatches[0][1]}, is_split_mono says {not mismatches[0][1]}"
        )
    _report(6, "split-mono characterization", ok, detail, started, 120.0)
    assert not mismatches, detail


def test_criterion_7_zero_tensor_equivalence():
    assert VANISH_TOL == 1e-9
    started = time.perf_counter()
    result = run_suite(
        "zero_tensor", np.random.default_rng(4042), 100, max_blocks=3, max_dim=3, max_entry=2,
    )
    ok = _report(7, "zero-tensor equivalence", result.ok, f"{result.cases} pairs", started, 30.0)
    assert ok, result.failures[:5]


def test_criterion_8_gallery():
    started = time.perf_counter()
    names = ("sur_not_epi", "noncancellative_sum", "mono_necessity")
    transcripts = [gallery(n) for n in names]
    ok = all(t.passed for t in transcripts)
    failed = [
        f"{t.name}:{s.label}" for t in transcripts for s in t.steps if not s.passed
    ]
    _report(8, "gallery", ok, f"{len(names)} entries", started, 5.0)
    assert ok, failed
