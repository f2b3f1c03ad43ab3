"""Seeded generators, exhaustive enumerations, and reusable invariant suites.

Everything here is deterministic for a fixed seed: generators take a numpy
Generator, suites derive per-suite child seeds from one SeedSequence, so a
rerun reproduces the transcript byte for byte.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .algebras import ZERO_ALGEBRA, FdCStarAlgebra
from .cardinal import INF
from .concrete import (
    VANISH_TOL,
    classify,
    interior_tensor,
    interior_tensor_norm,
    realize,
)
from .corr import (
    CorrClass,
    cokernel,
    compose,
    factor_through_quotient,
    identity_corr,
    kernel,
    left_kernel,
    restrict_right,
    right_support,
    schubert_coimage,
    schubert_image,
    tensor_is_zero,
    zero_corr,
)
from .errors import ValidationError
from .exactness import check_short_exact, exact_at

__all__ = [
    "random_algebra",
    "random_corr",
    "enumerate_algebras",
    "enumerate_corrs",
    "enumerate_chains",
    "SuiteResult",
    "RandomCheckReport",
    "run_suite",
    "suite_short_exact_theorem",
    "run_random_checks",
    "DEFAULT_COUNTS",
    "DEFAULT_BOUNDS",
]


# The bounds on what the seeded suites draw, by the names of random-check's options.
DEFAULT_BOUNDS = {"max_blocks": 3, "max_dim": 3, "max_entry": 2}


def random_algebra(
    rng: np.random.Generator,
    max_blocks: int = DEFAULT_BOUNDS["max_blocks"],
    max_dim: int = DEFAULT_BOUNDS["max_dim"],
    zero_prob: float = 0.08,
) -> FdCStarAlgebra:
    """A random block algebra; occasionally the zero algebra."""
    if rng.random() < zero_prob:
        return FdCStarAlgebra(())
    r = int(rng.integers(1, max_blocks + 1))
    return FdCStarAlgebra(tuple(int(rng.integers(1, max_dim + 1)) for _ in range(r)))


def random_corr(
    rng: np.random.Generator,
    source: FdCStarAlgebra,
    target: FdCStarAlgebra,
    max_entry: int = DEFAULT_BOUNDS["max_entry"],
    inf_prob: float = 0.0,
    zero_prob: float = 0.35,
) -> CorrClass:
    """A random class with the given endpoints."""
    rows = []
    for _ in range(source.block_count):
        row: list[int | float] = []
        for _ in range(target.block_count):
            u = rng.random()
            if u < zero_prob:
                row.append(0)
            elif u < zero_prob + inf_prob:
                row.append(INF)
            else:
                row.append(int(rng.integers(1, max_entry + 1)))
        rows.append(tuple(row))
    return CorrClass(source, target, tuple(rows))


def enumerate_algebras() -> tuple[FdCStarAlgebra, ...]:
    """The algebras of at most two blocks, each of size one: the zero
    algebra, C and C + C.  A symbolic verdict reads the multiplicity matrix
    and never a block size (M_n is Morita equivalent to C), so these stand
    for every algebra of at most two blocks, any sizes."""
    return tuple(FdCStarAlgebra((1,) * r) for r in range(3))


def enumerate_corrs(
    source: FdCStarAlgebra, target: FdCStarAlgebra, max_entry: int
) -> tuple[CorrClass, ...]:
    """All classes between two algebras with entries bounded by `max_entry`,
    meant for small algebras.  Over `enumerate_algebras()` the tables hold
    31, 107 and 297 classes in all at bounds 1, 2 and 3.
    """
    r, s = source.block_count, target.block_count
    return tuple(
        CorrClass._trusted(source, target, tuple(combo[i * s : (i + 1) * s] for i in range(r)))
        for combo in itertools.product(range(max_entry + 1), repeat=r * s)
    )


def enumerate_chains(length: int) -> Iterator[tuple[CorrClass, ...]]:
    """Every chain of `length` composable classes with entries at most one
    over `enumerate_algebras()`, ordered by their endpoints first."""
    for ends in itertools.product(enumerate_algebras(), repeat=length + 1):
        yield from itertools.product(*(enumerate_corrs(p, q, 1) for p, q in zip(ends, ends[1:])))


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "ok": self.ok,
            "failures": list(self.failures),
        }


def _compose_laws(rng, n, max_blocks, max_dim, max_entry, inf_prob=0.15):
    """Associativity and both unit laws of composition, infinite entries included."""
    a, b, c, d = (random_algebra(rng, max_blocks, max_dim) for _ in range(4))
    x = random_corr(rng, a, b, max_entry, inf_prob)
    y = random_corr(rng, b, c, max_entry, inf_prob)
    z = random_corr(rng, c, d, max_entry, inf_prob)
    if compose(compose(x, y), z) != compose(x, compose(y, z)):
        yield f"associativity {x!r} {y!r} {z!r}"
    if compose(identity_corr(a), x) != x or compose(x, identity_corr(b)) != x:
        yield f"unit law {x!r}"


def _bumped(rng, m: CorrClass) -> CorrClass | None:
    """M with one random entry changed, for uniqueness probes; None when M
    has no entries."""
    r, s = m.shape
    if not (r and s):
        return None
    i0 = int(rng.integers(0, r))
    j0 = int(rng.integers(0, s))
    rows = [list(row) for row in m.matrix]
    rows[i0][j0] = 0 if rows[i0][j0] == INF else rows[i0][j0] + 1
    return CorrClass(m.source, m.target, tuple(map(tuple, rows)))


def _universal_properties(rng, n, max_blocks, max_dim, max_entry, inf_prob=0.1):
    """Kernel and cokernel factorizations: existence, formula, and uniqueness.

    For W with W * X = 0 the unique mediator is restrict_right(W, ker phi_X);
    dually for X * W = 0 it is factor_through_quotient(W, B_X).
    """
    a, b, d = (random_algebra(rng, max_blocks, max_dim) for _ in range(3))
    x = random_corr(rng, a, b, max_entry, inf_prob)

    # Every W with W * X = 0 is M * ker X for exactly one M; dually for X * W = 0.
    ker = kernel(x)
    m = random_corr(rng, d, ker.source, max_entry, inf_prob)
    w = compose(m, ker)
    if not compose(w, x).is_zero:
        yield "generated W does not annihilate X"
        return
    if restrict_right(w, left_kernel(x)) != m:
        yield f"kernel factorization failed for {x!r}"
    other = _bumped(rng, m)
    if other is not None and compose(other, ker) == w:
        yield f"kernel mediator not unique for {x!r}"

    cok = cokernel(x)
    m2 = random_corr(rng, cok.target, d, max_entry, inf_prob)
    w2 = compose(cok, m2)
    if not compose(x, w2).is_zero:
        yield "generated W' is not annihilated by X"
        return
    if factor_through_quotient(w2, right_support(x)) != m2:
        yield f"cokernel factorization failed for {x!r}"
    other = _bumped(rng, m2)
    if other is not None and compose(cok, other) == w2:
        yield f"cokernel mediator not unique for {x!r}"


def _schubert_identities(rng, n, max_blocks, max_dim, max_entry, inf_prob=0.15):
    """Image = kernel of cokernel, coimage = cokernel of kernel, and the two
    always-exact node identities."""
    a, b = (random_algebra(rng, max_blocks, max_dim) for _ in range(2))
    x = random_corr(rng, a, b, max_entry, inf_prob)
    if schubert_image(x) != kernel(cokernel(x)):
        yield f"image identity failed for {x!r}"
    if schubert_coimage(x) != cokernel(kernel(x)):
        yield f"coimage identity failed for {x!r}"
    if not exact_at(kernel(x), x).exact:
        yield f"kernel node not exact for {x!r}"
    if not exact_at(x, cokernel(x)).exact:
        yield f"cokernel node not exact for {x!r}"


def _tensor_oracle(rng, n, max_blocks, max_dim, max_entry):
    """Numeric cross-check: classify(realize(K) (x) realize(L)) = K * L,
    plus the realize/classify roundtrip."""
    a, b, c = (random_algebra(rng, max_blocks, max_dim) for _ in range(3))
    k = random_corr(rng, a, b, max_entry)
    l = random_corr(rng, b, c, max_entry)
    rk = realize(k)
    if classify(rk) != k:
        yield f"roundtrip failed for {k!r}"
    got = classify(interior_tensor(rk, realize(l)))
    if got != compose(k, l):
        yield f"oracle mismatch {k!r} * {l!r} -> {got!r}"


def _zero_tensor(rng, n, max_blocks, max_dim, max_entry):
    """Three-way agreement on vanishing: support criterion, zero composite
    matrix, and numerically vanishing tensor product.

    Even cases build the pair with the support inside the kernel so both
    verdicts appear.
    """
    a, b, c = (random_algebra(rng, max_blocks, max_dim) for _ in range(3))
    y = random_corr(rng, b, c, max_entry)
    if n % 2 == 0:
        ker = kernel(y)
        x = compose(random_corr(rng, a, ker.source, max_entry), ker)
    else:
        x = random_corr(rng, a, b, max_entry)
    symbolic = tensor_is_zero(x, y)
    matrix_zero = compose(x, y).is_zero
    numeric = interior_tensor_norm(realize(x), realize(y)) < VANISH_TOL
    if not (symbolic == matrix_zero == numeric):
        yield f"disagreement ({symbolic}, {matrix_zero}, {numeric}) for {x!r} and {y!r}"


def suite_short_exact_theorem() -> SuiteResult:
    """Exhaustive check of check_short_exact against the definition of
    exactness for 0 -> A -> B -> C -> 0: subobject equality of the Schubert
    image and kernel inclusions at each of the three nodes.  Covers every
    algebra of at most two blocks, any sizes, and entries at most one."""
    fails = []
    cases = 0
    for x, y in enumerate_chains(2):
        cases += 1
        lead, tail = zero_corr(ZERO_ALGEBRA, x.source), zero_corr(y.target, ZERO_ALGEBRA)
        nodes = ((lead, x), (x, y), (y, tail))
        definition = all(schubert_image(f) == kernel(g) for f, g in nodes)
        if check_short_exact(x, y).exact != definition:
            fails.append(f"disagreement for {x!r} and {y!r}")
    return SuiteResult("short exact theorem", cases, tuple(fails))


# Each seeded suite by the key of its count: its per-case check, which yields
# the texts of the case's failures, its name and its default count.  A suite
# draws from the child seed of its place here.
_SUITES = {
    "laws": (_compose_laws, "compose laws", 500),
    "universal": (_universal_properties, "universal properties", 100),
    "schubert": (_schubert_identities, "schubert identities", 200),
    "oracle": (_tensor_oracle, "tensor oracle", 200),
    "zero_tensor": (_zero_tensor, "zero tensor", 100),
}
DEFAULT_COUNTS = {key: count for key, (_, _, count) in _SUITES.items()}

# The largest bound accepted: numpy draws nothing beyond int64, and the
# classes the suites draw grow with each bound.
MAX_BOUND = 64
# The largest suite count accepted: at the default bounds a case of the
# slowest suite, the tensor oracle, takes under half a millisecond.
MAX_CASES = 10_000


def run_suite(key: str, rng: np.random.Generator, cases: int, **params) -> SuiteResult:
    """Run `cases` cases of the seeded suite `key` of DEFAULT_COUNTS.

    `params` are the bounds, each defaulting to DEFAULT_BOUNDS, and, for the
    laws, universal and schubert suites, the chance `inf_prob` of an infinite
    entry.  The key, the count and the bounds are checked as
    run_random_checks checks them.
    """
    bounds = {bound: params.pop(bound) for bound in DEFAULT_BOUNDS if bound in params}
    _, bounds = _settings({key: cases}, bounds)
    check, name, _ = _SUITES[key]
    fails = []
    for n in range(cases):
        try:
            fails.extend(f"case {n}: {text}" for text in check(rng, n, **bounds, **params))
        except ValidationError as exc:
            # The bounds cap each drawn class's blocks, sizes and entries, not
            # its action, so a case at large bounds can go over MAX_ACTION_ENTRIES.
            drawn = ", ".join(f"{bound}={value}" for bound, value in bounds.items())
            raise ValidationError(
                f"{name} case {n} drew a class over the action cap at {drawn}; "
                f"lower these bounds ({exc})"
            ) from exc
    return SuiteResult(name, cases, tuple(fails))


@dataclass(frozen=True)
class RandomCheckReport:
    seed: int
    results: tuple[SuiteResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "ok": self.ok,
            "suites": [r.to_json() for r in self.results],
        }


def _merged(what: str, defaults: dict, given: dict | None) -> dict:
    unknown = set(given or ()) - set(defaults)
    if unknown:
        raise ValidationError(f"unknown {what}: {sorted(unknown)}")
    return {**defaults, **(given or {})}


def _settings(counts: dict | None, bounds: dict | None) -> tuple[dict, dict]:
    """The suite counts and the bounds over their defaults, each a positive
    integer under its cap, or a ValidationError that names the first that
    is not."""
    cfg = _merged("suite counts", DEFAULT_COUNTS, counts)
    bnd = _merged("bounds", DEFAULT_BOUNDS, bounds)
    for key, value in {**cfg, **bnd}.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValidationError(f"{key} must be a positive integer, got {value!r}")
        cap = MAX_BOUND if key in bnd else MAX_CASES
        if value > cap:
            raise ValidationError(f"{key} must be at most {cap}")
    return cfg, bnd


def run_random_checks(
    seed: int = 0,
    counts: dict | None = None,
    bounds: dict | None = None,
) -> RandomCheckReport:
    """Run every invariant suite with child seeds derived from `seed`."""
    cfg, bnd = _settings(counts, bounds)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    children = np.random.SeedSequence(seed).spawn(len(_SUITES))
    results = [
        run_suite(key, np.random.default_rng(child), cfg[key], **bnd)
        for key, child in zip(_SUITES, children)
    ]
    return RandomCheckReport(seed, (*results, suite_short_exact_theorem()))
