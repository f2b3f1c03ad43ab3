"""Numeric correspondences: block-matrix Hilbert modules with explicit actions.

Every Hilbert module over B = M_{m_1} + ... + M_{m_s} is, up to unitary, a
tuple of rectangular matrix spaces C^{d_j x m_j} with the canonical inner
product <x, y> = x_j^* y_j and right action by matrix multiplication.  A
concrete correspondence stores such a module together with the images of
every source matrix unit under the left action.

Tensor products go through an explicit Gram quotient, whose spectra count
the copies of each fiber in the quotient, and `classify` reads
multiplicities as traces of minimal-projection images.  On factors made by
`realize`, those traces, the axiom checks and the tensor's layout and norm,
read off the leaf tables, are bookkeeping on the stored parts; what is
measured in floating point is every caller-built action and the Gram
spectra of stack leaves, the only ones that go through `eigvalsh`.  The
full spectra, `gram_blocks`, are built when first read.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
from dataclasses import FrozenInstanceError, dataclass
from types import SimpleNamespace

import numpy as np

from .algebras import FdCStarAlgebra
from .corr import CorrClass
from .errors import ValidationError

__all__ = [
    "ConcreteModule",
    "ConcreteCorr",
    "AxiomCheck",
    "ValidationReport",
    "InteriorTensor",
    "realize",
    "validate",
    "classify",
    "interior_tensor",
    "interior_tensor_norm",
    "is_isomorphic",
    "rank_one",
    "compacts_span_defect",
    "GRAM_NULL_TOL",
    "CLASSIFY_TOL",
    "VALIDATE_TOL",
    "VANISH_TOL",
    "MAX_ACTION_ENTRIES",
]

# Singular values of the scalarized Gram form below this (relative) cutoff
# are treated as null when passing to the Hausdorff quotient.
GRAM_NULL_TOL = 1e-7
# A projection trace must be within this distance of an integer.
CLASSIFY_TOL = 1e-6
# Largest axiom violation an action may show and still pass validation.
VALIDATE_TOL = 1e-9
# A tensor product whose Gram norm lies below this is the zero module; for
# factors that pass validation the converse holds too (interior_tensor_norm).
VANISH_TOL = 1e-9
# Most entries, sum_i n_i^2 * sum_j d_j^2, that the unit-image arrays of one
# action may hold together, whatever their dtype; larger correspondences are
# refused before anything is allocated.
MAX_ACTION_ENTRIES = 2**24

Element = tuple[np.ndarray, ...]
AlgebraElement = tuple[np.ndarray, ...]


def _max_abs(arr: np.ndarray) -> float:
    # numpy's max propagates NaN; a NaN entry reads as an infinite violation.
    worst = float(np.abs(arr).max(initial=0.0))
    return math.inf if math.isnan(worst) else worst


@dataclass(frozen=True)
class ConcreteModule:
    """A Hilbert module over a block algebra, in canonical rectangular form.

    Elements are tuples of complex d_j x m_j matrices, one per target block;
    the inner product is <x, y> = x_j^* y_j and the right action is matrix
    multiplication.
    """

    target: FdCStarAlgebra
    fiber_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.fiber_dims)
        if len(dims) != self.target.block_count:
            raise ValidationError("one fiber dimension per target block required")
        for d in dims:
            if isinstance(d, bool) or not isinstance(d, int) or d < 0:
                raise ValidationError(f"fiber dimensions must be non-negative, got {d!r}")
        object.__setattr__(self, "fiber_dims", dims)

    @property
    def dim(self) -> int:
        return sum(d * m for d, m in zip(self.fiber_dims, self.target.blocks))

    @property
    def is_zero(self) -> bool:
        return self.dim == 0

    def as_element(self, x) -> Element:
        """Coerce and shape-check a tuple of fiber matrices."""
        x = tuple(np.asarray(xj, dtype=complex) for xj in x)
        if len(x) != self.target.block_count:
            raise ValidationError("element needs one matrix per target block")
        for xj, d, m in zip(x, self.fiber_dims, self.target.blocks):
            if xj.shape != (d, m):
                raise ValidationError(f"fiber matrix has shape {xj.shape}, expected {(d, m)}")
        return x

    def zero_element(self) -> Element:
        return tuple(
            np.zeros((d, m), dtype=complex)
            for d, m in zip(self.fiber_dims, self.target.blocks)
        )

    def basis(self) -> list[Element]:
        """Matrix-unit basis, ordered by fiber, then row, then column."""
        out = []
        for j, (d, m) in enumerate(zip(self.fiber_dims, self.target.blocks)):
            for u in range(d):
                for p in range(m):
                    elt = self.zero_element()
                    elt[j][u, p] = 1.0
                    out.append(elt)
        return out

    def inner_product(self, x, y) -> tuple[np.ndarray, ...]:
        """Target-valued pairing: the tuple of x_j^* y_j."""
        x, y = self.as_element(x), self.as_element(y)
        return tuple(xj.conj().T @ yj for xj, yj in zip(x, y))

    def right_mul(self, x, b: AlgebraElement) -> Element:
        x = self.as_element(x)
        return tuple(xj @ bj for xj, bj in zip(x, b))

    def random_element(self, rng: np.random.Generator) -> Element:
        return tuple(
            rng.standard_normal((d, m)) + 1j * rng.standard_normal((d, m))
            for d, m in zip(self.fiber_dims, self.target.blocks)
        )


class _Plan:
    """Fiber stack rows over a source with these blocks: unit (i, p, q) at
    off[i] + p n_i + q.  `checks`, built when a nonzero fiber is first
    checked, holds the axiom checks' read-only index arrays over those rows,
    5 N + (r + 5) S + 2 r (r - 1) numbers for N = sum_i n_i^2 and
    S = sum_i n_i; `eye(i)`, built when block i's identity is first filled,
    the 3 n_i^2 indices of its 1s; and `record`, the three violations classify
    measured on each identity sum, keyed by the sum's tuple of blocks, at most
    _RECORDED_SUMS of them.  _plan keeps one plan per block tuple, and the
    record goes with it; its bound holds all 84 tuples of at most 3 blocks of
    size <= 4."""

    def __init__(self, blocks: tuple[int, ...]):
        self.blocks = blocks
        self.off = list(itertools.accumulate((n * n for n in blocks), initial=0))
        self._eye = {}
        self.record = {}

    def eye(self, i: int) -> tuple[np.ndarray, ...]:
        # (row, p, q) of each 1 of block i's identity image: E_pq at unit (i, p, q).
        if i not in self._eye:
            units = np.arange(self.blocks[i] ** 2)
            self._eye[i] = (self.off[i] + units, *np.divmod(units, self.blocks[i]))
            for arr in self._eye[i]:
                arr.setflags(write=False)
        return self._eye[i]

    @functools.cached_property
    def checks(self) -> SimpleNamespace:
        blocks, sizes = self.blocks, np.diff(self.off)
        base = np.repeat(np.array(self.off[:-1], dtype=int), sizes)
        n = np.repeat(np.array(blocks, dtype=int), sizes)
        unit = np.arange(len(n))
        p, q = divmod(unit - base, n)
        diag, first = p == q, p == 0
        block = np.repeat(np.arange(len(blocks)), blocks)  # of each diagonal unit
        sums = np.vstack([block == np.arange(len(blocks))[:, None], np.ones(len(block))])
        order = np.argsort(~diag, kind="stable")  # the (R2) rows with a target first
        pair_l, pair_r = np.nonzero(~np.eye(len(blocks), dtype=bool))
        checks = SimpleNamespace(
            diag=unit[diag],
            sums=sums,
            row0=unit[first],
            col0=(base + q * n)[first],
            left=np.concatenate([base + p * n, (base + p)[order]]),
            right=np.concatenate([base + q, (base + q * n)[order]]),
            target=np.concatenate([unit, base[diag]]),
            pair_l=pair_l,
            pair_r=pair_r,
        )
        for arr in vars(checks).values():
            arr.setflags(write=False)
        return checks


_plan = functools.lru_cache(maxsize=128)(_Plan)
# Most identity sums one plan records: a source of at most 3 blocks has 15.
_RECORDED_SUMS = 64


def _check_size(blocks: tuple[int, ...], dims: tuple[int, ...]) -> None:
    # The size check of both construction paths, made before any allocation.
    entries = sum(n * n for n in blocks) * sum(d * d for d in dims)
    if entries > MAX_ACTION_ENTRIES:
        raise ValidationError(
            f"the unit-image arrays for fibers {dims} hold {entries} "
            f"entries, which exceeds {MAX_ACTION_ENTRIES}"
        )


class ConcreteCorr:
    """A concrete module plus a left action, stored as matrix-unit images.

    Each fiber is a summand: a read-only (sum_i n_i^2, e, e) stack of the
    images of all source matrix units, unit (i, p, q) at row off_i + p n_i + q;
    an int i, the identity representation of source block i; or a tuple of
    parts (mu, summand), mu >= 1 copies, copy-major.  The constructor copies
    each fiber's arrays into one stack, float64 unless one of them is complex
    (DECISIONS.md); `realize` and the tensor product store parts.  `_stacks[j]`,
    fiber j as one stack, and action[j][i], the read-only (n_i, n_i, d_j, d_j)
    view of block i's rows, are made on first use.  Instances are immutable.
    """

    def __init__(self, source: FdCStarAlgebra, module: ConcreteModule, action):
        acts = tuple(tuple(map(np.asarray, per)) for per in action)
        if len(acts) != module.target.block_count:
            raise ValidationError("one action table per target block required")
        blocks, dims = source.blocks, module.fiber_dims
        for j, (per, d) in enumerate(zip(acts, dims)):
            if len(per) != len(blocks):
                raise ValidationError("one unit-image array per source block required")
            for i, (arr, n) in enumerate(zip(per, blocks)):
                if arr.shape != (n, n, d, d):
                    raise ValidationError(
                        f"unit images for block {i} on fiber {j} have shape "
                        f"{arr.shape}, expected {(n, n, d, d)}"
                    )
        _check_size(blocks, dims)
        off, stacks = _plan(blocks).off, []
        for per, d in zip(acts, dims):
            real = all(arr.dtype.kind in "biuf" for arr in per)  # bool, int or float
            stack = np.empty((off[-1], d, d), dtype=float if real else complex)
            for i, (arr, n) in enumerate(zip(per, blocks)):
                stack[off[i] : off[i + 1]] = arr.reshape(n * n, d, d)
            stack.setflags(write=False)
            stacks.append(stack)
        vars(self).update(source=source, module=module, _fibers=tuple(stacks))

    @classmethod
    def _trusted(cls, source, target, dims, fibers) -> ConcreteCorr:
        """From summands no caller holds."""
        _check_size(source.blocks, dims)
        x = object.__new__(cls)
        vars(x).update(source=source, module=ConcreteModule(target, dims), _fibers=fibers)
        return x

    def __setattr__(self, name, *value):
        raise FrozenInstanceError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:  # without the action, which would build every stack
        return f"{type(self).__qualname__}(source={self.source!r}, module={self.module!r})"

    @functools.cached_property
    def _stacks(self) -> tuple[np.ndarray, ...]:
        plan = _plan(self.source.blocks)
        return tuple(_assemble(plan, s, d) for s, d in zip(self._fibers, self.module.fiber_dims))

    @functools.cached_property
    def action(self) -> tuple[tuple[np.ndarray, ...], ...]:
        off = _plan(self.source.blocks).off
        rows = [(slice(off[i], off[i + 1]), (n, n)) for i, n in enumerate(self.source.blocks)]
        return tuple(tuple(s[r].reshape(k + s.shape[1:]) for r, k in rows) for s in self._stacks)

    @property
    def target(self) -> FdCStarAlgebra:
        return self.module.target

    def action_matrix(self, j: int, a: AlgebraElement) -> np.ndarray:
        """The operator on fiber j induced by an algebra element."""
        stack, d = self._stacks[j], self.module.fiber_dims[j]
        # float64 when the element and the stack are real.
        flat = [np.asarray(ai).reshape(n * n) for ai, n in zip(a, self.source.blocks)]
        flat = np.concatenate([np.zeros(0), *flat])
        return (flat @ stack.reshape(len(stack), d * d)).reshape(d, d)

    def apply(self, a: AlgebraElement, x) -> Element:
        """Left action of an algebra element on a module element."""
        x = self.module.as_element(x)
        return tuple(self.action_matrix(j, a) @ xj for j, xj in enumerate(x))


def _leaves(s, mu: int = 1, out=None) -> tuple[dict, dict]:
    # The leaves of summand s, nested too, in two tables: ids maps source
    # block i to the multiplicity of its identity, stacks id(stack) to
    # [stack, multiplicity].
    ids, stacks = out = ({}, {}) if out is None else out
    if isinstance(s, int):
        ids[s] = ids.get(s, 0) + mu
    elif isinstance(s, tuple):
        for m, part in s:
            _leaves(part, mu * m, out)
    else:
        stacks.setdefault(id(s), [s, 0])[1] += mu
    return out


def _fill(out: np.ndarray, s, plan: _Plan) -> int:
    # Writes summand s at the top left of the zeroed stack out and returns its
    # width: a stack as it is, block i's identity as E_pq at unit (i, p, q),
    # and parts copy-major, each first copy from its summand, the rest from it.
    if isinstance(s, int):
        out[plan.eye(s)] = 1.0
        return plan.blocks[s]
    if not isinstance(s, tuple):  # a stack
        out[:, : s.shape[1], : s.shape[1]] = s
        return s.shape[1]
    start = 0
    for mu, part in s:
        first = out[:, start:, start:]
        e = _fill(first, part, plan)
        for o in range(start + e, start + mu * e, max(e, 1)):
            out[:, o : o + e, o : o + e] = first[:, :e, :e]
        start += mu * e
    return start


def _assemble(plan: _Plan, s, d: int) -> np.ndarray:
    """The read-only stack of summand s, of width d: a stack is its own, and
    any other is built float64 unless a stack among its leaves is complex.
    A sum of identities, which is what realize and _report make, has none."""
    if isinstance(s, np.ndarray):
        return s
    ids_only = isinstance(s, int) or all(isinstance(part, int) for _, part in s)
    wide = not ids_only and any(v.dtype.kind == "c" for v, _ in _leaves(s)[1].values())
    stack = np.zeros((plan.off[-1], d, d), dtype=complex if wide else float)
    _fill(stack, s, plan)
    stack.setflags(write=False)
    return stack


def realize(kind: CorrClass) -> ConcreteCorr:
    """Canonical numeric model of a finite-multiplicity class.

    Fiber j holds k_{ij} copies of each source block i in block order, so its
    dimension is sum_i k_{ij} n_i and the left action is the matching
    block-diagonal sum of identity representations.  classify inverts this.
    """
    if not kind.all_finite:
        raise ValidationError("cannot realize a class with infinite multiplicities")
    a, b, k = kind.source, kind.target, kind.matrix
    fibers = tuple(tuple((r[j], i) for i, r in enumerate(k) if r[j]) for j in range(b.block_count))
    dims = tuple(sum(mu * a.blocks[i] for mu, i in parts) for parts in fibers)
    return ConcreteCorr._trusted(a, b, dims, fibers)


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    violation: float


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AxiomCheck, ...]
    tol: float

    @property
    def max_violation(self) -> float:
        return max((c.violation for c in self.checks), default=0.0)

    @property
    def ok(self) -> bool:
        return self.max_violation <= self.tol

    def failures(self) -> list[str]:
        return [c.name for c in self.checks if c.violation > self.tol]


# Most entries that a temporary of a gathered axiom product may hold.  These
# products gather more rows than a stack has, so they go in chunks of rows.
_CHUNK_ENTRIES = 2**20


def _residual(a, left, right, target) -> float:
    # The largest entry of a[left] @ a[right], less a[target] on the first
    # len(target) rows: none without rows, one gathered product when it fits
    # one chunk, else the largest over chunks of rows.  take gathers the rows
    # that a[left] would at a third of its fixed cost.
    if not len(left):
        return 0.0
    step = max(1, _CHUNK_ENTRIES // a.shape[1] ** 2)
    if len(left) > step:
        c = [slice(s, s + step) for s in range(0, len(left), step)]
        return max(_residual(a, left[s], right[s], target[s]) for s in c)
    prod = a.take(left, axis=0) @ a.take(right, axis=0)
    if len(target):
        prod[: len(target)] -= a.take(target, axis=0)
    return _max_abs(prod)


def _violations(plan: _Plan, stack: np.ndarray) -> tuple[float, float, float]:
    # The star-multiplicativity, star-adjoint and nondegeneracy violations of
    # one summand, in a few batched products (DECISIONS.md): a summation
    # product gives the P_i and their sum, which is nondegeneracy; (R1)
    # e_pq = e_p1 e_1q and (R2) e_1p e_q1 = delta_pq e_11 in each block and
    # (R3) P_i P_k = 0 across blocks give every product relation, and with them
    # e_{1p}^* = e_{p1} gives every adjoint.
    d = stack.shape[1]
    if d == 0:
        return 0.0, 0.0, 0.0
    checks = plan.checks
    sums = checks.sums @ stack.take(checks.diag, axis=0).reshape(-1, d * d)
    sums[-1, :: d + 1] -= 1.0
    # A gather is a copy, so the residual can be formed in place.
    diff = stack.take(checks.col0, axis=0)
    diff -= stack.take(checks.row0, axis=0).conj().swapaxes(1, 2)
    units = sums[:-1].reshape(-1, d, d)
    mult = max(
        _residual(stack, checks.left, checks.right, checks.target),
        _residual(units, checks.pair_l, checks.pair_r, ()),
    )
    return mult, _max_abs(diff), _max_abs(sums[-1])


def _identity_sum(plan: _Plan, blocks: tuple, record) -> tuple[float, float, float]:
    # The violations of the sum of these blocks' identities, as assembled: read
    # from record when it holds them, else measured and, while record has
    # room, kept there.  With no record every call measures.
    if record is not None and blocks in record:
        return record[blocks]
    d = sum(plan.blocks[i] for i in blocks)
    got = _violations(plan, _assemble(plan, tuple((1, i) for i in blocks), d))
    if record is not None and len(record) < _RECORDED_SUMS:
        record[blocks] = got
    return got


def _report(plan: _Plan, tables, record=None) -> ValidationReport:
    # Each distinct stack leaf, and the identity summands new on a fiber as one
    # sum no wider than it, read through record when one is given; the report
    # holds the largest of each violation.  tables holds each fiber's leaves.
    seen, stacks, identity_sums = set(), {}, []
    for ids, fiber_stacks in tables:
        new = tuple(i for i in ids if i not in seen)
        seen.update(new)
        stacks.update((key, s) for key, (s, _) in fiber_stacks.items())
        if new:
            identity_sums.append(new)
    # A caller's non-finite or overflowing entry reads as an infinite violation,
    # so numpy's warning says nothing more; an identity sum of 0s and 1s cannot.
    with np.errstate(invalid="ignore", over="ignore") if stacks else contextlib.nullcontext():
        measured = [_violations(plan, stack) for stack in stacks.values()]
    measured += [_identity_sum(plan, blocks, record) for blocks in identity_sums]
    names = ("star-multiplicativity", "star-adjoint", "nondegeneracy")
    checks = map(AxiomCheck, names, map(max, zip((0.0, 0.0, 0.0), *measured)))
    return ValidationReport(tuple(checks), VALIDATE_TOL)


def validate(x: ConcreteCorr) -> ValidationReport:
    """Measure every action axiom through relations that imply it.

    Multiplicativity: e_{pq} = e_{p1} e_{1q} and e_{1p} e_{q1} = delta_{pq} e_{11}
    in each block, and P_i P_k = 0 for the images of distinct block units:
    2 sum_i n_i^2 + r(r - 1) products per summand, gathered in bounded chunks.
    Adjoints: e_{1p}^* = e_{p1}.  Nondegeneracy: unit images summing to the
    identity on each nonzero fiber.  An action passes when no violation
    exceeds VALIDATE_TOL; a zero module passes vacuously.
    """
    return _report(_plan(x.source.blocks), map(_leaves, x._fibers))


def _traces(ids: dict, stacks: dict, plan: _Plan) -> list:
    # The traces of the e_{i11} images on a fiber with these leaves: their sum,
    # to which block i's identity adds 1 at i alone.
    tr = [float(ids.get(i, 0)) for i in range(len(plan.blocks))]
    for s, mu in stacks.values():
        tr = [a + mu * b for a, b in zip(tr, s[plan.off[:-1]].trace(axis1=1, axis2=2).tolist())]
    return tr


def classify(x: ConcreteCorr) -> CorrClass:
    """Extract the multiplicity matrix of a validated concrete correspondence.

    The action must pass `validate`, whose failures and largest violation a
    refusal names; an identity sum's violations, once measured on a plan,
    are read from the plan's record.  k_{ij} is the rank of the image on
    fiber j of a minimal projection of source block i; since that image is a
    projection, the rank is its trace, which must lie within CLASSIFY_TOL of
    an integer.
    """
    plan, tables = _plan(x.source.blocks), [_leaves(fiber) for fiber in x._fibers]
    report = _report(plan, tables, plan.record)
    if not report.ok:
        raise ValidationError(
            f"action fails validation: {report.failures()} "
            f"(max violation {report.max_violation:.3e})"
        )
    traces = [_traces(*table, plan) for table in tables]
    rows = [[tr[i] for tr in traces] for i in range(x.source.block_count)]
    for row in rows:
        for j, t in enumerate(map(complex, row)):
            k = round(t.real)
            if abs(t.imag) > CLASSIFY_TOL or abs(t.real - k) > CLASSIFY_TOL or k < 0:
                raise ValidationError(f"projection trace {t} on fiber {j} is not a multiplicity")
            row[j] = k
    return CorrClass._trusted(x.source, x.target, tuple(map(tuple, rows)))


def _gram_block(stack: np.ndarray, blocks: tuple[int, ...], j: int) -> np.ndarray:
    # R of middle block j on a stack: the symmetrized action of block j's units.
    m, e, off = blocks[j], stack.shape[1], _plan(blocks).off
    r = stack[off[j] : off[j + 1]].reshape(m, m, e, e).swapaxes(1, 2).reshape(m * e, m * e)
    return (r + r.conj().T) / 2.0


def _spectrum(leaves: tuple, blocks: tuple[int, ...], j: int, e: int, solved: dict) -> np.ndarray:
    # R's ascending spectrum for middle block j on a fiber of width e with these
    # leaves, the union of theirs (DECISIONS.md): a copy of block j's identity
    # gives one m, other identities zeros, a stack its R's eigvalsh, in solved.
    ids, stacks = leaves
    m, tops, lams = blocks[j], ids.get(j, 0), []
    for key, (_, mu) in stacks.items():
        lams += [solved[key, j]] * mu
    zeros = np.zeros(m * e - tops - sum(map(len, lams)))
    lam = np.concatenate([*lams, zeros, np.full(tops, float(m))])
    return np.sort(lam) if lams else lam


class InteriorTensor:
    """Balanced tensor product of composable concrete correspondences.

    The algebraic tensor product of the two matrix-unit bases carries the
    C-valued form <x (x) y, u (x) v> = <y, <x, u> v>.  Composing with the
    canonical trace on the target algebra gives a scalar Gram matrix which,
    because the left factor's inner product is canonical, splits exactly as

        identity (x) R (x) identity

    per (left fiber j, right fiber l) pair, where R collects the action of
    the matrix units of middle block j on fiber l of the right factor.  The
    number mu of eigenvalues of R above GRAM_NULL_TOL * m_j, the one cutoff,
    read at each build, for m_j the size of block j, is the multiplicity of
    fiber j in fiber l of the quotient.  R is
    the direct sum of the R of fiber l's leaves, so the layout counts an
    identity's eigenvalue m_j off the leaf tables and only a stack goes through
    eigvalsh.  The product `corr` and `gram_blocks`, the full spectra from the
    kept stack spectra, are built on first read; no R is kept.  `embed`
    takes the top mu eigenvectors of each R, rebuilt on first use, scaled by
    the square roots of their eigenvalues, as representatives of the
    Hausdorff quotient that are orthonormal for the block-valued form, i.e.
    the quotient lands directly in canonical fiber form.  The left action
    passes through on the surviving coordinates.  Instances are immutable.
    """

    def __init__(self, x: ConcreteCorr, y: ConcreteCorr):
        # The one Gram pass: the layout, the norm and the stack leaves' spectra,
        # from the leaf tables.  It builds no action, so the size cap on the
        # product applies when corr is read.
        if x.target != y.source:
            raise ValidationError(
                f"cannot tensor: first ends at {x.target!r}, second starts at {y.source!r}"
            )
        blocks, ey = y.source.blocks, y.module.fiber_dims
        middle = [j for j, d in enumerate(x.module.fiber_dims) if d]
        # In (l, j) order: fiber l of corr holds mu copies of x's fiber j.
        tops, solved, layout = [0.0], {}, tuple([] for _ in ey)
        for l in (l for l, e in enumerate(ey) if e and middle):
            ids, stacks = _leaves(y._fibers[l])
            # eigvalsh would read a non-finite entry of R as a number, so each stack
            # is checked first.  With min <= 0 <= max, a spread of at most half the
            # largest float keeps R = (r + r^*) / 2 finite; NaN fails.
            for v in (v.view(float) for v, _ in stacks.values()):
                if not v.max(initial=0.0) <= v.min(initial=0.0) + np.finfo(float).max / 2:
                    raise ValidationError("tensor Gram form has a non-finite entry")
            for j in middle:
                mu = ids.get(j, 0)  # each copy of block j's identity: one eigenvalue m_j
                if mu:
                    tops.append(float(blocks[j]))
                for key, (s, k) in stacks.items():
                    if (key, j) not in solved:
                        solved[key, j] = np.linalg.eigvalsh(_gram_block(s, blocks, j))
                    mu += k * int(np.count_nonzero(solved[key, j] > GRAM_NULL_TOL * blocks[j]))
                if mu:
                    layout[l].append((j, mu))
        gram_norm = max(tops + [float(lam[-1]) for lam in solved.values()])
        cut = GRAM_NULL_TOL * max(1.0, gram_norm)
        if min([0.0] + [float(lam[0]) for lam in solved.values()]) < -cut:
            raise ValidationError("tensor Gram form is not positive semidefinite")
        vars(self).update(_x=x, _y=y, gram_norm=gram_norm, _solved=solved)
        vars(self)["_layout"] = tuple(map(tuple, layout))

    __setattr__ = __delattr__ = ConcreteCorr.__setattr__

    @functools.cached_property
    def gram_blocks(self) -> tuple:
        # Each (l, j) with both fibers nonzero and its full ascending spectrum,
        # from the stack leaves' spectra the pass solved.
        y, dx = self._y, self._x.module.fiber_dims
        return tuple(
            ((l, j), _spectrum(_leaves(y._fibers[l]), y.source.blocks, j, e, self._solved))
            for l, e in enumerate(y.module.fiber_dims)
            if e
            for j, d in enumerate(dx)
            if d
        )

    @functools.cached_property
    def corr(self) -> ConcreteCorr:
        dims = tuple(sum(mu * self._x.module.fiber_dims[j] for j, mu in p) for p in self._layout)
        fibers = tuple(tuple((mu, self._x._fibers[j]) for j, mu in p) for p in self._layout)
        return ConcreteCorr._trusted(self._x.source, self._y.target, dims, fibers)

    @functools.cached_property
    def _weights(self):
        # Per kept (l, j): the top mu eigenvectors of R, ascending as eigh
        # returns them, times the square roots of their eigenvalues.  Taking
        # them by index keeps each shape equal to the fiber layout of corr.
        def top(l, j, mu):
            lam, vec = np.linalg.eigh(_gram_block(self._y._stacks[l], self._y.source.blocks, j))
            return j, mu, vec[:, -mu:] * np.sqrt(lam[-mu:])

        return tuple(tuple(top(l, j, mu) for j, mu in p) for l, p in enumerate(self._layout))

    def embed(self, x_elt, y_elt) -> Element:
        """Image of the elementary tensor x (x) y in the quotient module.

        The balancing relation holds here: embed(x b, y) and embed(x, b y)
        agree up to the Gram cutoff.
        """
        x_elt = self._x.module.as_element(x_elt)
        y_elt = self._y.module.as_element(y_elt)
        b, c = self._x.target, self._y.target
        out = []
        for l, parts in enumerate(self._weights):
            cl = c.blocks[l]
            rows = [np.zeros((0, cl), dtype=complex)]
            for j, mu, w in parts:
                d, m, e = self._x.module.fiber_dims[j], b.blocks[j], self._y.module.fiber_dims[l]
                t = np.einsum("up,vq->upvq", x_elt[j], y_elt[l]).reshape(d, m * e, cl)
                rows.append(np.einsum("ka,ukq->auq", w.conj(), t).reshape(d * mu, cl))
            out.append(np.vstack(rows))
        return tuple(out)


def interior_tensor(x: ConcreteCorr, y: ConcreteCorr) -> ConcreteCorr:
    """The balanced tensor product as a concrete correspondence."""
    return InteriorTensor(x, y).corr


def interior_tensor_norm(x: ConcreteCorr, y: ConcreteCorr) -> float:
    """Largest eigenvalue of the scalarized Gram form of the tensor product.

    For factors that pass `validate`, whose Gram eigenvalues are 0 or a middle
    block's size, it lies below VANISH_TOL exactly when the tensor product is
    the zero module.  A caller-built action that fails `validate` may give a
    zero product with a larger norm: a C -> C unit image [[1e-8]] tensored
    after the realized [[1]] has norm 1e-8 and a zero fiber.  The tensor's
    `gram_norm`: its action is not built, so a product over the size cap
    still has its norm.
    """
    return InteriorTensor(x, y).gram_norm


def is_isomorphic(x: ConcreteCorr, y: ConcreteCorr) -> bool:
    """Isomorphism of concrete correspondences: equal multiplicity matrices."""
    if x.source != y.source or x.target != y.target:
        raise ValidationError("isomorphism comparison requires equal endpoints")
    return classify(x) == classify(y)


def rank_one(x, y) -> tuple[np.ndarray, ...]:
    """The rank-one operator theta_{x,y} : z -> x <y, z>, as the tuple x_j y_j^*.

    Over a basis these span every fiber matrix algebra, i.e. all compacts.
    """
    x = tuple(np.asarray(xj, dtype=complex) for xj in x)
    y = tuple(np.asarray(yj, dtype=complex) for yj in y)
    if len(x) != len(y) or any(xj.shape != yj.shape for xj, yj in zip(x, y)):
        raise ValidationError("rank_one requires elements of the same module")
    return tuple(xj @ yj.conj().T for xj, yj in zip(x, y))


def compacts_span_defect(x: ConcreteCorr) -> float:
    """How far the compacts sit from the range of the left action.

    Least-squares residual, over all basis pairs (u, v), of expressing
    theta_{u,v} as the image of an algebra element.  These are the matrix
    units of each fiber algebra M_{d_j} (theta_{u,v} = delta_{pq} E_{ab} for
    u = E_{ap}, v = E_{bq}) or 0, so the targets are the identity of their sum.
    Zero (within tolerance) exactly when the class is a Hilbert bimodule; the
    least-squares solution then defines the left inner product via
    <x, y>_left = phi^{-1}(theta_{x,y}).
    """
    dims = x.module.fiber_dims
    eye = np.eye(sum(d * d for d in dims))
    cols = [s.reshape(len(s), d * d) for s, d in zip(x._stacks, dims)]
    # The empty first block gives phi its shape when the target has no blocks.
    phi = np.concatenate([np.zeros((x.source.dim, 0)), *cols], axis=1).T
    if not np.isfinite(phi).all():  # lstsq cannot converge; as _max_abs reads NaN
        return math.inf
    sol, *_ = np.linalg.lstsq(phi, eye, rcond=None)
    return _max_abs(phi @ sol - eye)
