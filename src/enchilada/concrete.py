"""Numeric correspondences: block-matrix Hilbert modules with explicit actions.

Every Hilbert module over B = M_{m_1} + ... + M_{m_s} is, up to unitary, a
tuple of rectangular matrix spaces C^{d_j x m_j} with the canonical inner
product <x, y> = x_j^* y_j and right action by matrix multiplication.  A
concrete correspondence stores such a module together with the images of
every source matrix unit under the left action.

This module is the measurement side of the package: tensor products are
computed through an explicit Gram quotient and multiplicities through
traces of minimal-projection images, so the symbolic matrix calculus can be
cross-checked against floating-point reality instead of against itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .algebras import FdCStarAlgebra
from .corr import CorrClass, dual as dual_class, is_hilbert_bimodule
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
    "dual_concrete",
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
# A tensor product whose Gram norm lies below this is the zero module.
VANISH_TOL = 1e-9
# Most entries, sum_i n_i^2 * sum_j d_j^2, that the unit-image arrays of one
# action may hold together, whatever their dtype; larger correspondences are
# refused before anything is allocated.
MAX_ACTION_ENTRIES = 2**24

Element = tuple[np.ndarray, ...]
AlgebraElement = tuple[np.ndarray, ...]


def _max_abs(arr: np.ndarray) -> float:
    # numpy's max propagates NaN; a NaN entry reads as an infinite violation.
    if arr.size == 0:
        return 0.0
    worst = float(np.abs(arr).max())
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


def _dtype(*arrays) -> type:
    """float when every array holds real data (bool, integer or floating
    dtype), complex otherwise.  A float64 array holds a real-valued complex
    matrix exactly, so real actions skip complex arithmetic and the module
    stays a complex module (see DECISIONS.md)."""
    for arr in arrays:
        if arr.dtype.kind not in "biuf":
            return complex
    return float


def _unit_images(a) -> np.ndarray:
    """A read-only copy of a unit-image array: float64 when its data is real,
    complex128 otherwise.  The copy leaves the caller's array writable and
    keeps later writes to it out of the stored action."""
    arr = np.asarray(a)
    arr = np.array(arr, dtype=_dtype(arr))
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ConcreteCorr:
    """A concrete module plus a left action, stored as matrix-unit images.

    action[j][i] has shape (n_i, n_i, d_j, d_j): the image on fiber j of each
    matrix unit of source block i.  Each array is a read-only copy of the one
    given, and its dtype follows its data: float64 for a real array,
    complex128 for any other.
    """

    source: FdCStarAlgebra
    module: ConcreteModule
    action: tuple[tuple[np.ndarray, ...], ...]

    def __post_init__(self):
        acts = tuple(tuple(map(_unit_images, per)) for per in self.action)
        if len(acts) != self.module.target.block_count:
            raise ValidationError("one action table per target block required")
        for j, per in enumerate(acts):
            if len(per) != self.source.block_count:
                raise ValidationError("one unit-image array per source block required")
            d = self.module.fiber_dims[j]
            for i, arr in enumerate(per):
                n = self.source.blocks[i]
                if arr.shape != (n, n, d, d):
                    raise ValidationError(
                        f"unit images for block {i} on fiber {j} have shape "
                        f"{arr.shape}, expected {(n, n, d, d)}"
                    )
        object.__setattr__(self, "action", acts)

    @classmethod
    def _trusted(cls, source, module, action) -> ConcreteCorr:
        """A correspondence from arrays of the right shapes that no caller
        holds, already read-only; skips the copy and the checks in
        __post_init__."""
        x = object.__new__(cls)
        x.__dict__.update(source=source, module=module, action=action)  # frozen only blocks setattr
        return x

    @property
    def target(self) -> FdCStarAlgebra:
        return self.module.target

    def action_matrix(self, j: int, a: AlgebraElement) -> np.ndarray:
        """The operator on fiber j induced by an algebra element."""
        d = self.module.fiber_dims[j]
        a = [np.asarray(ai) for ai in a]
        dtype = _dtype(*a, *self.action[j])
        out = np.zeros(d * d, dtype=dtype)
        for ai, arr in zip(a, self.action[j]):
            n = arr.shape[0]
            out += np.asarray(ai, dtype=dtype).reshape(n * n) @ arr.reshape(n * n, d * d)
        return out.reshape(d, d)

    def apply(self, a: AlgebraElement, x) -> Element:
        """Left action of an algebra element on a module element."""
        x = self.module.as_element(x)
        return tuple(self.action_matrix(j, a) @ xj for j, xj in enumerate(x))


def _assemble(source: FdCStarAlgebra, target: FdCStarAlgebra, fibers) -> ConcreteCorr:
    """The correspondence whose fiber l is the block-diagonal sum of fibers[l].

    Each part (e, mu, images) of a fiber places mu copies, copy-major, of an
    e-dimensional representation on the diagonal; images maps a source block
    i to its unit images, shape (n_i, n_i, e, e), or to None for the identity
    representation of block i (e = n_i), and absent blocks act as zero.  The
    total size of the action is checked before any allocation.  The arrays
    are float64 unless some image is complex.
    """
    dims = tuple(sum(e * mu for e, mu, _ in parts) for parts in fibers)
    entries = sum(n * n for n in source.blocks) * sum(d * d for d in dims)
    if entries > MAX_ACTION_ENTRIES:
        raise ValidationError(
            f"the unit-image arrays for fibers {dims} hold {entries} "
            f"entries, which exceeds {MAX_ACTION_ENTRIES}"
        )
    given = (img for parts in fibers for *_, images in parts for img in images.values())
    dtype = _dtype(*(img for img in given if img is not None))
    action = []
    for d, parts in zip(dims, fibers):
        arrs = [np.zeros((n, n, d, d), dtype=dtype) for n in source.blocks]
        off = 0
        for e, mu, images in parts:
            if mu == 0:
                continue
            for i, img in images.items():
                if img is None:
                    img = np.eye(e * e).reshape(e, e, e, e)
                for o in range(off, off + mu * e, e):
                    arrs[i][:, :, o : o + e, o : o + e] = img
            off += mu * e
        for arr in arrs:
            arr.setflags(write=False)
        action.append(tuple(arrs))
    return ConcreteCorr._trusted(source, ConcreteModule(target, dims), tuple(action))


def realize(kind: CorrClass) -> ConcreteCorr:
    """Canonical numeric model of a finite-multiplicity class.

    Fiber j stacks k_{ij} copies of each source block i in block order, so
    its dimension is sum_i k_{ij} n_i and the left action is the matching
    block-diagonal sum of identity representations.  classify inverts this.
    """
    if not kind.all_finite:
        raise ValidationError("cannot realize a class with infinite multiplicities")
    a, b = kind.source, kind.target
    fibers = [
        [(n, kind.matrix[i][j], {i: None}) for i, n in enumerate(a.blocks)]
        for j in range(b.block_count)
    ]
    return _assemble(a, b, fibers)


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

    def to_json(self) -> dict:
        return {
            "tol": self.tol,
            "ok": self.ok,
            "checks": [{"name": c.name, "violation": c.violation} for c in self.checks],
        }


def _mult_relations(per, units) -> float:
    # e_{pq} = e_{p1} e_{1q}, e_{1p} e_{q1} = delta_{pq} e_{11} in each block and
    # P_i P_k = 0 across blocks imply every product relation of the units on
    # this fiber (see DECISIONS.md).  Residuals are formed in place.
    worst = 0.0
    for arr in per:
        prod = arr[:, :1] @ arr[:1]
        prod -= arr
        worst = max(worst, _max_abs(prod))
        prod = arr[0][:, None] @ arr[:, 0][None]
        prod[np.diag_indices(len(arr))] -= arr[0, 0]
        worst = max(worst, _max_abs(prod))
    for i, unit in enumerate(units):
        prod = unit @ units
        prod[i] = 0
        worst = max(worst, _max_abs(prod))
    return worst


@functools.lru_cache(maxsize=128)
def _mult_generic(blocks: tuple[int, ...]):
    # classify's per-fiber measure: two deterministic generic real pairs,
    # drawn once per block tuple.  The cache holds all 84 tuples of at most 3
    # blocks of size at most 4; an entry is 6 * sum(n * n) floats.  The
    # defect phi(ab) - phi(a)phi(b) is complex-bilinear and real matrices span
    # M_n(C), so a failure of multiplicativity shows up against a real
    # Gaussian pair with probability one (see DECISIONS.md), and a real action
    # stays real.
    # The rows of coef[i] are the block-i parts of a, a', b, b', ab and a'b', so
    # row t of sum_i coef[i] @ per[i] is phi of the t-th element on the fiber:
    # both rounds in one product per block.
    rng = np.random.default_rng(0x5EED)
    a, b = [], []
    for _ in range(2):
        a.append([rng.standard_normal((n, n)) for n in blocks])
        b.append([rng.standard_normal((n, n)) for n in blocks])
    coef = [
        np.stack(
            [a[0][i], a[1][i], b[0][i], b[1][i], a[0][i] @ b[0][i], a[1][i] @ b[1][i]]
        ).reshape(6, n * n)
        for i, n in enumerate(blocks)
    ]

    def measure(per, units) -> float:
        d = units.shape[1]
        m = np.zeros((6, d * d), dtype=_dtype(*per))
        for c, arr in zip(coef, per):
            m += c @ arr.reshape(len(arr) ** 2, d * d)
        m = m.reshape(6, d, d)
        prod = m[0:2] @ m[2:4]
        prod -= m[4:6]
        return _max_abs(prod)

    return measure


def _report(x: ConcreteCorr, measure) -> ValidationReport:
    # One pass over the nonzero fibers.  The block-unit images P_i (traces over
    # the unit indices) are formed once: their sum gives nondegeneracy and
    # measure(per, units) the multiplicativity.  Adjoints: e_{1p}^* = e_{p1},
    # which with multiplicativity gives e_{pq}^* = e_{qp} (see DECISIONS.md).
    mult = adjoint = nondegeneracy = 0.0
    for per, d in zip(x.action, x.module.fiber_dims):
        if d == 0:
            continue
        units = np.array([arr.trace() for arr in per]).reshape(len(per), d, d)
        nondegeneracy = max(nondegeneracy, _max_abs(units.sum(axis=0) - np.eye(d)))
        for arr in per:
            # np.conjugate allocates; a real array's .conj() is the read-only
            # array itself, which the in-place subtraction would write into.
            diff = np.conjugate(arr[0]).swapaxes(1, 2)
            diff -= arr[:, 0]
            adjoint = max(adjoint, _max_abs(diff))
        mult = max(mult, measure(per, units))
    checks = (
        AxiomCheck("star-multiplicativity", mult),
        AxiomCheck("star-adjoint", adjoint),
        AxiomCheck("nondegeneracy", nondegeneracy),
    )
    return ValidationReport(checks, VALIDATE_TOL)


def validate(x: ConcreteCorr) -> ValidationReport:
    """Measure every action axiom through relations that imply it.

    Multiplicativity: e_{pq} = e_{p1} e_{1q} and e_{1p} e_{q1} = delta_{pq} e_{11}
    in each block, and P_i P_k = 0 for the images of distinct block units, in
    2 sum_i n_i^2 + r^2 products per fiber.  Adjoints: e_{1p}^* = e_{p1}.
    Nondegeneracy: unit images summing to the identity on each nonzero fiber.
    An action passes when no violation exceeds VALIDATE_TOL; a zero module
    passes vacuously.
    """
    return _report(x, _mult_relations)


def classify(x: ConcreteCorr) -> CorrClass:
    """Extract the multiplicity matrix of a validated concrete correspondence.

    The action is validated as in `validate`, except that multiplicativity is
    measured on two fixed generic pairs, which is faster on large fibers.
    k_{ij} is the rank of the image on fiber j of a minimal projection of
    source block i; since that image is a projection, the rank is its trace,
    which must lie within CLASSIFY_TOL of an integer.
    """
    report = _report(x, _mult_generic(x.source.blocks))
    if not report.ok:
        raise ValidationError(
            f"action fails validation: {report.failures()} "
            f"(max violation {report.max_violation:.3e})"
        )
    rows = []
    for i in range(x.source.block_count):
        row = []
        for j in range(x.target.block_count):
            t = complex(np.trace(x.action[j][i][0, 0]))
            k = round(t.real)
            if abs(t.imag) > CLASSIFY_TOL or abs(t.real - k) > CLASSIFY_TOL or k < 0:
                raise ValidationError(
                    f"projection trace {t} on fiber {j} is not a multiplicity"
                )
            row.append(int(k))
        rows.append(tuple(row))
    return CorrClass._trusted(x.source, x.target, tuple(rows))


def _gram_spectra(
    x: ConcreteCorr, y: ConcreteCorr, null_tol: float
) -> tuple[dict[tuple[int, int], tuple[np.ndarray, np.ndarray]], float, float]:
    """The Gram blocks of x (x) y with their spectra, the norm and the cutoff.

    Maps each (right fiber l, middle block j) with both fibers nonzero to R
    and its ascending eigenvalues; R is the symmetrized action of the units
    of middle block j on fiber l of y, float64 for a real action.  Returns
    the largest eigenvalue (0.0 for no block) and the null cutoff
    null_tol * max(1, norm), after checking positivity against that cutoff.
    """
    if x.target != y.source:
        raise ValidationError(
            f"cannot tensor: first ends at {x.target!r}, second starts at {y.source!r}"
        )
    dx, ey = x.module.fiber_dims, y.module.fiber_dims
    spectra = {}
    gram_norm = 0.0
    for l, e in enumerate(ey):
        for j, m in enumerate(x.target.blocks):
            if e == 0 or dx[j] == 0:
                continue
            r = np.transpose(y.action[l][j], (0, 2, 1, 3)).reshape(m * e, m * e)
            r = (r + r.conj().T) / 2.0
            lam = np.linalg.eigvalsh(r)
            spectra[(l, j)] = (r, lam)
            if lam.size:
                gram_norm = max(gram_norm, float(lam[-1]))
    cut = null_tol * max(1.0, gram_norm)
    for _r, lam in spectra.values():
        if lam.size and float(lam[0]) < -cut:
            raise ValidationError("tensor Gram form is not positive semidefinite")
    return spectra, gram_norm, cut


class InteriorTensor:
    """Balanced tensor product of composable concrete correspondences.

    The algebraic tensor product of the two matrix-unit bases carries the
    C-valued form <x (x) y, u (x) v> = <y, <x, u> v>.  Composing with the
    canonical trace on the target algebra gives a scalar Gram matrix which,
    because the left factor's inner product is canonical, splits exactly as

        identity (x) R (x) identity

    per (left fiber j, right fiber l) pair, where R collects the action of
    the matrix units of middle block j on fiber l of the right factor.  The
    number mu of eigenvalues of R above the null cutoff is the multiplicity
    of fiber j in fiber l of the quotient, so the tensor's action needs only
    the spectra.  `embed` takes the top mu eigenvectors of each R, scaled by
    the square roots of their eigenvalues, as representatives of the
    Hausdorff quotient that are orthonormal for the block-valued form, i.e.
    the quotient lands directly in canonical fiber form; it computes them on
    first use.  The left action passes through on the surviving coordinates.
    """

    def __init__(self, x: ConcreteCorr, y: ConcreteCorr, null_tol: float = GRAM_NULL_TOL):
        spectra, self.gram_norm, cut = _gram_spectra(x, y, null_tol)
        self._x, self._y = x, y
        self.gram_blocks = tuple((key, lam) for key, (_r, lam) in spectra.items())
        # spectra is in (l, j) order, so each fiber's parts come in block order.
        self._layout = tuple([] for _ in range(y.target.block_count))
        self._weights = None
        fibers = tuple([] for _ in self._layout)
        for (l, j), (r, lam) in spectra.items():
            mu = int(np.count_nonzero(lam > cut))
            if mu:
                self._layout[l].append((j, mu, r))
                fibers[l].append((x.module.fiber_dims[j], mu, dict(enumerate(x.action[j]))))
        self.corr = _assemble(x.source, y.target, fibers)

    def _weight_layout(self):
        # Per kept (l, j): the top mu eigenvectors of R, ascending as eigh
        # returns them, times the square roots of their eigenvalues.  Taking
        # them by index keeps each shape equal to the fiber layout of corr.
        if self._weights is None:
            weights = []
            for parts in self._layout:
                kept = []
                for j, mu, r in parts:
                    lam, vec = np.linalg.eigh(r)
                    kept.append((j, mu, vec[:, -mu:] * np.sqrt(lam[-mu:])))
                weights.append(tuple(kept))
            self._weights = tuple(weights)
        return self._weights

    def embed(self, x_elt, y_elt) -> Element:
        """Image of the elementary tensor x (x) y in the quotient module.

        The balancing relation holds here: embed(x b, y) and embed(x, b y)
        agree up to the Gram cutoff.
        """
        x_elt = self._x.module.as_element(x_elt)
        y_elt = self._y.module.as_element(y_elt)
        b, c = self._x.target, self._y.target
        out = []
        for l, parts in enumerate(self._weight_layout()):
            cl = c.blocks[l]
            rows = [np.zeros((0, cl), dtype=complex)]
            for j, mu, w in parts:
                d = self._x.module.fiber_dims[j]
                m = b.blocks[j]
                e = self._y.module.fiber_dims[l]
                t = np.einsum("up,vq->upvq", x_elt[j], y_elt[l]).reshape(d, m * e, cl)
                rows.append(np.einsum("ka,ukq->auq", w.conj(), t).reshape(d * mu, cl))
            out.append(np.vstack(rows))
        return tuple(out)


def interior_tensor(
    x: ConcreteCorr, y: ConcreteCorr, null_tol: float = GRAM_NULL_TOL
) -> ConcreteCorr:
    """The balanced tensor product as a concrete correspondence."""
    return InteriorTensor(x, y, null_tol).corr


def interior_tensor_norm(x: ConcreteCorr, y: ConcreteCorr) -> float:
    """Largest eigenvalue of the scalarized Gram form of the tensor product.

    Lies below VANISH_TOL exactly when the tensor product is the zero module.
    Reads the Gram spectra only; the tensor's action is not built.
    """
    return _gram_spectra(x, y, GRAM_NULL_TOL)[1]


def is_isomorphic(x: ConcreteCorr, y: ConcreteCorr) -> bool:
    """Isomorphism of concrete correspondences: equal multiplicity matrices."""
    if x.source != y.source or x.target != y.target:
        raise ValidationError("isomorphism comparison requires equal endpoints")
    return classify(x) == classify(y)


def dual_concrete(x: ConcreteCorr) -> ConcreteCorr:
    """The dual of a concrete Hilbert bimodule.

    The dual swaps the module structures (b x~ a = (a* x b*)~), which on
    multiplicity matrices is transposition; this returns the canonical model
    of the transposed class, the dual up to isomorphism.  Tensoring with x
    on either side recovers the support ideals as diagonal classes.
    """
    kind = classify(x)
    if not is_hilbert_bimodule(kind):
        raise ValidationError("dual requires a Hilbert bimodule (partial permutation class)")
    return realize(dual_class(kind))


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
    solved coefficients then define the left inner product via
    <x, y>_left = phi^{-1}(theta_{x,y}).
    """
    dims = x.module.fiber_dims
    eye = np.eye(sum(d * d for d in dims))
    if not x.source.blocks:
        return _max_abs(eye)
    phi = np.concatenate(
        [
            np.concatenate([per[i].reshape(n * n, d * d) for per, d in zip(x.action, dims)], axis=1)
            for i, n in enumerate(x.source.blocks)
        ]
    ).T
    sol, *_ = np.linalg.lstsq(phi, eye, rcond=None)
    return _max_abs(phi @ sol - eye)
