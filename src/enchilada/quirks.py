"""A gallery of the category's odd behavior, scripted as checked transcripts.

Each entry builds a small construction (a full morphism that is not an
epimorphism, a vanishing tensor product, a non-cancellative direct sum, ...)
and records every claim about it as a passed or failed step; several steps
confirm the claim on an exhaustive enumeration of small classes or against
the numeric oracle.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .algebras import FdCStarAlgebra
from .cardinal import INF
from .checks import (
    enumerate_algebras,
    enumerate_chains,
    enumerate_corrs,
    random_algebra,
    random_corr,
)
from .concrete import VANISH_TOL, interior_tensor, interior_tensor_norm, is_isomorphic, realize
from .corr import (
    CorrClass,
    cokernel,
    compose,
    direct_sum,
    dual,
    epi_finite_rank_test,
    identity_corr,
    is_full,
    is_hilbert_bimodule,
    is_split_mono,
    kernel,
    restrict_right,
    right_support,
    schubert_image,
    tensor_is_zero,
)
from .errors import ValidationError

__all__ = [
    "GALLERY_NAMES",
    "GalleryStep",
    "GalleryTranscript",
    "gallery",
]


@dataclass(frozen=True)
class GalleryStep:
    label: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        out = {"label": self.label, "passed": self.passed}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(frozen=True)
class GalleryTranscript:
    name: str
    title: str
    steps: tuple[GalleryStep, ...] = field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return all(s.passed for s in self.steps)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "title": self.title,
            "passed": self.passed,
            "steps": [s.to_json() for s in self.steps],
        }


def _gallery_sur_not_epi() -> Iterator[GalleryStep]:
    a = FdCStarAlgebra((1,))
    b = FdCStarAlgebra((1, 1))
    c = FdCStarAlgebra((1,))
    x = CorrClass(a, b, ((1, 1),))          # scalars embedded diagonally
    y = CorrClass(b, c, ((1,), (0,)))       # first coordinate
    z = CorrClass(b, c, ((0,), (1,)))       # second coordinate
    composite = compose(x, y)
    yield GalleryStep(
        "X*Y and X*Z are the same class",
        composite == compose(x, z) and composite == CorrClass(a, c, ((1,),)),
    )
    yield GalleryStep("Y and Z are not isomorphic", y != z)
    yield GalleryStep("image of X is the identity subobject", schubert_image(x) == identity_corr(b))
    yield GalleryStep(
        "numeric model: the two tensor products are isomorphic",
        is_isomorphic(
            interior_tensor(realize(x), realize(y)),
            interior_tensor(realize(x), realize(z)),
        ),
    )
    yield GalleryStep(
        "numeric model: Y and Z realizations are not isomorphic",
        not is_isomorphic(realize(y), realize(z)),
    )
    yield GalleryStep(
        "X fails the finite-entry right-cancellation probe",
        not epi_finite_rank_test(x),
        "probe only quantifies over finite-entry tests",
    )


def _gallery_zero_tensor() -> Iterator[GalleryStep]:
    a = FdCStarAlgebra((1,))
    b = FdCStarAlgebra((1, 1))
    c = FdCStarAlgebra((1,))
    x = CorrClass(a, b, ((1, 0),))
    y = CorrClass(b, c, ((0,), (1,)))
    yield GalleryStep("support of X sits inside ker phi_Y", tensor_is_zero(x, y))
    yield GalleryStep("composite matrix is zero", compose(x, y).is_zero)
    yield GalleryStep(
        "numeric tensor product vanishes",
        interior_tensor_norm(realize(x), realize(y)) < VANISH_TOL,
    )
    nz = CorrClass(a, b, ((1, 1),))
    yield GalleryStep(
        "a supported pair does not vanish",
        not tensor_is_zero(nz, y) and interior_tensor_norm(realize(nz), realize(y)) >= VANISH_TOL,
    )
    agree = all(
        tensor_is_zero(xx, yy) == compose(xx, yy).is_zero for xx, yy in enumerate_chains(2)
    )
    yield GalleryStep("support criterion matches vanishing composite on enumeration", agree)


def _gallery_noncancellative_sum() -> Iterator[GalleryStep]:
    a = FdCStarAlgebra((1,))
    inf = CorrClass(a, a, ((INF,),))
    one = CorrClass(a, a, ((1,),))
    two = CorrClass(a, a, ((2,),))
    yield GalleryStep(
        "INF + 1 and INF + 2 give the same class",
        direct_sum(inf, one) == direct_sum(inf, two),
    )
    yield GalleryStep("yet the summands differ", one != two)


def _gallery_mono_necessity() -> Iterator[GalleryStep]:
    checked = 0
    ok = True
    for (x,) in enumerate_chains(1):
        w = kernel(x)
        if w.is_zero:  # the left kernel is zero
            continue
        checked += 1
        if not compose(w, x).is_zero:
            ok = False
    yield GalleryStep(
        "every class with a nonzero left kernel is killed by a nonzero W",
        ok and checked > 0,
        f"{checked} classes checked; W is the kernel inclusion, so (W, 0) "
        "is a distinguishing pair and the class is not a monomorphism",
    )


def _gallery_kernel_is_split_mono() -> Iterator[GalleryStep]:
    rng = np.random.default_rng(1105)
    count = 60
    ok_split = ok_inverse = ok_zero = True
    for _ in range(count):
        a = random_algebra(rng)
        b = random_algebra(rng)
        x = random_corr(rng, a, b, inf_prob=0.15)
        k = kernel(x)
        if not is_split_mono(k):
            ok_split = False
            continue
        if not compose(k, x).is_zero:
            ok_zero = False
        if compose(k, dual(k)) != identity_corr(k.source):
            ok_inverse = False
    yield GalleryStep(f"kernel inclusion is a split mono ({count} random classes)", ok_split)
    yield GalleryStep("the dual class is a left inverse of the kernel", ok_inverse)
    yield GalleryStep("kernel composed with the class vanishes", ok_zero)


def _gallery_quotient_is_epi_probe() -> Iterator[GalleryStep]:
    # Every ideal of an enumerated algebra is the right support of some class.
    quotients = {cokernel(x) for (x,) in enumerate_chains(1)}
    ok = all(epi_finite_rank_test(q) for q in quotients)
    full_not_epi = CorrClass(FdCStarAlgebra((1,)), FdCStarAlgebra((1, 1)), ((1, 1),))
    yield GalleryStep(
        f"all {len(quotients)} quotient maps pass the right-cancellation probe",
        ok,
        "probe quantifies over finite-entry tests only",
    )
    yield GalleryStep(
        "fullness alone does not imply passing: [[1, 1]] is full yet fails",
        is_full(full_not_epi) and not epi_finite_rank_test(full_not_epi),
    )


def _gallery_hb_image() -> Iterator[GalleryStep]:
    factorizations = 0
    ok_factor = ok_unique = True
    for (x,) in enumerate_chains(1):
        if not is_hilbert_bimodule(x):
            continue
        img = schubert_image(x)
        through = restrict_right(x, right_support(x))
        if compose(through, img) != x:
            ok_factor = False
        for c in enumerate_algebras():
            for z in enumerate_corrs(c, x.target, 1):
                if not is_split_mono(z):
                    continue
                for y in enumerate_corrs(x.source, c, 2):
                    if compose(y, z) != x:
                        continue
                    factorizations += 1
                    mediators = [
                        m for m in enumerate_corrs(img.source, c, 2) if compose(m, z) == img
                    ]
                    if len(mediators) != 1:
                        ok_unique = False
    yield GalleryStep("every Hilbert bimodule factors through its Schubert image", ok_factor)
    yield GalleryStep(
        "each factorization through a split mono admits a unique mediator",
        ok_unique and factorizations > 0,
        f"{factorizations} factorizations mediated (entry bound 2)",
    )


# name -> (title, generator of the entry's steps)
_GALLERY = {
    "sur_not_epi": (
        "a full morphism whose image is the identity, yet not an epimorphism",
        _gallery_sur_not_epi,
    ),
    "zero_tensor": ("vanishing tensor products detected by supports", _gallery_zero_tensor),
    "noncancellative_sum": (
        "direct sum of classes is not cancellative",
        _gallery_noncancellative_sum,
    ),
    "mono_necessity": (
        "an unfaithful left action rules out being a monomorphism",
        _gallery_mono_necessity,
    ),
    "kernel_is_split_mono": (
        "kernels are left-full Hilbert bimodules, hence split monomorphisms",
        _gallery_kernel_is_split_mono,
    ),
    "quotient_is_epi_probe": (
        "quotient maps are epimorphisms; fullness alone is not enough",
        _gallery_quotient_is_epi_probe,
    ),
    "hb_image": (
        "Hilbert bimodules have an image, and it is the Schubert image",
        _gallery_hb_image,
    ),
}

GALLERY_NAMES = tuple(_GALLERY)


def gallery(name: str) -> GalleryTranscript:
    """Build one scripted example, run its assertions, return the transcript."""
    if not isinstance(name, str) or name not in _GALLERY:
        raise ValidationError(f"unknown gallery entry {name!r}; known: {GALLERY_NAMES}")
    title, build = _GALLERY[name]
    return GalleryTranscript(name, title, tuple(build()))
