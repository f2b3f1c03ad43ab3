"""Reference generic-pair multiplicativity probe: one action_matrix per element.

`classify` measures phi(ab) - phi(a) phi(b) on two fixed real Gaussian
pairs.  The package forms a, b and ab of both rounds on a fiber as one
stacked product; this module keeps the per-fiber form it replaced, six
`action_matrix` calls and two residuals per fiber, with the same draws, so
the stacked probe can be checked against it.
"""

from __future__ import annotations

import numpy as np

from enchilada.concrete import ConcreteCorr, _max_abs


def mult_violation_generic(x: ConcreteCorr) -> float:
    rng = np.random.default_rng(0x5EED)
    worst = 0.0
    for _ in range(2):
        a = tuple(rng.standard_normal((n, n)) for n in x.source.blocks)
        b = tuple(rng.standard_normal((n, n)) for n in x.source.blocks)
        ab = tuple(ai @ bi for ai, bi in zip(a, b))
        for j in range(x.target.block_count):
            lhs = x.action_matrix(j, a) @ x.action_matrix(j, b)
            worst = max(worst, _max_abs(lhs - x.action_matrix(j, ab)))
    return worst
