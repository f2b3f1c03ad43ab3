"""Reference compacts defect: one rank-one operator per pair of basis vectors.

`compacts_span_defect` solves against the identity of the sum of the fiber
algebras, because over the matrix-unit basis every theta_{u,v} is one of
their matrix units or zero.  This module keeps the construction it replaced,
`rank_one` on all N^2 pairs of basis vectors as the least-squares targets,
so the two can be checked against each other.
"""

from __future__ import annotations

import numpy as np

from enchilada.concrete import ConcreteCorr, _max_abs, rank_one


def compacts_span_defect(x: ConcreteCorr) -> float:
    dims = x.module.fiber_dims
    width = sum(d * d for d in dims)
    if width == 0:
        return 0.0
    cols = []
    for i, n in enumerate(x.source.blocks):
        for p in range(n):
            for q in range(n):
                cols.append(
                    np.concatenate([x.action[j][i][p, q].ravel() for j in range(len(dims))])
                )
    phi = np.stack(cols, axis=1) if cols else np.zeros((width, 0), dtype=complex)
    basis = x.module.basis()
    targets = np.stack(
        [
            np.concatenate([t.ravel() for t in rank_one(u, v)])
            for u in basis
            for v in basis
        ],
        axis=1,
    )
    if phi.shape[1] == 0:
        return _max_abs(targets)
    sol, *_ = np.linalg.lstsq(phi, targets, rcond=None)
    return _max_abs(phi @ sol - targets)
