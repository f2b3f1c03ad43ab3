"""The numeric oracle: correspondences as block matrices with real arithmetic.

realize() builds a canonical model of a finite class: fibers of d_j x m_j
matrices with the inner product <x, y> = x* y and the left action stored as
matrix-unit images.  interior_tensor() recomputes composition through a Gram
quotient, and classify() extracts multiplicities as projection traces, so
the symbolic product has an independent check.
"""

import numpy as np

from enchilada import (
    CorrClass,
    InteriorTensor,
    classify,
    compose,
    dual,
    interior_tensor,
    interior_tensor_norm,
    make_algebra,
    rank_one,
    realize,
    validate,
)

A = make_algebra([1])
B = make_algebra([1, 1])

K = CorrClass(A, A, [[2]])
L = CorrClass(A, A, [[3]])

x, y = realize(K), realize(L)
print("module of realize([[2]]): fibers", x.module.fiber_dims)
report = validate(x)
print("validation:", report.ok, "max violation", report.max_violation)

t = InteriorTensor(x, y)
print("\ntensor fiber dims:", t.corr.module.fiber_dims)
print("classify(tensor) =", classify(t.corr), "== K*L =", compose(K, L))
print("largest Gram eigenvalue:", t.gram_norm)

# Balancing holds in the quotient: x.b (x) y and x (x) b.y agree.
rng = np.random.default_rng(0)
xe, ye = x.module.random_element(rng), y.module.random_element(rng)
b = (rng.standard_normal((1, 1)) + 1j * rng.standard_normal((1, 1)),)
lhs = t.embed(x.module.right_mul(xe, b), ye)
rhs = t.embed(xe, y.apply(b, ye))
print("balancing defect:", max(np.abs(l - r).max() for l, r in zip(lhs, rhs)))

# A vanishing tensor product is numerically dead, not just symbolically.
X0 = realize(CorrClass(A, B, [[1, 0]]))
Z = realize(CorrClass(B, A, [[0], [1]]))
print("\nnorm of the disjoint-support tensor:", interior_tensor_norm(X0, Z))

# Rank-one operators x <y, .> span the compacts of the module.
basis = x.module.basis()
theta = rank_one(basis[0], basis[1])
print("\na rank-one operator on the C^2 module:\n", theta[0])

# Duals of Hilbert bimodules: tensoring recovers the support ideals.
H = CorrClass(B, B, [[0, 1], [0, 0]])
h = realize(H)
hd = realize(dual(H))
print("\ndual of", H, "classifies to", classify(hd))
print("dual (x) H  ->", classify(interior_tensor(hd, h)))
print("H (x) dual  ->", classify(interior_tensor(h, hd)))
