"""Algebras with real block sizes, for the tests whose results read them.

`enumerate_algebras()` holds unit blocks only, since no symbolic verdict
reads a block size.  The numeric tests, the block-map builders (whose
references read quotient and ideal sizes) and the test of that resize
invariance draw their algebras from here instead: the zero algebra, then
every algebra of one or two blocks of size at most two, shortest first.
"""

from enchilada import FdCStarAlgebra

SIZED_ALGEBRAS = tuple(
    FdCStarAlgebra(blocks) for blocks in ((), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2))
)
