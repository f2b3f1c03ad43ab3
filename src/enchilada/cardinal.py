"""Extended-natural multiplicities, the entries of correspondence matrices.

An entry is a non-negative Python int or INF, the float infinity, which
stands for a countably infinite multiplicity.  Sums and nonzero products of
these follow the semiring rules as they stand (INF + x = INF, INF * x = INF
for x >= 1), but the scalar INF * 0 is NaN.  Only `corr.compose` applies
the pinned convention INF * 0 = 0, by skipping every term with a zero
factor; that rule keeps matrix composition compatible with the vanishing
criterion for balanced tensor products when an infinite multiplicity meets
a zero column.
"""

from __future__ import annotations

import math

from .errors import ValidationError

__all__ = ["INF", "card"]

INF = math.inf


def card(value) -> int | float:
    """Check one matrix entry: a non-negative int, or INF for "inf" or a
    float infinity."""
    if type(value) is int and value >= 0:
        return value
    if isinstance(value, str):
        if value == "inf":
            return INF
        raise ValidationError(
            f'the only non-integer multiplicity token is "inf", got {value!r}'
        )
    if isinstance(value, float) and value == INF:
        return INF
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f'multiplicity must be an integer or "inf", got {value!r}')
    if value < 0:
        raise ValidationError(f"multiplicity must be non-negative, got {value}")
    return int(value)
