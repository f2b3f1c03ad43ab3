"""Reference multiplicities: a Cardinal object per entry and tuple loops.

The package stores entries as plain ints and the float INF.  This module
keeps the object model they replaced, with the semiring rules spelled out
case by case, so the arithmetic laws and the package's compose and
direct_sum can be checked against an independent implementation.
"""

from __future__ import annotations

import math
from functools import total_ordering

from enchilada import ValidationError


def _coerce(value):
    """Cardinal for ints and Cardinals, None for anything else."""
    if isinstance(value, Cardinal):
        return value
    if isinstance(value, bool) or not isinstance(value, int):
        return None
    if value < 0:
        return None
    return Cardinal(value)


@total_ordering
class Cardinal:
    """A multiplicity: a non-negative integer or the infinite value INF."""

    __slots__ = ("_value",)

    def __init__(self, value: int | None = None):
        if value is not None:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValidationError(
                    f"multiplicity must be an integer or None, got {value!r}"
                )
            if value < 0:
                raise ValidationError(f"multiplicity must be non-negative, got {value}")
        self._value = value

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    def __int__(self) -> int:
        if self._value is None:
            raise ValidationError("INF has no integer value")
        return self._value

    def __add__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self._value is None or o._value is None:
            return INF
        return Cardinal(self._value + o._value)

    __radd__ = __add__

    def __mul__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        a, b = self._value, o._value
        if a == 0 or b == 0:
            return Cardinal(0)
        if a is None or b is None:
            return INF
        return Cardinal(a * b)

    __rmul__ = __mul__

    def __eq__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self._value == o._value

    def __hash__(self):
        return hash(self._value)

    def __lt__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        if self._value is None:
            return False
        if o._value is None:
            return True
        return self._value < o._value

    def __bool__(self) -> bool:
        return self._value != 0

    def __repr__(self) -> str:
        return "INF" if self._value is None else str(self._value)


INF = Cardinal(None)


def from_entries(rows) -> tuple[tuple[Cardinal, ...], ...]:
    """A matrix of package entries (ints and math.inf) as Cardinals."""
    return tuple(tuple(INF if v == math.inf else Cardinal(v) for v in row) for row in rows)


def to_entries(rows) -> tuple[tuple[int | float, ...], ...]:
    """A matrix of Cardinals as package entries."""
    return tuple(tuple(int(v) if v.is_finite else math.inf for v in row) for row in rows)


def compose(x, y, cols: int) -> tuple[tuple[Cardinal, ...], ...]:
    """The product of an r x s and an s x cols matrix of Cardinals."""
    mid = len(y)
    return tuple(
        tuple(
            sum((x[i][t] * y[t][j] for t in range(mid)), Cardinal(0))
            for j in range(cols)
        )
        for i in range(len(x))
    )


def direct_sum(x, y) -> tuple[tuple[Cardinal, ...], ...]:
    """The entrywise sum of two matrices of Cardinals."""
    return tuple(tuple(a + b for a, b in zip(xr, yr)) for xr, yr in zip(x, y))
