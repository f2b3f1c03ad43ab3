"""Shared exception types."""

__all__ = ["ValidationError"]


class ValidationError(ValueError):
    """An input failed a structural or numeric precondition."""
