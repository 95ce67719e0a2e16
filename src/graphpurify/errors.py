"""Exception types shared across the package."""

from __future__ import annotations


class ParameterError(ValueError):
    """A caller-supplied value is out of range, malformed, or inconsistent."""


class CapacityError(RuntimeError):
    """The request exceeds a hard size cap (dense simulation, vertex count)."""


class InvariantError(RuntimeError):
    """An internal invariant or cross-check failed: the program is wrong.

    Raised in place of ``assert`` so the check survives ``python -O``.
    """
