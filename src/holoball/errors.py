"""Exception taxonomy shared across the package."""

from __future__ import annotations

import copyreg

__all__ = [
    "InputError",
    "SchemaError",
    "DomainError",
    "PreconditionError",
    "CertificationError",
]


class InputError(ValueError):
    """Invalid argument: dimension mismatch, out-of-range value, bad config.
    Only a map constructor sets ``field``, the faulty argument's document
    path relative to the map, such as ``b`` or ``terms/3/alpha``."""

    def __init__(self, *args, field: str | None = None):
        super().__init__(*args)
        self.field = field

    def __reduce__(self):
        # rebuilt from its message and attributes without __init__, whose
        # arguments differ by subclass, so that an error crosses a process pool
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class SchemaError(InputError):
    """Malformed map document. ``path`` locates the offending field."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path or '/'}: {message}")
        self.path = path or "/"


class DomainError(InputError):
    """Evaluation requested at a point outside a map's domain (e.g. at a pole)."""


class PreconditionError(InputError):
    """A mathematical hypothesis required by the operation does not hold."""


class CertificationError(ValueError):
    """A map that must send the ball into the ball demonstrably fails to."""
