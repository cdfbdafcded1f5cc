"""Exception types shared across the kit."""

from __future__ import annotations


class CnpkitError(Exception):
    """Base class for all kit errors."""


class DomainError(CnpkitError):
    """Invalid input: point outside a kernel's domain, malformed data, bad shape."""


class ReducibleKernelError(CnpkitError):
    """A Gram entry required to be nonzero is (numerically) zero.

    Carries the offending 0-based ``index`` pair. Zero entries mean the
    sample splits into independent blocks; route it through
    ``irreducible_partition`` and work per block.
    """

    def __init__(self, message: str, index: tuple[int, int] | None = None):
        super().__init__(message)
        self.index = index


class NotPsdError(CnpkitError):
    """A matrix required to be positive semidefinite is not, beyond tolerance.

    ``min_eigenvalue`` holds the violating eigenvalue.
    """

    def __init__(self, message: str, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.min_eigenvalue = min_eigenvalue


class InfeasibleExtensionError(CnpkitError):
    """The one-point extension set is empty beyond tolerance.

    For a kernel certified complete Nevanlinna-Pick this cannot happen, so an
    instance of this error is itself a refutation witness; ``witness`` holds
    the diagnostic payload.
    """

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__(message)
        self.witness = witness or {}
