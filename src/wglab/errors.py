"""Exception hierarchy shared across the package.

Every error carries a stable machine-readable ``code`` so the CLI can map
failures to exit status and a one-line diagnostic without string matching.
"""

from __future__ import annotations


class WglabError(Exception):
    """Base class for all package errors."""

    code = "error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class RangeTooLarge(WglabError):
    code = "range-too-large"


class EmptyRange(WglabError):
    code = "empty-range"


class EmptyWindow(WglabError):
    code = "empty-window"


class ParameterDomain(WglabError):
    code = "parameter-domain"


class PrecisionOverflow(WglabError):
    code = "precision-overflow"


class NotCoprime(WglabError):
    code = "not-coprime"


class ImaginaryResidue(WglabError):
    code = "imaginary-residue"


class ConvolutionTooLarge(WglabError):
    code = "convolution-too-large"


class NoConvergence(WglabError):
    code = "no-convergence"


class EnumerationTooLarge(WglabError):
    code = "too-large"


class MemoryBudgetExceeded(WglabError):
    code = "memory-budget"


class EmptyRegion(WglabError):
    code = "empty-region"


class OverlapDetected(WglabError):
    code = "overlap"


class CacheMiss(WglabError):
    code = "cache-miss"


class CacheVersionMismatch(WglabError):
    code = "cache-version"


def require_bytes(need: float, budget: int, name: str, what: str, error=MemoryBudgetExceeded):
    """Raise `error` before allocating when a charge of `need` bytes is over
    `budget`: "<what> X GiB, over the Y GiB <name> budget"."""
    if need > budget:
        raise error(f"{what} {need / 2 ** 30:.1f} GiB, "
                    f"over the {budget / 2 ** 30:.0f} GiB {name} budget")
