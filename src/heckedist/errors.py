"""Exception hierarchy shared by all heckedist modules.

Every domain error derives from HeckedistError so the CLI can map it to a
stable machine-readable code (exit status 1).  Usage errors are left to
argparse (exit status 2).
"""


class HeckedistError(Exception):
    """Base class for all domain errors raised by this package."""

    @property
    def code(self) -> str:
        """Stable machine-readable error code (the class name)."""
        return type(self).__name__


class InvalidParameter(HeckedistError, ValueError):
    """A parameter lies outside its documented domain.

    Also a ValueError, so callers that catch ValueError keep working.
    """


# --- number field ---------------------------------------------------------

class NotSquarefree(HeckedistError):
    pass


class DegreeUnsupported(HeckedistError):
    pass


class ZeroIdeal(HeckedistError):
    pass


class NotPrime(HeckedistError):
    pass


class ZeroArgument(HeckedistError):
    pass


class InvariantViolation(HeckedistError):
    """An identity the computation relies on failed, so its result cannot be trusted.

    Raised instead of `assert`, so the checks also run under `python -O`.
    """


# --- kloosterman ----------------------------------------------------------

class ModulusZero(HeckedistError):
    pass


class EnumerationTooLarge(HeckedistError):
    pass


class PreconditionViolation(HeckedistError):
    pass


# --- measures -------------------------------------------------------------

class NoDensity(HeckedistError):
    pass


class UnboundedRegion(HeckedistError):
    pass


class ParityMismatch(HeckedistError):
    pass


# --- hecke algebra --------------------------------------------------------

class RamanujanViolation(HeckedistError):
    pass


class DivisibilityViolation(HeckedistError):
    pass


class NotNarrowSquare(HeckedistError):
    pass


# --- equidistribution -----------------------------------------------------

class EmptyDataset(HeckedistError):
    pass


class ZeroMassRegion(HeckedistError):
    pass


class TotalWeightZero(HeckedistError):
    pass


# --- bounds ---------------------------------------------------------------

class DivergentExponent(HeckedistError):
    pass


# --- datasource -----------------------------------------------------------

class NetworkError(HeckedistError):
    pass


class SchemaError(HeckedistError):
    pass


class CacheMiss(HeckedistError):
    pass


class MissingEigenvalue(HeckedistError):
    pass


# --- cli ------------------------------------------------------------------

class UnsupportedFormat(HeckedistError):
    pass
