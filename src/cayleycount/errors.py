"""Exception types shared across the package."""


class CayleyCountError(Exception):
    """Base class for all package errors."""


class InvariantViolation(CayleyCountError):
    """A guaranteed fact failed at run time: a bug, not a bad input."""


class InvalidGroupError(CayleyCountError):
    """Malformed group description (e.g. a cyclic factor below 2)."""


class InvalidGeneratorsError(CayleyCountError):
    """Generator set violates symmetry or contains the identity."""


class InvalidInputError(CayleyCountError):
    """Operation preconditions violated (wrong side, empty input, ...)."""


class InstanceTooLargeError(CayleyCountError):
    """Instance exceeds the configured size budget for an exact computation."""


class SearchSpaceTooLargeError(CayleyCountError):
    """Exhaustive witness search would exceed the configured subset cap."""


class UncoverableError(CayleyCountError):
    """A cover instance contains an element that no candidate set covers."""


class RetriesExhaustedError(CayleyCountError):
    """Randomized sampler failed to satisfy its properties within the retry cap."""


class GadgetSearchError(CayleyCountError):
    """Randomized gadget search exhausted its attempt budget."""


class MalformedIntervalsError(CayleyCountError):
    """Interval family violates the parity/distinctness rules."""
