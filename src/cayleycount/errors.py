"""Exception types shared across the package: one per outcome.  `cli.main`
maps each to its exit code, and no other code does."""


class CayleyCountError(Exception):
    """Base class for all package errors; the CLI exits 3 on one it does not
    name."""


class InvariantViolation(CayleyCountError):
    """A guaranteed fact failed at run time: a bug, not a bad input (exit 1)."""


class InstanceTooLargeError(CayleyCountError):
    """An instance, or an exhaustive search's space, exceeds its size budget
    (exit 2)."""


class InvalidInputError(CayleyCountError):
    """A bad input: a malformed group, generator set, interval family or
    cover instance, a wrong side, an empty set, ... (exit 3)."""


class RetriesExhaustedError(CayleyCountError):
    """A randomized search (phi sampler, gadget search) gave up after its
    attempt cap (exit 3)."""
