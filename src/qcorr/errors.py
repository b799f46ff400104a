"""Exception types shared across the library; each carries its CLI exit code."""

import contextlib


class QcorrError(Exception):
    """Base class for all qcorr errors."""
    exit_code = 2


class ConfigError(QcorrError):
    """A command-line argument or input file is malformed or inconsistent."""


class NonPhysical(QcorrError):
    """State parameters do not describe a positive, unit-trace density matrix."""
    exit_code = 3


class OutOfRange(QcorrError):
    """A channel or grid parameter lies outside its allowed interval."""


class NotEntangled(QcorrError):
    """An entangled state is required (e.g. for sudden-death times)."""


class BranchUnknown(QcorrError):
    """The caller must supply the active branch or piece label."""


class WindowViolation(QcorrError):
    """The requested point lies outside the validity window of the active branch."""


class EmptyWindow(QcorrError):
    """The initial state is separable, so the discord-vs-entanglement window is empty."""
    exit_code = 4


class NumericalFailure(QcorrError):
    """An eigensolve or SVD did not converge."""


class VerifyFailure(QcorrError):
    """An oracle check of the verification report exceeded its tolerance."""
    exit_code = 5


@contextlib.contextmanager
def allocation_guard(what: str):
    """Turn numpy's refusal to build an array in the block, for more elements
    than an index can address (ValueError) or more memory than there is
    (MemoryError), into OutOfRange("<what> is too large")."""
    try:
        yield
    except (ValueError, MemoryError):
        raise OutOfRange("%s is too large" % what) from None
