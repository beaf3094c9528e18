"""The package's error classes share one base, so that a caller (the command
line first) can tell an error the package raises on purpose from a bug.

InputError is an input outside what the package handles: a malformed or
unsatisfiable argument.  It is also a ValueError.  The other classes are
defined next to the code that raises them and derive from CmtraceError.
"""


class CmtraceError(Exception):
    """Base of every error the package raises on purpose."""


class InputError(CmtraceError, ValueError):
    """An input outside what the package handles."""
