"""The package's error classes share one base, so that a caller (the command
line first) can tell an error the package raises on purpose from a bug.

InputError is an input outside what the package handles: a malformed or
unsatisfiable argument.  It is also a ValueError.  The other classes are
defined next to the code that raises them and derive from CmtraceError,
except the two failed checks of the analytic layer below: they live here so
that the command line's exit codes need no import of that layer.
"""


class CmtraceError(Exception):
    """Base of every error the package raises on purpose."""


class InputError(CmtraceError, ValueError):
    """An input outside what the package handles."""


class AlConstantError(CmtraceError, ArithmeticError):
    """K_Q is no torsion point of the lattice that Mazur's theorem allows:
    the lattice is not that of phi (modparam.al_constant)."""


class FiberPairingError(CmtraceError, ArithmeticError):
    """A fiber of the finite shadow is no W_{p^2} pair of the orbit, or a
    fiber mate's value misses its LAMBDA_DIGITS evaluation by more than
    LAMBDA_BUDGET (experiments module docstring)."""
