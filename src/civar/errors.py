"""Exception hierarchy shared by every layer of the package.

Each class carries a short machine-readable ``reason`` code that the command
line surfaces in structured reports, plus an optional ``details`` dict with
whatever intermediates are useful for diagnosing the failure.
"""


class CivarError(Exception):
    """Base class; never raised directly."""

    reason = "error"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class InputError(CivarError):
    """Malformed or mathematically inadmissible input (bad file, inhomogeneous
    column, failed premise of a theorem-checking command, ...)."""

    reason = "input"


class PremiseError(InputError):
    """A hypothesis of the statement being checked does not hold, so the check
    never ran.  Distinct from VerificationError: a failed premise says nothing
    about the conclusion."""

    reason = "premise"


class ResourceBudgetError(CivarError):
    """A configured budget (S-pair count, degree bound, step count) ran out.
    Never a silent truncation: the computation stops here."""

    reason = "budget"


class StabilizationError(ResourceBudgetError):
    """No window annihilator was accepted up to the step budget.  Carries
    both candidate generator lists in ``details``, with the test that
    rejected the last pair (``rejected``: generators, dimension, radical or
    complexity), both dimensions, the complexity estimate and the top
    H-generator degree of E in both windows."""

    reason = "stabilization"


class VerificationError(CivarError):
    """A theorem-derived check failed on the computed output.  Either the
    implementation is wrong or the input falls outside the theorem's scope;
    the details say which objects disagreed."""

    reason = "verification"


class InternalError(CivarError):
    """An internal invariant broke (for example a lifted differential whose
    square is not in the defining ideal).  Always a bug, never user error."""

    reason = "internal"
