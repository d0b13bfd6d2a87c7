"""Exception types shared across the package."""


class MonosplitError(Exception):
    """Base class for all package-specific errors."""


class SpecificationError(MonosplitError):
    """A problem description is internally inconsistent (dimension mismatch etc.)."""


class ConfigurationError(MonosplitError):
    """Bad user-supplied configuration (unknown builder, malformed params, ...)."""


class StepBoundError(ConfigurationError):
    """A step size or epsilon violates the admissible interval."""


class HypothesisError(MonosplitError):
    """A standing hypothesis of the convergence theory fails (e.g. beta = 0)."""


class NumericError(MonosplitError):
    """Non-finite values encountered during iteration.

    Attributes
    ----------
    iteration : int or None
        Index of the offending iteration, when known.
    state, trace
        Set by :func:`~monosplit.solver.solve`: the last state a step
        returned and the trace records kept so far; None elsewhere.
    """

    def __init__(self, message, iteration=None):
        super().__init__(message)
        self.iteration = iteration
        self.state = self.trace = None


class OracleError(MonosplitError):
    """A brute-force oracle could not produce a reference value."""


class InfeasibleError(OracleError):
    """Grid search found no finite objective value."""


class NotComputableError(MonosplitError):
    """A requested quantity is outside the supported catalog (e.g. a conjugate)."""
