"""Exception types shared across the package."""


class PseudoweightError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(PseudoweightError):
    """Paired samples failed validation.

    Carries the individual violation messages in ``violations``.
    """

    def __init__(self, violations):
        self.violations = tuple(violations)
        super().__init__("; ".join(self.violations))

    def __reduce__(self):
        # pickle rebuilds from the violations, not from the joined message
        return type(self), (self.violations,)


class NonConvergenceError(PseudoweightError):
    """A solver failed to drive the estimating equation below tolerance.

    Usually signals separation in the membership response or a score that
    step-halving cannot improve further.  ``coefficients`` holds the last
    accepted iterate when the failure came from the Newton loop.
    """

    def __init__(self, message, score_norm=None, iterations=None, coefficients=None):
        super().__init__(message)
        self.score_norm = score_norm
        self.iterations = iterations
        self.coefficients = coefficients


class SingularSystemError(PseudoweightError):
    """A linear system arising in a solver or variance formula is rank
    deficient; refusing to fall back to a pseudo-inverse."""


class InfeasibleTotalsError(PseudoweightError):
    """The cohort covariate totals cannot be matched by any probability
    vector on the weighted survey sample (coefficients diverge)."""


class RescaleError(PseudoweightError):
    """The survey-weight rescale factor would be nonpositive
    (cohort larger than the estimated population)."""


class DomainError(PseudoweightError):
    """An input value lies outside the mathematically valid domain."""


class DesignError(PseudoweightError):
    """Survey design metadata is inconsistent with the requested variance
    computation (single-PSU stratum, weight below one, missing labels)."""


class EmptyInputError(PseudoweightError):
    """An operation received an empty vector where data is required."""


class InfeasibleTargetError(PseudoweightError):
    """A calibration target cannot be met by any parameter value."""


class CellInfeasibleError(PseudoweightError):
    """A simulation cell's calibration failed; the cell cannot run."""


class InsufficientReplicatesError(PseudoweightError):
    """Too few Monte Carlo replicates to compute the requested metric."""


class ParseError(PseudoweightError):
    """A delimited file cannot be parsed: a non-numeric value in a declared
    column, a byte that is not UTF-8, or a record the ``csv`` reader
    rejects."""


class MissingColumnError(PseudoweightError):
    """A declared column is absent from the file header."""


class EmptyFileError(PseudoweightError):
    """The input file has no data rows (or no header)."""


class IoError(PseudoweightError):
    """An input file could not be opened or read, report emission failed,
    or an empty report was to be written."""
