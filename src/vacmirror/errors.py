"""Exception hierarchy for the vacmirror package."""


class VacMirrorError(Exception):
    """Base class for all package errors."""


class FrequencyRangeError(VacMirrorError):
    """Frequency outside the range supported by a tabulated model."""


class ContinuationError(VacMirrorError):
    """Evaluation requested outside the causal continuation region."""


class BranchCutError(VacMirrorError):
    """Closed-form evaluation too close to a logarithmic branch cut."""


class AccuracyError(VacMirrorError):
    """Quadrature failed to reach the requested tolerance.

    Carries the best estimate and its error bound so callers can decide
    whether to accept a degraded result.
    """

    def __init__(self, message, estimate=None, error_bound=None):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class CutoffDivergenceError(VacMirrorError):
    """The reflection-cutoff integral does not converge (no transparency)."""


class RegularizationError(VacMirrorError):
    """Mass-subtracted susceptibility does not decay; no time kernel exists."""


class KernelWindowError(VacMirrorError, ValueError):
    """Time-kernel window shorter than two steps of dt."""


class ImpedancePoleError(VacMirrorError):
    """Impedance evaluated at its zero-frequency pole."""


class AdmittanceSingularityError(VacMirrorError):
    """Impedance modulus below threshold; admittance is near-singular."""


class ContourError(VacMirrorError):
    """Argument-principle winding unusable: not an integer (the marginal case
    mu = m, where Z grows only like log p), or phase steps left unresolved."""


class RootConvergenceError(VacMirrorError):
    """Root refinement failed to converge."""


class FitError(VacMirrorError):
    """Insufficient or unsuitable data for a requested fit."""


class ConfigError(VacMirrorError):
    """Invalid run configuration; its message leads with a file/line anchor when known."""

    def __init__(self, message, path=None, line=None):
        anchor = ""
        if path is not None:
            anchor = f"{path}:{line}: " if line is not None else f"{path}: "
        super().__init__(anchor + message)
