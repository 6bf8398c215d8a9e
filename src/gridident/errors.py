"""Exception and warning types shared across the package."""


class GridIdentError(Exception):
    """Base class for all package-specific failures."""


class NonUniqueError(GridIdentError):
    """The supplied measurements cannot pin down a unique parameter vector.

    Carries a `diagnostic` attribute (a UniquenessDiagnostic when available)
    so callers can report the rank deficiency instead of silently accepting
    a minimum-norm answer.
    """

    def __init__(self, message, diagnostic=None):
        super().__init__(message)
        self.diagnostic = diagnostic


class InsufficientMeasurementsError(GridIdentError):
    """Fewer operating points were supplied than the identifiability threshold requires."""


class SolverFailureError(GridIdentError):
    """The constrained solver could not factor its step system even after damping."""


class NetworkFormatError(GridIdentError):
    """Malformed network, bus-spec, or measurement file."""


class ConsistencyError(GridIdentError):
    """A matrix violates the symmetry / zero-row-sum contract it is required to satisfy."""


class AlignmentError(GridIdentError):
    """Two objects that must share a shape or node set do not."""


class HeuristicBoundWarning(UserWarning):
    """No longer emitted (min_measurements is proven); warning filters naming it still resolve."""
