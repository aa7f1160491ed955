"""Exception and warning types shared across the package."""


class VenttselError(Exception):
    """Base class for all package errors."""


class GeometryError(VenttselError):
    """Invalid polygon input or a point outside the domain."""


class MeshError(VenttselError):
    """Mesh generation or mesh consistency failure."""


class AssemblyError(VenttselError):
    """Operator or load assembly failure."""


class SolverError(VenttselError):
    """Linear solve failure; carries the residual history when available."""

    def __init__(self, message, residual_history=None):
        super().__init__(message)
        self.residual_history = residual_history


class OracleError(VenttselError):
    """A reference-quadrature oracle could not produce a trusted value."""


class SingularFitError(VenttselError):
    """Corner-coefficient fit is not well posed on this mesh."""


class ConfigError(VenttselError):
    """Invalid run configuration; `rule` names the violated validation rule."""

    def __init__(self, rule, message):
        super().__init__(message)
        self.rule = rule


class RegularityRegimeWarning(UserWarning):
    """Fractional order is at or above 3/4: boundary-H2 diagnostics lose their backing."""


class MeshQualityWarning(UserWarning):
    """Refinement budget exhausted before reaching the quality floor."""
