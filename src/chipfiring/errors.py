"""Exception hierarchy shared by the whole package."""


class ChipFiringError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(ChipFiringError, ValueError):
    """Malformed graph, unknown vertex/arc, or a structural precondition failed."""


class ConfigurationError(ChipFiringError, ValueError):
    """Bad chip configuration: negative chips, domain mismatch, wrong host, ..."""


class FiringError(ConfigurationError):
    """A vertex was fired although it is not firable."""


class NonTerminationError(ChipFiringError, RuntimeError):
    """A vertex that can fire reaches no vertex that never fires, so some game
    on the host would not stop; raised before any firing."""


class SizeCapError(ChipFiringError):
    """The requested exhaustive computation exceeds the configured size cap."""


class SettingError(ChipFiringError, ValueError):
    """``cfg`` raises it when ``--cap`` or CFG_CAP_CELLS has an invalid value."""


class HypothesisError(ChipFiringError, ValueError):
    """A recursion-formula site does not satisfy the formula's hypothesis."""


class PropertyViolationError(ChipFiringError):
    """A checked identity failed; carries the conflicting data for diagnosis."""

    def __init__(self, message: str, details: object = None):
        super().__init__(message)
        self.details = details


class InternalCheckError(ChipFiringError, AssertionError):
    """A theorem-backed internal consistency check failed: implementation bug."""


class PoleError(ChipFiringError, ZeroDivisionError):
    """Evaluation of a Laurent polynomial with negative exponents at zero."""
