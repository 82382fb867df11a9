"""Exception types shared across the simulator."""


class SimulationError(Exception):
    """Base class for all simulator-specific errors."""


class ShapeError(SimulationError):
    """Operands live on incompatible spaces or have wrong dimensions."""


class DomainError(SimulationError):
    """State has support outside the domain an operator is defined on."""


class TruncationLeakage(SimulationError):
    """Amplitude at the Fock-space boundary exceeds the allowed tolerance."""


class NormDrift(SimulationError):
    """A passage propagator is not finite: a step generator overflowed a float."""


class AmbiguousExtraction(SimulationError):
    """Residual ion-phonon entanglement prevents a clean truth-table readout."""
