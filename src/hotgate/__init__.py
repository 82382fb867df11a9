"""Simulator for a four-pulse controlled-rotation gate on a hot trapped-ion string.

The gate couples two qubit ions through the shared center-of-mass phonon
mode without requiring that mode to start in its ground state: a conditional
phase pulse on the target, an adiabatic passage moving the control qubit onto
an auxiliary shelf while adding one phonon, a second conditional phase, and
the reverse passage. Both an ideal-operator model and a time-resolved
adiabatic-passage model are provided, for pure and mixed phonon inputs.
"""

from .errors import (
    AmbiguousExtraction,
    DomainError,
    NormDrift,
    ShapeError,
    SimulationError,
    TruncationLeakage,
)
from .hilbert import (
    DEFAULT_N_MAX,
    LEAK_TOL,
    CompositeSpace,
    CompositeState,
    DensityOperator,
    FockSpace,
    basis_state,
    compose_density,
    compose_state,
    partial_trace_phonon,
)
from .states import (
    ThermalSpec,
    coherent_state,
    fock_state,
    parse_state_spec,
    random_pure_state,
    thermal_state,
)
from .operators import (
    PhysicalParams,
    adiabatic_down,
    adiabatic_up,
    carrier_rotation,
    chi,
    conditional_phase,
    conditional_phase_hamiltonian,
    tau,
)
from .stirap import (
    PulseEnvelope,
    StirapSchedule,
    adiabaticity_margin,
    block_propagators,
    calibrate_transfer,
    hamiltonian_block,
    reversed_schedule,
    standard_schedule,
)
from .gate import (
    GateConfig,
    GateReport,
    cnot,
    crot,
    gate_fidelity,
    gate_report,
    mixed_state_equivalence,
    truth_table,
)

__all__ = [name for name in dir() if not name.startswith("_")]
