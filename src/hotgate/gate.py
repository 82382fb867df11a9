"""Four-pulse controlled-rotation gate, its CNOT wrapper, and gate metrics.

Pulse order: conditional phase on the target, passage up on the control,
conditional phase again, passage down. On the two-qubit subspace the ideal
sequence acts as diag(1, 1, 1, -1) in the (control, target) basis
{|00>, |01>, |10>, |11>} while returning the phonon mode to its input state.

Every pulse conserves n + [control on |2>], so the whole sequence is a set of
independent per-rung blocks: for each target level and occupation n, one 3x3
block on {|1,n>, |3,n>, |2,n+1>} of the control ion and a phase on |0,n>.
The phonon axis is padded by one rung so that inputs with support up to n_max
survive the intermediate single-phonon excursion exactly; weight left on the
padded rung is dropped and reported as leakage. The same conservation law
makes each output cell of the gate depend on one input rung only, and each
qubit-basis input reach at most three cells of the control ion: (0, t) for
control 0, and (1, t), (3, t) and the shelf (2, t) for control 1. These cells
are disjoint, so the report runs the gate once on all four basis inputs
together and takes every metric from a (basis input, cell, rung) array.
Every metric is linear in the phonon input rho and reads only diag rho and
its first superdiagonal, so a hot (mixed) input is never decomposed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AmbiguousExtraction, DomainError
from .hilbert import (
    CompositeSpace,
    CompositeState,
    DensityOperator,
    FockSpace,
    compose_density,
    compose_state,
)
from .operators import (
    IdealUnitary,
    PhysicalParams,
    carrier_rotation,
    conditional_phase_factors,
    outside_weight,
    rotation_matrix_2x2,
)
from .states import ThermalSpec, fock_state, thermal_probabilities
from . import stirap

# Wrapper rotation phases that turn diag(1,1,1,-1) into the exact CNOT
# permutation (pre-rotation applied first).
CNOT_PRE_PHASE = -np.pi / 2
CNOT_POST_PHASE = np.pi / 2

MIN_RESTORATION_FOR_TABLE = 0.9

# Ideal passage on one rung block {|1,n>, |3,n>, |2,n+1>}: |1,n> <-> |2,n+1>.
_IDEAL_PASSAGE = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)

# Fidelity inputs as unnormalized (control, target) qubit coefficients: the
# four basis states plus |+>_c|0>_t, |+>_c|1>_t, |0>_c|+>_t and |1>_c|+>_t.
_FIDELITY_INPUTS = np.array([
    [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
    [1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1],
], dtype=complex)


@dataclass(frozen=True)
class GateConfig:
    """Which ions play control/target, the passage model, and its knobs.

    The model is the schedule: none runs the ideal passages ('ideal' mode), an
    'up' schedule its time-resolved STIRAP ('stirap' mode)."""

    params: PhysicalParams
    control: int = 0
    target: int = 1
    schedule: stirap.StirapSchedule | None = None  # up-direction passage
    epsilon: float = 0.0  # relative conditional-phase duration error
    compensate_phases: bool = False  # one best Z rotation on the control's |1>

    def __post_init__(self):
        if not np.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if self.control == self.target:
            raise ValueError("control and target must differ")
        k = self.params.n_ions
        if not (0 <= self.control < k and 0 <= self.target < k):
            raise ValueError(f"ion indices must be < n_ions = {k}")
        if self.schedule is not None and self.schedule.direction != "up":
            raise ValueError("the configured schedule must be the 'up' passage")

    @property
    def mode(self) -> str:
        """'ideal' without a schedule, 'stirap' with one."""
        return "ideal" if self.schedule is None else "stirap"


@dataclass
class GateReport:
    """Truth table and fidelity metrics of one gate configuration and input."""

    truth_table: np.ndarray | None
    qubit_fidelity: float
    phonon_restoration_fidelity: float
    leakage: float
    mode: str
    epsilon: float
    residual_phases: dict | None = None
    entanglement_residue: float | None = None
    qubit_fidelity_raw: float | None = None
    notes: dict = field(default_factory=dict)

    @property
    def table_extraction_failed(self) -> bool:
        """No truth table: in stirap mode the phonon came back below the restoration
        bar; ideal mode always has one."""
        return self.truth_table is None

    def to_dict(self) -> dict:
        table = None
        if self.truth_table is not None:
            table = [[[float(z.real), float(z.imag)] for z in row] for row in self.truth_table]
        phases = None
        if self.residual_phases is not None:
            phases = {str(k): float(v) for k, v in self.residual_phases.items()}
        return {
            "truth_table": table,
            "qubit_fidelity": float(self.qubit_fidelity),
            "phonon_restoration_fidelity": float(self.phonon_restoration_fidelity),
            "leakage": float(self.leakage),
            "mode": self.mode,
            "epsilon": float(self.epsilon),
            "residual_phases": phases,
            "entanglement_residue": None if self.entanglement_residue is None
            else float(self.entanglement_residue),
            "qubit_fidelity_raw": None if self.qubit_fidelity_raw is None
            else float(self.qubit_fidelity_raw),
            "table_extraction_failed": self.table_extraction_failed,
            "notes": self.notes,
        }


def _crot_unitary(config: GateConfig, space: CompositeSpace) -> IdealUnitary:
    """The four-pulse sequence as per-rung blocks on a phonon axis padded by one rung.

    For target level t and rung n the block is down[n] Phi_t(n) up[n] Phi_t(n)
    on {|1,n>, |3,n>, |2,n+1>} of the control ion, and |0,n> picks up
    Phi_t(n)^2. Only |1>_t carries conditional phases; the other target
    levels see the bare passage round trip.
    """
    k, d = space.n_ions, space.fock.dim
    phi = conditional_phase_factors(d + 1, config.epsilon)
    if config.mode == "ideal":
        up = down = np.broadcast_to(_IDEAL_PASSAGE, (d, 3, 3))
    else:
        up, down = stirap.passage_blocks(config.schedule, config.params, d)
    ph = np.stack((phi[:-1], phi[:-1], phi[1:]), axis=-1)
    bare = down @ up
    phased = down @ (ph[:, :, None] * up * ph[:, None, :])
    lead = (4,) + (1,) * (k - 1)  # target level, then the spectator and batch axes
    blocks = np.stack((bare, phased, bare, bare)).reshape(lead + (d, 3, 3))
    ground = np.ones((4, d + 1), dtype=complex)
    ground[1] = phi * phi
    ground = ground.reshape(lead + (d + 1,))
    axes, moved = (config.control, config.target, k + 1), (0, 1, k)

    def kernel(sp, x):
        xc = np.moveaxis(x, axes, moved)  # control, target, spectators, batch, phonon
        pad = np.zeros(xc.shape[:-1] + (1,), dtype=complex)
        y = stirap.apply_blocks(np.concatenate((xc, pad), axis=-1), blocks)
        y[0] *= ground
        return np.moveaxis(y[..., :-1], moved, axes)

    def check(sp, pops):
        for ion in (config.control, config.target):
            w = outside_weight(pops, ion, (2, 3))
            if w:
                raise DomainError(
                    f"ion {ion} has population {w:.3e} outside the qubit subspace"
                )

    return IdealUnitary("crot", kernel, check)


def crot(state_or_rho, config: GateConfig):
    """Apply the four-pulse controlled-rotation gate.

    Accepts a CompositeState or a DensityOperator on the full composite
    space; returns the evolved object on the same space. Amplitudes are
    evolved linearly (no renormalization), so any weight pushed past n_max
    by the intermediate phonon excursion shows up as missing norm/trace.
    """
    space = state_or_rho.space
    if not isinstance(space, CompositeSpace):
        raise DomainError("gate input must live on a CompositeSpace")
    if space.n_ions != config.params.n_ions:
        raise DomainError(
            f"input has {space.n_ions} ions but params declare {config.params.n_ions}"
        )
    gate = _crot_unitary(config, space)
    if isinstance(state_or_rho, CompositeState):
        return gate.apply(state_or_rho)
    return gate.apply_density(state_or_rho)


def cnot(state_or_rho, config: GateConfig):
    """CNOT: carrier pi/2 rotations on the target around the gate."""
    pre = carrier_rotation(config.target, np.pi / 2, CNOT_PRE_PHASE)
    post = carrier_rotation(config.target, np.pi / 2, CNOT_POST_PHASE)
    if isinstance(state_or_rho, CompositeState):
        return post.apply(crot(pre.apply(state_or_rho), config))
    return post.apply_density(crot(pre.apply_density(state_or_rho), config))


def ideal_crot_matrix() -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


# Probe i weights basis input a's qubit cell by <ideal output of i|a><a|input i>
# over the input's norm, so its entries are exactly 0, +-1 or +-1/2.
_FIDELITY_PROBES = (np.abs(_FIDELITY_INPUTS) ** 2 * np.diag(ideal_crot_matrix())
                    / np.sum(np.abs(_FIDELITY_INPUTS) ** 2, axis=1, keepdims=True))


def cnot_matrix_oracle() -> np.ndarray:
    """Explicit 4x4 product of the wrapper rotations with diag(1,1,1,-1)."""
    r_pre = np.kron(np.eye(2), rotation_matrix_2x2(np.pi / 2, CNOT_PRE_PHASE))
    r_post = np.kron(np.eye(2), rotation_matrix_2x2(np.pi / 2, CNOT_POST_PHASE))
    return r_post @ ideal_crot_matrix() @ r_pre


def _qubit_cells(x: np.ndarray, config: GateConfig) -> np.ndarray:
    """View of x with the control and target axes first and the spectators at level 0."""
    x = np.moveaxis(x, (config.control, config.target), (0, 1))
    return x[(slice(None), slice(None)) + (0,) * (config.params.n_ions - 2)]


def _qubit_register(config: GateConfig, coeffs) -> np.ndarray:
    """Ion-register vector (length 4^k) carrying (control, target) qubit coefficients."""
    reg = np.zeros((4,) * config.params.n_ions, dtype=complex)
    _qubit_cells(reg, config)[:2, :2] = np.reshape(coeffs, (2, 2))
    return reg.reshape(-1)


def gate_report(config: GateConfig, phonon_input) -> GateReport:
    """Run the gate once on all four qubit-basis columns and derive every report metric.

    The metrics read the phonon input rho only through diag rho and rho[n-1, n].
    Restoration is the entanglement fidelity of each basis input's phonon
    channel (Schumacher, PRA 54, 2614 (1996)) and leakage is weighted by
    diag rho; both are worst cases over the basis inputs. The entanglement
    residue (stirap mode) needs amplitudes and is reported for pure inputs
    only, since mixing depresses purity on its own. Under compensate_phases
    the qubit fidelity is read after one Z rotation exp(-i phi) on the control's
    |1> at its best phase, and qubit_fidelity_raw is the one without it.
    An input whose total weight Tr rho is zero or not finite, or that has an
    entry that is not finite, is refused (ValueError), since every metric is
    read relative to it.
    """
    if isinstance(phonon_input, DensityOperator):
        vec, entries = None, phonon_input.matrix
    else:
        vec = entries = np.asarray(phonon_input, dtype=complex)
    if not np.all(np.isfinite(entries)):  # before any arithmetic, which would warn
        bad = entries[~np.isfinite(entries)][0]
        raise ValueError(f"phonon input has total weight nan: an entry is {bad}; "
                         "every entry must be finite")
    # finite entries can still square or sum past the float range; the weight
    # is then inf, which the check below refuses
    with np.errstate(over="ignore", invalid="ignore"):
        if vec is None:
            diag, sup = np.real(np.diagonal(entries)), np.diagonal(entries, 1)
        else:
            diag, sup = np.abs(vec) ** 2, vec[:-1] * vec[1:].conj()
    d = len(diag)
    space = CompositeSpace(config.params.n_ions, FockSpace(d - 1))
    # one run carries all four basis inputs, since they reach disjoint cells
    run = crot(compose_state(space, _qubit_register(config, np.ones(4)), np.ones(d)), config)
    x = _qubit_cells(run.tensor(), config)
    cols = np.zeros((4, 3, d), dtype=complex)  # basis input, cell (qubit, 3, shelf), rung
    cols[:2, 0] = x[0, :2]
    cols[2:] = np.moveaxis(x[[1, 3, 2], :2], 1, 0)
    # cell (j, n) is fed by input rung s(j, n): n, or n - 1 on the shelf. So
    # basis input a acts on the phonon by K_aj[n, m] = cols[a, j, n] delta(m, s(j, n)),
    # and rho enters as coherence[j, n] = rho[s, n] and weight[j, n] = rho[s, s]
    coherence = np.stack((diag, diag, np.append(0.0, sup)))
    weight = np.stack((diag, diag, np.append(0.0, diag[:-1])))
    with np.errstate(over="ignore", invalid="ignore"):
        overlap = np.sum(cols * coherence, axis=-1)  # Tr(rho K_aj)
        trace = np.sum(coherence[0]).real  # the same summation, so an exact gate reads 1
    if not (np.isfinite(trace) and trace > 0):
        raise ValueError(f"phonon input has total weight {trace}; it must be finite and > 0")
    # Tr rho = mantissa 2^k. A read relative to the weight is scaled by a power
    # of two before squaring, which is exact: the same bits, and a tiny or huge
    # weight neither under- nor overflows
    mantissa, k = math.frexp(trace)
    scaled = np.ldexp(overlap.view(float), -k).view(complex)
    restoration = np.clip(np.sum(np.abs(scaled) ** 2, axis=-1) / mantissa**2, 0.0, 1.0)
    worst_restoration = float(np.min(restoration))
    pops = np.abs(cols) ** 2 * weight
    leakage = np.maximum(0.0, trace - pops.sum(axis=(1, 2))) + pops[:, 1:].sum(axis=(1, 2))
    failed = config.mode == "stirap" and worst_restoration < MIN_RESTORATION_FOR_TABLE
    table = None if failed else np.diag(overlap[:, 0])

    def fidelity(qubit):  # basis input, rung of the qubit cell
        amp = _FIDELITY_PROBES @ qubit
        # summed as infidelity per rung, so that an exact gate scores exactly 1
        loss = (1.0 - np.abs(amp) ** 2) @ diag
        return float(np.mean(np.clip(1.0 - loss, 0.0, 1.0)))

    q = cols[:, 0]
    fid = fidelity(q)
    raw = phases = residue = None
    if config.compensate_phases:
        # exp(-i phi) on the control's |1> moves only the |+>_c|t> probes: the
        # fidelity is a constant plus Re(z exp(-i phi)) / 16, so the best phi is arg z
        z = (q[0].conj() * q[2] - q[1].conj() * q[3]) @ diag
        turn = np.exp(-1j * np.angle(z) * np.array([[0], [0], [1], [1]]))
        raw, fid = fid, fidelity(q * turn)
    if config.mode == "stirap":
        amps = stirap.transfer_amplitudes(config.schedule, config.params, d)
        amps = amps[:min(stirap.CALIBRATED_RUNGS, d - 1)]
        angles = stirap.transfer_phase(amps)
        phases = {n: float(angles[n]) for n in range(len(amps))
                  if abs(amps[n]) ** 2 >= stirap.PHASE_MIN_TRANSFER}
        if vec is not None:
            # scaled to unit size, so that the purity's fourth powers stay in range
            padded = np.append(0.0, vec * math.ldexp(1.0, -(k // 2)))
            out = cols * padded[np.arange(d) + np.array([[1], [1], [0]])]
            ion = out @ out.conj().transpose(0, 2, 1)
            norm = np.maximum(np.real(np.trace(ion, axis1=1, axis2=2)), 1e-300)
            purity = np.real(np.einsum("aij,aji->a", ion, ion)) / norm**2
            residue = float(np.max(1.0 - purity, initial=0.0))
    return GateReport(
        truth_table=table,
        qubit_fidelity=fid,
        phonon_restoration_fidelity=worst_restoration,
        leakage=float(np.max(leakage)),
        mode=config.mode,
        epsilon=config.epsilon,
        residual_phases=phases,
        entanglement_residue=residue,
        qubit_fidelity_raw=raw,
    )


def truth_table(config: GateConfig, phonon_input) -> np.ndarray:
    """4x4 overlap table of the gate with the restored-phonon references.

    Entry [a, b] is Tr(rho K_ab), with K_ab[n, m] = <b, n|U|a, m>: for a pure
    input, the amplitude of basis output b (with the phonon factor back in its
    input state) when feeding basis input a. It is linear in rho, so a mixed
    input reads the average table of any pure ensemble that makes it up; only
    the diagonal is non-zero and it reads only diag rho. In stirap mode
    the extraction is refused (AmbiguousExtraction) when the phonon comes
    back with fidelity below 0.9, since no clean table exists then.
    """
    report = gate_report(config, phonon_input)
    if report.table_extraction_failed:
        raise AmbiguousExtraction(
            f"phonon restoration fidelity {report.phonon_restoration_fidelity:.3f} < "
            f"{MIN_RESTORATION_FOR_TABLE}; the gate left ion-phonon entanglement"
        )
    return report.truth_table


def gate_fidelity(config: GateConfig, phonon_input) -> float:
    """Average overlap with the ideal gate action over eight qubit inputs.

    Inputs are the four basis states and the four single-qubit superpositions,
    which make the relative sign on the doubly excited branch observable.
    """
    return gate_report(config, phonon_input).qubit_fidelity


def phonon_restoration(config: GateConfig, phonon_input) -> float:
    """Worst case over basis inputs of the entanglement fidelity of the phonon channel.

    For basis input a this is sum_j |Tr(rho K_aj)|^2 / (Tr rho)^2 over the
    reached ion cells j; a pure input reads the overlap of the returned
    phonon state with itself.
    """
    return gate_report(config, phonon_input).phonon_restoration_fidelity


def gate_leakage(config: GateConfig, phonon_input) -> float:
    """Worst case over basis inputs of the norm loss plus the population left
    outside the two-qubit subspace, each rung weighted by diag rho."""
    return gate_report(config, phonon_input).leakage


def mixed_state_equivalence(config: GateConfig, spec: ThermalSpec, n_max: int = 32) -> dict:
    """Compare the density path with the Fock-ensemble average on a thermal input.

    With the qubits in the equal superposition of the four basis states, runs
    the gate once on the thermal density operator and once as the
    p_n-weighted ensemble of pure Fock runs, and reports the maximum
    element-wise deviation between the two output density matrices.
    """
    space = CompositeSpace(config.params.n_ions, FockSpace(n_max))
    ion = _qubit_register(config, 0.5 * np.ones(4, dtype=complex))
    probs = thermal_probabilities(spec, n_max)
    direct_in = compose_density(np.outer(ion, ion.conj()), np.diag(probs.astype(complex)), space)
    direct = crot(direct_in, config).matrix
    ensemble = np.zeros_like(direct)
    for n, p in enumerate(probs):
        if p < 1e-16:
            continue
        out = crot(compose_state(space, ion, fock_state(n, n_max)), config)
        ensemble += p * np.outer(out.amplitudes, out.amplitudes.conj())
    deviation = float(np.max(np.abs(direct - ensemble)))
    return {
        "n_bar": spec.n_bar,
        "n_max": n_max,
        "max_elementwise_deviation": deviation,
        "trace_direct": float(np.real(np.trace(direct))),
        "trace_ensemble": float(np.real(np.trace(ensemble))),
    }
