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
from functools import lru_cache

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
        if not math.isfinite(self.epsilon):
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
            table = self.truth_table.view(float).reshape(4, 4, 2).tolist()
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


@lru_cache(maxsize=32)
def _gate_blocks(schedule: stirap.StirapSchedule | None, params: PhysicalParams,
                 epsilon: float, n_rungs: int, /) -> tuple:
    """Read-only (blocks, ground) of the four-pulse sequence, rungs 0..n_rungs-1.

    blocks[t, n] = down[n] Phi_t(n) up[n] Phi_t(n) on {|1,n>, |3,n>, |2,n+1>}
    of the control ion, for target level t (shape (4, n_rungs, 3, 3)), and
    ground[t] the phases Phi_t(n)^2 of |0,n> over the padded phonon axis
    (shape (4, n_rungs + 1)). Only |1>_t carries conditional phases; the
    other target levels see the bare passage round trip. Without a schedule
    the passages are the ideal ones. The one cached composition that crot
    reads; the arguments are positional-only, so a configuration has one key.
    """
    phi = conditional_phase_factors(n_rungs + 1, epsilon)
    if schedule is None:
        up = down = np.broadcast_to(_IDEAL_PASSAGE, (n_rungs, 3, 3))
    else:
        up, down = stirap.passage_blocks(schedule, params, n_rungs)
    ph = np.stack((phi[:-1], phi[:-1], phi[1:]), axis=-1)
    bare = down @ up
    phased = down @ (ph[:, :, None] * up * ph[:, None, :])
    blocks = np.stack((bare, phased, bare, bare))
    ground = np.ones((4, n_rungs + 1), dtype=complex)
    ground[1] = phi * phi
    blocks.flags.writeable = False
    ground.flags.writeable = False
    return blocks, ground


def _crot_unitary(config: GateConfig, space: CompositeSpace) -> IdealUnitary:
    """The four-pulse sequence as per-rung blocks on a phonon axis padded by one rung.

    Reads the cached _gate_blocks as views with the target level first and
    one broadcast axis for each spectator ion and the batch. The transpose
    that brings the control and target axes first is fixed here, with its
    inverse, so each application is two transposes and one block product.
    """
    k, d = space.n_ions, space.fock.dim
    blocks, ground = _gate_blocks(config.schedule, config.params, config.epsilon, d)
    lead = (4,) + (1,) * (k - 1)  # target level, then the spectator and batch axes
    blocks = blocks.reshape(lead + blocks.shape[1:])
    ground = ground.reshape(lead + ground.shape[1:])
    # control, target, spectators, batch, phonon
    order = (config.control, config.target,
             *(i for i in range(k) if i not in (config.control, config.target)), k + 1, k)
    inverse = [0] * len(order)
    for i, axis in enumerate(order):
        inverse[axis] = i

    def kernel(sp, x):
        xc = x.transpose(order)
        padded = np.zeros(xc.shape[:-1] + (d + 1,), dtype=complex)
        padded[..., :-1] = xc
        y = stirap.apply_blocks(padded, blocks)
        y[0] *= ground
        return y[..., :-1].transpose(inverse)

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


@lru_cache(maxsize=32)
def _report_layout(n_ions: int, control: int, target: int, d: int, /) -> tuple:
    """Read-only (register, index) of the report's one gate run on d phonon levels.

    register (length 4^n_ions) carries all four (control, target) basis
    inputs with the spectators at level 0, and index (shape (4, 3, d)) the
    flat position in the gate's output of each (basis input, reached cell,
    rung): cell 0 is the qubit cell, cells 1 and 2 are levels 3 and 2 of the
    control ion for control 1. A control-0 input reaches neither; its two
    unreached cells read |2>_c|0>, which no input feeds and the gate copies,
    so they read an exact 0. The arguments are positional-only, so a layout
    has one key.
    """
    c_stride, t_stride = 4 ** (n_ions - 1 - control), 4 ** (n_ions - 1 - target)
    register = np.zeros(4**n_ions, dtype=complex)
    register[[0, t_stride, c_stride, c_stride + t_stride]] = 1.0
    rungs = np.arange(d)
    index = np.empty((4, 3, d), dtype=np.intp)
    index[:2, 1:] = 2 * c_stride * d
    for a, (c, t) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        for j, level in enumerate((1, 3, 2) if c else (0,)):
            index[a, j] = (level * c_stride + t * t_stride) * d + rungs
    register.flags.writeable = False
    index.flags.writeable = False
    return register, index


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
    Every field is read relative to the total weight Tr rho, so an input
    scaled by any factor reads what its unit version does. An input whose
    total weight is zero or past the float range, or that has an entry that
    is not finite, is refused (ValueError), and so is an input that is not a
    phonon state: a density operator on the composite space, or an array that
    is not a vector.
    """
    if isinstance(phonon_input, DensityOperator):
        if isinstance(phonon_input.space, CompositeSpace):
            raise ValueError(f"phonon input has shape {phonon_input.matrix.shape} on "
                             f"{phonon_input.space}; it must be a phonon state")
        vec, entries = None, phonon_input.matrix
    else:
        vec = entries = np.asarray(phonon_input, dtype=complex)
        if vec.ndim != 1:
            raise ValueError(f"phonon input has shape {vec.shape}; it must be a vector "
                             "of phonon amplitudes or a DensityOperator")
    if not np.isfinite(entries).all():  # before any arithmetic, which would warn
        bad = entries[~np.isfinite(entries)][0]
        raise ValueError(f"phonon input has total weight nan: an entry is {bad}; "
                         "every entry must be finite")
    # Every read is relative to Tr rho, so the entries are first scaled by the
    # power of two 2^-shift that brings the largest into [1/2, 1). That is exact,
    # and then no square or sum under- or overflows, whatever the input's scale.
    # Tr rho is trace 2^exponent
    if vec is None:
        diag = np.real(np.diagonal(entries))
        sup = np.ascontiguousarray(np.diagonal(entries, 1)).view(float)
        shift = math.frexp(max(np.abs(diag).max(initial=0.0), np.abs(sup).max(initial=0.0)))[1]
        diag, sup = np.ldexp(diag, -shift), np.ldexp(sup, -shift).view(complex)
        exponent = shift
    else:
        parts = np.ascontiguousarray(vec).view(float)  # real and imaginary parts
        shift = math.frexp(np.abs(parts).max(initial=0.0))[1]
        vec = np.ldexp(parts, -shift).view(complex)
        diag, sup = np.abs(vec) ** 2, vec[:-1] * vec[1:].conj()
        exponent = 2 * shift
    d = len(diag)
    space = CompositeSpace(config.params.n_ions, FockSpace(d - 1))
    register, index = _report_layout(config.params.n_ions, config.control, config.target, d)
    # one run carries all four basis inputs, since they reach disjoint cells
    cols = crot(compose_state(space, register, np.ones(d)), config).amplitudes[index]
    # cell (j, n) is fed by input rung s(j, n): n, or n - 1 on the shelf. So
    # basis input a acts on the phonon by K_aj[n, m] = cols[a, j, n] delta(m, s(j, n)),
    # and rho enters as coherence[j, n] = rho[s, n] and weight[j, n] = rho[s, s]
    coherence = np.empty((3, d), dtype=complex)
    weight = np.empty((3, d))
    coherence[:2] = weight[:2] = diag
    coherence[2, 0] = weight[2, 0] = 0.0
    coherence[2, 1:] = sup
    weight[2, 1:] = diag[:-1]
    overlap = np.add.reduce(cols * coherence, axis=-1)  # Tr(rho K_aj), scaled
    trace = np.add.reduce(coherence[0]).real  # the same summation, so an exact gate reads 1
    with np.errstate(over="ignore"):
        total = np.ldexp(trace, exponent)  # Tr rho itself, which may pass the float range
    if not (trace > 0 and np.isfinite(total)):
        raise ValueError(f"phonon input has total weight {total}; "
                         "it must be finite and > 0")
    restoration = np.add.reduce(np.abs(overlap) ** 2, axis=-1) / (trace * trace)
    worst_restoration = float(np.minimum.reduce(np.minimum(np.maximum(0.0, restoration), 1.0)))
    pops = np.abs(cols) ** 2 * weight
    leakage = (np.maximum(0.0, trace - np.add.reduce(pops, axis=(1, 2)))
               + np.add.reduce(pops[:, 1:], axis=(1, 2))) / trace
    failed = config.mode == "stirap" and worst_restoration < MIN_RESTORATION_FOR_TABLE
    # divided per component, so that an exact gate's +-trace reads exactly +-1
    table = None if failed else np.diag((overlap.view(float) / trace).view(complex)[:, 0])

    def fidelity(qubit):  # basis input, rung of the qubit cell
        amp = _FIDELITY_PROBES @ qubit
        # summed as infidelity per rung, so that an exact gate scores exactly 1
        loss = (1.0 - np.abs(amp) ** 2) @ diag / trace
        return float(np.add.reduce(np.minimum(np.maximum(0.0, 1.0 - loss), 1.0)) / len(loss))

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
            padded = np.append(0.0, vec)  # at unit size: the fourth powers stay in range
            out = cols * padded[np.arange(d) + np.array([[1], [1], [0]])]
            ion = out @ out.conj().transpose(0, 2, 1)
            norm = np.maximum(np.real(np.trace(ion, axis1=1, axis2=2)), 1e-300)
            purity = np.real(np.einsum("aij,aji->a", ion, ion)) / norm**2
            residue = float(np.max(1.0 - purity, initial=0.0))
    return GateReport(
        truth_table=table,
        qubit_fidelity=fid,
        phonon_restoration_fidelity=worst_restoration,
        leakage=float(np.maximum.reduce(leakage)),
        mode=config.mode,
        epsilon=config.epsilon,
        residual_phases=phases,
        entanglement_residue=residue,
        qubit_fidelity_raw=raw,
    )


def truth_table(config: GateConfig, phonon_input) -> np.ndarray:
    """4x4 overlap table of the gate with the restored-phonon references.

    Entry [a, b] is Tr(rho K_ab) / Tr rho, with K_ab[n, m] = <b, n|U|a, m>: for
    a unit pure input, the amplitude of basis output b (with the phonon factor
    back in its input state) when feeding basis input a. It is linear in rho,
    so a mixed input reads the average table of any pure ensemble that makes
    it up; only the diagonal is non-zero and it reads only diag rho. In stirap
    mode the extraction is refused (AmbiguousExtraction) when the phonon comes
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
    outside the two-qubit subspace, each rung weighted by diag rho / Tr rho."""
    return gate_report(config, phonon_input).leakage


def mixed_state_equivalence(config: GateConfig, spec: ThermalSpec, n_max: int = 32) -> dict:
    """Compare the density path with the Fock-ensemble average on a thermal input.

    With the qubits in the equal superposition of the four basis states, runs
    the gate once on the thermal density operator and once as the
    p_n-weighted ensemble of pure Fock runs, and reports the maximum
    element-wise deviation between the two output density matrices.
    """
    space = CompositeSpace(config.params.n_ions, FockSpace(n_max))
    register, _ = _report_layout(config.params.n_ions, config.control, config.target,
                                 n_max + 1)
    ion = 0.5 * register
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
