"""Four-pulse controlled-rotation gate, its CNOT wrapper, and gate metrics.

Pulse order: conditional phase on the target, passage up on the control,
conditional phase again, passage down. On the two-qubit subspace the ideal
sequence acts as diag(1, 1, 1, -1) in the (control, target) basis
{|00>, |01>, |10>, |11>} while returning the phonon mode to its input state.

Every pulse conserves n - [control on |2>], so the whole sequence is a set of
independent per-rung blocks: for each target level and occupation n, one 3x3
block on {|1,n>, |3,n>, |2,n+1>} of the control ion and a phase on |0,n>.
The blocks run up to rung n_max, so inputs with support up to n_max survive
the intermediate single-phonon excursion exactly; the top block's shelf cell
|2, n_max+1> lies past the phonon axis, so weight left there is dropped and
reported as leakage. The same conservation law makes each output cell of
the gate depend on one input rung only, and each qubit-basis input reach at
most three cells of the control ion: (0, t) for control 0, and (1, t),
(3, t) and the shelf (2, t) for control 1. These cells are disjoint, so
the report runs the gate once on all four basis inputs together and takes
every metric from a (basis input, cell, rung) array.
Every metric is linear in the phonon input rho and reads only diag rho and
its first superdiagonal, so a hot (mixed) input is never decomposed.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AmbiguousExtraction, DomainError
from .hilbert import (
    CompositeSpace,
    CompositeState,
    DensityOperator,
    FockSpace,
    _is_integer,
    compose_density,
    compose_state,
)
from .operators import (
    PhysicalParams,
    carrier_rotation,
    conditional_phase_factors,
    outside_weight,
    rotation_matrix_2x2,
)
from .states import FockWeights, ThermalSpec, fock_state, thermal_probabilities
from . import stirap

# Wrapper rotation phases that turn diag(1,1,1,-1) into the exact CNOT
# permutation (pre-rotation applied first).
CNOT_PRE_PHASE = -np.pi / 2
CNOT_POST_PHASE = np.pi / 2

MIN_RESTORATION_FOR_TABLE = 0.9

# A report holds about four register-sized complex arrays at once: its input,
# the gate's copy of it, and apply_blocks' two work arrays of 3/4 of it each.
_REPORT_ARRAYS = 4
_PHYSICAL_MEMORY = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")

# Ideal passage on one rung block {|1,n>, |3,n>, |2,n+1>}: |1,n> <-> |2,n+1>.
_IDEAL_PASSAGE = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)

# Fidelity inputs as unnormalized (control, target) qubit coefficients: the
# four basis states plus |+>_c|0>_t, |+>_c|1>_t, |0>_c|+>_t and |1>_c|+>_t.
_FIDELITY_INPUTS = np.array([
    [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
    [1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1],
], dtype=complex)

# The (control level, target level) of the cells each basis input |ct> reaches: (c, t),
# (3, t), the shelf (2, t); for control 0 the last two read |0>_c|2>_t, fed by no input: 0.
_CELLS = np.array([[(0, 0), (0, 2), (0, 2)], [(0, 1), (0, 2), (0, 2)],
                   [(1, 0), (3, 0), (2, 0)], [(1, 1), (3, 1), (2, 1)]])


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
        for name in ("control", "target"):
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
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
        }


@lru_cache(maxsize=32)
def _gate_blocks(schedule: stirap.StirapSchedule | None, params: PhysicalParams,
                 epsilon: float, n_rungs: int, /) -> tuple:
    """Read-only (blocks, ground, phases) of the four-pulse sequence, rungs 0..n_rungs-1.

    blocks[t, n] = down[n] Phi_t(n) up[n] Phi_t(n) on {|1,n>, |3,n>, |2,n+1>}
    of the control ion, for target level t (shape (4, n_rungs, 3, 3)), and
    ground[t] the phases Phi_t(n)^2 of |0,n> (shape (4, n_rungs)). Only |1>_t
    carries conditional phases; the other target levels see the bare passage
    round trip. Without a schedule the passages are the ideal ones and phases
    is None; with one, phases holds the (rung, transfer phase) pairs of the
    up passage's calibrated rungs that transfer at least PHASE_MIN_TRANSFER.
    The one cached composition that crot and the report read; the arguments
    are positional-only, so a configuration has one key.
    """
    phi = conditional_phase_factors(n_rungs + 1, epsilon)
    phases = None
    if schedule is None:
        up = down = np.broadcast_to(_IDEAL_PASSAGE, (n_rungs, 3, 3))
    else:
        up, down = stirap.passage_blocks(schedule, params, n_rungs)
        amps = stirap.transfer_amplitudes(schedule, params, n_rungs)
        amps = amps[:min(stirap.CALIBRATED_RUNGS, n_rungs - 1)]
        keep = np.abs(amps) ** 2 >= stirap.PHASE_MIN_TRANSFER
        phases = tuple(zip(np.flatnonzero(keep).tolist(),
                           stirap.transfer_phase(amps)[keep].tolist()))
    ph = np.stack((phi[:-1], phi[:-1], phi[1:]), axis=-1)
    bare = down @ up
    phased = down @ (ph[:, :, None] * up * ph[:, None, :])
    blocks = np.stack((bare, phased, bare, bare))
    ground = np.ones((4, n_rungs), dtype=complex)
    ground[1] = phi[:-1] * phi[:-1]
    blocks.flags.writeable = False
    ground.flags.writeable = False
    return blocks, ground, phases


def _check_qubits(config: GateConfig, pops: np.ndarray) -> None:
    """The gate's domain: control and target on their qubit levels, by pops, the
    population with one axis per ion and a trailing phonon axis."""
    for ion in (config.control, config.target):
        w = outside_weight(pops, ion, (2, 3))
        if w:
            raise DomainError(f"ion {ion} has population {w:.3e} outside the qubit subspace")


def _apply_gate(config: GateConfig, x: np.ndarray) -> np.ndarray:
    """The four-pulse sequence on a copy of x: one axis per ion, the phonon axis,
    then any batch axes.

    Applies the cached _gate_blocks as read-only views with the target level
    first and one broadcast axis for each spectator and batch axis: one copy
    of the input and one in-place block product on a transposed view of it,
    with the control and target axes first.
    """
    k = config.params.n_ions
    blocks, ground, _ = _gate_blocks(config.schedule, config.params, config.epsilon, x.shape[k])
    lead = (4,) + (1,) * (x.ndim - 3)  # target level, then the spectator and batch axes
    y = np.array(x, dtype=complex, order="C")
    # control, target, spectators, batch, phonon
    yc = y.transpose((config.control, config.target,
                      *(i for i in range(k) if i != config.control and i != config.target),
                      *range(k + 1, x.ndim), k))
    stirap.apply_blocks(yc, blocks.reshape(lead + blocks.shape[1:]))
    yc[0] *= ground.reshape(lead + ground.shape[1:])
    return y


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
    if isinstance(state_or_rho, CompositeState):
        x = state_or_rho.amplitudes.reshape(space.shape)
        _check_qubits(config, np.abs(x) ** 2)
        return CompositeState(space, _apply_gate(config, x).reshape(space.dim), copy=False)
    # rho -> U rho U^dagger as two applications to columns
    d = space.dim
    rho = state_or_rho.matrix
    _check_qubits(config, np.real(np.diag(rho)).reshape(space.shape))
    left = _apply_gate(config, rho.reshape(space.shape + (d,))).reshape(d, d)
    full = _apply_gate(config, left.conj().T.reshape(space.shape + (d,))).reshape(d, d)
    return DensityOperator(full.conj().T, space, validate=False)


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


def _register(n_ions: int, control: int, target: int) -> np.ndarray:
    """The four (control, target) qubit-basis inputs in one register, spectators at |0>."""
    c_stride, t_stride = 4 ** (n_ions - 1 - control), 4 ** (n_ions - 1 - target)
    register = np.zeros(4**n_ions, dtype=complex)
    register[0] = register[t_stride] = register[c_stride] = register[c_stride + t_stride] = 1.0
    return register


def _cells(config: GateConfig, space: CompositeSpace) -> np.ndarray:
    """The gate's (basis input, cell, rung) output for a unit amplitude on every rung."""
    k, d = space.n_ions, space.fock.dim
    # levels (c, t), the spectators at 0, are row c 4^(k-1-control) + t 4^(k-1-target)
    rows = _CELLS.dot((4 ** (k - 1 - config.control), 4 ** (k - 1 - config.target)))
    # one run carries all four basis inputs, since they reach disjoint cells:
    # each has a unit amplitude on every rung of its own row (c, t)
    amps = np.zeros((4**k, d), dtype=complex)
    amps[rows[:, 0]] = 1.0
    amps = crot(CompositeState(space, amps.reshape(-1), copy=False), config).amplitudes
    return amps.reshape(-1, d).take(rows, axis=0)


def gate_report(config: GateConfig, phonon_input) -> GateReport:
    """Run the gate once on all four qubit-basis columns and derive every report metric.

    The metrics read the phonon input rho only through diag rho and rho[n-1, n],
    so a Fock-diagonal rho may also be given as its states.FockWeights.
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
    phonon state: a density operator on the composite space, an array that is
    not a vector, or an input of fewer than two phonon levels.
    """
    if isinstance(phonon_input, DensityOperator):
        if isinstance(phonon_input.space, CompositeSpace):
            raise ValueError(f"phonon input has shape {phonon_input.matrix.shape} on "
                             f"{phonon_input.space}; it must be a phonon state")
        vec, entries = None, phonon_input.matrix
        diag = np.real(np.diagonal(entries))
        sup = np.ascontiguousarray(np.diagonal(entries, 1)).view(float)
    elif isinstance(phonon_input, FockWeights):  # diag rho, its coherences exactly 0
        vec = sup = None
        entries = diag = phonon_input.weights
    else:
        vec = entries = np.asarray(phonon_input, dtype=complex)
        if vec.ndim != 1:
            raise ValueError(f"phonon input has shape {vec.shape}; it must be a vector "
                             "of phonon amplitudes or a DensityOperator")
    d = len(entries)
    if d < 2:  # the phonon space below, FockSpace(d - 1), needs n_max >= 1
        raise ValueError(f"phonon input has {d} phonon level(s); it must have at least 2")
    # Every read is relative to Tr rho, so the entries are first scaled by the
    # power of two 2^-shift that brings the largest into [1/2, 1). That is exact,
    # and then no square or sum under- or overflows, whatever the input's scale.
    if vec is None:
        top = np.abs(diag).max(initial=0.0)
        if sup is not None:  # a density operator: each entry must be finite, not only those read
            top = max(top, np.abs(sup).max(initial=0.0)) if np.isfinite(entries).all() else np.nan
    else:
        parts = np.ascontiguousarray(vec).view(float)  # real and imaginary parts
        top = np.abs(parts).max(initial=0.0)
    if not math.isfinite(top):  # abs and max carry a nan or inf here without a warning
        bad = entries[~np.isfinite(entries)][0]
        raise ValueError(f"phonon input has total weight nan: an entry is {bad}; "
                         "every entry must be finite")
    shift = math.frexp(top)[1]
    # Tr rho is trace 2^exponent
    if vec is None:
        diag, exponent = np.ldexp(diag, -shift), shift
        if sup is not None:
            sup = np.ldexp(sup, -shift).view(complex)
    else:
        vec = np.ldexp(parts, -shift).view(complex)
        diag, sup = np.abs(vec) ** 2, vec[:-1] * vec[1:].conj()
        exponent = 2 * shift
    space = CompositeSpace(config.params.n_ions, FockSpace(d - 1))
    need = _REPORT_ARRAYS * 16 * space.dim  # bytes of complex128
    if need > _PHYSICAL_MEMORY:  # the operating system would kill the run without a message
        raise MemoryError(f"a report on {space.n_ions} ions and {d} phonon levels needs about "
                          f"{need / 1e9:.3g} GB ({_REPORT_ARRAYS} x 16 B x 4^{space.n_ions} x "
                          f"{d}), more than the {_PHYSICAL_MEMORY / 1e9:.3g} GB of physical "
                          "memory")
    cols = _cells(config, space)

    def fed(on_rung, below):  # (cell, rung) of a per-rung input: the shelf reads the rung below
        x = np.zeros((3, d), dtype=complex)
        x[:2] = on_rung
        if below is not None:  # else the shelf is fed 0
            x[2, 1:] = below
        return x

    # cell (j, n) is fed by input rung s(j, n): n, or n - 1 on the shelf. So
    # basis input a acts on the phonon by K_aj[n, m] = cols[a, j, n] delta(m, s(j, n)),
    # and rho enters as coherence[j, n] = rho[s, n] and weight[j, n] = rho[s, s]
    coherence = fed(diag, sup)
    overlap = np.add.reduce(cols * coherence, axis=-1)  # Tr(rho K_aj), scaled
    trace = np.add.reduce(coherence[0]).real  # the same summation, so an exact gate reads 1
    try:
        total = math.ldexp(trace, exponent)  # Tr rho itself, which may pass the float range
    except OverflowError:
        total = math.copysign(math.inf, trace)
    if not (trace > 0 and total < math.inf):
        raise ValueError(f"phonon input has total weight {total}; "
                         "it must be finite and > 0")
    restoration = np.add.reduce(np.abs(overlap) ** 2, axis=-1) / (trace * trace)
    # the least of the clipped values is the clipped least, and never -0.0 here
    worst_restoration = min(max(float(restoration.min()), 0.0), 1.0)
    pops = np.abs(cols)  # |cols|^2 weight[j, n], with weight 0 on the shelf of rung 0
    np.square(pops, out=pops)
    pops[:, :2] *= diag
    pops[:, 2, 1:] *= diag[:-1]
    pops[:, 2, 0] = 0.0
    # the worst case before the division by trace > 0, which keeps the order
    lost = np.maximum(0.0, trace - np.add.reduce(pops, axis=(1, 2)))
    lost += np.add.reduce(pops[:, 1:], axis=(1, 2))
    leakage = float(lost.max() / trace)
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
        phases = dict(_gate_blocks(config.schedule, config.params, config.epsilon, d)[2])
        if vec is not None:
            out = cols * fed(vec, vec[:-1])  # at unit size: the fourth powers stay in range
            ion = out @ out.conj().transpose(0, 2, 1)
            norm = np.maximum(ion.trace(axis1=1, axis2=2).real, 1e-300)
            purity = np.einsum("aij,aji->a", ion, ion).real / norm**2
            residue = float(np.maximum.reduce(1.0 - purity, initial=0.0))
    return GateReport(
        truth_table=table,
        qubit_fidelity=fid,
        phonon_restoration_fidelity=worst_restoration,
        leakage=leakage,
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
    ion = 0.5 * _register(config.params.n_ions, config.control, config.target)
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
