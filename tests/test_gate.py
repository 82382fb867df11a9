import functools
import json
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from hotgate.errors import AmbiguousExtraction, DomainError
from hotgate.hilbert import (
    CompositeSpace,
    CompositeState,
    DensityOperator,
    FockSpace,
    compose_density,
    compose_state,
)
from hotgate.operators import (
    IdealUnitary,
    PhysicalParams,
    adiabatic_down,
    adiabatic_up,
    conditional_phase,
)
from hotgate.states import (
    ThermalSpec,
    coherent_state,
    fock_state,
    random_pure_state,
    thermal_discarded_weight,
    thermal_state,
)
from hotgate import gate as g
from hotgate import stirap

PARAMS = PhysicalParams(eta=0.1, omega=2 * np.pi * 1e5, n_ions=2, delta=2 * np.pi * 1e7)
DETUNED = replace(PARAMS, delta_stirap=5.0)
IDEAL = g.GateConfig(params=PARAMS)


def qubit_ion_vector(c_bit, t_bit, control=0, target=1, k=2):
    idx = [0] * k
    idx[control] = c_bit
    idx[target] = t_bit
    vec = np.zeros((4,) * k, dtype=complex)
    vec[tuple(idx)] = 1.0
    return vec.reshape(-1)


def random_phonon(seed, n_max):
    return random_pure_state(seed, n_max)


def random_density(seed, n_max):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n_max + 1,) * 2) + 1j * rng.standard_normal((n_max + 1,) * 2)
    rho = m @ m.conj().T
    return DensityOperator(rho / np.trace(rho), FockSpace(n_max))


def stirap_config(margin=100.0, n_steps=2000, **kwargs):
    sched = stirap.standard_schedule(1.0, PARAMS, margin=margin, n_steps=n_steps)
    return g.GateConfig(params=PARAMS, schedule=sched, **kwargs)


# ---------------------------------------------------------------- config validation

def test_config_validation():
    with pytest.raises(ValueError):
        g.GateConfig(params=PARAMS, control=1, target=1)
    with pytest.raises(ValueError):
        g.GateConfig(params=PARAMS, control=0, target=5)
    with pytest.raises(ValueError):
        g.GateConfig(params=PARAMS,
                     schedule=stirap.reversed_schedule(stirap.standard_schedule(1.0, PARAMS)))


def test_config_mode_is_the_schedule():
    # the model is the schedule, not a second field that could disagree with it
    assert "mode" not in {f.name for f in fields(g.GateConfig)}
    assert IDEAL.mode == "ideal"
    cfg = stirap_config(n_steps=64)
    assert cfg.mode == "stirap"
    # frozen: a schedule set after construction would skip the 'up' rule
    with pytest.raises(FrozenInstanceError):
        cfg.schedule = stirap.reversed_schedule(cfg.schedule)
    with pytest.raises(FrozenInstanceError):
        cfg.schedule = None
    with pytest.raises(FrozenInstanceError):
        IDEAL.epsilon = 0.1
    assert cfg.schedule.direction == "up" and IDEAL.epsilon == 0.0


# ---------------------------------------------------------------- step table

def test_gate_step_table_on_all_basis_inputs():
    # expected action: only the doubly excited branch changes sign, the
    # phonon state comes back untouched
    n_max = 9
    space = CompositeSpace(2, FockSpace(n_max))
    phonon = random_phonon(17, n_max)
    signs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}
    for (c_bit, t_bit), sign in signs.items():
        state = compose_state(space, qubit_ion_vector(c_bit, t_bit), phonon)
        out = g.crot(state, IDEAL)
        expected = sign * state.amplitudes
        assert np.max(np.abs(out.amplitudes - expected)) == 0.0


def test_gate_parity_bookkeeping_mid_sequence():
    # after the passage up on an excited control, an even-support phonon
    # state sits entirely on odd occupations (exact zeros elsewhere)
    n_max = 11
    space = CompositeSpace(2, FockSpace(n_max))
    phonon = random_phonon(23, n_max)
    even = np.zeros_like(phonon)
    even[0::2] = phonon[0::2]
    even[-1] = 0.0
    even /= np.linalg.norm(even)
    state = compose_state(space, qubit_ion_vector(1, 1), even)
    lifted = adiabatic_up(0).apply(conditional_phase(1).apply(state))
    phonon_out = lifted.tensor()[2, 1, :]
    assert not phonon_out[0::2].any()
    assert abs(np.linalg.norm(phonon_out) - 1.0) < 1e-12


def test_crot_involution():
    n_max = 8
    space = CompositeSpace(2, FockSpace(n_max))
    for seed in range(4):
        rng = np.random.default_rng(seed)
        qubit = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        qubit /= np.linalg.norm(qubit)
        ion = sum(qubit[2 * c + t] * qubit_ion_vector(c, t)
                  for c in range(2) for t in range(2))
        state = compose_state(space, ion, random_phonon(seed + 50, n_max))
        twice = g.crot(g.crot(state, IDEAL), IDEAL)
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12


def test_crot_linearity():
    n_max = 7
    space = CompositeSpace(2, FockSpace(n_max))
    a = compose_state(space, qubit_ion_vector(1, 1), random_phonon(1, n_max))
    b = compose_state(space, qubit_ion_vector(0, 1), random_phonon(2, n_max))
    alpha, beta = 0.6 + 0.2j, -0.3 + 0.7j
    mixed = CompositeState(space, alpha * a.amplitudes + beta * b.amplitudes)
    lhs = g.crot(mixed, IDEAL).amplitudes
    rhs = alpha * g.crot(a, IDEAL).amplitudes + beta * g.crot(b, IDEAL).amplitudes
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_crot_rejects_shelved_qubits():
    space = CompositeSpace(2, FockSpace(4))
    ion = np.zeros(16, dtype=complex)
    ion[4 * 2 + 0] = 1.0  # control ion parked on the shelf
    state = compose_state(space, ion, fock_state(0, 4))
    with pytest.raises(DomainError):
        g.crot(state, IDEAL)


def test_crot_full_support_input_is_exact():
    # support up to and including n_max must survive the internal excursion
    n_max = 6
    space = CompositeSpace(2, FockSpace(n_max))
    phonon = np.ones(n_max + 1, dtype=complex) / np.sqrt(n_max + 1)
    state = compose_state(space, qubit_ion_vector(1, 1), phonon)
    out = g.crot(state, IDEAL)
    assert np.max(np.abs(out.amplitudes + state.amplitudes)) == 0.0
    assert out.norm == state.norm


# ---------------------------------------------------------------- truth table

def test_truth_table_ideal_across_input_families():
    target = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    inputs = [fock_state(0, 16), fock_state(5, 16), random_phonon(9, 16),
              thermal_state(ThermalSpec(1.0), 16)]
    for phonon in inputs:
        table = g.truth_table(IDEAL, phonon)
        assert np.max(np.abs(table - target)) < 1e-12


def test_truth_table_thermal_matches_fock_ensemble_oracle():
    from hotgate.states import thermal_probabilities

    n_max = 12
    probs = thermal_probabilities(ThermalSpec(2.0), n_max)
    oracle = np.zeros((4, 4), dtype=complex)
    for n, p in enumerate(probs):
        oracle += p * g.truth_table(IDEAL, fock_state(n, n_max))
    table = g.truth_table(IDEAL, thermal_state(ThermalSpec(2.0), n_max))
    assert np.max(np.abs(table - oracle)) < 1e-12


def test_truth_table_swap_control_target_symmetric():
    swapped = g.GateConfig(params=PARAMS, control=1, target=0)
    phonon = random_phonon(31, 10)
    t1 = g.truth_table(IDEAL, phonon)
    t2 = g.truth_table(swapped, phonon)
    assert np.max(np.abs(t1 - t2)) < 1e-12


def test_truth_table_timing_error_grows_with_occupation():
    target = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
    deviations = []
    for n in range(9):
        cfg = g.GateConfig(params=PARAMS, epsilon=0.01)
        table = g.truth_table(cfg, fock_state(n, 12))
        deviations.append(float(np.max(np.abs(table - target))))
    assert all(b > a for a, b in zip(deviations, deviations[1:]))


# ---------------------------------------------------------------- cnot

def test_cnot_flips_target_when_control_excited():
    n_max = 8
    space = CompositeSpace(2, FockSpace(n_max))
    phonon = random_phonon(3, n_max)
    state = compose_state(space, qubit_ion_vector(1, 0), phonon)
    out = g.cnot(state, IDEAL)
    expected = compose_state(space, qubit_ion_vector(1, 1), phonon)
    overlap = expected.overlap(out)
    assert abs(abs(overlap) - 1.0) < 1e-12


def test_cnot_identity_on_ground_control():
    n_max = 8
    space = CompositeSpace(2, FockSpace(n_max))
    phonon = random_phonon(4, n_max)
    rng = np.random.default_rng(12)
    tq = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    tq /= np.linalg.norm(tq)
    ion = tq[0] * qubit_ion_vector(0, 0) + tq[1] * qubit_ion_vector(0, 1)
    state = compose_state(space, ion, phonon)
    out = g.cnot(state, IDEAL)
    assert np.max(np.abs(out.amplitudes - state.amplitudes)) < 1e-12


def test_cnot_squared_is_identity():
    n_max = 6
    space = CompositeSpace(2, FockSpace(n_max))
    rng = np.random.default_rng(8)
    qubit = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    qubit /= np.linalg.norm(qubit)
    ion = sum(qubit[2 * c + t] * qubit_ion_vector(c, t) for c in range(2) for t in range(2))
    state = compose_state(space, ion, random_phonon(5, n_max))
    twice = g.cnot(g.cnot(state, IDEAL), IDEAL)
    assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12


def test_three_ion_register_spectator_untouched():
    params3 = PhysicalParams(eta=0.1, omega=2 * np.pi * 1e5, n_ions=3, delta=2 * np.pi * 1e7)
    cfg = g.GateConfig(params=params3, control=0, target=2)
    n_max = 6
    space = CompositeSpace(3, FockSpace(n_max))
    phonon = random_phonon(1, n_max)
    spectator = np.array([0.6, 0.0, 0.8, 0.0], dtype=complex)  # partly shelved
    signs = {(0, 0): 1.0, (0, 1): 1.0, (1, 0): 1.0, (1, 1): -1.0}
    for (c_bit, t_bit), sign in signs.items():
        ion = np.zeros((4, 4, 4), dtype=complex)
        ion[c_bit, :, t_bit] = spectator
        state = compose_state(space, ion.reshape(-1), phonon)
        out = g.crot(state, cfg)
        assert np.max(np.abs(out.amplitudes - sign * state.amplitudes)) == 0.0


def test_cnot_reversed_roles():
    cfg = g.GateConfig(params=PARAMS, control=1, target=0)
    n_max = 6
    space = CompositeSpace(2, FockSpace(n_max))
    phonon = random_phonon(9, n_max)
    state = compose_state(space, qubit_ion_vector(1, 0, control=1, target=0), phonon)
    out = g.cnot(state, cfg)
    expected = compose_state(space, qubit_ion_vector(1, 1, control=1, target=0), phonon)
    assert abs(abs(expected.overlap(out)) - 1.0) < 1e-12


def test_cnot_matrix_oracle_is_permutation():
    oracle = g.cnot_matrix_oracle()
    perm = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    assert np.max(np.abs(oracle - perm)) < 1e-12


def test_cnot_runs_match_matrix_oracle():
    n_max = 5
    space = CompositeSpace(2, FockSpace(n_max))
    phonon = fock_state(2, n_max)
    achieved = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        state = compose_state(space, qubit_ion_vector(a >> 1, a & 1), phonon)
        out = g.cnot(state, IDEAL)
        for b in range(4):
            ref = compose_state(space, qubit_ion_vector(b >> 1, b & 1), phonon)
            achieved[a, b] = ref.overlap(out)
    assert np.max(np.abs(achieved - g.cnot_matrix_oracle().T)) < 1e-12


# ---------------------------------------------------------------- fidelity metrics

def test_gate_fidelity_ideal_is_one():
    assert g.gate_fidelity(IDEAL, random_phonon(1, 12)) > 1 - 1e-12
    assert g.gate_fidelity(IDEAL, thermal_state(ThermalSpec(1.5), 16)) > 1 - 1e-12


def test_gate_fidelity_timing_error_analytic_oracle():
    # wrapper-phase algebra gives the infidelity in closed form
    def analytic(eps, n):
        return (np.sin(np.pi * eps * n) ** 2
                + np.sin(np.pi * eps * (2 * n + 1) / 2) ** 2
                + np.sin(np.pi * eps / 2) ** 2) / 8

    for n in (0, 2, 4, 8):
        f = g.gate_fidelity(g.GateConfig(params=PARAMS, epsilon=0.01), fock_state(n, 12))
        assert abs((1 - f) - analytic(0.01, n)) < 1e-12


def test_gate_fidelity_epsilon_ordering():
    phi = fock_state(3, 10)
    f0 = g.gate_fidelity(g.GateConfig(params=PARAMS, epsilon=0.0), phi)
    f2 = g.gate_fidelity(g.GateConfig(params=PARAMS, epsilon=0.02), phi)
    assert f2 < f0


def test_phonon_restoration_ideal():
    for seed in (0, 1):
        assert g.phonon_restoration(IDEAL, random_phonon(seed, 14)) > 1 - 1e-12


def test_gate_leakage_ideal_zero():
    assert g.gate_leakage(IDEAL, random_phonon(2, 10)) < 1e-14


# ---------------------------------------------------------------- density path

def test_mixed_state_equivalence_zero_temperature():
    report = g.mixed_state_equivalence(IDEAL, ThermalSpec(0.0), n_max=8)
    assert report["max_elementwise_deviation"] < 1e-14


def test_mixed_state_equivalence_thermal():
    report = g.mixed_state_equivalence(IDEAL, ThermalSpec(1.0), n_max=32)
    assert report["max_elementwise_deviation"] < 1e-10
    assert abs(report["trace_direct"] - 1.0) < 1e-12
    assert abs(report["trace_ensemble"] - 1.0) < 1e-12


def test_mixed_state_equivalence_repeatable():
    r1 = g.mixed_state_equivalence(IDEAL, ThermalSpec(0.5), n_max=12)
    r2 = g.mixed_state_equivalence(IDEAL, ThermalSpec(0.5), n_max=12)
    assert r1["max_elementwise_deviation"] == r2["max_elementwise_deviation"]


def test_density_path_matches_pure_path():
    n_max = 8
    space = CompositeSpace(2, FockSpace(n_max))
    phonon = random_phonon(7, n_max)
    ion = (qubit_ion_vector(1, 1) + qubit_ion_vector(0, 1)) / np.sqrt(2)
    pure_out = g.crot(compose_state(space, ion, phonon), IDEAL)
    rho_in = compose_density(np.outer(ion, ion.conj()),
                             np.outer(phonon, phonon.conj()), space)
    rho_out = g.crot(rho_in, IDEAL)
    expected = np.outer(pure_out.amplitudes, pure_out.amplitudes.conj())
    assert np.max(np.abs(rho_out.matrix - expected)) < 1e-12


# ---------------------------------------------------------------- stirap mode

def test_stirap_gate_fidelity_meets_bar():
    cfg = stirap_config(margin=100.0)
    assert g.gate_fidelity(cfg, fock_state(3, 12)) >= 0.99
    assert g.gate_fidelity(cfg, random_phonon(5, 12)) >= 0.99


def test_stirap_gate_report_fields():
    cfg = stirap_config(margin=100.0, compensate_phases=True)
    report = g.gate_report(cfg, random_phonon(6, 10))
    assert report.mode == "stirap"
    assert report.truth_table is not None
    assert report.qubit_fidelity >= 0.99
    assert report.qubit_fidelity_raw is not None
    assert abs(report.qubit_fidelity - report.qubit_fidelity_raw) < 1e-3
    assert report.phonon_restoration_fidelity >= 0.99
    assert report.leakage < 0.01
    assert set(report.residual_phases) == set(range(10))
    for phase in report.residual_phases.values():
        assert abs(abs(phase) - np.pi) < 1e-2  # each passage carries the dark-state sign
    assert report.entanglement_residue < 0.01
    doc = report.to_dict()
    assert doc["mode"] == "stirap" and doc["truth_table"] is not None


def test_stirap_gate_linearity():
    cfg = stirap_config(margin=60.0, n_steps=800)
    n_max = 6
    space = CompositeSpace(2, FockSpace(n_max))
    a = compose_state(space, qubit_ion_vector(1, 1), fock_state(1, n_max))
    b = compose_state(space, qubit_ion_vector(1, 0), fock_state(2, n_max))
    alpha, beta = 0.8, 0.6j
    mixed = CompositeState(space, alpha * a.amplitudes + beta * b.amplitudes)
    lhs = g.crot(mixed, cfg).amplitudes
    rhs = alpha * g.crot(a, cfg).amplitudes + beta * g.crot(b, cfg).amplitudes
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_stirap_weak_schedule_flags_ambiguous_table():
    cfg = stirap_config(margin=5.0, n_steps=500)
    phi = fock_state(1, 8)
    with pytest.raises(AmbiguousExtraction):
        g.truth_table(cfg, phi)
    report = g.gate_report(cfg, phi)
    assert report.table_extraction_failed and report.truth_table is None
    assert report.entanglement_residue > 0.1
    assert report.phonon_restoration_fidelity < 0.9


def test_stirap_density_input():
    cfg = stirap_config(margin=100.0)
    rho = thermal_state(ThermalSpec(0.8), 10)
    assert g.gate_fidelity(cfg, rho) >= 0.99


def test_ideal_report_serializes():
    report = g.gate_report(IDEAL, thermal_state(ThermalSpec(2.0), 16))
    doc = report.to_dict()
    assert doc["qubit_fidelity"] > 1 - 1e-12
    assert doc["residual_phases"] is None
    table = np.array([[complex(re, im) for re, im in row] for row in doc["truth_table"]])
    assert np.max(np.abs(table - np.diag([1, 1, 1, -1]))) < 1e-12
    assert doc["table_extraction_failed"] is False


@pytest.mark.parametrize("config", [IDEAL, stirap_config(margin=90.0, n_steps=300)],
                         ids=["ideal", "stirap"])
@pytest.mark.parametrize("phonon, weight", [
    (np.zeros(5), "0.0"),
    (DensityOperator(np.zeros((5, 5)), FockSpace(4), validate=False), "0.0"),
    (np.array([1.0, np.nan, 0.0, 0.0, 0.0]), "nan"),
    (DensityOperator(np.diag([np.nan, 1.0, 0.0, 0.0, 0.0]), FockSpace(4), validate=False),
     "nan"),
    # an entry that is not finite is refused before any arithmetic on it, which would warn
    (np.array([1.0, np.inf, 0.0, 0.0, 0.0]), "nan: an entry is .*inf"),
    (np.array([1.0, 0.0, complex(0.0, -np.inf), 0.0, 0.0]), "nan: an entry is .*inf"),
    (DensityOperator(np.diag([np.inf, 1.0, 0.0, 0.0, 0.0]), FockSpace(4), validate=False),
     "nan: an entry is .*inf"),
    (DensityOperator(np.diag([0.0, 0.0, 1.0, 0.0, 0.0]) + np.diag([np.inf, 0, 0, 0], 1),
                     FockSpace(4), validate=False), "nan: an entry is .*inf"),
], ids=["zero-vector", "zero-density", "nan-vector", "nan-density", "inf-vector",
        "imaginary-inf-vector", "inf-density", "inf-coherence-density"])
def test_report_refuses_an_input_without_finite_weight(config, phonon, weight):
    # every metric is read relative to Tr rho: no weight is no input, not fidelity 1
    with pytest.raises(ValueError, match=f"phonon input has total weight {weight}"):
        g.gate_report(config, phonon)
    # an input with fewer than two rungs is still refused by its size first
    with pytest.raises(ValueError, match="n_max must be >= 1"):
        g.gate_report(config, np.zeros(1))


@pytest.mark.parametrize("config", [IDEAL, stirap_config(margin=90.0, n_steps=300)],
                         ids=["ideal", "stirap"])
@pytest.mark.parametrize("phonon", [
    np.full(5, 1e154),  # each |c|^2 fits a float, their sum does not
    np.full(5, 1e155),  # |c|^2 itself does not
    DensityOperator(np.diag(np.full(5, 1e308)), FockSpace(4), validate=False),
], ids=["vector-sum", "vector-square", "density-sum"])
def test_report_refuses_a_weight_past_the_float_range(config, phonon):
    # finite entries whose weight overflows: refused by name, not by a warning
    with pytest.raises(ValueError, match="phonon input has total weight inf"):
        g.gate_report(config, phonon)


def composite_density():
    """A density operator on the ion-phonon space: |10> (x) |1>, 4 phonon rungs."""
    space = CompositeSpace(2, FockSpace(3))
    ion = np.zeros(16)
    ion[4] = 1.0  # |10>: misread as a phonon state it reads wrong numbers; |00> would not
    return compose_density(np.outer(ion, ion), np.diag([0.0, 1.0, 0.0, 0.0]), space)


@pytest.mark.parametrize("config", [IDEAL, stirap_config(margin=90.0, n_steps=300)],
                         ids=["ideal", "stirap"])
@pytest.mark.parametrize("phonon, shape", [
    (composite_density(), r"\(64, 64\) on CompositeSpace"),
    (np.eye(5) / 5, r"\(5, 5\)"),
    (np.float64(1.0), r"\(\)"),
], ids=["composite-density", "matrix", "scalar"])
def test_report_refuses_an_input_that_is_not_a_phonon_state(config, phonon, shape):
    # refused by its shape, before it is read as phonon amplitudes of some size
    with pytest.raises(ValueError, match=f"phonon input has shape {shape}"):
        g.gate_report(config, phonon)


@pytest.mark.parametrize("config", [IDEAL, stirap_config(margin=90.0, n_steps=300)],
                         ids=["ideal", "stirap"])
def test_report_reads_a_large_finite_weight(config):
    report = g.gate_report(config, np.full(5, 1e150))
    assert np.isfinite(report.qubit_fidelity) and np.isfinite(report.leakage)
    unit = g.gate_report(config, np.full(5, 1.0)).phonon_restoration_fidelity
    assert abs(report.phonon_restoration_fidelity - unit) <= 1e-15


@pytest.mark.parametrize("config", [replace(IDEAL, epsilon=0.02),
                                    stirap_config(margin=90.0, n_steps=300)],
                         ids=["ideal", "stirap"])
@pytest.mark.parametrize("density", [False, True], ids=["vector", "density"])
def test_report_restoration_is_independent_of_the_input_scale(config, density):
    # Tr rho**2 underflows for a weight below ~1e-162; the restoration is read
    # relative to the weight, so a tiny input reads what a unit one does
    def report(amplitude):
        vec = np.full(5, amplitude)
        if density:
            return g.gate_report(config, DensityOperator(np.outer(vec, vec), FockSpace(4),
                                                         validate=False))
        return g.gate_report(config, vec)

    unit = report(1.0).phonon_restoration_fidelity
    assert 0.5 < unit < 1.0
    assert report(2.0**-300).phonon_restoration_fidelity == unit  # a power of two: exact
    assert abs(report(1e-85).phonon_restoration_fidelity - unit) <= 1e-15


@pytest.mark.parametrize("config", [IDEAL, stirap_config(margin=100.0, n_steps=500)],
                         ids=["ideal", "stirap"])
@pytest.mark.parametrize("phonon", [random_phonon(3, 8), fock_state(1, 8),
                                    thermal_state(ThermalSpec(1.0), 8)],
                         ids=["random", "fock", "thermal"])
@pytest.mark.parametrize("scale", [2.0**-300, 1e-150, 1e-160, 1e-170, 1e150, 1e300])
def test_report_reads_every_field_relative_to_the_weight(config, phonon, scale):
    # a tiny weight used to read fidelity 1 and leakage ~0, and below 1e-162 an
    # underflowing square was refused as weight 0; a huge one read fidelity 0.375
    if isinstance(phonon, DensityOperator):
        scaled = DensityOperator(phonon.matrix * scale, FockSpace(8), validate=False)
    else:
        scaled = phonon * np.sqrt(scale)
    unit, report = g.gate_report(config, phonon), g.gate_report(config, scaled)
    if scale == 2.0**-300:  # a power of two: the same bits
        assert report.to_dict() == unit.to_dict()
    assert_same_report(report, unit)
    if config.mode == "ideal":  # exact at any scale
        assert np.array_equal(report.truth_table, np.diag([1, 1, 1, -1]))
        assert report.qubit_fidelity == report.phonon_restoration_fidelity == 1.0
        assert report.leakage <= 1e-15


# ---------------------------------------------------------------- four-pulse oracle

@functools.lru_cache(maxsize=None)
def dense_passage_matrix(schedule, params, d):
    return stirap.passage_matrix(schedule, params, d).reshape(4, d, 4, d)


def dense_passage(config, schedule, workspace):
    """A passage as the dense stirap.passage_matrix on (control level, phonon)."""
    mat = dense_passage_matrix(schedule, config.params, workspace.fock.dim)

    def kernel(space, x):
        xc = np.moveaxis(x, config.control, 0)
        return np.moveaxis(np.einsum("amcn,c...nb->a...mb", mat, xc, optimize=True), 0,
                           config.control)

    return IdealUnitary("dense passage", kernel)


def oracle_crot(state_or_rho, config):
    """The gate as its four pulses applied in turn, on a Fock space one rung larger."""
    space = state_or_rho.space
    d = space.fock.dim
    workspace = CompositeSpace(space.n_ions, FockSpace(d))
    keep = (np.arange(4**space.n_ions)[:, None] * (d + 1) + np.arange(d)).reshape(-1)
    phase = conditional_phase(config.target, config.epsilon)
    if config.mode == "ideal":
        up, down = adiabatic_up(config.control), adiabatic_down(config.control)
    else:
        up = dense_passage(config, config.schedule, workspace)
        down = dense_passage(config, stirap.reversed_schedule(config.schedule), workspace)
    pulses = (phase, up, phase, down)
    if isinstance(state_or_rho, CompositeState):
        amps = np.zeros(workspace.dim, dtype=complex)
        amps[keep] = state_or_rho.amplitudes
        cur = CompositeState(workspace, amps)
        for pulse in pulses:
            cur = pulse.apply(cur)
        return CompositeState(space, cur.amplitudes[keep])
    mat = np.zeros((workspace.dim, workspace.dim), dtype=complex)
    mat[np.ix_(keep, keep)] = state_or_rho.matrix
    cur = DensityOperator(mat, workspace, validate=False)
    for pulse in pulses:
        cur = pulse.apply_density(cur)
    return DensityOperator(cur.matrix[np.ix_(keep, keep)], space, validate=False)


FIDELITY_PROBES = [np.eye(4)[a] for a in range(4)] + [
    np.array(v) / np.sqrt(2.0) for v in ([1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 0, 0], [0, 0, 1, 1])
]


def oracle_register(config, coeffs):
    """Ion-register vector carrying (control, target) qubit coefficients."""
    return sum(coeffs[2 * c + t] * qubit_ion_vector(c, t, config.control, config.target,
                                                    config.params.n_ions)
               for c in range(2) for t in range(2))


def oracle_fidelity(config, phonon_input):
    """The eight-probe qubit fidelity of oracle_crot runs, as a function of a Z
    rotation exp(-i phi) on the control's |1> applied to the gate's output;
    phi may be an array."""
    mixed = isinstance(phonon_input, DensityOperator)
    d = phonon_input.dim if mixed else len(phonon_input)
    space = CompositeSpace(config.params.n_ions, FockSpace(d - 1))

    register = functools.partial(oracle_register, config)

    runs = []  # (ideal output, ion state with the phonon traced out) per probe
    for coeffs in FIDELITY_PROBES:
        ion = register(coeffs)
        if mixed:
            rho_in = compose_density(np.outer(ion, ion.conj()), phonon_input.matrix, space)
            out = oracle_crot(rho_in, config).matrix.reshape(len(ion), d, len(ion), d)
            rho_ion = np.einsum("anbn->ab", out)
        else:
            x = oracle_crot(compose_state(space, ion, phonon_input), config).amplitudes
            x = x.reshape(-1, d)
            rho_ion = x @ x.conj().T
        runs.append((register(np.diag([1, 1, 1, -1]) @ coeffs), rho_ion))
    # exp(-i phi) on every ion cell with the control on |1>
    on_one = np.moveaxis(np.zeros((4,) * space.n_ions), config.control, 0)
    on_one[1] = 1.0
    on_one = np.moveaxis(on_one, 0, config.control).reshape(-1)

    def fidelity(phi):  # phi a number or an array of them
        total = 0.0
        for target, rho_ion in runs:
            # <target| F rho F^dagger |target> for F = exp(-i phi) on the control's |1>
            turned = np.exp(1j * np.multiply.outer(phi, on_one)) * target
            value = np.einsum("...i,ij,...j->...", turned.conj(), rho_ion, turned)
            total = total + np.clip(np.real(value), 0.0, 1.0)
        return total / len(FIDELITY_PROBES)

    return fidelity


def best_phase_fidelity(fidelity):
    """max over phi of fidelity(phi): a 64-point scan, then a bounded search
    within one scan step of the best point."""
    grid = np.linspace(-np.pi, np.pi, 65)
    best = grid[np.argmax([fidelity(phi) for phi in grid])]
    step = grid[1] - grid[0]
    found = minimize_scalar(lambda phi: -fidelity(phi), bounds=(best - step, best + step),
                            method="bounded", options={"xatol": 1e-10})
    return -found.fun


def oracle_report(config, phonon_input):
    """Report fields from per-basis-input loops over oracle_crot runs.

    A pure input is scored by its returned phonon state; a mixed input rho by
    the Kraus operators of the dense gate and a run on |a><a| (x) rho.
    """
    mixed = isinstance(phonon_input, DensityOperator)
    d = phonon_input.dim if mixed else len(phonon_input)
    space = CompositeSpace(config.params.n_ions, FockSpace(d - 1))
    stirap_mode = config.mode == "stirap"

    register = functools.partial(oracle_register, config)

    def outside(pops):  # weight of the control and target outside the qubit levels
        return sum(np.moveaxis(pops, ion, 0)[2:].sum() for ion in (config.control, config.target))

    table = np.zeros((4, 4), dtype=complex)
    restoration, leakage, residue = 1.0, 0.0, 0.0
    if mixed:
        rho = phonon_input.matrix
        trace = np.real(np.trace(rho))
        cells = [int(np.flatnonzero(register(np.eye(4)[b]))[0]) for b in range(4)]
        for a in range(4):
            ion = register(np.eye(4)[a])
            # Kraus operators K_aj[n, m] = <j, n| U |a, m> over all 16 ion outputs j
            kraus = np.stack([
                oracle_crot(compose_state(space, ion, fock_state(m, d - 1)), config)
                .amplitudes.reshape(-1, d) for m in range(d)], axis=-1)
            traces = np.einsum("jnm,mn->j", kraus, rho)
            restoration = min(restoration,
                              np.clip(np.sum(np.abs(traces) ** 2) / trace**2, 0.0, 1.0))
            table[a] = traces[cells]
            out = oracle_crot(compose_density(np.outer(ion, ion.conj()), rho, space), config)
            pops = np.real(np.diagonal(out.matrix)).reshape(space.shape)
            leakage = max(leakage, max(0.0, trace - pops.sum()) + outside(pops))
    else:
        phonon = phonon_input
        for a in range(4):
            out = oracle_crot(compose_state(space, register(np.eye(4)[a]), phonon), config)
            x = out.amplitudes.reshape(-1, d)
            rho_phonon = x.T @ x.conj()
            restoration = min(restoration,
                              np.clip(np.real(np.vdot(phonon, rho_phonon @ phonon)), 0.0, 1.0))
            pops = np.abs(out.tensor()) ** 2
            leakage = max(leakage, max(0.0, 1.0 - pops.sum()) + outside(pops))
            rho_ion = x @ x.conj().T
            purity = np.real(np.trace(rho_ion @ rho_ion)) / np.real(np.trace(rho_ion)) ** 2
            residue = max(residue, 1.0 - purity)
            for b in range(4):
                ref = compose_state(space, register(np.eye(4)[b]), phonon)
                table[a, b] = ref.overlap(out)

    fidelity = oracle_fidelity(config, phonon_input)
    compensated = config.compensate_phases
    phases = None
    if stirap_mode:
        props = stirap.block_propagators(config.schedule, config.params,
                                         np.arange(min(11, d - 1)))
        # phases in (-pi, pi]: a rounding-level negative imaginary part reads as pi
        phases = {n: np.pi if np.angle(p[2, 0]) == -np.pi else np.angle(p[2, 0])
                  for n, p in enumerate(props) if abs(p[2, 0]) ** 2 >= 0.5}
    return {
        "truth_table": None if stirap_mode and restoration < g.MIN_RESTORATION_FOR_TABLE
        else table,
        "qubit_fidelity": best_phase_fidelity(fidelity) if compensated else fidelity(0.0),
        "qubit_fidelity_raw": fidelity(0.0) if compensated else None,
        "phonon_restoration_fidelity": restoration,
        "leakage": leakage,
        "entanglement_residue": residue if stirap_mode and not mixed else None,
        "residual_phases": phases,
    }


ORACLE_CONFIGS = {
    "ideal": IDEAL,
    "ideal-timing-error": g.GateConfig(params=PARAMS, epsilon=0.013),
    "ideal-compensated": g.GateConfig(params=PARAMS, epsilon=0.013, compensate_phases=True),
    "stirap-compensated": g.GateConfig(
        # a detuned intermediate level gives the round trip a phase to correct
        params=DETUNED, epsilon=0.004, compensate_phases=True,
        schedule=stirap.standard_schedule(1.0, DETUNED, margin=100.0, n_steps=400)),
    "stirap-swapped-roles": stirap_config(margin=60.0, n_steps=300, control=1, target=0),
    "stirap-weak": stirap_config(margin=5.0, n_steps=300),
    "stirap-three-ions": g.GateConfig(
        params=replace(DETUNED, n_ions=3), control=2, target=0, epsilon=0.004,
        compensate_phases=True,
        schedule=stirap.standard_schedule(1.0, replace(DETUNED, n_ions=3), margin=60.0,
                                          n_steps=300)),
}


@pytest.mark.parametrize("name", sorted(ORACLE_CONFIGS))
def test_block_gate_matches_four_pulse_oracle(name):
    config = ORACLE_CONFIGS[name]
    n_max = 8
    space = CompositeSpace(config.params.n_ions, FockSpace(n_max))
    rng = np.random.default_rng(5)
    qubit = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    qubit /= np.linalg.norm(qubit)
    ion = oracle_register(config, qubit)
    pure = random_phonon(12, n_max)
    # a rank-one density must read the same as its vector
    inputs = [fock_state(3, n_max), pure, thermal_state(ThermalSpec(1.0), n_max),
              DensityOperator(np.outer(pure, pure.conj()), FockSpace(n_max))]
    reports = []
    for phonon in inputs:
        if isinstance(phonon, DensityOperator):
            rho = compose_density(np.outer(ion, ion.conj()), phonon.matrix, space)
            got, want = g.crot(rho, config).matrix, oracle_crot(rho, config).matrix
        else:
            state = compose_state(space, ion, phonon)
            got, want = g.crot(state, config).amplitudes, oracle_crot(state, config).amplitudes
        assert np.max(np.abs(got - want)) <= 1e-12

        report = g.gate_report(config, phonon)
        reports.append(report)
        expected = oracle_report(config, phonon)
        for field, value in expected.items():
            actual = getattr(report, field)
            if value is None or actual is None:
                assert value is None and actual is None, field
            elif field == "residual_phases":
                assert set(actual) == set(value)
                assert all(abs(actual[n] - value[n]) <= 1e-12 for n in value)
            else:
                assert np.max(np.abs(np.asarray(actual) - value)) <= 1e-12, field
    # the residue is reported for pure inputs only
    assert_same_report(reports[3], reports[1], skip=("entanglement_residue",))


# ---------------------------------------------------------------- phase compensation

def detuned_config(detuning, **kwargs):
    params = replace(PARAMS, delta_stirap=detuning)
    sched = stirap.standard_schedule(1.0, params, margin=100.0, n_steps=400)
    return g.GateConfig(params=params, schedule=sched, compensate_phases=True, **kwargs)


@pytest.mark.parametrize("detuning", [100.0, 300.0])
@pytest.mark.parametrize("phonon", [
    thermal_state(ThermalSpec(0.5), 8), coherent_state(1.0, 8), random_phonon(3, 8),
], ids=["thermal", "coherent", "random"])
def test_compensation_is_the_best_z_rotation(detuning, phonon):
    # one Z rotation on the control, at the best point of a dense phi scan of
    # the oracle, refined on a second scan around it
    config = detuned_config(detuning)
    fidelity = oracle_fidelity(config, phonon)
    grid = np.linspace(-np.pi, np.pi, 20001)
    best = grid[np.argmax(fidelity(grid))]
    fine = np.linspace(best - (grid[1] - grid[0]), best + (grid[1] - grid[0]), 2001)
    report = g.gate_report(config, phonon)
    assert report.qubit_fidelity > report.qubit_fidelity_raw
    assert abs(report.qubit_fidelity - np.max(fidelity(fine))) <= 1e-9


@given(detuning=st.floats(-500.0, 500.0), margin=st.floats(20.0, 200.0),
       epsilon=st.floats(-0.1, 0.1), seed=st.integers(0, 2**32 - 1),
       n_max=st.integers(1, 8), swapped=st.booleans(), fock=st.booleans())
@example(detuning=300.0, margin=50.0, epsilon=0.0, seed=2, n_max=4, swapped=False, fock=True)
@settings(max_examples=50, deadline=None)
def test_compensation_never_lowers_the_fidelity(detuning, margin, epsilon, seed, n_max, swapped,
                                                fock):
    # phi = 0 is one of the rotations the compensation chooses from; a Fock
    # input takes its occupation from the seed
    params = replace(PARAMS, delta_stirap=detuning)
    sched = stirap.standard_schedule(1.0, params, margin=margin, n_steps=200)
    config = g.GateConfig(params=params, schedule=sched, epsilon=epsilon,
                          compensate_phases=True, control=int(swapped), target=1 - swapped)
    phonon = fock_state(seed % (n_max + 1), n_max) if fock else random_phonon(seed, n_max)
    report = g.gate_report(config, phonon)
    assert report.qubit_fidelity >= report.qubit_fidelity_raw - 1e-15


@pytest.mark.parametrize("epsilon", [0.013, -0.2, 0.5])
def test_ideal_compensation_undoes_half_the_timing_error(epsilon):
    # every rung's |+>_c|1>_t probe carries the same extra phase pi eps, and the
    # best rotation splits it with the |+>_c|0>_t probe: phi = -pi eps / 2
    config = g.GateConfig(params=PARAMS, epsilon=epsilon, compensate_phases=True)
    for phonon in (thermal_state(ThermalSpec(1.0), 8), random_phonon(2, 8)):
        report = g.gate_report(config, phonon)
        fidelity = oracle_fidelity(config, phonon)
        assert abs(report.qubit_fidelity_raw - fidelity(0.0)) <= 1e-12
        assert abs(report.qubit_fidelity - fidelity(-np.pi * epsilon / 2)) <= 1e-12


def test_resonant_passage_needs_no_compensation():
    # the calibrated resonant round trip is real on every rung: no phase to correct
    for config in (stirap_config(compensate_phases=True),
                   stirap_config(compensate_phases=True, control=1, target=0)):
        for phonon in (fock_state(3, 12), random_phonon(5, 12),
                       thermal_state(ThermalSpec(1.0), 12), coherent_state(1.0, 12)):
            report = g.gate_report(config, phonon)
            assert report.qubit_fidelity == report.qubit_fidelity_raw


def test_compensated_report_reads_no_extra_passage(monkeypatch):
    calls = []
    original = stirap.passage_blocks

    def counting(*args):
        calls.append(args[0])
        return original(*args)

    monkeypatch.setattr(stirap, "passage_blocks", counting)
    config = detuned_config(100.0, epsilon=0.01)
    counts = []
    for compensate in (False, True):
        calls.clear()
        original.cache_clear()
        g._gate_blocks.cache_clear()
        g.gate_report(replace(config, compensate_phases=compensate),
                      thermal_state(ThermalSpec(0.5), 8))
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.fixture
def passage_builds(monkeypatch):
    """Directions of the block_propagators builds a test makes."""
    builds = []
    original = stirap.block_propagators

    def counting(*args, **kwargs):
        builds.append(args[0].direction)
        return original(*args, **kwargs)

    monkeypatch.setattr(stirap, "block_propagators", counting)
    return builds


def test_passage_built_once_per_schedule(passage_builds):
    cfg = stirap_config(margin=90.0, n_steps=300, compensate_phases=True)
    phonon = thermal_state(ThermalSpec(0.5), 8)
    g.gate_report(cfg, phonon)
    assert passage_builds == ["up"]  # mirrored pulses: the down passage is up^T
    g.gate_report(cfg, random_phonon(3, 8))
    g.gate_report(IDEAL, phonon)
    assert len(passage_builds) == 1


@pytest.mark.parametrize("pump", [
    stirap.PulseEnvelope(90.0, center=0.72, width=0.5),  # centers sum past T
    stirap.PulseEnvelope(90.0, center=0.7, width=0.45),  # narrower than Stokes
], ids=["shifted", "width"])
def test_unmirrored_pulses_build_both_passages(passage_builds, pump):
    stokes = stirap.PulseEnvelope(900.0, center=0.3, width=0.5)
    sched = stirap.StirapSchedule(pump, stokes, 1.0, 300)
    cfg = g.GateConfig(params=PARAMS, schedule=sched)
    g.gate_report(cfg, fock_state(1, 8))
    assert sorted(passage_builds) == ["down", "up"]


@pytest.mark.parametrize("config", [
    IDEAL, stirap_config(margin=90.0, n_steps=300, epsilon=0.01),
], ids=["ideal", "stirap"])
def test_second_report_composes_no_gate_blocks(passage_builds, config):
    phonon = thermal_state(ThermalSpec(0.5), 8)
    g.gate_report(config, phonon)
    builds = list(passage_builds)
    g.gate_report(config, phonon)
    assert g._gate_blocks.cache_info().misses == 1
    assert passage_builds == builds


@pytest.mark.parametrize("config", [
    IDEAL, replace(IDEAL, epsilon=0.02, control=1, target=0),
    stirap_config(margin=90.0, n_steps=300, epsilon=0.01),
], ids=["ideal", "ideal-epsilon", "stirap"])
def test_warm_report_equals_cold_report(config):
    for phonon in (fock_state(3, 8), random_phonon(4, 8), thermal_state(ThermalSpec(1.0), 8)):
        g._gate_blocks.cache_clear()
        cold = g.gate_report(config, phonon).to_dict()
        assert g.gate_report(config, phonon).to_dict() == cold


@pytest.mark.parametrize("schedule", [None, stirap_config(n_steps=300).schedule],
                         ids=["ideal", "stirap"])
def test_gate_blocks_are_read_only(schedule):
    blocks, ground = g._gate_blocks(schedule, PARAMS, 0.01, 5)
    assert blocks.shape == (4, 5, 3, 3) and ground.shape == (4, 6)
    for cached in (blocks, ground):
        with pytest.raises(ValueError):
            cached[0] = 0.0


def test_gate_blocks_is_positional_only():
    # a keyword call would key the cache apart from the positional one
    with pytest.raises(TypeError):
        g._gate_blocks(None, PARAMS, 0.0, n_rungs=3)


def register_gather(config, d):
    """The report's (basis input, cell, rung) columns read through a register
    tensor with the control and target axes moved first."""
    k = config.params.n_ions

    def cells(x):  # the control and target axes first, the spectators at level 0
        x = np.moveaxis(x, (config.control, config.target), (0, 1))
        return x[(slice(None), slice(None)) + (0,) * (k - 2)]

    register = np.zeros((4,) * k, dtype=complex)
    cells(register)[:2, :2] = 1.0
    space = CompositeSpace(k, FockSpace(d - 1))
    x = cells(g.crot(compose_state(space, register.reshape(-1), np.ones(d)), config).tensor())
    cols = np.zeros((4, 3, d), dtype=complex)
    cols[:2, 0] = x[0, :2]
    cols[2:] = np.moveaxis(x[[1, 3, 2], :2], 1, 0)
    return register.reshape(-1), cols


@pytest.mark.parametrize("k", [2, 3, 4])
def test_report_layout_gathers_the_register_cells(k):
    params = replace(DETUNED, n_ions=k)
    schedule = stirap.standard_schedule(1.0, params, margin=60.0, n_steps=200)
    for control, target in ((c, t) for c in range(k) for t in range(k) if c != t):
        config = g.GateConfig(params=params, control=control, target=target, epsilon=0.01,
                              schedule=schedule)
        for d in (2, 9):
            register, index = g._report_layout(k, control, target, d)
            want_register, want = register_gather(config, d)
            space = CompositeSpace(k, FockSpace(d - 1))
            cols = g.crot(compose_state(space, register, np.ones(d)), config).amplitudes[index]
            assert index.shape == (4, 3, d)
            # bit for bit, signed zeros too
            assert register.tobytes() == want_register.tobytes()
            assert cols.tobytes() == want.tobytes()


def test_report_layout_is_read_only_and_positional_only():
    register, index = g._report_layout(3, 2, 0, 5)
    for cached in (register, index):
        with pytest.raises(ValueError):
            cached[0] = 0
    # a keyword call would key the cache apart from the positional one
    with pytest.raises(TypeError):
        g._report_layout(3, 2, 0, d=5)


def test_second_report_on_a_layout_adds_no_cache_entry():
    # the block caches start cold in every test, and so does the layout's
    assert g._report_layout.cache_info().currsize == 0
    g.gate_report(IDEAL, fock_state(3, 8))
    g.gate_report(replace(IDEAL, epsilon=0.01), thermal_state(ThermalSpec(1.0), 8))
    g.gate_report(stirap_config(margin=90.0, n_steps=300), random_phonon(2, 8))
    info = g._report_layout.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 2)
    g.gate_report(replace(IDEAL, control=1, target=0), fock_state(3, 8))
    g.gate_report(IDEAL, fock_state(3, 9))
    assert g._report_layout.cache_info().currsize == 3


def test_to_dict_table_is_the_entry_list():
    report = g.gate_report(IDEAL, fock_state(1, 4))
    tiny = np.nextafter(0.0, 1.0)  # the smallest subnormal
    report.truth_table = np.array([
        [1.0, -0.0, complex(0.0, -0.0), complex(-0.0, -0.0)],
        [tiny, complex(-tiny, 2.5e-310), -1.0, 0.5 + 0.25j],
        [complex(1e300, -1e-300), np.pi, -np.e, 1j],
        [0.0, complex(0.0, tiny), -2.0**-1074, complex(-1.0, 1e-17)],
    ])
    want = [[[float(z.real), float(z.imag)] for z in row] for row in report.truth_table]
    got = report.to_dict()["truth_table"]
    assert all(type(x) is float for row in got for z in row for x in z)
    # json spells -0.0 and every subnormal apart from its neighbours
    assert json.dumps(got) == json.dumps(want)


@pytest.mark.parametrize("config", [
    IDEAL, stirap_config(margin=90.0, n_steps=300, compensate_phases=True),
], ids=["ideal", "stirap"])
def test_report_runs_gate_once(monkeypatch, config):
    calls = []

    def counted(name):
        original = getattr(g, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(g, name, wrapper)

    counted("crot")
    counted("compose_state")
    for phonon in (fock_state(3, 8), thermal_state(ThermalSpec(1.0), 8)):
        calls.clear()
        g.gate_report(config, phonon)
        assert sorted(calls) == ["compose_state", "crot"]


def assert_same_report(got, want, skip=()):
    got, want = got.__dict__, want.__dict__
    assert set(got) == set(want)
    for field, value in want.items():
        if field in skip:
            continue
        if isinstance(value, dict):
            assert set(got[field]) == set(value), field
            assert all(abs(got[field][n] - value[n]) <= 1e-14 for n in value), field
        elif value is None or isinstance(value, (bool, str)):
            assert got[field] == value, field
        else:
            assert np.max(np.abs(np.asarray(got[field]) - value)) <= 1e-14, field


def spectator_configs(k, control, target):
    params = PhysicalParams(eta=0.1, omega=2 * np.pi * 1e5, n_ions=k, delta=2 * np.pi * 1e7,
                            delta_stirap=5.0)
    sched = stirap.standard_schedule(1.0, params, margin=100.0, n_steps=400)
    return [
        g.GateConfig(params=params, control=control, target=target, epsilon=0.013),
        g.GateConfig(params=params, control=control, target=target,
                     schedule=sched, epsilon=0.004, compensate_phases=True),
    ]


@pytest.mark.parametrize("k, control, target", [(3, 2, 0), (5, 1, 3)])
def test_report_independent_of_spectators(k, control, target):
    n_max = 8
    inputs = [fock_state(5, n_max), random_phonon(4, n_max), thermal_state(ThermalSpec(1.0), n_max)]
    for base, config in zip(spectator_configs(2, 0, 1), spectator_configs(k, control, target)):
        for phonon in inputs:
            assert_same_report(g.gate_report(config, phonon), g.gate_report(base, phonon))


@pytest.mark.parametrize("config", [
    IDEAL, stirap_config(margin=90.0, n_steps=300),
], ids=["ideal", "stirap"])
def test_report_needs_no_eigendecomposition(monkeypatch, config):
    inputs = (thermal_state(ThermalSpec(1.0), 8), random_density(4, 8))

    def refuse(*args, **kwargs):
        raise AssertionError("the report must not diagonalize its input")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    for phonon in inputs:
        report = g.gate_report(config, phonon)
        assert report.truth_table is not None and 0.9 < report.phonon_restoration_fidelity <= 1


@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 3))
@settings(max_examples=25, deadline=None)
def test_mixed_metrics_independent_of_degenerate_eigenbasis(seed, levels):
    # rho = V diag(p) V^dagger with p taking `levels` distinct values; a unitary
    # acting inside each degenerate eigenspace leaves rho unchanged
    n_max = 7
    rng = np.random.default_rng(seed)
    groups = np.sort(rng.choice(np.arange(1, n_max + 1), levels - 1, replace=False))
    p = np.repeat(rng.uniform(0.2, 1.0, levels), np.diff(np.r_[0, groups, n_max + 1]))
    p /= p.sum()

    def unitary(n):
        q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        return q * (np.diag(r) / np.abs(np.diag(r)))

    v = unitary(n_max + 1)
    w = np.zeros_like(v)
    for lo, hi in zip(np.r_[0, groups], np.r_[groups, n_max + 1]):
        w[lo:hi, lo:hi] = unitary(hi - lo)
    rhos = [DensityOperator((u * p) @ u.conj().T, FockSpace(n_max), validate=False)
            for u in (v, v @ w)]
    for name in ("ideal-timing-error", "stirap-compensated"):
        a, b = (g.gate_report(ORACLE_CONFIGS[name], rho) for rho in rhos)
        assert abs(a.phonon_restoration_fidelity - b.phonon_restoration_fidelity) <= 1e-12
        assert abs(a.leakage - b.leakage) <= 1e-12


def test_thermal_metrics_converge_in_n_max():
    # raising n_max moves restoration and leakage by no more than the thermal
    # weight the smaller truncation dropped
    config = stirap_config(margin=100.0)
    for n_max in (12, 16):
        small, large = (g.gate_report(config, thermal_state(ThermalSpec(1.0), n))
                        for n in (n_max, n_max + 4))
        tail = thermal_discarded_weight(1.0, n_max)
        assert abs(small.phonon_restoration_fidelity - large.phonon_restoration_fidelity) <= tail
        assert abs(small.leakage - large.leakage) <= tail
