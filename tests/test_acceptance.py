"""End-to-end acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion plus the calibrated adiabaticity margin.
"""
import time
from contextlib import contextmanager

import numpy as np
import pytest
import scipy.linalg

from hotgate.hilbert import CompositeSpace, FockSpace, compose_state
from hotgate.operators import (
    PhysicalParams,
    adiabatic_up,
    conditional_phase,
    conditional_phase_hamiltonian,
    tau,
)
from hotgate.states import ThermalSpec, coherent_state, fock_state, random_pure_state, thermal_state
from hotgate import gate as g
from hotgate import stirap

PARAMS = PhysicalParams(eta=0.1, omega=2 * np.pi * 1e5, n_ions=2, delta=2 * np.pi * 1e7)
IDEAL = g.GateConfig(params=PARAMS)

N_MAX = 32
CROT_TARGET = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)


@contextmanager
def criterion(num, name):
    try:
        yield
    except Exception:
        print(f"\n[acceptance {num}] {name}: FAIL")
        raise
    print(f"\n[acceptance {num}] {name}: PASS")


@pytest.fixture(scope="module")
def calibration():
    """Automated duration sweep shared by the transfer and round-trip criteria."""
    t0 = time.perf_counter()
    cal = stirap.calibrate_transfer(
        PARAMS, durations=[20, 40, 60, 80, 100, 120, 140], pump_peak=1.0,
        n_values=tuple(range(11)), threshold=0.999, n_steps=2000,
    )
    return cal, time.perf_counter() - t0


def test_criterion_1_truth_table_exactness():
    with criterion(1, "ideal-mode truth table exact for hot inputs"):
        inputs = [fock_state(n, N_MAX) for n in range(9)]
        inputs.append(coherent_state(1.5, N_MAX))
        inputs.extend(thermal_state(ThermalSpec(nb), N_MAX) for nb in (0.5, 2.0, 5.0))
        inputs.extend(random_pure_state(seed, N_MAX) for seed in range(20))
        t0 = time.perf_counter()
        for phonon in inputs:
            table = g.truth_table(IDEAL, phonon)
            assert np.max(np.abs(table - CROT_TARGET)) < 1e-12
            assert g.phonon_restoration(IDEAL, phonon) > 1 - 1e-12
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_2_operator_oracle_equivalence():
    with criterion(2, "dense exponential of the effective Hamiltonian matches the phase pulse"):
        for n_ions, target, n_max in ((1, 0, 64), (1, 0, 16), (2, 1, 16)):
            space = CompositeSpace(n_ions, FockSpace(n_max))
            h = conditional_phase_hamiltonian(target, PARAMS, space)
            oracle = scipy.linalg.expm(-1j * h * tau(PARAMS))
            structured = conditional_phase(target).to_matrix(space)
            assert np.max(np.abs(oracle - structured)) < 1e-12


def test_criterion_3_parity_bookkeeping():
    with criterion(3, "passage up maps even phonon support onto odd rungs exactly"):
        space = CompositeSpace(2, FockSpace(N_MAX))
        rng = np.random.default_rng(41)
        phonon = rng.standard_normal(N_MAX + 1) + 1j * rng.standard_normal(N_MAX + 1)
        even = np.zeros_like(phonon)
        even[0::2] = phonon[0::2]
        even[-1] = 0.0  # keep the ladder top clear for the up map
        even /= np.linalg.norm(even)
        ion = np.zeros(16, dtype=complex)
        ion[4 * 1 + 0] = 1.0  # control excited, target ground
        lifted = adiabatic_up(0).apply(compose_state(space, ion, even))
        phonon_out = lifted.tensor()[2, 0, :]
        assert not phonon_out[0::2].any()  # exact zeros on even occupations
        assert abs(np.linalg.norm(phonon_out) - 1.0) < 1e-12


def test_criterion_4_stirap_transfer(calibration):
    with criterion(4, "one schedule transfers every rung n=0..10 at >= 0.999"):
        cal, sweep_seconds = calibration
        t0 = time.perf_counter()
        assert cal.efficiencies.min() >= 0.999
        assert cal.n_values == tuple(range(11))
        print(f"\n  calibrated minimal adiabaticity margin M* = {cal.margin}")
        print("  sweep history (duration, margin, min efficiency):")
        for entry in cal.history:
            print(f"    T={entry[0]:>6.1f}  margin={entry[1]:>6.1f}  min_eff={entry[2]:.6f}")
        # dt-halving stability of every reported population
        halved = stirap.standard_schedule(cal.total_duration, PARAMS,
                                          pump_peak=1.0, n_steps=4000)
        p_half = stirap.block_propagators(halved, PARAMS, np.arange(11))
        p_full = stirap.block_propagators(cal.schedule, PARAMS, np.arange(11))
        assert np.max(np.abs(np.abs(p_half) ** 2 - np.abs(p_full) ** 2)) < 1e-8
        elapsed = sweep_seconds + time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f} s"


def test_criterion_5_round_trip_passage(calibration):
    with criterion(5, "passage down undoes passage up on every rung"):
        cal, _ = calibration
        for scale in (1.0, 1.4):
            up = stirap.standard_schedule(cal.total_duration * scale, PARAMS,
                                          pump_peak=1.0, n_steps=2000)
            down = stirap.reversed_schedule(up)
            p_up = stirap.block_propagators(up, PARAMS, np.arange(11))
            p_down = stirap.block_propagators(down, PARAMS, np.arange(11))
            round_trip = np.abs((p_down @ p_up)[:, 0, 0]) ** 2
            assert round_trip.min() >= 0.998, f"margin scale {scale}: {round_trip.min()}"


def test_criterion_6_mixed_state_equivalence():
    with criterion(6, "density path equals the Fock-ensemble average"):
        report = g.mixed_state_equivalence(IDEAL, ThermalSpec(1.0), n_max=N_MAX)
        assert report["max_elementwise_deviation"] < 1e-10


def test_criterion_7_cnot_correctness():
    with criterion(7, "wrapper rotations turn the gate into the CNOT permutation"):
        perm = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                        dtype=complex)
        oracle = g.cnot_matrix_oracle()
        assert np.max(np.abs(oracle - perm)) < 1e-12
        n_max = 16
        space = CompositeSpace(2, FockSpace(n_max))
        phonon = random_pure_state(2, n_max)
        achieved = np.zeros((4, 4), dtype=complex)
        for a in range(4):
            ion = np.zeros(16, dtype=complex)
            ion[4 * (a >> 1) + (a & 1)] = 1.0
            out = g.cnot(compose_state(space, ion, phonon), IDEAL)
            for b in range(4):
                ref_ion = np.zeros(16, dtype=complex)
                ref_ion[4 * (b >> 1) + (b & 1)] = 1.0
                achieved[a, b] = compose_state(space, ref_ion, phonon).overlap(out)
        achieved = achieved.T  # column a = image of basis input a
        # strip the global phase before comparing with the permutation
        phase = achieved.flat[np.argmax(np.abs(achieved))]
        achieved = achieved * (abs(phase) / phase)
        assert np.max(np.abs(achieved - perm)) < 1e-12


def test_criterion_8_timing_error_sensitivity():
    with criterion(8, "timing-error infidelity grows with occupation"):
        infidelities = []
        for n in (0, 2, 4, 8):
            cfg = g.GateConfig(params=PARAMS, epsilon=0.01)
            infidelities.append(1.0 - g.gate_fidelity(cfg, fock_state(n, 12)))
        assert all(b > a for a, b in zip(infidelities, infidelities[1:])), infidelities
