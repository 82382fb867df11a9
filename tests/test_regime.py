"""The paper's regime, pinned: a mode at n_bar = 10 on the 242 rungs of n_max 241.

n_max 241 is the smallest truncation whose thermal tail at n_bar = 10 weighs
less than 1e-10. The gate runs the standard margin-100, T = 1 s passage on
2000 steps there, and these tests check that its numbers are converged in
the step grid and in the truncation, that the report reads a thermal input
rung by rung, and that the ideal gate stays exact at that size.
"""
import numpy as np
import pytest

from hotgate import gate as g
from hotgate import stirap
from hotgate.operators import PhysicalParams
from hotgate.states import ThermalSpec, fock_state, thermal_probabilities, thermal_state

PARAMS = PhysicalParams(eta=0.1, omega=2 * np.pi * 1e5, n_ions=2, delta=2 * np.pi * 1e7)
N_MAX = 241
STIRAP = g.GateConfig(params=PARAMS,
                      schedule=stirap.standard_schedule(1.0, PARAMS, margin=100.0, n_steps=2000))


def blocks(n_steps):
    schedule = stirap.standard_schedule(1.0, PARAMS, margin=100.0, n_steps=n_steps)
    return stirap.block_propagators(schedule, PARAMS, np.arange(N_MAX + 1))


def test_passage_is_fourth_order_in_the_step_count_on_every_rung():
    # magnus4: the largest block error over all rungs falls 16x per halving of the step
    reference = blocks(16000)
    errors = [np.max(np.abs(blocks(n_steps) - reference)) for n_steps in (1000, 2000, 4000)]
    assert 12 <= errors[0] / errors[1] <= 20
    assert 12 <= errors[1] / errors[2] <= 20


def report_fields(report):
    """Every number of a mixed-input stirap report, table entries as real and imaginary parts."""
    return np.concatenate(([report.qubit_fidelity, report.phonon_restoration_fidelity,
                            report.leakage], report.truth_table.view(float).ravel()))


@pytest.mark.parametrize("n_bar, n_max", [(1.0, 33), (5.0, 126), (10.0, N_MAX)])
def test_report_is_converged_in_the_truncation(n_bar, n_max):
    # n_max is the smallest whose thermal tail is below 1e-10; 60 more rungs
    # move no field by more than that tail
    tail = (n_bar / (n_bar + 1.0)) ** (n_max + 1)
    assert tail < 1e-10
    report = g.gate_report(STIRAP, thermal_state(ThermalSpec(n_bar), n_max))
    larger = g.gate_report(STIRAP, thermal_state(ThermalSpec(n_bar), n_max + 60))
    assert np.max(np.abs(report_fields(report) - report_fields(larger))) <= tail
    assert report.residual_phases.keys() == larger.residual_phases.keys()
    for n, phase in report.residual_phases.items():
        assert abs(phase - larger.residual_phases[n]) <= tail


def test_thermal_fidelity_is_the_weighted_rung_fidelity():
    # the fidelity reads the input through diag rho only, so a hot input is
    # the p_n-weighted sum of its Fock rungs' fidelities
    spec = ThermalSpec(10.0)
    thermal = g.gate_report(STIRAP, thermal_state(spec, N_MAX)).qubit_fidelity
    rungs = [g.gate_report(STIRAP, fock_state(n, N_MAX)).qubit_fidelity
             for n in range(N_MAX + 1)]
    assert abs(thermal - thermal_probabilities(spec, N_MAX) @ rungs) <= 1e-14


def test_ideal_gate_is_exact_at_the_paper_truncation():
    report = g.gate_report(g.GateConfig(params=PARAMS), thermal_state(ThermalSpec(10.0), N_MAX))
    assert np.array_equal(report.truth_table, np.diag([1, 1, 1, -1]))
    assert report.qubit_fidelity == report.phonon_restoration_fidelity == 1.0
    assert report.leakage == 0.0
