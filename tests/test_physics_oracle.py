"""crot against the first-principles oracle of physics_oracle.

The oracle applies the four pulses in turn as dense operators on the full
space of 2 ions x d phonon levels, built from ladder operators and ion
projectors, with no use of the model's rung blocks. On inputs with no weight
on the top rung the two must agree to rounding.
"""
import numpy as np
import pytest

import physics_oracle as oracle
from hotgate import gate as g
from hotgate import stirap
from hotgate.hilbert import CompositeSpace, CompositeState, DensityOperator, FockSpace
from hotgate.operators import PhysicalParams

PARAMS = PhysicalParams(eta=0.1, omega=2 * np.pi * 1e5, n_ions=2, delta=2 * np.pi * 1e7)
D = 6  # phonon levels, n_max 5
SPACE = CompositeSpace(2, FockSpace(D - 1))
# short and far from adiabatic, so the passage leaves weight on every cell of its rungs
SHORT = stirap.standard_schedule(1.0, PARAMS, margin=12.0, n_steps=40)


def below_top_inputs(rng, count):
    """Random states with both ions on their qubit levels and the phonon on rungs
    0..d-2: no weight on rung n_max."""
    x = np.zeros((count, 4, 4, D), dtype=complex)
    x[:, :2, :2, :D - 1] = rng.normal(size=(count, 2, 2, D - 1, 2)) @ [1.0, 1j]
    x /= np.linalg.norm(x.reshape(count, -1), axis=1)[:, None, None, None]
    return x.reshape(count, -1)


@pytest.mark.parametrize("schedule, epsilon", [(None, 0.0), (None, 0.03), (SHORT, 0.0),
                                               (SHORT, -0.02)],
                         ids=["ideal", "ideal-epsilon", "stirap", "stirap-epsilon"])
@pytest.mark.parametrize("control, target", [(0, 1), (1, 0)])
def test_crot_is_the_four_pulses_in_turn(schedule, epsilon, control, target):
    config = g.GateConfig(params=PARAMS, control=control, target=target, schedule=schedule,
                          epsilon=epsilon)
    u = oracle.gate(config, D)
    assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) < 1e-12
    psis = below_top_inputs(np.random.default_rng([control, target, int(schedule is None)]), 3)
    for psi in psis:
        got = g.crot(CompositeState(SPACE, psi), config).amplitudes
        assert np.max(np.abs(got - u @ psi)) < 1e-10
    rho = 0.7 * np.outer(psis[0], psis[0].conj()) + 0.3 * np.outer(psis[1], psis[1].conj())
    got = g.crot(DensityOperator(rho, SPACE), config).matrix
    assert np.max(np.abs(got - u @ rho @ u.conj().T)) < 1e-10


def test_ideal_oracle_gate_is_the_controlled_phase_on_every_rung():
    # the oracle's own physics: at epsilon = 0 the ideal pulses give diag(1, 1, 1, -1)
    # on the qubits and hand back every rung below the top
    u = oracle.gate(g.GateConfig(params=PARAMS), D).reshape(4, 4, D, 4, 4, D)
    qubits = u[:2, :2, :D - 1][:, :, :, :2, :2, :D - 1]
    want = np.einsum("ab,cd,nm->acnbdm", np.eye(2), np.eye(2), np.eye(D - 1))
    want[1, 1, :, 1, 1, :] *= -1
    assert np.max(np.abs(qubits - want)) < 1e-12
