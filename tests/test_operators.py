import types

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hotgate.errors import DomainError, TruncationLeakage
from hotgate.hilbert import (
    CompositeSpace,
    CompositeState,
    DensityOperator,
    FockSpace,
    basis_state,
    compose_state,
)
from hotgate.operators import (
    PhysicalParams,
    adiabatic_down,
    adiabatic_up,
    carrier_rotation,
    chi,
    conditional_phase,
    conditional_phase_factors,
    conditional_phase_hamiltonian,
    rotation_matrix_2x2,
    tau,
)

PARAMS = PhysicalParams(eta=0.1, omega=2 * np.pi * 1e5, n_ions=2, delta=2 * np.pi * 1e7)


def random_state(space, seed, qubit_only_ions=()):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(space.shape) + 1j * rng.standard_normal(space.shape)
    for ion in qubit_only_ions:
        sl = [slice(None)] * len(space.shape)
        sl[ion] = slice(2, None)
        x[tuple(sl)] = 0.0
    x = x.reshape(space.dim)
    return CompositeState(space, x / np.linalg.norm(x), copy=False)


def unitarity_defect(mat):
    return np.max(np.abs(mat.conj().T @ mat - np.eye(mat.shape[0])))


# ---------------------------------------------------------------- coupling formulas

def test_chi_reference_value():
    assert abs(chi(PARAMS) - 10 * np.pi) < 1e-9


def test_chi_scalings():
    doubled_eta = PhysicalParams(eta=0.2, omega=PARAMS.omega, n_ions=2, delta=PARAMS.delta)
    assert abs(chi(doubled_eta) / chi(PARAMS) - 4.0) < 1e-12
    doubled_n = PhysicalParams(eta=0.1, omega=PARAMS.omega, n_ions=4, delta=PARAMS.delta)
    assert abs(chi(doubled_n) / chi(PARAMS) - 0.5) < 1e-12


def test_chi_zero_detuning_guard():
    stub = types.SimpleNamespace(eta=0.1, omega=1.0, n_ions=2, delta=0.0)
    with pytest.raises(ZeroDivisionError):
        chi(stub)


def test_tau_identity_case():
    # chi = pi exactly: eta^2 omega^2 / (N delta) = pi
    params = PhysicalParams(eta=0.1, omega=np.sqrt(np.pi * 1e4 / 0.01), n_ions=1, delta=1e4)
    assert abs(chi(params) - np.pi) < 1e-9
    assert abs(tau(params) - 1.0) < 1e-9


def test_tau_from_reference_chi():
    assert abs(tau(PARAMS) - 0.1) < 1e-12


@given(st.floats(0.01, 0.5), st.floats(1e3, 1e7), st.integers(1, 10), st.floats(1e3, 1e9))
@settings(max_examples=50, deadline=None)
def test_tau_chi_algebraic_identity(eta, omega, n_ions, delta):
    params = PhysicalParams(eta=eta, omega=omega, n_ions=n_ions, delta=delta)
    assert abs(tau(params) * chi(params) - np.pi) < 1e-9


def test_tau_negative_chi():
    # A negative detuning would give chi < 0 and no pulse duration tau, so
    # PhysicalParams refuses it before tau can be asked for.
    with pytest.raises(ValueError, match="delta must be > 0"):
        PhysicalParams(eta=0.1, omega=1e5, n_ions=2, delta=-1e7)


def test_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(eta=-0.1, omega=1.0, n_ions=2, delta=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(eta=0.1, omega=1.0, n_ions=0, delta=1.0)
    with pytest.raises(ValueError):
        PhysicalParams(eta=0.1, omega=1.0, n_ions=2, delta=0.0)
    with pytest.raises(ValueError, match="omega must be > 0"):
        PhysicalParams(eta=0.1, omega=0.0, n_ions=2, delta=1.0)


@pytest.mark.parametrize("n_ions", [2.5, 2.0, True, np.float64(2.0)],
                         ids=["2.5", "2.0", "True", "float64"])
def test_params_n_ions_is_an_integer(n_ions):
    # a float n_ions would fail only later, inside numpy
    with pytest.raises(ValueError, match="n_ions must be an integer, got"):
        PhysicalParams(eta=0.1, omega=1.0, n_ions=n_ions, delta=1.0)
    assert PhysicalParams(eta=0.1, omega=1.0, n_ions=np.int64(2), delta=1.0).n_ions == 2


# ---------------------------------------------------------------- conditional phase

def test_conditional_phase_flips_odd_excited():
    space = CompositeSpace(1, FockSpace(5))
    s = conditional_phase(0)
    out = s.apply(basis_state(space, [1], 3))
    assert out.overlap(basis_state(space, [1], 3)) == -1.0


def test_conditional_phase_ground_branch_untouched():
    space = CompositeSpace(1, FockSpace(6))
    s = conditional_phase(0)
    for n in range(7):
        st_in = basis_state(space, [0], n)
        assert np.array_equal(s.apply(st_in).amplitudes, st_in.amplitudes)


def test_conditional_phase_parity_split():
    space = CompositeSpace(1, FockSpace(7))
    rng = np.random.default_rng(5)
    phonon = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    phonon /= np.linalg.norm(phonon)
    even, odd = np.zeros_like(phonon), np.zeros_like(phonon)
    even[0::2], odd[1::2] = phonon[0::2], phonon[1::2]
    ion = np.zeros(4, dtype=complex)
    ion[1] = 1.0
    out = conditional_phase(0).apply(compose_state(space, ion, phonon))
    expected = compose_state(space, ion, even - odd)
    assert np.max(np.abs(out.amplitudes - expected.amplitudes)) == 0.0


def test_conditional_phase_squared_is_identity():
    space = CompositeSpace(2, FockSpace(9))
    s = conditional_phase(1)
    for seed in range(5):
        state = random_state(space, seed, qubit_only_ions=(1,))
        twice = s.apply(s.apply(state))
        assert np.max(np.abs(twice.amplitudes - state.amplitudes)) < 1e-12


def test_conditional_phase_commutes_with_parity_projector():
    space = CompositeSpace(1, FockSpace(8))
    s_mat = conditional_phase(0).to_matrix(space)
    # projector onto even phonon occupation
    proj = np.zeros((space.dim, space.dim), dtype=complex)
    for lvl in range(4):
        for n in range(0, 9, 2):
            i = space.encode([lvl], n)
            proj[i, i] = 1.0
    assert np.max(np.abs(s_mat @ proj - proj @ s_mat)) == 0.0
    # and with any operator diagonal in the occupation number
    rng = np.random.default_rng(6)
    diag_n = np.kron(np.eye(4), np.diag(rng.standard_normal(9))).astype(complex)
    assert np.max(np.abs(s_mat @ diag_n - diag_n @ s_mat)) == 0.0


def test_conditional_phase_domain_guard():
    space = CompositeSpace(1, FockSpace(4))
    with pytest.raises(DomainError):
        conditional_phase(0).apply(basis_state(space, [2], 1))


def test_conditional_phase_timing_error():
    space = CompositeSpace(1, FockSpace(5))
    eps = 0.02
    out = conditional_phase(0, epsilon=eps).apply(basis_state(space, [1], 3))
    expected = np.exp(-1j * np.pi * (1 + eps) * 3)
    idx = space.encode([1], 3)
    assert abs(out.amplitudes[idx] - expected) < 1e-14


def test_conditional_phase_factors_reduce_one_plus_epsilon_modulo_two():
    n = np.arange(300)
    for eps in np.linspace(-0.999, 0.999, 2001):  # 0 < 1 + eps < 2: the reduction is a no-op
        assert np.array_equal(conditional_phase_factors(300, eps),
                              np.exp(-1j * np.pi * (1.0 + eps) * n))
    assert np.array_equal(conditional_phase_factors(50, 2.5), conditional_phase_factors(50, 0.5))
    huge = conditional_phase_factors(50, 1e308)  # pi (1 + eps) alone overflows to inf
    assert np.array_equal(huge, np.ones(50))


def test_conditional_phase_factors_are_exact_signs_on_every_rung():
    # a complex power (-1+0j)**n carries imaginary parts from n = 100 on
    factors = conditional_phase_factors(10**4 + 1, 0.0)
    signs = np.where(np.arange(10**4 + 1) % 2, -1.0, 1.0)
    assert np.array_equal(factors.real, signs)
    assert np.array_equal(factors.imag, np.zeros(10**4 + 1))


def test_conditional_phase_unitary():
    space = CompositeSpace(1, FockSpace(6))
    assert unitarity_defect(conditional_phase(0).to_matrix(space)) < 1e-12


# ---------------------------------------------------------------- effective Hamiltonian

def test_hamiltonian_eigenvalues():
    space = CompositeSpace(1, FockSpace(6))
    h = conditional_phase_hamiltonian(0, PARAMS, space)
    c = chi(PARAMS)
    for n in range(7):
        assert abs(h[space.encode([1], n), space.encode([1], n)] - c * n) < 1e-9
        assert h[space.encode([0], n), space.encode([0], n)] == 0.0


@pytest.mark.parametrize("n_max", [4, 16])
def test_hamiltonian_exponential_reproduces_conditional_phase(n_max):
    space = CompositeSpace(1, FockSpace(n_max))
    h = conditional_phase_hamiltonian(0, PARAMS, space)
    u_oracle = scipy.linalg.expm(-1j * h * tau(PARAMS))
    s_mat = conditional_phase(0).to_matrix(space)
    assert np.max(np.abs(u_oracle - s_mat)) < 1e-12


# ---------------------------------------------------------------- adiabatic passage maps

def test_adiabatic_up_single_quantum():
    space = CompositeSpace(1, FockSpace(4))
    out = adiabatic_up(0).apply(basis_state(space, [1], 0))
    assert out.overlap(basis_state(space, [2], 1)) == 1.0


def test_adiabatic_up_ground_control_untouched():
    space = CompositeSpace(1, FockSpace(6))
    rng = np.random.default_rng(8)
    phonon = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    phonon /= np.linalg.norm(phonon)
    ion = np.zeros(4, dtype=complex)
    ion[0] = 1.0
    state = compose_state(space, ion, phonon)
    out = adiabatic_up(0).apply(state)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_adiabatic_up_parity_interchange():
    space = CompositeSpace(1, FockSpace(7))
    rng = np.random.default_rng(21)
    phonon = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    phonon[-1] = 0.0
    phonon /= np.linalg.norm(phonon)
    even, odd = np.zeros_like(phonon), np.zeros_like(phonon)
    even[0::2], odd[1::2] = phonon[0::2], phonon[1::2]
    ion1 = np.zeros(4, dtype=complex)
    ion1[1] = 1.0
    ion2 = np.zeros(4, dtype=complex)
    ion2[2] = 1.0
    out = adiabatic_up(0).apply(compose_state(space, ion1, even + odd))
    odd_prime = np.roll(even, 1)
    even_prime = np.roll(odd, 1)
    expected = compose_state(space, ion2, odd_prime + even_prime)
    assert np.max(np.abs(out.amplitudes - expected.amplitudes)) == 0.0
    # support patterns: image of even support is exactly odd-indexed
    up_even = adiabatic_up(0).apply(compose_state(space, ion1, even))
    phonon_out = up_even.amplitudes.reshape(4, 8)[2]
    assert not phonon_out[0::2].any()


def test_adiabatic_up_domain_and_leak_guards():
    space = CompositeSpace(1, FockSpace(3))
    with pytest.raises(DomainError):
        adiabatic_up(0).apply(basis_state(space, [2], 1))
    with pytest.raises(TruncationLeakage):
        adiabatic_up(0).apply(basis_state(space, [1], 3))


def test_adiabatic_down_removes_quantum():
    space = CompositeSpace(1, FockSpace(4))
    out = adiabatic_down(0).apply(basis_state(space, [2], 1))
    assert out.overlap(basis_state(space, [1], 0)) == 1.0


def test_adiabatic_down_inverts_up():
    space = CompositeSpace(2, FockSpace(10))
    up = adiabatic_up(0)
    down = adiabatic_down(0)
    for seed in range(5):
        state = random_state(space, seed, qubit_only_ions=(0, 1))
        x = state.tensor().copy()
        x[:, :, -1] = 0.0  # keep the boundary clear for the up map
        state = CompositeState(space, x.reshape(space.dim) / np.linalg.norm(x), copy=False)
        back = down.apply(up.apply(state))
        assert np.max(np.abs(back.amplitudes - state.amplitudes)) == 0.0


def test_adiabatic_down_gate_step_sign():
    # -|2>_c |1>_t (odd' + even') -> -|1>_c |1>_t (even + odd)
    space = CompositeSpace(2, FockSpace(7))
    rng = np.random.default_rng(3)
    phonon = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    phonon[-1] = 0.0
    phonon /= np.linalg.norm(phonon)
    even, odd = np.zeros_like(phonon), np.zeros_like(phonon)
    even[0::2], odd[1::2] = phonon[0::2], phonon[1::2]
    odd_prime = np.roll(even, 1)
    even_prime = np.roll(odd, 1)
    ion_in = np.zeros(16, dtype=complex)
    ion_in[4 * 2 + 1] = 1.0  # (2, 1)
    ion_out = np.zeros(16, dtype=complex)
    ion_out[4 * 1 + 1] = 1.0  # (1, 1)
    state = compose_state(space, ion_in, -(odd_prime + even_prime))
    out = adiabatic_down(0).apply(state)
    expected = compose_state(space, ion_out, -(even + odd))
    assert np.max(np.abs(out.amplitudes - expected.amplitudes)) == 0.0


def test_adiabatic_down_domain_guards():
    space = CompositeSpace(1, FockSpace(3))
    with pytest.raises(DomainError):
        adiabatic_down(0).apply(basis_state(space, [1], 1))
    with pytest.raises(DomainError):
        adiabatic_down(0).apply(basis_state(space, [2], 0))


def test_passage_matrices_unitary():
    space = CompositeSpace(1, FockSpace(5))
    assert unitarity_defect(adiabatic_up(0).to_matrix(space)) < 1e-12
    assert unitarity_defect(adiabatic_down(0).to_matrix(space)) < 1e-12


# ---------------------------------------------------------------- carrier rotation

def test_rotation_zero_angle_is_identity():
    space = CompositeSpace(1, FockSpace(3))
    mat = carrier_rotation(0, 0.0, 0.3).to_matrix(space)
    assert np.array_equal(mat, np.eye(space.dim))


def test_rotation_pi_exchanges_qubit_levels():
    r = rotation_matrix_2x2(np.pi, 0.0)
    expected = np.array([[0, -1j], [-1j, 0]])
    assert np.max(np.abs(r - expected)) < 1e-15


def test_rotation_unitary():
    rng = np.random.default_rng(0)
    for _ in range(10):
        theta, phi = rng.uniform(0, 2 * np.pi, 2)
        r = rotation_matrix_2x2(theta, phi)
        assert unitarity_defect(r) < 1e-14
    space = CompositeSpace(2, FockSpace(4))
    mat = carrier_rotation(1, np.pi / 2, -np.pi / 2).to_matrix(space)
    assert unitarity_defect(mat) < 1e-12


def test_rotation_leaves_other_levels_alone():
    space = CompositeSpace(1, FockSpace(3))
    r = carrier_rotation(0, 1.1, 0.7)
    for lvl in (2, 3):
        state = basis_state(space, [lvl], 2)
        assert np.array_equal(r.apply(state).amplitudes, state.amplitudes)


# ---------------------------------------------------------------- norm preservation

def test_operators_norm_preserving_on_valid_inputs():
    space = CompositeSpace(2, FockSpace(8))
    ops = [conditional_phase(1), carrier_rotation(1, 0.8, 0.2), adiabatic_up(0)]
    for seed, op in enumerate(ops):
        state = random_state(space, seed + 40, qubit_only_ions=(0, 1))
        x = state.tensor().copy()
        x[:, :, -1] = 0.0
        state = CompositeState(space, x.reshape(space.dim) / np.linalg.norm(x), copy=False)
        assert abs(op.apply(state).norm - 1.0) < 1e-12


# ---------------------------------------------------------------- ion indices

ION_OPERATORS = {
    "conditional_phase": conditional_phase,
    "adiabatic_up": adiabatic_up,
    "adiabatic_down": adiabatic_down,
    "carrier_rotation": lambda ion: carrier_rotation(ion, np.pi, 0.0),
}


@pytest.mark.parametrize("n_max", [3, 5])
@pytest.mark.parametrize("ion", [2, -1])
@pytest.mark.parametrize("name", ION_OPERATORS)
def test_ion_outside_the_register_is_refused(name, ion, n_max):
    # ion 2 of 2 would address the phonon axis, and -1 the batch axis
    space = CompositeSpace(2, FockSpace(n_max))
    state = random_state(space, 7, qubit_only_ions=(0, 1))
    before = state.amplitudes.copy()
    rho = DensityOperator(np.outer(before, before.conj()), space)
    op = ION_OPERATORS[name](ion)
    message = rf"ion {ion} outside 0\.\.1 of a register of n_ions = 2"
    for run in (lambda: op.apply(state), lambda: op.apply_density(rho),
                lambda: op.to_matrix(space)):
        with pytest.raises(IndexError, match=message):
            run()
    assert np.array_equal(state.amplitudes, before)
    if name == "conditional_phase":
        with pytest.raises(IndexError, match=message):
            conditional_phase_hamiltonian(ion, PARAMS, space)


def test_apply_density_needs_a_composite_space():
    rho = DensityOperator(np.eye(5) / 5, FockSpace(4))
    with pytest.raises(DomainError, match="needs a density operator on a CompositeSpace"):
        adiabatic_up(0).apply_density(rho)
