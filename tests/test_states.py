import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotgate.errors import TruncationLeakage
from hotgate.hilbert import DensityOperator
from hotgate.states import (
    ThermalSpec,
    _log_factorial,
    coherent_state,
    fock_state,
    parse_state_spec,
    random_pure_state,
    thermal_discarded_weight,
    thermal_probabilities,
    thermal_state,
)


def number_operator(n_max):
    return np.diag(np.arange(n_max + 1).astype(complex))


# ---------------------------------------------------------------- fock

def test_fock_vacuum():
    v = fock_state(0, 5)
    assert v[0] == 1.0 and np.count_nonzero(v) == 1


def test_fock_odd_occupation_is_odd_parity():
    v = fock_state(3, 6)
    assert v[1::2].any()
    assert not v[0::2].any()


def test_fock_number_expectation():
    v = fock_state(5, 10)
    # independent oracle: quadratic form with the number operator
    assert abs(np.vdot(v, number_operator(10) @ v).real - 5.0) < 1e-14


def test_fock_out_of_range():
    with pytest.raises(IndexError):
        fock_state(7, 5)


# ---------------------------------------------------------------- coherent

def test_coherent_zero_is_vacuum():
    assert np.array_equal(coherent_state(0.0, 8), fock_state(0, 8))


def test_coherent_mean_occupation():
    v = coherent_state(1.5, 32)
    assert abs(np.vdot(v, number_operator(32) @ v).real - 2.25) < 1e-6


@given(st.floats(-1.2, 1.2), st.floats(-1.2, 1.2))
@settings(max_examples=40, deadline=None)
def test_coherent_normalized(re, im):
    v = coherent_state(complex(re, im), 24)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12


@pytest.mark.parametrize("alpha", [1.5 - 2j, 26.6, 26.7, 30.0, 20.0 + 15.0j])
def test_coherent_amplitudes_are_root_poisson(alpha):
    # past |alpha|^2 of about 710 the unscaled norm would overflow to inf
    m = abs(alpha) ** 2
    unit = alpha / abs(alpha)
    oracle = np.array([math.sqrt(math.exp(n * math.log(m) - m - math.lgamma(n + 1.0)))
                       * unit**n for n in range(3001)])
    assert np.max(np.abs(coherent_state(alpha, 3000) - oracle)) <= 1e-12


def test_coherent_truncation_guard():
    with pytest.raises(TruncationLeakage):
        coherent_state(5.0, 8)


@pytest.mark.parametrize("alpha, n_max", [
    (0.0, 4), (0.3, 4), (1.5 - 2j, 20), (5.0, 64),  # |alpha|^2 well below n_max
    (20.0, 400), (np.sqrt(400.5), 400), (np.sqrt(401), 400),  # at n_max and n_max + 1
    (30.0, 400), (5.0, 8), (3.0, 1),  # above: one minus the head
    (1e-160, 4),  # |alpha|^2 subnormal
    (1e155 + 1e155j, 1),  # |alpha| finite, |alpha|^2 overflows
])
def test_coherent_state_refuses_past_poisson_tail(alpha, n_max):
    # refused exactly when the Poisson weight above n_max exceeds 1e-2, and the
    # printed weight is that tail to its 4 printed digits
    from scipy.special import gammaln

    m = abs(alpha) * abs(alpha)  # float ** would raise on overflow
    if np.isinf(m):
        tail = 1.0
    elif m:
        n = np.arange(n_max + 1, n_max + 400 + int(m + 40 * np.sqrt(m)))
        tail = np.sum(np.exp(n * np.log(m) - m - gammaln(n + 1.0)))
    else:
        tail = 0.0
    if tail <= 1e-2:
        coherent_state(alpha, n_max)
        return
    with pytest.raises(TruncationLeakage) as info:
        coherent_state(alpha, n_max)
    printed = float(re.search(r"discarded weight (\S+) exceeds", str(info.value)).group(1))
    assert abs(printed - tail) <= 5e-4 * tail


def test_log_factorial_within_4_ulp_of_gammaln():
    from scipy.special import gammaln

    n = np.arange(1501)
    exact = gammaln(n + 1.0)
    ulp = np.spacing(np.maximum(exact, np.finfo(float).tiny))
    assert np.all(np.abs(_log_factorial(n.size) - exact) <= 4 * ulp)


def test_overflowing_coherent_amplitude_is_refused():
    # |alpha|^2 overflows: the whole weight lies above any truncation
    with pytest.raises(TruncationLeakage, match="discarded weight 1.000e"):
        parse_state_spec("coherent:1e200,0", 8)


# ---------------------------------------------------------------- thermal

def test_thermal_zero_temperature():
    rho = thermal_state(ThermalSpec(0.0), 8)
    expected = np.zeros((9, 9), dtype=complex)
    expected[0, 0] = 1.0
    assert np.array_equal(rho.matrix, expected)


def test_thermal_geometric_probabilities():
    # n_bar = 1: p_n = 1/2^(n+1); normalization oracle: truncated sum -> 1
    p = thermal_probabilities(ThermalSpec(1.0), 40)
    raw = 0.5 ** (np.arange(41) + 1)
    assert abs(raw.sum() + thermal_discarded_weight(1.0, 40) - 1.0) < 1e-12
    assert abs(p[0] - 0.5) < 1e-12
    assert abs(p[1] - 0.25) < 1e-12
    assert abs(p.sum() - 1.0) < 1e-12


def test_thermal_mean_occupation_recovered():
    rho = thermal_state(ThermalSpec(2.0), 64)
    assert abs(np.trace(number_operator(64) @ rho.matrix).real - 2.0) < 1e-6


def test_thermal_commutes_with_number_operator():
    rho = thermal_state(ThermalSpec(1.5), 16)
    n_op = number_operator(16)
    comm = rho.matrix @ n_op - n_op @ rho.matrix
    assert np.count_nonzero(comm) == 0  # diagonal in the Fock basis, exactly


def test_thermal_passes_density_invariants():
    thermal_state(ThermalSpec(3.0), 48).validate()


def test_thermal_truncation_guard():
    with pytest.raises(TruncationLeakage):
        thermal_state(ThermalSpec(50.0), 8)


def test_thermal_spec_validation():
    with pytest.raises(ValueError):
        ThermalSpec(-0.5)
    with pytest.raises(ValueError):
        ThermalSpec(float("nan"))


# ---------------------------------------------------------------- random

def test_random_deterministic_per_seed():
    assert np.array_equal(random_pure_state(123, 16), random_pure_state(123, 16))
    assert not np.array_equal(random_pure_state(123, 16), random_pure_state(124, 16))


def test_random_unit_norm():
    for seed in range(20):
        assert abs(np.linalg.norm(random_pure_state(seed, 32)) - 1.0) < 1e-12


def test_random_uniform_on_average():
    n_max = 7
    dim = n_max + 1
    acc = np.zeros(dim)
    samples = 10_000
    for seed in range(samples):
        acc += np.abs(random_pure_state(seed, n_max)) ** 2
    acc /= samples
    assert np.all(np.abs(acc - 1.0 / dim) < 0.05 / dim)


# ---------------------------------------------------------------- spec strings

def test_parse_state_spec_families():
    assert np.array_equal(parse_state_spec("fock:2", 8), fock_state(2, 8))
    assert np.array_equal(parse_state_spec("coherent:1.0,0.5", 24),
                          coherent_state(1.0 + 0.5j, 24))
    rho = parse_state_spec("thermal:2.0", 32)
    assert isinstance(rho, DensityOperator)
    assert np.array_equal(parse_state_spec("random:9", 8), random_pure_state(9, 8))
    assert np.array_equal(parse_state_spec("random", 8, default_seed=9),
                          random_pure_state(9, 8))


@pytest.mark.parametrize("bad", [
    "fock:", "fock:x", "coherent:1.0", "coherent:", "thermal:", "random",
    "squeezed:1.0", "fock", "thermal:abc",
])
def test_parse_state_spec_malformed(bad):
    with pytest.raises(ValueError):
        parse_state_spec(bad, 8)
