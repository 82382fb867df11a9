import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hotgate.errors import ShapeError
from hotgate.hilbert import (
    CompositeSpace,
    CompositeState,
    DensityOperator,
    FockSpace,
    basis_state,
    compose_density,
    compose_state,
    partial_trace_phonon,
)


def random_vector(seed, dim):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(seed, dim):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    m = a @ a.conj().T
    return m / np.trace(m)


# ---------------------------------------------------------------- indexing

def test_encode_all_zero_index():
    assert CompositeSpace(2, FockSpace(4)).encode([0, 0], 0) == 0


def test_encode_decode_round_trip():
    space = CompositeSpace(2, FockSpace(8))
    assert space.decode(space.encode([1, 2], 5)) == ([1, 2], 5)


def test_composite_space_refuses_a_dimension_no_array_can_hold():
    assert CompositeSpace(28, FockSpace(4)).dim == 5 * 4**28  # a size, no allocation
    with pytest.raises(MemoryError, match="29 ions and 5 phonon levels"):
        CompositeSpace(29, FockSpace(4))


def test_encode_is_permutation_k1():
    space = CompositeSpace(1, FockSpace(2))
    indices = [space.encode([lvl], n) for lvl in range(4) for n in range(3)]
    assert sorted(indices) == list(range(12))


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n_max", list(range(1, 9)))
def test_encode_decode_bijective_exhaustive(k, n_max):
    space = CompositeSpace(k, FockSpace(n_max))
    seen = set()
    levels_grid = [[a] for a in range(4)] if k == 1 else [[a, b] for a in range(4) for b in range(4)]
    for levels in levels_grid:
        for n in range(n_max + 1):
            idx = space.encode(levels, n)
            assert 0 <= idx < space.dim
            assert space.decode(idx) == (levels, n)
            seen.add(idx)
    assert len(seen) == space.dim


def test_encode_out_of_range():
    space = CompositeSpace(2, FockSpace(3))
    with pytest.raises(IndexError):
        space.encode([4, 0], 0)
    with pytest.raises(IndexError):
        space.encode([0, 0], 4)
    with pytest.raises(IndexError):
        space.decode(space.dim)
    with pytest.raises(IndexError, match="expected 2 ion levels, got 1"):
        space.encode([0], 0)


@pytest.mark.parametrize("value", [2.5, 2.0, True, np.float64(2.0)],
                         ids=["2.5", "2.0", "True", "float64"])
def test_sizes_are_integers(value):
    # a float size would make FockSpace.dim fractional
    with pytest.raises(ValueError, match="n_max must be an integer, got"):
        FockSpace(value)
    with pytest.raises(ValueError, match="n_ions must be an integer, got"):
        CompositeSpace(value, FockSpace(3))
    assert CompositeSpace(np.int64(2), FockSpace(np.int64(3))).dim == 64


def test_composite_space_needs_an_ion():
    with pytest.raises(ValueError, match="n_ions must be >= 1, got 0"):
        CompositeSpace(0, FockSpace(3))


# ---------------------------------------------------------------- states & densities

def test_composite_state_shape_guard():
    space = CompositeSpace(2, FockSpace(3))
    with pytest.raises(ShapeError):
        CompositeState(space, np.zeros(5, dtype=complex))
    with pytest.raises(ShapeError, match="ion vector has shape"):
        compose_state(space, np.ones(4), np.ones(4))
    with pytest.raises(ShapeError, match="phonon vector has shape"):
        compose_state(space, np.ones(16), np.ones(3))


def test_basis_state_and_overlap():
    space = CompositeSpace(2, FockSpace(4))
    a = basis_state(space, [1, 0], 2)
    b = basis_state(space, [1, 0], 2)
    assert a.overlap(b) == 1.0
    assert a.overlap(basis_state(space, [0, 1], 2)) == 0.0
    with pytest.raises(ShapeError, match="different spaces"):
        a.overlap(basis_state(CompositeSpace(2, FockSpace(3)), [1, 0], 2))


def test_density_invariants_accept_valid():
    rho = DensityOperator(random_density(3, 8))
    assert rho.dim == 8


def test_density_invariants_reject_nonhermitian():
    m = random_density(4, 6)
    m[0, 1] += 1e-6
    with pytest.raises(ValueError):
        DensityOperator(m)


def test_density_invariants_reject_bad_trace():
    with pytest.raises(ValueError):
        DensityOperator(np.eye(4, dtype=complex))


def test_density_invariants_reject_negative_eigenvalue():
    with pytest.raises(ValueError, match="eigenvalue -5.000e-01 below"):
        DensityOperator(np.diag([1.5, -0.5]))


def test_density_shape_guard():
    with pytest.raises(ShapeError, match="must be square"):
        DensityOperator(np.zeros((2, 3)))
    with pytest.raises(ShapeError, match="does not match space dim 5"):
        DensityOperator(np.eye(4) / 4, FockSpace(4))
    with pytest.raises(ShapeError, match="factor dimensions"):
        compose_density(np.eye(4) / 4, np.eye(3) / 3, CompositeSpace(1, FockSpace(3)))


@pytest.mark.parametrize("matrix, entry", [
    (np.full((2, 2), np.nan), r"\(0, 0\) = \(nan\+0j\)"),
    (np.diag([np.nan, 1.0]), r"\(0, 0\) = \(nan\+0j\)"),
    (np.array([[0.5, np.inf], [np.inf, 0.5]]), r"\(0, 1\) = \(inf\+0j\)"),
], ids=["all-nan", "nan-diagonal", "inf-coherence"])
def test_density_invariants_reject_non_finite_entries(matrix, entry):
    # a nan fails no bound and an inf coherence would warn in the Hermiticity check
    with pytest.raises(ValueError, match=f"entry {entry} is not finite"):
        DensityOperator(matrix)


# ---------------------------------------------------------------- partial traces

def test_partial_trace_product_state():
    space = CompositeSpace(1, FockSpace(4))
    rho_ion = np.zeros((4, 4), dtype=complex)
    rho_ion[1, 1] = 0.75
    rho_ion[0, 0] = 0.25
    rho_ion[0, 1] = rho_ion[1, 0] = 0.2
    rho_ph = np.asarray(random_density(9, 5))
    rho = compose_density(rho_ion, rho_ph, space)
    assert np.max(np.abs(partial_trace_phonon(rho).matrix - rho_ion)) < 1e-14


def test_partial_trace_maximally_entangled():
    # (|0>|0> + |1>|1>)/sqrt(2) on one ion and a 2-level phonon ladder
    space = CompositeSpace(1, FockSpace(1))
    vec = np.zeros(space.dim, dtype=complex)
    vec[space.encode([0], 0)] = 1 / np.sqrt(2)
    vec[space.encode([1], 1)] = 1 / np.sqrt(2)
    rho_ion = partial_trace_phonon(DensityOperator(np.outer(vec, vec.conj()), space)).matrix
    expected = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    assert np.max(np.abs(rho_ion - expected)) < 1e-14


def test_partial_trace_preserves_trace_random():
    space = CompositeSpace(1, FockSpace(5))
    for seed in range(50):
        rho = DensityOperator(random_density(seed, space.dim), space)
        assert abs(np.trace(partial_trace_phonon(rho).matrix) - 1.0) < 1e-12


def test_partial_trace_needs_composite_space():
    rho = DensityOperator(random_density(2, 6), FockSpace(5))
    with pytest.raises(ShapeError):
        partial_trace_phonon(rho)


def test_compose_state_layout_matches_encode():
    space = CompositeSpace(2, FockSpace(2))
    ion = np.zeros(16, dtype=complex)
    ion[4 * 1 + 2] = 1.0  # levels (1, 2)
    ph = np.array([0.0, 1.0, 0.0], dtype=complex)
    state = compose_state(space, ion, ph)
    assert state.amplitudes[space.encode([1, 2], 1)] == 1.0


@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 40))
@settings(max_examples=30, deadline=None)
def test_compose_state_is_the_kronecker_product(seed, n_ions, n_max):
    # the outer product forms the same products a[i] * b[n] as np.kron
    space = CompositeSpace(n_ions, FockSpace(n_max))
    ion = random_vector(seed, 4**n_ions)
    ph = random_vector(seed + 1, n_max + 1)
    assert np.array_equal(compose_state(space, ion, ph).amplitudes, np.kron(ion, ph))
