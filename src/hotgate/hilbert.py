"""Composite ion-phonon Hilbert space: indexing and state containers.

Layout convention (fixed): ion indices are major, the phonon index is minor.
For k ions with levels (l_0, ..., l_{k-1}) and phonon occupation n,

    flat index = ((l_0 * 4 + l_1) * 4 + ...) * (n_max + 1) + n

so ``amplitudes.reshape((4,)*k + (n_max+1,))`` exposes one axis per ion plus
a trailing phonon axis. Each ion carries four levels: 0 and 1 form the qubit,
2 is the auxiliary shelf used by the adiabatic passage, 3 is the passage's
intermediate level.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

N_ION_LEVELS = 4

DEFAULT_N_MAX = 32

# Tolerances (normative; see module docstrings of the operators they guard).
LEAK_TOL = 1e-8        # share of the weight allowed at the top of the passage ladder
HERM_ATOL = 1e-12      # Hermiticity defect of density operators
TRACE_ATOL = 1e-12     # trace-one defect of density operators
EIG_ATOL = 1e-10       # how negative a density eigenvalue may be
DOMAIN_ATOL = 1e-10    # population allowed on levels outside an operator's domain

# The largest composite dimension whose complex amplitude vector an array can hold.
MAX_DIM = np.iinfo(np.intp).max // np.dtype(complex).itemsize


def _is_integer(value) -> bool:
    """The rule for a size or an index: an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class FockSpace:
    """Truncated phonon mode keeping occupations 0..n_max."""

    n_max: int

    def __post_init__(self):
        if not _is_integer(self.n_max):
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.dim > MAX_DIM:
            raise MemoryError(f"n_max = {self.n_max} spans {self.dim} phonon levels, "
                              f"more than an array can hold (at most {MAX_DIM})")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class CompositeSpace:
    """k ions (4 levels each) tensored with a truncated phonon mode."""

    n_ions: int
    fock: FockSpace

    def __post_init__(self):
        if not _is_integer(self.n_ions):
            raise ValueError(f"n_ions must be an integer, got {self.n_ions!r}")
        if self.n_ions < 1:
            raise ValueError(f"n_ions must be >= 1, got {self.n_ions}")
        # n_ions is bounded first, so dim's exact 4**n_ions stays a small integer
        if self.n_ions > MAX_DIM.bit_length() or self.dim > MAX_DIM:
            raise MemoryError(f"{self.n_ions} ions and {self.fock.dim} phonon levels span "
                              f"{N_ION_LEVELS}^{self.n_ions} x {self.fock.dim} amplitudes, "
                              f"more than an array can hold (at most {MAX_DIM})")

    @property
    def dim(self) -> int:
        return N_ION_LEVELS**self.n_ions * self.fock.dim

    @property
    def shape(self) -> tuple:
        """Tensor shape: one axis per ion, trailing phonon axis."""
        return (N_ION_LEVELS,) * self.n_ions + (self.fock.dim,)

    def encode(self, ion_levels, n: int) -> int:
        """Flat index of the basis state with the given ion levels and occupation."""
        if len(ion_levels) != self.n_ions:
            raise IndexError(f"expected {self.n_ions} ion levels, got {len(ion_levels)}")
        idx = 0
        for lvl in ion_levels:
            if not 0 <= lvl < N_ION_LEVELS:
                raise IndexError(f"ion level {lvl} outside 0..{N_ION_LEVELS - 1}")
            idx = idx * N_ION_LEVELS + lvl
        if not 0 <= n <= self.fock.n_max:
            raise IndexError(f"occupation {n} outside 0..{self.fock.n_max}")
        return idx * self.fock.dim + n

    def decode(self, index: int):
        """Inverse of encode: (ion_levels list, occupation)."""
        if not 0 <= index < self.dim:
            raise IndexError(f"flat index {index} outside 0..{self.dim - 1}")
        n = index % self.fock.dim
        idx = index // self.fock.dim
        levels = []
        for _ in range(self.n_ions):
            levels.append(idx % N_ION_LEVELS)
            idx //= N_ION_LEVELS
        return list(reversed(levels)), n


class CompositeState:
    """Complex amplitude vector over a CompositeSpace.

    The amplitude array is owned by the state; mutate only through owner code.
    States are not renormalized implicitly, so linear operations stay linear.
    """

    __slots__ = ("space", "amplitudes")

    def __init__(self, space: CompositeSpace, amplitudes, copy: bool = True):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (space.dim,):
            raise ShapeError(
                f"amplitude vector has shape {amplitudes.shape}, expected ({space.dim},)"
            )
        self.space = space
        self.amplitudes = amplitudes.copy() if copy else amplitudes

    def tensor(self) -> np.ndarray:
        """View of the amplitudes with one axis per ion plus a phonon axis."""
        return self.amplitudes.reshape(self.space.shape)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "CompositeState") -> complex:
        if other.space != self.space:
            raise ShapeError("overlap between states on different spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


def basis_state(space: CompositeSpace, ion_levels, n: int) -> CompositeState:
    """Product basis state |l_0 ... l_{k-1}> |n>."""
    amps = np.zeros(space.dim, dtype=complex)
    amps[space.encode(ion_levels, n)] = 1.0
    return CompositeState(space, amps, copy=False)


def compose_state(space: CompositeSpace, ion_vector, phonon_vector) -> CompositeState:
    """Tensor an ion-register vector (length 4^k) with a phonon vector."""
    ion_vector = np.asarray(ion_vector, dtype=complex)
    phonon_vector = np.asarray(phonon_vector, dtype=complex)
    if ion_vector.shape != (N_ION_LEVELS**space.n_ions,):
        raise ShapeError(f"ion vector has shape {ion_vector.shape}")
    if phonon_vector.shape != (space.fock.dim,):
        raise ShapeError(f"phonon vector has shape {phonon_vector.shape}")
    return CompositeState(space, np.outer(ion_vector, phonon_vector).reshape(-1), copy=False)


class DensityOperator:
    """Hermitian, unit-trace, positive matrix over a composite or phonon space."""

    __slots__ = ("matrix", "space")

    def __init__(self, matrix, space=None, validate: bool = True):
        matrix = np.asarray(matrix, dtype=complex)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ShapeError(f"density matrix must be square, got {matrix.shape}")
        if space is not None and matrix.shape[0] != space.dim:
            raise ShapeError(
                f"matrix dimension {matrix.shape[0]} does not match space dim {space.dim}"
            )
        self.matrix = matrix.copy()
        self.space = space
        if validate:
            self.validate()

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def validate(self) -> "DensityOperator":
        # every comparison with nan is False, so the bounds below cannot see one
        bad = np.argwhere(~np.isfinite(self.matrix))
        if bad.size:
            i, j = bad[0]
            raise ValueError(f"entry ({i}, {j}) = {self.matrix[i, j]} is not finite")
        herm = float(np.max(np.abs(self.matrix - self.matrix.conj().T)))
        if herm > HERM_ATOL:
            raise ValueError(f"Hermiticity defect {herm:.3e} exceeds {HERM_ATOL}")
        tr = complex(np.trace(self.matrix))
        if abs(tr - 1.0) > TRACE_ATOL:
            raise ValueError(f"trace defect {abs(tr - 1.0):.3e} exceeds {TRACE_ATOL}")
        eig_min = float(np.linalg.eigvalsh(self.matrix).min())
        if eig_min < -EIG_ATOL:
            raise ValueError(f"eigenvalue {eig_min:.3e} below -{EIG_ATOL}")
        return self


def compose_density(rho_ion: np.ndarray, rho_phonon: np.ndarray,
                    space: CompositeSpace) -> DensityOperator:
    """Tensor an ion-register density matrix with a phonon density matrix."""
    mat = np.kron(np.asarray(rho_ion, dtype=complex), np.asarray(rho_phonon, dtype=complex))
    if mat.shape[0] != space.dim:
        raise ShapeError("factor dimensions do not match the composite space")
    return DensityOperator(mat, space, validate=False)


def partial_trace_phonon(rho: DensityOperator) -> DensityOperator:
    """Trace out the phonon mode, leaving the ion-register density operator."""
    if not isinstance(rho.space, CompositeSpace):
        raise ShapeError("partial trace needs a density operator on a CompositeSpace")
    d_ion = N_ION_LEVELS**rho.space.n_ions
    d_ph = rho.space.fock.dim
    r = rho.matrix.reshape(d_ion, d_ph, d_ion, d_ph)
    return DensityOperator(np.einsum("anbn->ab", r), space=None, validate=False)
