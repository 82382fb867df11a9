"""Composite ion-phonon Hilbert space: indexing, state containers, parity algebra.

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

from .errors import ShapeError, TruncationLeakage

N_ION_LEVELS = 4

DEFAULT_N_MAX = 32

# Tolerances (normative; see module docstrings of the operators they guard).
LEAK_TOL = 1e-8        # squared amplitude allowed at the Fock boundary
HERM_ATOL = 1e-12      # Hermiticity defect of density operators
TRACE_ATOL = 1e-12     # trace-one defect of density operators
EIG_ATOL = 1e-10       # how negative a density eigenvalue may be
DOMAIN_ATOL = 1e-10    # population allowed on levels outside an operator's domain


@dataclass(frozen=True)
class FockSpace:
    """Truncated phonon mode keeping occupations 0..n_max."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        return self.n_max + 1


@dataclass(frozen=True)
class CompositeSpace:
    """k ions (4 levels each) tensored with a truncated phonon mode."""

    n_ions: int
    fock: FockSpace

    def __post_init__(self):
        if self.n_ions < 1:
            raise ValueError(f"n_ions must be >= 1, got {self.n_ions}")

    @property
    def n_max(self) -> int:
        return self.fock.n_max

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


def encode_index(ion_levels, n: int, n_max: int) -> int:
    """Flat composite index for the given ion levels and phonon occupation."""
    return CompositeSpace(len(ion_levels), FockSpace(n_max)).encode(ion_levels, n)


def decode_index(index: int, n_ions: int, n_max: int):
    """Inverse of encode_index."""
    return CompositeSpace(n_ions, FockSpace(n_max)).decode(index)


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

    def normalize(self) -> "CompositeState":
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        self.amplitudes /= n
        return self

    def copy(self) -> "CompositeState":
        return CompositeState(self.space, self.amplitudes, copy=True)

    def overlap(self, other: "CompositeState") -> complex:
        if other.space != self.space:
            raise ShapeError("overlap between states on different spaces")
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()), self.space)


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
    return CompositeState(space, np.kron(ion_vector, phonon_vector), copy=False)


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

    def copy(self) -> "DensityOperator":
        return DensityOperator(self.matrix, self.space, validate=False)


def compose_density(rho_ion: np.ndarray, rho_phonon: np.ndarray,
                    space: CompositeSpace) -> DensityOperator:
    """Tensor an ion-register density matrix with a phonon density matrix."""
    mat = np.kron(np.asarray(rho_ion, dtype=complex), np.asarray(rho_phonon, dtype=complex))
    if mat.shape[0] != space.dim:
        raise ShapeError("factor dimensions do not match the composite space")
    return DensityOperator(mat, space, validate=False)


def parity_decompose(phonon_amplitudes):
    """Split a phonon vector into its even- and odd-occupation parts.

    Returns (even, odd) with even + odd == input exactly; each part keeps the
    original length and zeros at the other parity's indices.
    """
    v = np.asarray(phonon_amplitudes, dtype=complex)
    even = np.zeros_like(v)
    odd = np.zeros_like(v)
    even[0::2] = v[0::2]
    odd[1::2] = v[1::2]
    return even, odd


def shift_up(phonon_amplitudes):
    """Add one phonon: output[n+1] = input[n], output[0] = 0.

    The top amplitude would fall off the truncated ladder, so its squared
    magnitude must be below LEAK_TOL.
    """
    v = np.asarray(phonon_amplitudes, dtype=complex)
    top = abs(v[-1]) ** 2
    if top > LEAK_TOL:
        raise TruncationLeakage(
            f"|amplitude|^2 = {top:.3e} at the Fock boundary exceeds LEAK_TOL = {LEAK_TOL}"
        )
    out = np.zeros_like(v)
    out[1:] = v[:-1]
    return out


def shift_down(phonon_amplitudes):
    """Remove one phonon: output[n] = input[n+1], output[n_max] = 0.

    Inverse of shift_up on vectors with zero top amplitude. The vacuum
    amplitude is discarded; callers guard it when that matters.
    """
    v = np.asarray(phonon_amplitudes, dtype=complex)
    out = np.zeros_like(v)
    out[:-1] = v[1:]
    return out


def _split_composite(rho: DensityOperator):
    if not isinstance(rho.space, CompositeSpace):
        raise ShapeError("partial trace needs a density operator on a CompositeSpace")
    d_ion = N_ION_LEVELS**rho.space.n_ions
    d_ph = rho.space.fock.dim
    return rho.matrix.reshape(d_ion, d_ph, d_ion, d_ph)


def partial_trace_phonon(rho: DensityOperator) -> DensityOperator:
    """Trace out the phonon mode, leaving the ion-register density operator."""
    r = _split_composite(rho)
    return DensityOperator(np.einsum("anbn->ab", r), space=None, validate=False)


def partial_trace_ions(rho: DensityOperator) -> DensityOperator:
    """Trace out all ions, leaving the phonon density operator."""
    r = _split_composite(rho)
    return DensityOperator(np.einsum("anam->nm", r), space=rho.space.fock, validate=False)


def _as_vec_or_mat(x):
    if isinstance(x, CompositeState):
        return x.amplitudes, True
    if isinstance(x, DensityOperator):
        return x.matrix, False
    arr = np.asarray(x, dtype=complex)
    if arr.ndim == 1:
        return arr, True
    if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
        return arr, False
    raise ShapeError(f"cannot interpret array of shape {arr.shape} as a state or density")


def _clip_spectrum(w: np.ndarray) -> np.ndarray:
    # zero out eigenvalue dust so sqrt does not amplify it to ~1e-8
    w = np.clip(w, 0.0, None)
    if w.size:
        w[w < w.max() * w.size * np.finfo(float).eps] = 0.0
    return w


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(mat)
    w = _clip_spectrum(w)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a, b) -> float:
    """Fidelity between two states/density operators, in [0, 1].

    Pure-pure reduces to |<a|b>|^2; mixed cases use the Uhlmann fidelity,
    which agrees with the pure-pure convention.
    """
    xa, a_pure = _as_vec_or_mat(a)
    xb, b_pure = _as_vec_or_mat(b)
    if (xa.shape[0]) != (xb.shape[0]):
        raise ShapeError(f"dimension mismatch: {xa.shape[0]} vs {xb.shape[0]}")
    if a_pure and b_pure:
        val = abs(np.vdot(xa, xb)) ** 2
    elif a_pure:
        val = float(np.real(np.vdot(xa, xb @ xa)))
    elif b_pure:
        val = float(np.real(np.vdot(xb, xa @ xb)))
    else:
        s = _psd_sqrt(xa)
        w = _clip_spectrum(np.linalg.eigvalsh(s @ xb @ s))
        val = float(np.sum(np.sqrt(w)) ** 2)
    return float(np.clip(val, 0.0, 1.0))
