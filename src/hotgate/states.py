"""Initial phonon-state families: Fock, coherent, thermal, seeded random.

Coherent and thermal constructors renormalize after truncation; the discarded
weight is the geometric tail of the thermal distribution in closed form
(thermal_discarded_weight) and, for a coherent state, one minus the Poisson
weight its kept amplitudes carry. Construction aborts when it exceeds the
constant MAX_STATE_DISCARD = 1e-2, keeping the family honest about how hot a
state the chosen n_max can hold. The module needs numpy and the standard
library's math only: log n! is math.lgamma per occupation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import TruncationLeakage
from .hilbert import DensityOperator, FockSpace

MAX_STATE_DISCARD = 1e-2


@dataclass(frozen=True)
class ThermalSpec:
    """Mean occupation of a thermal phonon distribution."""

    n_bar: float

    def __post_init__(self):
        if not math.isfinite(self.n_bar) or self.n_bar < 0:
            raise ValueError(f"n_bar must be finite and >= 0, got {self.n_bar}")


@dataclass(frozen=True)
class FockWeights:
    """A Fock-diagonal phonon state as its weights rho[n, n], n = 0..n_max: all
    that a report reads of it, as its coherences are 0."""

    weights: np.ndarray


def fock_state(n: int, n_max: int) -> np.ndarray:
    """Unit vector with all weight at occupation n."""
    if not 0 <= n <= n_max:
        raise IndexError(f"occupation {n} outside 0..{n_max}")
    v = np.zeros(n_max + 1, dtype=complex)
    v[n] = 1.0
    return v


def _coherent_unnormalized(alpha: complex, n_max: int) -> np.ndarray:
    if alpha == 0:
        v = np.zeros(n_max + 1, dtype=complex)
        v[0] = 1.0
        return v
    # a_n = exp(-|alpha|^2 / 2) alpha^n / sqrt(n!) computed in log space: every
    # |a_n| <= 1, so neither an amplitude nor the norm overflows
    n = np.arange(n_max + 1)
    r = np.abs(alpha)
    log_mag = n * np.log(r) - 0.5 * _log_factorial(n_max + 1) - 0.5 * r * r
    phase = np.exp(1j * n * np.angle(alpha))
    return np.exp(log_mag) * phase


@lru_cache(maxsize=8)
def _log_factorial(size: int) -> np.ndarray:
    """log n! for n = 0..size-1, read-only: one math.lgamma per entry."""
    table = np.fromiter(map(math.lgamma, range(1, size + 1)), float, size)
    table.flags.writeable = False
    return table


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a complex vector, as np.linalg.norm evaluates it."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def coherent_state(alpha: complex, n_max: int) -> np.ndarray:
    """Truncated, renormalized coherent state with amplitude alpha.

    The kept amplitudes carry the factor e^{-|alpha|^2/2}, so one minus their
    squared norm is the Poisson weight above n_max that renormalizing
    discards. A |alpha|^2 that overflows keeps no weight.
    """
    r = abs(complex(alpha))
    m = r * r  # float ** would raise on overflow
    if m < math.inf:
        v = _coherent_unnormalized(alpha, n_max)
    else:  # overflowed (or nan): no truncation holds it
        v = np.zeros(n_max + 1, dtype=complex)
    norm = _norm(v)
    discard = 1.0 - norm * norm
    if discard > MAX_STATE_DISCARD:
        raise TruncationLeakage(
            f"|alpha|^2 = {m:.3g} too large for n_max = {n_max}: "
            f"discarded weight {discard:.3e} exceeds {MAX_STATE_DISCARD}"
        )
    return v / norm


def thermal_discarded_weight(n_bar: float, n_max: int) -> float:
    """Geometric tail weight of the thermal distribution above n_max."""
    if n_bar == 0:
        return 0.0
    return float((n_bar / (1.0 + n_bar)) ** (n_max + 1))


def thermal_probabilities(spec: ThermalSpec, n_max: int) -> np.ndarray:
    """Renormalized occupation probabilities p_n of the truncated thermal state."""
    if spec.n_bar == 0:
        p = np.zeros(n_max + 1)
        p[0] = 1.0
        return p
    n = np.arange(n_max + 1)
    # p_n = n_bar^n / (1 + n_bar)^(n+1), evaluated in log space
    logp = n * np.log(spec.n_bar) - (n + 1) * np.log1p(spec.n_bar)
    p = np.exp(logp)
    return p / p.sum()


def thermal_weights(spec: ThermalSpec, n_max: int) -> FockWeights:
    """Truncated, renormalized thermal phonon state as its Fock weights."""
    discard = thermal_discarded_weight(spec.n_bar, n_max)
    if discard > MAX_STATE_DISCARD:
        raise TruncationLeakage(
            f"n_bar = {spec.n_bar} too hot for n_max = {n_max}: "
            f"discarded weight {discard:.3e} exceeds {MAX_STATE_DISCARD}"
        )
    return FockWeights(thermal_probabilities(spec, n_max))


def thermal_state(spec: ThermalSpec, n_max: int) -> DensityOperator:
    """Truncated, renormalized thermal phonon density operator (Fock-diagonal)."""
    p = thermal_weights(spec, n_max).weights
    return DensityOperator(np.diag(p.astype(complex)), FockSpace(n_max), validate=False)


def random_pure_state(seed: int, n_max: int) -> np.ndarray:
    """Seeded Haar-like random unit vector over occupations 0..n_max."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    return v / _norm(v)


def parse_state_spec(spec: str, n_max: int, default_seed: int | None = None):
    """Parse a state-family string into a phonon vector or density operator.

    Families: ``fock:N``, ``coherent:RE,IM``, ``thermal:NBAR``, ``random:SEED``
    (``random`` alone uses default_seed). Raises ValueError on malformed input
    and MemoryError, before any allocation, on an n_max no array can hold.
    """
    FockSpace(n_max)
    build, arg = _read_spec(spec, n_max, default_seed)
    return (thermal_state if build is thermal_weights else build)(arg, n_max)


def _read_spec(spec: str, n_max: int, default_seed: int | None = None):
    """(constructor, argument) of a spec's state, a thermal one as its FockWeights.

    Every ValueError of parse_state_spec is raised here, and nothing is
    built, so a spec can be checked at any n_max; what the build can still
    refuse is a state that n_max truncates too far (TruncationLeakage).
    """
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    arg = arg.strip()
    try:
        if name == "fock":
            n = int(arg)
            if not 0 <= n <= n_max:
                raise ValueError(f"occupation {n} outside 0..{n_max}")
            return fock_state, n
        if name == "coherent":
            re_s, _, im_s = arg.partition(",")
            alpha = complex(float(re_s), float(im_s))
            if not (math.isfinite(alpha.real) and math.isfinite(alpha.imag)):
                raise ValueError
            return coherent_state, alpha
        if name == "thermal":
            return thermal_weights, ThermalSpec(float(arg))
        if name == "random":
            seed = int(arg) if arg else default_seed
            if seed is None or seed < 0:  # numpy's generators take a seed >= 0
                raise ValueError
            return random_pure_state, seed
    except ValueError as exc:
        raise ValueError(f"malformed state spec {spec!r}") from exc
    raise ValueError(f"unknown state family {name!r} in spec {spec!r}")
