"""Initial phonon-state families: Fock, coherent, thermal, seeded random.

Coherent and thermal constructors renormalize after truncation; the discarded
weight is available as the geometric tail of the thermal distribution in
closed form (thermal_discarded_weight) and as the Poisson tail of the coherent
one, summed as a series that does not cancel (coherent_discarded_weight), and
construction aborts when it exceeds the constant MAX_STATE_DISCARD = 1e-2,
keeping the family honest about how hot a state the chosen n_max can hold.
The module needs numpy and the standard library's math only: log n! is
math.lgamma per occupation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TruncationLeakage
from .hilbert import DensityOperator, FockSpace

MAX_STATE_DISCARD = 1e-2


@dataclass(frozen=True)
class ThermalSpec:
    """Mean occupation of a thermal phonon distribution."""

    n_bar: float

    def __post_init__(self):
        if not np.isfinite(self.n_bar) or self.n_bar < 0:
            raise ValueError(f"n_bar must be finite and >= 0, got {self.n_bar}")


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
    # a_n = alpha^n / sqrt(n!) computed in log space to dodge overflow
    n = np.arange(n_max + 1)
    log_mag = n * np.log(np.abs(alpha)) - 0.5 * _log_factorial(n)
    phase = np.exp(1j * n * np.angle(alpha))
    return np.exp(log_mag) * phase


def _log_factorial(n: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, (n + 1.0).tolist()), float, n.size)


def coherent_discarded_weight(alpha: complex, n_max: int) -> float:
    """Probability weight of the coherent state above the truncation n_max.

    The occupation is Poisson with mean m = |alpha|^2, so this is the Poisson
    upper tail, summed so that it neither overflows nor cancels. When
    m <= n_max + 1 the terms fall from j = n_max + 1 on (each is the last
    times m / j < 1), so the tail is summed directly until a term no longer
    changes the sum. Otherwise the tail is 1 minus the head, summed
    downwards from j = n_max, and the tail is at least 1/2 there. The first
    term comes from log space, whose rounding bounds the relative accuracy
    (about 1e-12 at n_max near 1000). A mean m that overflows to inf gives
    weight 1.
    """
    m = abs(alpha) * abs(alpha)  # float ** would raise on overflow
    if m == 0:
        return 0.0
    if not m < math.inf:  # overflowed (or nan): no truncation holds it
        return 1.0
    direct = m <= n_max + 1
    j = n_max + 1 if direct else n_max
    term = math.exp(j * math.log(m) - m - math.lgamma(j + 1.0))
    total = 0.0
    while total + term != total:
        total += term
        if direct:
            j += 1
            term *= m / j
        else:
            term *= j / m
            j -= 1
    return total if direct else 1.0 - total


def coherent_state(alpha: complex, n_max: int) -> np.ndarray:
    """Truncated, renormalized coherent state with amplitude alpha."""
    discard = coherent_discarded_weight(alpha, n_max)
    if discard > MAX_STATE_DISCARD:
        raise TruncationLeakage(
            f"|alpha|^2 = {abs(alpha) * abs(alpha):.3g} too large for n_max = {n_max}: "
            f"discarded weight {discard:.3e} exceeds {MAX_STATE_DISCARD}"
        )
    v = _coherent_unnormalized(alpha, n_max)
    return v / np.linalg.norm(v)


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


def thermal_state(spec: ThermalSpec, n_max: int) -> DensityOperator:
    """Truncated, renormalized thermal phonon density operator (Fock-diagonal)."""
    discard = thermal_discarded_weight(spec.n_bar, n_max)
    if discard > MAX_STATE_DISCARD:
        raise TruncationLeakage(
            f"n_bar = {spec.n_bar} too hot for n_max = {n_max}: "
            f"discarded weight {discard:.3e} exceeds {MAX_STATE_DISCARD}"
        )
    p = thermal_probabilities(spec, n_max)
    return DensityOperator(np.diag(p.astype(complex)), FockSpace(n_max), validate=False)


def random_pure_state(seed: int, n_max: int) -> np.ndarray:
    """Seeded Haar-like random unit vector over occupations 0..n_max."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n_max + 1) + 1j * rng.standard_normal(n_max + 1)
    return v / np.linalg.norm(v)


def parse_state_spec(spec: str, n_max: int, default_seed: int | None = None):
    """Parse a state-family string into a phonon vector or density operator.

    Families: ``fock:N``, ``coherent:RE,IM``, ``thermal:NBAR``, ``random:SEED``
    (``random`` alone uses default_seed). Raises ValueError on malformed input
    and MemoryError, before any allocation, on an n_max no array can hold.
    """
    FockSpace(n_max)
    name, _, arg = spec.partition(":")
    name = name.strip().lower()
    arg = arg.strip()
    try:
        if name == "fock":
            return fock_state(int(arg), n_max)
        if name == "coherent":
            re_s, _, im_s = arg.partition(",")
            alpha = complex(float(re_s), float(im_s))
            if not np.isfinite(alpha):
                raise ValueError
            return coherent_state(alpha, n_max)
        if name == "thermal":
            return thermal_state(ThermalSpec(float(arg)), n_max)
        if name == "random":
            if arg:
                seed = int(arg)
            elif default_seed is not None:
                seed = default_seed
            else:
                raise ValueError
            return random_pure_state(seed, n_max)
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed state spec {spec!r}") from exc
    raise ValueError(f"unknown state family {name!r} in spec {spec!r}")
