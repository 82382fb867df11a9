"""Time-resolved adiabatic passage on the control ion.

For each phonon occupation n the dynamics closes on the three levels
{|1,n>, |3,n>, |2,n+1>}: the pump field drives the carrier |1,n> <-> |3,n>
with bare Rabi rate Omega_p(t), the Stokes field drives the red sideband
|2,n+1> <-> |3,n> with effective rate eta*sqrt(n+1)*Omega_S(t), and both
share the detuning Delta of the intermediate level. In this rotating frame
the block Hamiltonian is

        [ 0            Omega_p/2      0           ]
        [ Omega_p/2    Delta          Omega_Sn/2  ]
        [ 0            Omega_Sn/2     0           ]

Blocks are independent (the full passage Hamiltonian is block-diagonal in n),
so propagation batches over n. Each step is the exact 3x3 unitary exponential
of a Hermitian generator, in closed form. The default 'magnus4' generator
samples H at two Gauss nodes and adds their commutator for 4th-order dt
convergence; 'midpoint' is the same formula with both nodes at mid-step,
where the commutator is exactly 0 (2nd order). On two-photon resonance
(Delta = 0, the default) the passage is a rotation in the basis
(|1,n>, i|3,n>, |2,n+1>): each step is a real 3x3 rotation from Rodrigues'
formula, the whole product is taken in real arithmetic, and the basis phases
are put back once at the end. A detuned
step is not a rotation and takes the general SU(3) kernel: eigenvalues from
the trigonometric solution of the characteristic cubic, the exponential from
Cayley-Hamilton as a Newton divided-difference interpolant, with no
eigendecomposition. The time-ordered product of the steps is taken pairwise
(later @ earlier, log depth) within chunks of a fixed number of steps, and
the chunk products are folded in time order; the grouping depends on the
step index only, so rung n comes out the same in every batch. A trajectory
takes each chunk's prefix products from the same pairwise tree, whose last
entry is the chunk product by construction, so the trajectory ends on the
end-point propagator bit for bit.

Every end-point reader takes its blocks from one cached build, passage_blocks:
the (up, down) pair of an 'up' schedule, a 'down' schedule being the down half
of its reverse's pair, always integrated by magnus4 (midpoint stays on
block_propagators as a cross-check). The block Hamiltonian is real symmetric,
so when the pulses mirror each other about the middle of the passage the down
passage is the transpose of the up one and a pair costs one integration.
transfer_amplitudes is the one read of the transfer amplitude from that build.
Only block_trajectory, which needs every step, integrates on its own.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import NormDrift, UndefinedPhase
from .hilbert import DOMAIN_ATOL, CompositeState
from .operators import PhysicalParams, passage_check

PULSE_SHAPES = ("sin2", "gaussian")

# Standard counter-intuitive sin^2 pair, as fractions of the total duration.
# Calibrated so that one family parameter (the margin) controls adiabaticity.
STOKES_CENTER_FRAC = 0.30
PUMP_CENTER_FRAC = 0.70
WIDTH_FRAC = 0.50
DEFAULT_MARGIN = 100.0
DEFAULT_N_STEPS = 2000
DEFAULT_METHOD = "magnus4"
CALIBRATED_RUNGS = 11  # the standard family transfers rungs n < 11 at margin 100
PHASE_MIN_TRANSFER = 0.5  # transfer population below which a passage phase is undefined


@dataclass(frozen=True)
class PulseEnvelope:
    """One laser pulse envelope; sin2 has compact support [center-width, center+width]."""

    shape: str
    peak_rabi: float
    center: float
    width: float

    def __post_init__(self):
        for name in ("peak_rabi", "center", "width"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.shape not in PULSE_SHAPES:
            raise ValueError(f"unknown pulse shape {self.shape!r}")
        if self.peak_rabi < 0:
            raise ValueError("peak_rabi must be >= 0")
        if self.width <= 0:
            raise ValueError("width must be > 0")

    def value(self, t):
        """Envelope value at time(s) t; stays within [0, peak_rabi]."""
        t = np.asarray(t, dtype=float)
        x = (t - self.center) / self.width
        if self.shape == "sin2":
            return np.where(np.abs(x) < 1.0, self.peak_rabi * np.cos(0.5 * np.pi * x) ** 2, 0.0)
        return self.peak_rabi * np.exp(-0.5 * x**2)


@dataclass(frozen=True)
class StirapSchedule:
    """Pump/Stokes pulse pair, total duration, shared detuning, step size, direction.

    'up' transfers |1>|n> -> |2>|n+1> and needs the Stokes pulse first
    (stokes.center < pump.center); 'down' interchanges the pulse roles.
    """

    pump: PulseEnvelope
    stokes: PulseEnvelope
    total_duration: float
    detuning: float
    dt: float
    direction: str = "up"

    def __post_init__(self):
        for name in ("total_duration", "detuning", "dt"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.direction not in ("up", "down"):
            raise ValueError(f"direction must be 'up' or 'down', got {self.direction!r}")
        if self.total_duration <= 0:
            raise ValueError("total_duration must be > 0")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        ratio = self.total_duration / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ValueError("total_duration must be an integer number of dt steps")
        if self.direction == "up" and not self.stokes.center < self.pump.center:
            raise ValueError("'up' needs the counter-intuitive order: Stokes before pump")
        if self.direction == "down" and not self.pump.center < self.stokes.center:
            raise ValueError("'down' interchanges the roles: pump before Stokes")

    @property
    def n_steps(self) -> int:
        return int(round(self.total_duration / self.dt))


def standard_schedule(total_duration: float, params: PhysicalParams, *,
                      margin: float | None = None,
                      pump_peak: float | None = None,
                      stokes_peak: float | None = None,
                      direction: str = "up",
                      n_steps: int = DEFAULT_N_STEPS,
                      detuning: float | None = None,
                      shape: str = "sin2") -> StirapSchedule:
    """Build the standard counter-intuitive pulse pair for a given duration.

    Peak rates follow from the adiabaticity margin (default 100): the pump
    peak is margin/T and the bare Stokes peak margin/(eta*T), which balances
    the two effective couplings on the lowest rung. Explicit pump_peak /
    stokes_peak override the margin parametrization.
    """
    if margin is not None and (pump_peak is not None or stokes_peak is not None):
        raise ValueError("give either margin or explicit peak rates, not both")
    if pump_peak is None and stokes_peak is not None:
        raise ValueError("stokes_peak needs an explicit pump_peak")
    if pump_peak is None:
        m = DEFAULT_MARGIN if margin is None else margin
        pump_peak = m / total_duration
        stokes_peak = m / (params.eta * total_duration)
    elif stokes_peak is None:
        stokes_peak = pump_peak / params.eta
    t = total_duration
    width = WIDTH_FRAC * t
    centers = (PUMP_CENTER_FRAC * t, STOKES_CENTER_FRAC * t)
    if direction == "down":
        centers = (centers[1], centers[0])
    return StirapSchedule(
        pump=PulseEnvelope(shape, pump_peak, centers[0], width),
        stokes=PulseEnvelope(shape, stokes_peak, centers[1], width),
        total_duration=t,
        detuning=params.delta_stirap if detuning is None else detuning,
        dt=t / n_steps,
        direction=direction,
    )


def reversed_schedule(schedule: StirapSchedule) -> StirapSchedule:
    """Interchange the pulse roles: each field takes the other's time course.

    Peak rates stay with their fields; the direction flips. Reversing a
    standard 'up' schedule yields the matching 'down' passage.
    """
    new_pump = replace(schedule.pump, center=schedule.stokes.center,
                       width=schedule.stokes.width, shape=schedule.stokes.shape)
    new_stokes = replace(schedule.stokes, center=schedule.pump.center,
                         width=schedule.pump.width, shape=schedule.pump.shape)
    return replace(schedule, pump=new_pump, stokes=new_stokes,
                   direction="down" if schedule.direction == "up" else "up")


def sideband_rate(n: int, t, schedule: StirapSchedule, params: PhysicalParams):
    """Effective Stokes rate on rung n: eta * sqrt(n+1) * Omega_S(t)."""
    return params.eta * np.sqrt(n + 1.0) * schedule.stokes.value(t)


def adiabaticity_margin(schedule: StirapSchedule, params: PhysicalParams, n: int) -> float:
    """min(T * pump peak, T * effective Stokes peak on rung n); larger is slower."""
    t = schedule.total_duration
    return float(min(t * schedule.pump.peak_rabi,
                     t * params.eta * np.sqrt(n + 1.0) * schedule.stokes.peak_rabi))


def hamiltonian_block(n: int, t: float, schedule: StirapSchedule,
                      params: PhysicalParams, n_max: int | None = None) -> np.ndarray:
    """3x3 Hermitian block over {|1,n>, |3,n>, |2,n+1>} at time t."""
    if n < 0:
        raise IndexError(f"occupation {n} must be >= 0")
    if n_max is not None and n >= n_max:
        raise IndexError(f"no rung above n = {n} in a space truncated at {n_max}")
    om_p = float(schedule.pump.value(t))
    om_s = float(sideband_rate(n, t, schedule, params))
    return np.array(
        [[0.0, om_p / 2, 0.0],
         [om_p / 2, schedule.detuning, om_s / 2],
         [0.0, om_s / 2, 0.0]],
        dtype=complex,
    )


# Gauss-Legendre nodes of the two-point magnus4 rule, as fractions of a step.
_MAGNUS_C1 = 0.5 - np.sqrt(3.0) / 6.0
_MAGNUS_C2 = 0.5 + np.sqrt(3.0) / 6.0
_MAGNUS_COEFF = np.sqrt(3.0) / 12.0
# Steps per chunk: the product's grouping depends on the step index only, so
# rung n comes out bit-identical in every batch; also bounds the working arrays.
_CHUNK_STEPS = 256
# Eigenvalue spread below which the second divided difference uses its series.
_SERIES_SPREAD = 1e-2


def _step_exponentials(u, v, w, d: float) -> np.ndarray:
    """exp(-i M) for stacked Hermitian M = [[0, u, w], [u*, d, v], [w*, v*, 0]].

    u, v, w broadcast to the stack shape; d is a real scalar. The result is
    laid out matrix axes first, (3, 3) + stack shape. The eigenvalues
    of M - (d/3) 1 come from the trigonometric solution of its characteristic
    cubic, y1 >= y2 >= y3, and Cayley-Hamilton gives the exponential as the
    Newton interpolant of f(y) = exp(-i y) on them:

        exp(-i M) = exp(-i d/3) [f[y1] + f[y1,y2] (M' - y1) + f[y1,y2,y3] (M' - y1)(M' - y2)]

    with M' = M - (d/3) 1. The first divided difference is a sinc, exact for
    any gap; the second switches to its Taylor series about the (zero) mean
    when the spread y1 - y3 is small, so degenerate spectra (M = 0) are exact.
    """
    q = d / 3.0
    uu = u.real**2 + u.imag**2
    vv = v.real**2 + v.imag**2
    ww = w.real**2 + w.imag**2
    uv = u * v
    rad = np.sqrt(q * q + (uu + vv + ww) / 3.0)
    det = 2.0 * q**3 + q * (uu + vv - 2.0 * ww) + 2.0 * (uv.real * w.real + uv.imag * w.imag)
    scaled = rad > 1e-100  # rad**3 stays normal; below, M' = 0 to far beyond rounding
    r = np.where(scaled, det / (2.0 * np.where(scaled, rad, 1.0) ** 3), 0.0)
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    y1 = 2.0 * rad * np.cos(phi)
    y3 = 2.0 * rad * np.cos(phi + 2.0 * np.pi / 3.0)
    y2 = -(y1 + y3)

    f1 = np.exp(-1j * y1)
    f12 = -1j * np.exp(0.5j * y3) * np.sinc((y1 - y2) / (2.0 * np.pi))
    f23 = -1j * np.exp(0.5j * y1) * np.sinc((y2 - y3) / (2.0 * np.pi))
    spread = y1 - y3
    close = spread < _SERIES_SPREAD
    f123 = (f23 - f12) / -np.where(close, 1.0, spread)
    if np.any(close):
        # sum_k f^(k+2)(0) h_k(y) / (k+2)! with h_k the complete homogeneous
        # polynomials of (y1, y2, y3); their sum is 0, so h2 = -e2, h3 = e3,
        # h4 = e2^2. The dropped k = 5 term is below 1e-13 and multiplies
        # (M' - y1)(M' - y2), itself of order spread^2 <= 1e-4.
        e2 = y1 * y2 + y1 * y3 + y2 * y3
        e3 = y1 * y2 * y3
        f123 = np.where(close, -0.5 - e2 / 24.0 - 1j * e3 / 120.0 - e2**2 / 720.0, f123)

    # (M' - y1)(M' - y2) entry by entry, with y1 + y2 = -y3 off the diagonal
    c0 = (q + y1) * (q + y2)
    p00 = c0 + uu + ww
    p11 = uu + vv + (2.0 * q - y1) * (2.0 * q - y2)
    p22 = c0 + ww + vv
    p01 = u * (q + y3) + w * np.conj(v)
    p02 = uv + w * (y3 - 2.0 * q)
    p12 = np.conj(u) * w + v * (q + y3)

    g = np.exp(-1j * q)
    f12 = g * f12
    f123 = g * f123
    base = g * f1 - f12 * y1
    out = np.empty((3, 3) + f123.shape, dtype=complex)
    out[0, 0] = base - f12 * q + f123 * p00
    out[1, 1] = base + f12 * (2.0 * q) + f123 * p11
    out[2, 2] = base - f12 * q + f123 * p22
    out[0, 1] = f12 * u + f123 * p01
    out[1, 0] = f12 * np.conj(u) + f123 * np.conj(p01)
    out[0, 2] = f12 * w + f123 * p02
    out[2, 0] = f12 * np.conj(w) + f123 * np.conj(p02)
    out[1, 2] = f12 * v + f123 * p12
    out[2, 1] = f12 * np.conj(v) + f123 * np.conj(p12)
    return out


def _step_rotations(u, v, w) -> np.ndarray:
    """exp(A) for stacked real antisymmetric A = [[0, u, w], [-u, 0, -v], [-w, v, 0]].

    u, v, w are real and broadcast to the stack shape; the result is laid
    out matrix axes first, (3, 3) + stack shape. A is the cross product with
    a = (v, w, -u), so with theta = |a| Rodrigues' formula gives

        exp(A) = cos(theta) 1 + (sin(theta)/theta) A + ((1 - cos(theta))/theta^2) a a^T

    with 1 - cos(theta) = 2 sin^2(theta/2): two sines, no cancellation at
    small angles. At theta = 0 the coefficients of A and a a^T multiply
    zeros, so any finite value does and A = 0 maps to the identity exactly.
    """
    theta = np.sqrt(u * u + v * v + w * w)
    safe = np.where(theta > 0.0, theta, 1.0)
    half = np.sin(0.5 * theta)
    c0 = 1.0 - 2.0 * half * half
    c1 = np.sin(theta) / safe
    c2 = 2.0 * (half / safe) ** 2
    vw, uv, uw = c2 * v * w, c2 * u * v, c2 * u * w
    out = np.empty((3, 3) + theta.shape)
    out[0, 0] = c0 + c2 * v * v
    out[1, 1] = c0 + c2 * w * w
    out[2, 2] = c0 + c2 * u * u
    out[0, 1] = vw + c1 * u
    out[1, 0] = vw - c1 * u
    out[0, 2] = c1 * w - uv
    out[2, 0] = -c1 * w - uv
    out[1, 2] = -c1 * v - uw
    out[2, 1] = c1 * v - uw
    return out


# D X D^dagger for D = diag(1, i, 1), elementwise: exp(-i M) = D exp(A) D^dagger
# for a resonant generator M = D (i A) D^dagger (see block_propagators)
_ROTATION_PHASES = np.array([[1.0, -1j, 1.0], [1j, 1.0, 1j], [1.0, -1j, 1.0]])


def _matmul3(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for stacks of 3x3 matrices laid out matrix axes first, (3, 3, ...)."""
    out = np.multiply(a[:, 0, None], b[None, 0], out=out)
    out += a[:, 1, None] * b[None, 1]
    out += a[:, 2, None] * b[None, 2]
    return out


def _pairwise_product(m: np.ndarray, prefix: bool = False) -> np.ndarray:
    """Time-ordered product m[:, :, -1] @ ... @ m[:, :, 0] of a (3, 3, steps, ...) stack.

    Neighbours multiply pairwise, later @ earlier, and an odd tail is carried
    up a level, until one matrix is left: log-depth, each level one
    vectorized multiply. With prefix=True returns the inclusive prefix
    products instead, shaped like m: each level's prefixes are its pair
    products' prefixes, plus one multiply for the even entries. The last
    prefix is the reduction's root, computed by the same multiplies on the
    same arrays, so it equals the product bit for bit.
    """
    s = m.shape[2]
    if s == 1:
        return m if prefix else m[:, :, 0]
    half = s // 2
    pairs = np.empty(m.shape[:2] + (half + s % 2,) + m.shape[3:], dtype=m.dtype)
    _matmul3(m[:, :, 1:2 * half:2], m[:, :, 0:2 * half:2], out=pairs[:, :, :half])
    if s % 2:
        pairs[:, :, -1] = m[:, :, -1]
    if not prefix:
        return _pairwise_product(pairs)
    sub = _pairwise_product(pairs, prefix=True)
    out = np.empty_like(m)
    out[:, :, 0] = m[:, :, 0]
    out[:, :, 1::2] = sub[:, :, :half]
    _matmul3(m[:, :, 2:2 * half:2], sub[:, :, :half - 1], out=out[:, :, 2:2 * half:2])
    if s % 2:
        out[:, :, -1] = sub[:, :, -1]
    return out


def block_propagators(schedule: StirapSchedule, params: PhysicalParams, ns,
                      method: str = DEFAULT_METHOD, trajectory: bool = False) -> np.ndarray:
    """Time-ordered propagator of each n-block over the full schedule.

    Returns (len(ns), 3, 3), or the cumulative products at every step
    boundary, shape (n_steps+1, len(ns), 3, 3), when trajectory is True.
    method picks the two quadrature nodes of each step: the Gauss pair for
    magnus4, both at t + dt/2 for midpoint, whose commutator term is then
    exactly 0; the generator formula is the same. The step generators and
    their exponentials are evaluated for a chunk of _CHUNK_STEPS steps and
    all rungs at once; each chunk's product is taken pairwise (later @
    earlier, log depth), and the chunk products are folded in time order.
    The trajectory takes each chunk's inclusive prefix
    products from the same pairwise routine, whose last entry is the chunk
    product bit for bit, so traj[-1] equals the final propagator exactly.

    On two-photon resonance (detuning 0) both generators have real u, v and
    an imaginary w = i*omega, so M = D (i A) D^dagger with D = diag(1, i, 1)
    and A = [[0, u, omega], [-u, 0, -v], [-omega, v, 0]] real antisymmetric:
    each step is the rotation exp(A) in the basis (|1,n>, i|3,n>, |2,n+1>).
    The steps come from Rodrigues' formula and the whole product runs in
    real arithmetic; D .. D^dagger is applied once, elementwise, at the end.
    Detuned steps are not rotations and take the closed-form SU(3) kernel.
    """
    ns = np.atleast_1d(np.asarray(ns, dtype=int))
    n_steps = schedule.n_steps
    dt = schedule.dt
    starts = np.arange(n_steps) * dt
    if method == "midpoint":
        c1 = c2 = 0.5
    elif method == "magnus4":
        c1, c2 = _MAGNUS_C1, _MAGNUS_C2
    else:
        raise ValueError(f"unknown integration method {method!r}")
    nodes = (starts + c1 * dt, starts + c2 * dt)
    # half Rabi rates: pump shared by all rungs, Stokes scaled per rung
    pumps = [schedule.pump.value(t)[:, None] / 2 for t in nodes]
    stokes = [schedule.stokes.value(t)[:, None] for t in nodes]
    rates = params.eta * np.sqrt(ns + 1.0)[None, :]
    delta = schedule.detuning
    resonant = delta == 0.0
    kappa = _MAGNUS_COEFF * dt
    # product of the chunks so far, (3, 3, rungs); multiplying by 1 is exact
    dtype = float if resonant else complex
    p = np.broadcast_to(np.eye(3, dtype=dtype)[:, :, None], (3, 3, len(ns)))
    traj = np.empty((n_steps + 1, len(ns), 3, 3), dtype=dtype) if trajectory else None
    if trajectory:
        traj[0] = p.transpose(2, 0, 1)
    for lo in range(0, n_steps, _CHUNK_STEPS):
        sl = slice(lo, lo + _CHUNK_STEPS)
        a = [x[sl] for x in pumps]
        b = [rates * x[sl] / 2 for x in stokes]
        if resonant:
            # the commutator term alone survives in w = i omega
            (a1, a2), (b1, b2) = a, b
            u, v = dt * ((a1 + a2) / 2), dt * ((b1 + b2) / 2)
            w = -kappa * dt * (a2 * b1 - b2 * a1)
        else:
            # generator (h1 + h2)/2 - i kappa [h2, h1]; the commutator is real
            # antisymmetric with entries D(a2 - a1), a2 b1 - b2 a1, D(b1 - b2)
            (a1, a2), (b1, b2) = a, b
            u = dt * ((a1 + a2) / 2 - 1j * kappa * delta * (a2 - a1))
            v = dt * ((b1 + b2) / 2 - 1j * kappa * delta * (b1 - b2))
            w = -1j * kappa * dt * (a2 * b1 - b2 * a1)
        # (3, 3, chunk, rungs)
        steps = _step_rotations(u, v, w) if resonant else _step_exponentials(u, v, w, delta * dt)
        if trajectory:
            prefix = _matmul3(_pairwise_product(steps, prefix=True), p[:, :, None])
            traj[1:][sl] = prefix.transpose(2, 3, 0, 1)
            p = prefix[:, :, -1]
        else:
            p = _matmul3(_pairwise_product(steps), p)
    out = traj if trajectory else np.ascontiguousarray(p.transpose(2, 0, 1))
    return out * _ROTATION_PHASES if resonant else out


def _passage(schedule: StirapSchedule, params: PhysicalParams, n_rungs: int) -> np.ndarray:
    """Cached end-point blocks of a schedule in either direction, rungs 0..n_rungs-1."""
    if schedule.direction == "up":
        return passage_blocks(schedule, params, n_rungs)[0]
    return passage_blocks(reversed_schedule(schedule), params, n_rungs)[1]


def transfer_amplitudes(schedule: StirapSchedule, params: PhysicalParams, n_rungs: int):
    """Transfer amplitude of rungs 0..n_rungs-1 along the passage direction.

    Up: <2,n+1|U|1,n>; down: <1,n|U|2,n+1>. Read from the cached build.
    """
    p = _passage(schedule, params, n_rungs)
    return p[:, 2, 0] if schedule.direction == "up" else p[:, 0, 2]


def transfer_efficiency(n: int, schedule: StirapSchedule, params: PhysicalParams) -> float:
    """Population transferred along the passage direction on rung n.

    Each call reads the cached build of n + 1 rungs, so reading rungs one by
    one builds one passage per rung; read a range of rungs with one
    transfer_amplitudes call.
    """
    return float(abs(transfer_amplitudes(schedule, params, n + 1)[n]) ** 2)


def transfer_phase(amp):
    """Phase(s) of transfer amplitude(s) in (-pi, pi].

    A resonant passage is integrated as a real rotation, so its transfer
    amplitude is exactly real and an adiabatic one reads pi. Off resonance
    a negative amplitude can carry an imaginary part of rounding size and
    either sign; reading -pi as pi keeps the reported phase independent of
    that noise.
    """
    phase = np.angle(amp)
    return np.where(phase == -np.pi, np.pi, phase)


def residual_phase(n: int, schedule: StirapSchedule, params: PhysicalParams) -> float:
    """Phase of the transfer amplitude on rung n, in (-pi, pi].

    The ideal maps are phase-free, so this measures the passage's deviation
    from them (an adiabatic passage sits near pi). Undefined when less than
    PHASE_MIN_TRANSFER of the population makes the transfer. Like
    transfer_efficiency, each call reads the build of n + 1 rungs; read a
    range of rungs with one transfer_amplitudes call and transfer_phase.
    """
    amp = complex(transfer_amplitudes(schedule, params, n + 1)[n])
    if abs(amp) ** 2 < PHASE_MIN_TRANSFER:
        raise UndefinedPhase(
            f"transfer efficiency {abs(amp) ** 2:.3f} < {PHASE_MIN_TRANSFER} on rung {n}"
        )
    return float(transfer_phase(amp))


def block_trajectory(schedule: StirapSchedule, params: PhysicalParams, n: int):
    """Times and 3-level amplitudes over the passage, starting on the source level.

    Returns (times, amps) with amps[k] = (c_{1,n}, c_{3,n}, c_{2,n+1}) at step
    boundary k. For an 'up' schedule the final transferred population equals
    transfer_efficiency exactly: both fold the same closed-form step
    exponentials in the same order. A 'down' schedule is integrated here, not
    taken as the transpose of its 'up' passage, which gives only the end point.
    """
    traj = block_propagators(schedule, params, [n], trajectory=True)
    col = 0 if schedule.direction == "up" else 2
    amps = traj[:, 0, :, col]
    times = np.arange(schedule.n_steps + 1) * schedule.dt
    return times, amps


def _is_mirrored(schedule: StirapSchedule) -> bool:
    """True when the pulses mirror each other about the middle of the passage.

    Same shape and width, and pump.center + stokes.center equal to the total
    duration to rounding: then the reversed schedule's Hamiltonian at t is
    this one's at T - t.
    """
    pump, stokes = schedule.pump, schedule.stokes
    return (pump.shape == stokes.shape and pump.width == stokes.width
            and abs(pump.center + stokes.center - schedule.total_duration)
            <= 1e-14 * schedule.total_duration)


@lru_cache(maxsize=32)
def passage_blocks(schedule: StirapSchedule, params: PhysicalParams, n_rungs: int, /) -> tuple:
    """Read-only (up, down) blocks of an 'up' schedule and its reverse, rungs 0..n_rungs-1.

    The one cached passage build that the gate, the sweep and every end-point
    reader share, integrated with the magnus4 rule. The cache keys on the
    arguments as passed; they are positional-only, so one schedule has one
    key. Rung n comes out the same in every batch.
    When the pulses mirror each other, the reverse passage is the up passage
    run backwards in time; the blocks are real symmetric and each step maps
    to the transpose of its mirror step, so down = up^T exactly up to
    rounding and only the up passage is integrated. Otherwise the reversed
    schedule is integrated too.
    """
    ns = np.arange(n_rungs)
    up = block_propagators(schedule, params, ns)
    up.flags.writeable = False
    if _is_mirrored(schedule):
        return up, up.transpose(0, 2, 1)
    down = block_propagators(reversed_schedule(schedule), params, ns)
    down.flags.writeable = False
    return up, down


def apply_blocks(x: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Apply per-rung 3x3 blocks on {|1,n>, |3,n>, |2,n+1>} of the control ion.

    x carries the control-ion level on axis 0 and the phonon occupation on
    its last axis; blocks has shape (..., x.shape[-1] - 1, 3, 3) and
    broadcasts against the axes in between. Cells outside every block
    (level 0, the ladder top on levels 1 and 3, and |2>|0>) are copied.
    """
    y = x.copy()
    v = np.stack((x[1, ..., :-1], x[3, ..., :-1], x[2, ..., 1:]), axis=-1)
    w = np.einsum("...nij,...nj->...ni", blocks, v)
    y[1, ..., :-1] = w[..., 0]
    y[3, ..., :-1] = w[..., 1]
    y[2, ..., 1:] = w[..., 2]
    return y


def propagate(state: CompositeState, schedule: StirapSchedule, params: PhysicalParams, *,
              control_ion: int = 0, domain_tol: float = DOMAIN_ATOL) -> CompositeState:
    """Propagate a composite state through the passage, block-by-block in n.

    Components with the control ion in |0> are untouched. The domain rule is
    operators.passage_check's, with domain_tol as its domain bound.
    """
    space = state.space
    x = state.tensor()
    passage_check(control_ion, schedule.direction, domain_tol)(space, np.abs(x) ** 2)
    blocks = _passage(schedule, params, space.fock.dim - 1)
    y = apply_blocks(np.moveaxis(x, control_ion, 0), blocks)
    amps = np.moveaxis(y, 0, control_ion).reshape(space.dim)
    out = CompositeState(space, amps, copy=False)
    if abs(out.norm - state.norm) > 1e-9:
        raise NormDrift(f"norm drifted by {abs(out.norm - state.norm):.3e}")
    return out


def passage_matrix(schedule: StirapSchedule, params: PhysicalParams,
                   n_phonon_levels: int) -> np.ndarray:
    """Dense passage unitary on the control-ion (x) phonon subspace.

    Index layout: level * n_phonon_levels + n. Cells outside the passage
    blocks (level 0, the ladder top, and |2>|0>) carry the identity.
    """
    d = n_phonon_levels
    p = _passage(schedule, params, d - 1)
    mat = np.eye(4 * d, dtype=complex)
    for n in range(d - 1):
        idx = [1 * d + n, 3 * d + n, 2 * d + (n + 1)]
        mat[np.ix_(idx, idx)] = p[n]
    return mat


@dataclass(frozen=True)
class TransferCalibration:
    """Outcome of the automated duration sweep."""

    margin: float
    total_duration: float
    threshold: float
    n_values: tuple
    efficiencies: np.ndarray
    history: tuple  # (duration, margin, min efficiency) per tried duration
    schedule: StirapSchedule


def calibrate_transfer(params: PhysicalParams, durations, *,
                       pump_peak: float = 1.0,
                       n_values=tuple(range(CALIBRATED_RUNGS)), threshold: float = 0.999,
                       n_steps: int = DEFAULT_N_STEPS) -> TransferCalibration:
    """Sweep the passage duration upward until every rung transfers >= threshold.

    Peak Rabi rates are held fixed (the Stokes peak at pump_peak / eta), so
    longer durations mean larger adiabaticity margins; the detuning is
    params.delta_stirap. Returns the first (minimal) duration on the grid
    that clears the threshold for every n in n_values, with its margin.
    """
    history = []
    for t in sorted(durations):
        sched = standard_schedule(t, params, pump_peak=pump_peak, n_steps=n_steps)
        amps = transfer_amplitudes(sched, params, max(n_values) + 1)
        eff = np.abs(amps[np.asarray(n_values)]) ** 2
        margin = min(adiabaticity_margin(sched, params, n) for n in n_values)
        history.append((t, margin, float(eff.min())))
        if eff.min() >= threshold:
            return TransferCalibration(
                margin=margin, total_duration=t, threshold=threshold,
                n_values=tuple(n_values), efficiencies=eff, history=tuple(history),
                schedule=sched,
            )
    raise ValueError(
        f"no duration in the grid reached transfer >= {threshold}; "
        f"best was {max(h[2] for h in history):.6f}"
    )
