"""Time-resolved adiabatic passage on the control ion.

For each phonon occupation n the dynamics closes on the three levels
{|1,n>, |3,n>, |2,n+1>}: the pump field drives the carrier |1,n> <-> |3,n>
with bare Rabi rate Omega_p(t), the Stokes field drives the red sideband
|2,n+1> <-> |3,n> with effective rate eta*sqrt(n+1)*Omega_S(t)
(operators.sideband_factors), and both share the detuning Delta =
params.delta_stirap of the intermediate level. A StirapSchedule is pulse
timing only. In this rotating frame the block Hamiltonian is

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
(|1,n>, i|3,n>, |2,n+1>). SO(3) is SU(2)/{1, -1}, so each step is stored as
the Cayley-Klein pair (alpha, beta) of its spin-1/2 matrix, two complex
numbers instead of nine reals; the pairs multiply in SU(2), each product is
read out as a real 3x3 rotation only at the end (once per rung, or once per
step boundary for a trajectory), and the basis phases are put back
elementwise (the Majorana picture of the resonant Lambda system: K.
Bergmann, H. Theuer and B. W. Shore, Rev. Mod. Phys. 70, 1003 (1998)). A
resonant step with one field off turns about a fixed axis, so the leading
and the trailing run of such steps (Stokes alone at the start of the
counter-intuitive order, the pump alone at the end) are each one rotation by
their summed angle, and only the steps in between are evaluated one by one. A
detuned step is not a rotation and takes the general SU(3) kernel:
eigenvalues from the trigonometric solution of the characteristic cubic, the
exponential from Cayley-Hamilton as a Newton divided-difference interpolant,
with no eigendecomposition. Either way the time-ordered product of the steps
is taken pairwise (later @ earlier, log depth) by one tree within chunks of
a fixed number of steps, and the chunk products are folded in time order.
The runs and the grouping depend on the envelopes and the step index only,
so a resonant end point of rung n comes out bit-identical in every batch of
rungs, and of schedules: the one integrator, _integrate, takes several
resonant schedules that share a step grid and single-field runs, with rows
(schedule, rung) and each schedule's dt and kappa its own;
block_propagators runs it on one schedule. Elsewhere the rounding of numpy's
complex products can depend on the size of the batch's arrays: a detuned
build, or the interior of a resonant trajectory, reads rung n the same in
every batch to about 1e-15 only. A trajectory takes each chunk's prefix
products from the same pairwise tree, whose last entry is the chunk product
by construction, and folds it by the same call as the end point, so the
trajectory ends on the end-point propagator bit for bit.

Every end-point reader takes its blocks from one cached build, passage_blocks:
the (up, down) pair of an 'up' schedule, a 'down' schedule being the down half
of its reverse's pair, always integrated by magnus4 (midpoint stays on
block_propagators as a cross-check). The block Hamiltonian is real symmetric,
so when the pulses mirror each other about the middle of the passage the down
passage is the transpose of the up one and a pair costs one integration.
transfer_amplitudes is the one read of the transfer amplitudes from that build,
all rungs in one call, and transfer_phase their phase. A schedule's direction
is its pulse order (Stokes first goes up), not a separate setting. Only
block_trajectory, which needs every step, integrates on its own, through
block_propagators.
One builder, _build, integrates and caches every pair, one _integrate call
per direction for a batch of schedules. passage_blocks builds a miss as a
batch of one; build_passages builds many schedules at once, as a sweep does
for a window of grid points. It groups the keys that share params, rung
count, step grid, mirror symmetry and single-field runs, cuts each group
into batches of at most _BATCH_ROWS rows, and builds each batch of two or
more. A key alone in its batch is left for passage_blocks: a detuned one,
whose rounding depends on the size of its batch, always is. So is a key
whose blocks are not finite, which then raises NormDrift where it is read.
A build_passages call samples each step grid's pulse shapes once: its
schedules share the unit-peak sin^2 shape of every pulse geometry on every
node grid (_pulse_shape, _sampled), so the grid points of a sweep that
differ only in a peak, and a reverse whose pump has its partner's Stokes
geometry, evaluate no cosine of their own. The shapes live for the call.
"""
from __future__ import annotations

import math
import sys
from collections import OrderedDict
from contextlib import suppress
from dataclasses import dataclass, replace

import numpy as np

from .errors import NormDrift
from .hilbert import _is_integer
from .operators import PhysicalParams, sideband_factors

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
# The largest step grid whose trajectory (a complex 3x3 block per step
# boundary, block_trajectory) an array can hold.
MAX_N_STEPS = np.iinfo(np.intp).max // (9 * np.dtype(complex).itemsize) - 1


def _pulse_shape(t, center: float, width: float) -> tuple:
    """The sin^2 pulse of unit peak at time(s) t: (support |x| < 1, cos(pi x/2)^2)
    with x = (t - center)/width. The one spelling of the envelope formula: a
    pulse of peak p is p * cos(pi x/2)^2 on its support and 0 off it."""
    x = (np.asarray(t, dtype=float) - center) / width
    return np.abs(x) < 1.0, np.cos(0.5 * np.pi * x) ** 2


@dataclass(frozen=True)
class PulseEnvelope:
    """One sin^2 laser pulse envelope, with compact support [center-width, center+width]."""

    peak_rabi: float
    center: float
    width: float

    def __post_init__(self):
        for name in ("peak_rabi", "center", "width"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.peak_rabi < 0:
            raise ValueError("peak_rabi must be >= 0")
        if self.width <= 0:
            raise ValueError("width must be > 0")

    def value(self, t):
        """Envelope value at time(s) t; stays within [0, peak_rabi]."""
        support, cos2 = _pulse_shape(t, self.center, self.width)
        return np.where(support, self.peak_rabi * cos2, 0.0)


def _check_duration(total_duration: float) -> None:
    if not (math.isfinite(total_duration) and total_duration > 0):
        raise ValueError(f"total_duration must be finite and > 0, got {total_duration}")


@dataclass(frozen=True)
class StirapSchedule:
    """Pulse timing of one passage: pump/Stokes envelopes, duration and step grid.

    The grid is n_steps steps of dt = total_duration / n_steps. The pulse
    order is the direction: Stokes first (stokes.center < pump.center) is
    'up', which transfers |1>|n> -> |2>|n+1>; pump first is 'down', which
    interchanges the pulse roles. Equal centres have no order and are
    refused. The shared detuning is not a schedule setting: every reader
    takes it from params.delta_stirap.
    """

    pump: PulseEnvelope
    stokes: PulseEnvelope
    total_duration: float
    n_steps: int

    def __post_init__(self):
        _check_duration(self.total_duration)
        if not _is_integer(self.n_steps) or self.n_steps < 1:
            raise ValueError(f"n_steps must be an integer >= 1, got {self.n_steps!r}")
        if self.n_steps > MAX_N_STEPS:
            raise MemoryError(f"n_steps = {self.n_steps} is more steps than an array can hold "
                              f"(at most {MAX_N_STEPS})")
        if self.stokes.center == self.pump.center:
            raise ValueError("pump and Stokes centres must differ: their order is the direction")

    @property
    def direction(self) -> str:
        """'up' when the Stokes pulse comes first, 'down' when the pump does."""
        return "up" if self.stokes.center < self.pump.center else "down"

    @property
    def dt(self) -> float:
        return self.total_duration / self.n_steps


def standard_schedule(total_duration: float, params: PhysicalParams, *,
                      margin: float | None = None,
                      pump_peak: float | None = None,
                      n_steps: int = DEFAULT_N_STEPS) -> StirapSchedule:
    """Build the standard counter-intuitive pulse pair for a given duration.

    Stokes first, so the passage goes up; reversed_schedule gives the down
    passage. The peaks come from one of two settings: the adiabaticity
    margin (default 100), for a pump peak margin/T and a bare Stokes peak
    margin/(eta*T), or an explicit pump_peak, with the Stokes peak at
    pump_peak/eta. Either way the two effective couplings balance on the
    lowest rung. The grid has n_steps steps; the detuning is not part of a
    schedule (params.delta_stirap). A margin or pump_peak must be finite and
    >= 0, and so must the peaks it gives; 0 is the zero-field limit, both
    peaks 0, whose passage is the identity. At a fixed margin and delta_stirap = 0, eta and total_duration are
    units of this family and move no output; under pump_peak both are physical.
    """
    _check_duration(total_duration)  # before any peak or width is derived from it
    if margin is not None and pump_peak is not None:
        raise ValueError("give either margin or an explicit pump peak rate, not both")
    for name, value in (("margin", margin), ("pump_peak", pump_peak)):
        if value is not None and not (math.isfinite(value) and value >= 0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    if pump_peak is None:
        m = DEFAULT_MARGIN if margin is None else margin
        eta_t = params.eta * total_duration
        pump_peak = m / total_duration
        # m/(eta*T), or m/T/eta where eta*T rounds to a subnormal number or 0
        stokes_rabi = m / eta_t if eta_t >= sys.float_info.min else pump_peak / params.eta
        if not (math.isfinite(pump_peak) and math.isfinite(stokes_rabi)):
            raise ValueError(
                f"margin = {m} at eta = {params.eta} and total_duration = {total_duration} gives "
                f"a pump peak margin/total_duration = {pump_peak} and a Stokes peak "
                f"margin/(eta*total_duration) = {stokes_rabi}; both must be finite")
    else:
        stokes_rabi = pump_peak / params.eta
        if not math.isfinite(stokes_rabi):
            raise ValueError(f"pump_peak = {pump_peak} at eta = {params.eta} gives a Stokes peak "
                             f"pump_peak/eta = {stokes_rabi}; it must be finite")
    t = total_duration
    width = WIDTH_FRAC * t
    return StirapSchedule(PulseEnvelope(pump_peak, PUMP_CENTER_FRAC * t, width),
                          PulseEnvelope(stokes_rabi, STOKES_CENTER_FRAC * t, width),
                          t, n_steps)


def reversed_schedule(schedule: StirapSchedule) -> StirapSchedule:
    """Interchange the pulse roles: each field takes the other's time course.

    Peak rates stay with their fields. The pulse order flips, and with it
    the direction: reversing a standard 'up' schedule yields the matching
    'down' passage.
    """
    new_pump = replace(schedule.pump, center=schedule.stokes.center, width=schedule.stokes.width)
    new_stokes = replace(schedule.stokes, center=schedule.pump.center, width=schedule.pump.width)
    return replace(schedule, pump=new_pump, stokes=new_stokes)


def sideband_rate(n: int, t, schedule: StirapSchedule, params: PhysicalParams):
    """Effective Stokes rate on rung n: eta * sqrt(n+1) * Omega_S(t)."""
    return sideband_factors(params, n) * schedule.stokes.value(t)


def adiabaticity_margin(schedule: StirapSchedule, params: PhysicalParams, n: int) -> float:
    """min(T * pump peak, T * effective Stokes peak on rung n); larger is slower."""
    t = schedule.total_duration
    return float(min(t * schedule.pump.peak_rabi,
                     t * sideband_factors(params, n) * schedule.stokes.peak_rabi))


def hamiltonian_block(n: int, t: float, schedule: StirapSchedule,
                      params: PhysicalParams) -> np.ndarray:
    """3x3 Hermitian block over {|1,n>, |3,n>, |2,n+1>} at time t."""
    om_p = float(schedule.pump.value(t))
    om_s = float(sideband_rate(n, t, schedule, params))
    return np.array(
        [[0.0, om_p / 2, 0.0],
         [om_p / 2, params.delta_stirap, om_s / 2],
         [0.0, om_s / 2, 0.0]],
        dtype=complex,
    )


# Gauss-Legendre nodes of the two-point magnus4 rule, as fractions of a step.
_MAGNUS_C1 = 0.5 - np.sqrt(3.0) / 6.0
_MAGNUS_C2 = 0.5 + np.sqrt(3.0) / 6.0
_MAGNUS_COEFF = np.sqrt(3.0) / 12.0
# Steps per chunk: the product's grouping depends on the step index only, not
# on the batch of rungs; also bounds the working arrays.
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
    q = np.float64(d) / 3.0  # a numpy scalar: past the float range q**3 is inf, not an error
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


def _step_spinors(u, v, w) -> np.ndarray:
    """exp(A) for stacked real antisymmetric A = [[0, u, w], [-u, 0, -v], [-w, v, 0]], in SU(2).

    u, v, w are real and broadcast to the stack shape. A is the cross product
    with a = (v, w, -u), so exp(A) turns by theta = |a| about a / theta. The
    result is that rotation's Cayley-Klein pair, laid out pair axis first,
    (2,) + stack shape:

        alpha = cos(theta/2) + i u sin(theta/2)/theta
        beta = -(w + i v) sin(theta/2)/theta

    standing for the SU(2) matrix [[alpha, beta], [-conj(beta), conj(alpha)]]
    (_spinor_product, _rotation_from_spinor). At theta = 0 the sine
    multiplies zeros, so A = 0 maps to (1, 0), the identity, exactly.
    """
    theta = np.sqrt(u * u + v * v + w * w)
    half = 0.5 * theta
    s = np.sin(half) / np.where(theta > 0.0, theta, 1.0)
    out = np.empty((2,) + theta.shape, dtype=complex)
    np.cos(half, out=out[0].real)
    np.multiply(u, s, out=out[0].imag)
    np.negative(s, out=s)
    np.multiply(w, s, out=out[1].real)
    np.multiply(v, s, out=out[1].imag)
    return out


def _single_field_run(pump_off: np.ndarray, stokes_off: np.ndarray) -> tuple[int, bool]:
    """Length of the leading run of steps with one field off, and whether it is the pump.

    pump_off and stokes_off flag the steps where that field is exactly 0 at
    both quadrature nodes. The longer of the two leading runs is taken; steps
    with both fields off belong to either.
    """
    counts = [len(off) if off.all() else int(off.argmin()) for off in (pump_off, stokes_off)]
    return max(counts), counts[0] >= counts[1]


def _run_spinors(live, scale, pump_off: bool, dt, prefix: bool) -> np.ndarray:
    """Cayley-Klein pairs of a single-field run of resonant steps, (2, schedules, rungs, 1).

    live holds the other field's half rate at the two nodes of each step of
    the run, (schedules, steps) each, scale its per-rung factor, (rungs, 1),
    and dt each schedule's step, (schedules, 1, 1). With one field off, w = 0
    and every step turns about one fixed axis (x with the pump off, z with
    the Stokes field off), so the steps commute and the run is one rotation
    by their summed angle: v = scale dt sum (b1 + b2)/2 with u = 0, or
    u = scale dt sum (a1 + a2)/2 with v = 0, the sum taken pairwise. With
    prefix=True returns the rotations by the running sums instead, (2,
    schedules, rungs, steps); the last is the run's rotation from the same
    call, so it equals the end point bit for bit.
    """
    mid = ((live[0] + live[1]) / 2)[:, None]

    def turn(c):
        angle = scale * (dt * c)
        return _step_spinors(0.0, angle, 0.0) if pump_off else _step_spinors(angle, 0.0, 0.0)

    last = turn(np.sum(mid, axis=-1, keepdims=True))
    if not prefix:
        return last
    return np.concatenate((turn(np.cumsum(mid[..., :-1], axis=-1)), last), axis=-1)


def _spinor_product(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b for stacks of SU(2) matrices stored as Cayley-Klein pairs, (2, ...).

    alpha = alpha_a alpha_b - beta_a conj(beta_b) and beta = alpha_a beta_b +
    beta_a conj(alpha_b); each multiply covers both rows.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    t = a[1] * b[::-1].conj()
    np.multiply(a[0], b, out=out)
    out[0] -= t[0]
    out[1] += t[1]
    return out


def _rotation_from_spinor(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The real 3x3 rotations of stacked Cayley-Klein pairs (2, ...), as (3, 3, ...).

    Each entry is quadratic in (alpha, beta), the Cayley-Klein form of the
    rotation of [[alpha, beta], [-conj(beta), conj(alpha)]]; the pair (1, 0)
    reads the identity exactly.
    """
    alpha, beta = x[0], x[1]
    if out is None:
        out = np.empty((3, 3) + alpha.shape)
    aa, bb, ab, abc = alpha * alpha, beta * beta, alpha * beta, alpha * beta.conj()
    plus, minus = aa + bb, aa - bb
    out[0, 0] = minus.real
    out[0, 1] = plus.imag
    out[0, 2] = -2.0 * ab.real
    out[1, 0] = -minus.imag
    out[1, 1] = plus.real
    out[1, 2] = 2.0 * ab.imag
    out[2, 0] = 2.0 * abc.real
    out[2, 1] = 2.0 * abc.imag
    out[2, 2] = alpha.real**2 + alpha.imag**2 - beta.real**2 - beta.imag**2
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


def _pairwise_product(m: np.ndarray, product, prefix: bool = False) -> np.ndarray:
    """Time-ordered product of a stack of steps along axis 2, later @ earlier.

    product(later, earlier, out=None) multiplies two stacks: _matmul3 for
    (3, 3, steps, ...) matrices, _spinor_product for (2, ..., steps)
    Cayley-Klein pairs. Neighbours multiply pairwise, later @ earlier, and
    an odd tail is carried up a level, until one element is left:
    log-depth, each level one vectorized multiply. With prefix=True returns
    the inclusive prefix products instead, shaped like m: each level's
    prefixes are its pair products' prefixes, plus one multiply for the even
    entries. The last prefix is the reduction's root, computed by the same
    multiplies on the same arrays, so it equals the product bit for bit.
    """
    s = m.shape[2]
    if s == 1:
        return m if prefix else m[:, :, 0]
    half = s // 2
    pairs = np.empty(m.shape[:2] + (half + s % 2,) + m.shape[3:], dtype=m.dtype)
    product(m[:, :, 1:2 * half:2], m[:, :, 0:2 * half:2], out=pairs[:, :, :half])
    if s % 2:
        pairs[:, :, -1] = m[:, :, -1]
    if not prefix:
        return _pairwise_product(pairs, product)
    sub = _pairwise_product(pairs, product, prefix=True)
    out = np.empty_like(m)
    out[:, :, 0] = m[:, :, 0]
    out[:, :, 1::2] = sub[:, :, :half]
    product(m[:, :, 2:2 * half:2], sub[:, :, :half - 1], out=out[:, :, 2:2 * half:2])
    if s % 2:
        out[:, :, -1] = sub[:, :, -1]
    return out


def _sampled(schedule: StirapSchedule, method: str, shapes: dict | None = None) -> np.ndarray:
    """The pulses at the two quadrature nodes of each step, shape (2, 2, n_steps).

    [0] is the half pump rate, shared by all rungs, and [1] the bare Stokes
    rate, which each rung scales; the node is the second axis. method picks
    the nodes: the Gauss pair for magnus4, both at mid-step for midpoint.
    shapes holds the _pulse_shape of each pulse geometry on each node grid,
    keyed by (total_duration, n_steps, node fraction, center, width), and is
    filled here. A build_passages call passes one dict for all its
    schedules, so the schedules that share a step grid share its pulse
    shapes (a sweep's margins, and a reverse's pump, which has its partner's
    Stokes geometry) and only their peaks are applied one by one. Every
    sample is bit for bit PulseEnvelope.value at its node.
    """
    if method == "midpoint":
        c1 = c2 = 0.5
    elif method == "magnus4":
        c1, c2 = _MAGNUS_C1, _MAGNUS_C2
    else:
        raise ValueError(f"unknown integration method {method!r}")
    shapes = {} if shapes is None else shapes
    dt = schedule.dt
    out = np.zeros((2, 2, schedule.n_steps))
    for row, pulse in zip(out, (schedule.pump, schedule.stokes)):
        for samples, c in zip(row, (c1, c2)):
            key = (schedule.total_duration, schedule.n_steps, c, pulse.center, pulse.width)
            if key not in shapes:
                nodes = np.arange(schedule.n_steps) * dt + c * dt
                shapes[key] = _pulse_shape(nodes, pulse.center, pulse.width)
            support, cos2 = shapes[key]
            # PulseEnvelope.value's where(support, peak * cos2, 0.0), written in place
            np.multiply(cos2, pulse.peak_rabi, out=samples, where=support)
    out[0] /= 2
    return out


def _runs(sampled: np.ndarray) -> tuple:
    """(lead, pump off, trail, pump off) of a resonant step grid: the lengths of its
    leading and trailing single-field runs and which field each has off."""
    pump_off, stokes_off = ~sampled.any(axis=1)  # exactly 0 (or -0.0) at both nodes
    lead, lead_pump_off = _single_field_run(pump_off, stokes_off)
    trail, trail_pump_off = _single_field_run(pump_off[lead:][::-1], stokes_off[lead:][::-1])
    return lead, lead_pump_off, trail, trail_pump_off


# A step generator past the float range turns the product into inf or nan,
# which the finiteness checks refuse, so numpy's warnings about it are muted.
@np.errstate(over="ignore", invalid="ignore")
def _integrate(schedules, sampled, params: PhysicalParams, ns,
               trajectory: bool = False) -> np.ndarray:
    """The passages of schedules sharing one step grid, rows (schedule, rung).

    ns are the rungs, as sideband_factors reads them, and sampled holds
    each schedule's _sampled pulses. On resonance the schedules also share
    their single-field runs (_runs); off it there is one schedule. Returns
    (len(schedules), len(ns), 3, 3), or for one schedule the trajectory
    (n_steps+1, len(ns), 3, 3), unchecked: a row past the float range is
    inf or nan. Each schedule's dt and kappa, and
    every step of a row, are computed as for that schedule alone.
    """
    n_steps = schedules[0].n_steps
    rates = np.atleast_1d(sideband_factors(params, ns))
    rows = len(schedules) * len(rates)
    delta = params.delta_stirap
    resonant = delta == 0.0
    # Steps run along axis 2 of every stack: (2, rows, steps) Cayley-Klein
    # pairs on resonance, (3, 3, steps, rungs) blocks off it. p is the product
    # of the segments so far; multiplying by the identity is exact. A segment
    # is (steps, run): run is None for a chunk of the step kernel, else True
    # for a single-field run with the pump off, False for one with Stokes off.
    # The runs are read off the envelopes, so they are the same for every rung.
    lead = trail = 0
    if resonant:
        product, p = _spinor_product, np.array([[1.0], [0.0]], dtype=complex)
        # (schedule, 1, 1) and (schedule, steps) per node, so a chunk is (schedule, rung, step)
        dt = np.array([s.dt for s in schedules])[:, None, None]
        pumps, stokes = np.stack(sampled, axis=2)
        half_rates = rates[:, None] / 2
        lead, lead_pump_off, trail, trail_pump_off = _runs(sampled[0])
    else:
        (schedule,), (sample,) = schedules, sampled
        product, p = _matmul3, np.eye(3, dtype=complex)[:, :, None]
        dt = schedule.dt
        pumps, stokes = sample
    kappa = _MAGNUS_COEFF * dt
    end = n_steps - trail
    segments = [(slice(lo, min(lo + _CHUNK_STEPS, end)), None)
                for lo in range(lead, end, _CHUNK_STEPS)]
    if lead:
        segments.insert(0, (slice(0, lead), lead_pump_off))
    if trail:
        segments.append((slice(end, n_steps), trail_pump_off))
    p = np.broadcast_to(p, p.shape[:-1] + (rows,))
    if trajectory:
        traj = np.empty((n_steps + 1, rows, 3, 3), dtype=float if resonant else complex)
        # the product at every step boundary: a detuned one is the trajectory
        # itself, a resonant one is read out as rotations at the end
        hist = (np.empty((2, rows, n_steps + 1), dtype=complex) if resonant
                else traj.transpose(2, 3, 0, 1))
        hist[:, :, 0] = p
    for sl, run in segments:
        if run is not None:
            live, scale = (stokes, half_rates) if run else (pumps, np.ones_like(half_rates))
            steps = _run_spinors([x[:, sl] for x in live], scale, run, dt, trajectory)
        elif resonant:
            # (schedule, rung, chunk); the commutator term alone survives in w = i omega
            a1, a2 = (x[:, None, sl] for x in pumps)
            b1, b2 = (half_rates * x[:, None, sl] for x in stokes)
            u, v = dt * ((a1 + a2) / 2), dt * ((b1 + b2) / 2)
            w = -kappa * dt * (a2 * b1 - b2 * a1)
            steps = _step_spinors(u, v, w)
        else:
            # (chunk, rungs); generator (h1 + h2)/2 - i kappa [h2, h1]; the commutator
            # is real antisymmetric with entries D(a2 - a1), a2 b1 - b2 a1, D(b1 - b2)
            a1, a2 = (x[sl, None] for x in pumps)
            b1, b2 = (rates * x[sl, None] / 2 for x in stokes)
            u = dt * ((a1 + a2) / 2 - 1j * kappa * delta * (a2 - a1))
            v = dt * ((b1 + b2) / 2 - 1j * kappa * delta * (b1 - b2))
            w = -1j * kappa * dt * (a2 * b1 - b2 * a1)
            steps = _step_exponentials(u, v, w, delta * dt)
        if resonant:
            steps = steps.reshape(2, rows, steps.shape[-1])
        if trajectory:
            if run is None:
                steps = _pairwise_product(steps, product, prefix=True)
            hist[:, :, sl.start + 1:sl.stop] = product(steps[:, :, :-1], p[:, :, None])
            root = steps[:, :, -1]
        else:
            root = _pairwise_product(steps, product)
        # numpy's complex multiply rounds differently on some layouts (a
        # broadcast operand, an elided temporary), so both modes carry the
        # product by the same call on arrays of the same shape and layout
        p = product(np.ascontiguousarray(root), p)
        if trajectory:
            hist[:, :, sl.stop] = p
    if trajectory:
        if resonant:  # the last boundary read out as the end point is
            _rotation_from_spinor(hist[:, :, :-1], out=traj[:-1].transpose(2, 3, 1, 0))
            _rotation_from_spinor(p, out=traj[-1].transpose(1, 2, 0))
        out = traj
    elif resonant:
        out = np.ascontiguousarray(_rotation_from_spinor(p).transpose(2, 0, 1))
    else:
        out = np.ascontiguousarray(p.transpose(2, 0, 1))
    if resonant:
        out = out * _ROTATION_PHASES
    return out if trajectory else out.reshape(len(schedules), len(rates), 3, 3)


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
    The trajectory takes each chunk's inclusive prefix products from the same
    pairwise routine, whose last entry is the chunk product bit for bit; both
    modes fold each chunk product into the running product by the same call,
    so traj[-1] equals the final propagator exactly. This runs the one
    integrator, _integrate, on one schedule; the cached passages
    (passage_blocks, build_passages) come from _build, which runs the same
    _integrate on a batch of schedules, so none is read through here. It stays
    the public reference for midpoint and for trajectories.

    On two-photon resonance (params.delta_stirap = 0) both generators have
    real u, v and an imaginary w = i*omega, so M = D (i A) D^dagger with
    D = diag(1, i, 1) and A = [[0, u, omega], [-u, 0, -v], [-omega, v, 0]]
    real antisymmetric: each step is the rotation exp(A) in the basis
    (|1,n>, i|3,n>, |2,n+1>). Each step is kept as its Cayley-Klein pair
    (_step_spinors) and the product runs in SU(2) (_spinor_product, the same
    pairwise tree and chunks); the rotation is read out once per rung, or
    once per step boundary for a trajectory (_rotation_from_spinor), and
    D .. D^dagger is applied once, elementwise, at the end.
    A resonant step with one field exactly 0 at both nodes has w = 0 and
    either u = 0 (pump off) or v = 0 (Stokes off): it turns about a fixed
    axis. So the leading and the trailing run of such steps (Stokes alone on
    [0, 0.2T] and the pump alone on [0.8T, T] in the standard schedule, 40 %
    of the steps) each collapse to one rotation by their summed angle
    (_run_spinors); only the steps between the runs take the step kernel
    and the tree. A trajectory reads the rotations by the running sums
    inside a run.
    Detuned steps are not rotations and take the closed-form SU(3) kernel;
    there a single-field step does not commute with the next, so every step
    is evaluated.
    A rung must be an integer >= 0 (operators.sideband_factors); an empty ns
    gives (0, 3, 3). A propagator that is not finite raises NormDrift.
    """
    out = _integrate([schedule], [_sampled(schedule, method)], params, ns, trajectory)
    if not np.all(np.isfinite(out)):
        raise _not_finite(schedule, params)
    return out if trajectory else out[0]


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


def block_trajectory(schedule: StirapSchedule, params: PhysicalParams, n: int):
    """Times and 3-level amplitudes over the passage, starting on the source level.

    Returns (times, amps) with amps[k] = (c_{1,n}, c_{3,n}, c_{2,n+1}) at step
    boundary k. For an 'up' schedule the final transferred population equals
    |transfer_amplitudes|^2 exactly: both fold the same closed-form step
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

    Same width, and pump.center + stokes.center equal to the total duration
    to rounding: then the reversed schedule's Hamiltonian at t is this one's
    at T - t.
    """
    pump, stokes = schedule.pump, schedule.stokes
    return (pump.width == stokes.width
            and abs(pump.center + stokes.center - schedule.total_duration)
            <= 1e-14 * schedule.total_duration)


# Passages built, (schedule, params, n_rungs) -> read-only (up, down), least
# recently used first: the one cache, read by passage_blocks and filled by
# _build only.
_PASSAGES: OrderedDict = OrderedDict()
PASSAGE_CACHE_SIZE = 32
# Rows (schedule, rung) of one batched integration at most. Measured on a
# 2-vCPU x86-64 VM at 1500 and 2000 steps (medians of 15 runs, 2 and 3
# standard schedules against their separate builds): a batch takes 0.55-0.8x
# the time up to 48 rows (3 x 13 rungs: 0.72-0.74x), 0.86-0.96x at 64 and
# 0.78-1.07x at 96-128; past 140 rows it is mostly slower (0.87-1.41x), as a
# chunk's working arrays outgrow the cache. A 242-rung schedule is built alone.
_BATCH_ROWS = 64


def _not_finite(schedule: StirapSchedule, params: PhysicalParams) -> NormDrift:
    """The error of a passage whose propagator is not finite."""
    return NormDrift(
        "the passage propagator is not finite: a step generator overflows a float "
        f"(dt = {schedule.dt:.3g} s, pump peak {schedule.pump.peak_rabi:.3g} rad/s, Stokes "
        f"peak {schedule.stokes.peak_rabi:.3g} rad/s, detuning {params.delta_stirap:.3g} "
        "rad/s)")


def _is_rung_count(n_rungs) -> bool:
    """The rule for a passage's rung count: an integer >= 0, 0 being the empty pair."""
    return _is_integer(n_rungs) and n_rungs >= 0


def _parts(schedule: StirapSchedule, shapes: dict | None = None) -> tuple:
    """A pair's schedules (the 'up' one, and its reverse unless the pulses mirror) and
    pulses, sampled through shapes (_sampled): the reverse reads its partner's."""
    parts = (schedule,) if _is_mirrored(schedule) else (schedule, reversed_schedule(schedule))
    shapes = {} if shapes is None else shapes
    return parts, [_sampled(s, DEFAULT_METHOD, shapes) for s in parts]


def _build(batch: list, params: PhysicalParams, n_rungs: int) -> None:
    """Integrate passage pairs together and cache each one whose blocks are finite.

    batch holds the _parts of 'up' schedules that share a step grid, mirror
    symmetry and, on resonance, the single-field runs of each direction. The
    up passages are one _integrate call with rows (schedule, rung) and the
    down passages, for pulses that do not mirror, another; a mirrored pair
    caches down = up^T. A batch of one is a schedule's own build.
    """
    parts, sampled = zip(*batch)
    ns = np.arange(n_rungs)
    built = [_integrate(s, x, params, ns) for s, x in zip(zip(*parts), zip(*sampled))]
    for i, (schedule, *_) in enumerate(parts):
        up, *down = (b[i] for b in built)
        if all(np.isfinite(b).all() for b in (up, *down)):
            down = down[0] if down else up.transpose(0, 2, 1)
            up.flags.writeable = down.flags.writeable = False
            _PASSAGES[(schedule, params, n_rungs)] = up, down
            if len(_PASSAGES) > PASSAGE_CACHE_SIZE:
                _PASSAGES.popitem(last=False)


def passage_blocks(schedule: StirapSchedule, params: PhysicalParams, n_rungs: int, /) -> tuple:
    """Read-only (up, down) blocks of an 'up' schedule and its reverse, rungs 0..n_rungs-1.

    The one cached passage build that the gate, the sweep and every end-point
    reader share, integrated with the magnus4 rule. The cache (_PASSAGES,
    the PASSAGE_CACHE_SIZE most recently used builds) keys on the arguments
    as passed; they are positional-only, so one schedule has one key. A miss
    is built by _build as a batch of one, the one builder that build_passages
    runs on many keys. A resonant rung n comes out bit-identical in every
    batch, a detuned one to about 1e-15.
    When the pulses mirror each other, the reverse passage is the up passage
    run backwards in time; the blocks are real symmetric and each step maps
    to the transpose of its mirror step, so down = up^T exactly up to
    rounding and only the up passage is integrated. Otherwise the reversed
    schedule is integrated too. A 'down' schedule is refused (ValueError):
    its passage is the [1] half of its reverse's build. So is an n_rungs
    that is not an integer >= 0, and blocks that are not finite raise
    NormDrift.
    """
    key = (schedule, params, n_rungs)
    if key not in _PASSAGES:
        if schedule.direction != "up":
            raise ValueError("passage_blocks needs an 'up' schedule (Stokes first), got a 'down' "
                             "one; pass reversed_schedule(schedule) and read [1] for its passage")
        if not _is_rung_count(n_rungs):
            raise ValueError(f"n_rungs must be an integer >= 0, got {n_rungs!r}")
        _build([_parts(schedule)], params, n_rungs)
        if key not in _PASSAGES:
            raise _not_finite(schedule, params)
    _PASSAGES.move_to_end(key)
    return _PASSAGES[key]


passage_blocks.cache_clear = _PASSAGES.clear  # the spelling of a functools cache


def build_passages(keys) -> None:
    """Build the uncached passage_blocks keys (schedule, params, n_rungs) together.

    The keys are grouped by params, rung count, step grid, mirror symmetry
    and the single-field runs (_runs) of each direction; a detuned key, whose
    rounding depends on the size of its batch, is a group of its own. Each
    group is cut into batches of at most _BATCH_ROWS rows (schedule, rung),
    and _build integrates every batch of two or more keys. A key alone in
    its batch is left for passage_blocks, which builds the same blocks by the
    same _build; each batch row is bit-identical to the schedule's own build.
    A 'down' schedule or an n_rungs that passage_blocks refuses, a key whose
    blocks are not finite and the keys of a batch that cannot be allocated
    are not cached here either: passage_blocks raises their error where they
    are read. Keys already cached are marked as just used, so that this
    call's builds do not evict them. The keys' schedules share one dict of
    pulse shapes (_sampled), which lives for this call only.
    """
    groups = {}
    shapes = {}  # the pulse shapes of this call's step grids (_sampled)
    for key in dict.fromkeys(keys):
        schedule, params, n_rungs = key
        if key in _PASSAGES:
            _PASSAGES.move_to_end(key)
        elif schedule.direction == "up" and _is_rung_count(n_rungs):
            with suppress(MemoryError):  # passage_blocks raises it where the key is read
                parts, sampled = _parts(schedule, shapes)
                # one runs entry per direction integrated, so mirrored and
                # unmirrored pulses never share a group
                runs = tuple(_runs(x) for x in sampled)
                group = (params, n_rungs, schedule.n_steps, runs,
                         schedule if params.delta_stirap else None)
                groups.setdefault(group, []).append((parts, sampled))
    for (params, n_rungs, *_), entries in groups.items():
        width = max(_BATCH_ROWS // max(n_rungs, 1), 1)  # keys per batch
        for lo in range(0, len(entries), width):
            batch = entries[lo:lo + width]
            if len(batch) > 1:  # a key alone in its batch is left for passage_blocks
                with suppress(MemoryError):  # as are the keys of a batch too large
                    _build(batch, params, n_rungs)


def apply_blocks(x: np.ndarray, blocks: np.ndarray) -> None:
    """Apply per-rung 3x3 blocks on {|1,n>, |3,n>, |2,n+1>} of the control ion, in place.

    x carries the control-ion level on axis 0 and the phonon occupation on
    its last axis; blocks has shape (..., n_rungs, 3, 3) and broadcasts
    against the axes in between. With n_rungs = x.shape[-1] - 1 the ladder
    top on levels 1 and 3 is left as it is; with n_rungs = x.shape[-1] the
    top block's shelf cell lies past the phonon axis, so it enters as 0 and
    what the block sends there is dropped. Level 0 and |2>|0> are left as they are.
    """
    n, top = blocks.shape[-3], x.shape[-1] - 1
    v = np.zeros(x.shape[1:-1] + (n, 3), dtype=x.dtype)
    v[..., 0] = x[1, ..., :n]
    v[..., 1] = x[3, ..., :n]
    v[..., :top, 2] = x[2, ..., 1:]
    w = np.einsum("...nij,...nj->...ni", blocks, v)
    x[1, ..., :n] = w[..., 0]
    x[3, ..., :n] = w[..., 1]
    x[2, ..., 1:] = w[..., :top, 2]


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
    durations = sorted(durations)
    for name, values in (("durations", durations), ("n_values", n_values)):
        if len(values) == 0:
            raise ValueError(f"{name} is empty: calibrate_transfer needs at least one")
    history = []
    for t in durations:
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
