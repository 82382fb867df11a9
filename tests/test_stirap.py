import json
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hotgate.errors import DomainError, TruncationLeakage
from hotgate.hilbert import CompositeSpace, CompositeState, FockSpace, basis_state, compose_state
from hotgate.operators import PhysicalParams, adiabatic_down, adiabatic_up
from hotgate.states import fock_state
from hotgate import cli, stirap
from hotgate import gate as g
from test_gate import passage_builds  # noqa: F401 - build-counting fixture

PARAMS = PhysicalParams(eta=0.1, omega=2 * np.pi * 1e5, n_ions=2, delta=2 * np.pi * 1e7)


def schedule(margin=100.0, n_steps=2000, duration=1.0):
    return stirap.standard_schedule(duration, PARAMS, margin=margin, n_steps=n_steps)


def detuned(delta):
    """PARAMS with the pump/Stokes detuning delta, the one place a passage reads it."""
    return replace(PARAMS, delta_stirap=delta)


def dense_passage_oracle(sched, params, d):
    """Independent route: full-matrix magnus4 stepping with scipy's expm."""

    def ham(t):
        h = np.zeros((4 * d, 4 * d), dtype=complex)
        for n in range(d - 1):
            idx = [1 * d + n, 3 * d + n, 2 * d + (n + 1)]
            h[np.ix_(idx, idx)] = stirap.hamiltonian_block(n, t, sched, params)
        return h

    u = np.eye(4 * d, dtype=complex)
    dt = sched.dt
    for k in range(sched.n_steps):
        h1 = ham((k + 0.5 - np.sqrt(3.0) / 6.0) * dt)
        h2 = ham((k + 0.5 + np.sqrt(3.0) / 6.0) * dt)
        gen = 0.5 * (h1 + h2) - 1j * np.sqrt(3.0) / 12.0 * dt * (h2 @ h1 - h1 @ h2)
        u = scipy.linalg.expm(-1j * gen * dt) @ u
    return u


# ---------------------------------------------------------------- envelopes

def test_envelope_bounds_and_support():
    env = stirap.PulseEnvelope(2.0, center=0.5, width=0.2)
    ts = np.linspace(-1, 2, 601)
    vals = env.value(ts)
    assert np.all(vals >= 0) and np.all(vals <= 2.0)
    assert env.value(0.5) == 2.0
    assert env.value(0.29) == 0.0 and env.value(0.71) == 0.0


def test_envelope_validation():
    with pytest.raises(ValueError):
        stirap.PulseEnvelope(-1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        stirap.PulseEnvelope(1.0, 0.0, 0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_physics_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        PhysicalParams(eta=0.1, omega=1.0, n_ions=2, delta=1.0, delta_stirap=bad)
    for field in ("peak_rabi", "center", "width"):
        kwargs = dict(peak_rabi=1.0, center=0.5, width=0.2)
        kwargs[field] = bad
        with pytest.raises(ValueError, match="finite"):
            stirap.PulseEnvelope(**kwargs)
    pump = stirap.PulseEnvelope(1.0, center=0.7, width=0.2)
    stokes = stirap.PulseEnvelope(1.0, center=0.3, width=0.2)
    with pytest.raises(ValueError, match="finite"):
        stirap.StirapSchedule(pump, stokes, total_duration=bad, n_steps=100)


# ---------------------------------------------------------------- schedules

def test_schedule_ordering_invariants():
    early = stirap.PulseEnvelope(1.0, center=0.3, width=0.2)
    late = stirap.PulseEnvelope(1.0, center=0.7, width=0.2)
    # the pulse order is the direction: Stokes first goes up, pump first down
    assert stirap.StirapSchedule(late, early, 1.0, 1000).direction == "up"
    assert stirap.StirapSchedule(early, late, 1.0, 1000).direction == "down"
    with pytest.raises(ValueError, match="centres must differ"):  # no order, no direction
        stirap.StirapSchedule(early, replace(late, center=0.3), 1.0, 1000)
    with pytest.raises(TypeError):  # no direction field to contradict the order
        stirap.StirapSchedule(late, early, 1.0, 1000, "down")


@pytest.mark.parametrize("n_steps", [0, -3, 2.5, True])
def test_schedule_needs_a_positive_integer_step_count(n_steps):
    pump = stirap.PulseEnvelope(1.0, center=0.7, width=0.2)
    stokes = stirap.PulseEnvelope(1.0, center=0.3, width=0.2)
    with pytest.raises(ValueError, match="n_steps must be an integer >= 1"):
        stirap.StirapSchedule(pump, stokes, 1.0, n_steps)


def test_schedule_step_is_duration_over_step_count():
    pump = stirap.PulseEnvelope(1.0, center=0.7, width=0.2)
    stokes = stirap.PulseEnvelope(1.0, center=0.3, width=0.2)
    sched = stirap.StirapSchedule(pump, stokes, 1.0, np.int64(10000))
    assert sched.n_steps == 10000 and sched.dt == 1.0 / 10000
    assert schedule(n_steps=300, duration=0.3).dt == 0.3 / 300


def test_schedule_refuses_a_step_grid_no_array_can_hold():
    pump = stirap.PulseEnvelope(1.0, center=0.7, width=0.2)
    stokes = stirap.PulseEnvelope(1.0, center=0.3, width=0.2)
    assert stirap.StirapSchedule(pump, stokes, 1.0, stirap.MAX_N_STEPS).n_steps > 10**16
    with pytest.raises(MemoryError, match="n_steps"):
        stirap.StirapSchedule(pump, stokes, 1.0, stirap.MAX_N_STEPS + 1)


def test_standard_schedule_refuses_zero_steps():
    with pytest.raises(ValueError, match="n_steps"):
        stirap.standard_schedule(1.0, PARAMS, n_steps=0)


def test_standard_schedule_geometry():
    up = schedule(margin=50.0, n_steps=100)
    assert up.stokes.center < up.pump.center
    assert up.pump.value(0.0) == 0.0
    assert up.stokes.value(up.total_duration) == 0.0
    assert abs(up.pump.peak_rabi * up.total_duration - 50.0) < 1e-12
    down = stirap.reversed_schedule(up)
    assert down.pump.center < down.stokes.center


def test_standard_schedule_rejects_conflicting_peaks():
    with pytest.raises(ValueError):
        stirap.standard_schedule(1.0, PARAMS, margin=50.0, pump_peak=1.0)


def test_reversed_schedule_swaps_roles():
    up = schedule(margin=80.0, n_steps=64)
    down = stirap.reversed_schedule(up)
    assert down.direction == "down"
    assert down.pump.center == up.stokes.center
    assert down.stokes.center == up.pump.center
    assert down.pump.peak_rabi == up.pump.peak_rabi  # peaks stay with their fields
    assert down == stirap.StirapSchedule(replace(up.pump, center=up.stokes.center),
                                         replace(up.stokes, center=up.pump.center), 1.0, 64)
    assert stirap.reversed_schedule(down) == up


# ---------------------------------------------------------------- block Hamiltonian

def test_block_zero_drive_is_bare_detuning():
    pump = stirap.PulseEnvelope(1.0, center=0.7, width=0.1)
    stokes = stirap.PulseEnvelope(1.0, center=0.3, width=0.1)
    sched = stirap.StirapSchedule(pump, stokes, 1.0, n_steps=1000)
    h = stirap.hamiltonian_block(2, 0.5, sched, detuned(2.5))  # both envelopes are zero here
    assert np.array_equal(h, np.diag([0.0, 2.5, 0.0]).astype(complex))


@given(st.integers(0, 20), st.floats(0.0, 1.0))
@settings(max_examples=60, deadline=None)
def test_block_hermitian(n, t):
    h = stirap.hamiltonian_block(n, t, schedule(), PARAMS)
    assert np.array_equal(h, h.conj().T)


def test_block_dark_state_nullity():
    sched = schedule(margin=70.0)
    for n in (0, 4):
        for t in (0.35, 0.5, 0.62):
            om_p = float(sched.pump.value(t))
            om_s = float(stirap.sideband_rate(n, t, sched, PARAMS))
            theta = np.arctan2(om_p, om_s)
            dark = np.array([np.cos(theta), 0.0, -np.sin(theta)], dtype=complex)
            h = stirap.hamiltonian_block(n, t, sched, PARAMS)
            assert abs((h @ dark)[1]) < 1e-12


def test_block_index_errors():
    # one rung rule for every reader of a rung: below 0 is refused, not read as
    # eta sqrt(0) = 0 (rung -1) or as an overflowing generator (rung -2)
    sched = schedule(n_steps=300)
    readers = [lambda n: stirap.hamiltonian_block(n, 0.5, sched, PARAMS),
               lambda n: stirap.sideband_rate(n, 0.5, sched, PARAMS),
               lambda n: stirap.adiabaticity_margin(sched, PARAMS, n),
               lambda n: stirap.block_propagators(sched, PARAMS, [0, n]),
               lambda n: stirap.block_trajectory(sched, PARAMS, n)]
    for read in readers:
        for n in (-1, -2):
            with pytest.raises(IndexError, match=f"occupation {n} must be >= 0"):
                read(n)


# ---------------------------------------------------------------- margin

def test_margin_equal_peaks():
    # T * peak = 10 on both effective couplings at n = 0
    sched = schedule(margin=10.0, n_steps=10)
    assert abs(stirap.adiabaticity_margin(sched, PARAMS, 0) - 10.0) < 1e-12


def test_margin_grows_with_n_for_pump_dominant_pair():
    pump = stirap.PulseEnvelope(100.0, center=0.7, width=0.5)
    stokes = stirap.PulseEnvelope(50.0, center=0.3, width=0.5)  # eta*sqrt(n+1)*50 << 100
    sched = stirap.StirapSchedule(pump, stokes, 1.0, 100)
    margins = [stirap.adiabaticity_margin(sched, PARAMS, n) for n in range(4)]
    assert all(b > a for a, b in zip(margins, margins[1:]))


def test_margin_independent_of_dt():
    a = schedule(margin=33.0, n_steps=100)
    b = schedule(margin=33.0, n_steps=700)
    assert stirap.adiabaticity_margin(a, PARAMS, 2) == stirap.adiabaticity_margin(b, PARAMS, 2)


# ---------------------------------------------------------------- propagators

def test_propagator_unitary_and_trajectory_consistency():
    sched = schedule(n_steps=400)
    traj = stirap.block_propagators(sched, PARAMS, [0, 3], trajectory=True)
    final = stirap.block_propagators(sched, PARAMS, [0, 3])
    assert np.array_equal(traj[-1], final)
    assert traj.shape == (401, 2, 3, 3)
    eye = np.eye(3)
    for p in final:
        assert np.max(np.abs(p.conj().T @ p - eye)) < 1e-12
    # per-step propagators are unitary too
    step = traj[200] @ np.conj(np.swapaxes(traj[199], -1, -2))
    defect = np.conj(np.swapaxes(step, -1, -2)) @ step - eye
    assert np.max(np.abs(defect)) < 1e-12


def test_dt_halving_convergence():
    ns = np.arange(11)
    p1 = stirap.block_propagators(schedule(n_steps=2000), PARAMS, ns)
    p2 = stirap.block_propagators(schedule(n_steps=4000), PARAMS, ns)
    pops1 = np.abs(p1) ** 2
    pops2 = np.abs(p2) ** 2
    assert np.max(np.abs(pops1 - pops2)) < 1e-8


def test_midpoint_agrees_with_magnus():
    # two independent stepping rules converge to the same propagator
    pm = stirap.block_propagators(schedule(margin=60.0, n_steps=1500), PARAMS, [0, 3, 7])
    pp = stirap.block_propagators(schedule(margin=60.0, n_steps=24000), PARAMS, [0, 3, 7],
                                  method="midpoint")
    assert np.max(np.abs(pm - pp)) < 1e-7


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        stirap.block_propagators(schedule(n_steps=10), PARAMS, [0], method="euler")


def eigh_stepper_oracle(sched, params, ns, method="magnus4", trajectory=False):
    """Per-step propagator through a batched eigh of each stacked 3x3 generator."""
    ns = np.asarray(ns)
    dt = sched.dt
    starts = np.arange(sched.n_steps) * dt

    def hams(ts):
        h = np.zeros((len(ts), len(ns), 3, 3), dtype=complex)
        h[:, :, 0, 1] = h[:, :, 1, 0] = sched.pump.value(ts)[:, None] / 2
        h[:, :, 1, 2] = h[:, :, 2, 1] = stirap.sideband_rate(ns[None, :], ts[:, None],
                                                             sched, params) / 2
        h[:, :, 1, 1] = params.delta_stirap
        return h

    if method == "midpoint":
        gens = hams(starts + dt / 2)
    else:
        h1 = hams(starts + (0.5 - np.sqrt(3.0) / 6.0) * dt)
        h2 = hams(starts + (0.5 + np.sqrt(3.0) / 6.0) * dt)
        gens = 0.5 * (h1 + h2) - 1j * np.sqrt(3.0) / 12.0 * dt * (h2 @ h1 - h1 @ h2)
    w, v = np.linalg.eigh(gens)
    steps = np.einsum("...ij,...j,...kj->...ik", v, np.exp(-1j * w * dt), v.conj())
    p = np.broadcast_to(np.eye(3, dtype=complex), (len(ns), 3, 3))
    traj = [p]
    for step in steps:
        p = step @ p
        traj.append(p)
    return np.array(traj) if trajectory else p


def narrow_mirrored_schedule():
    # both fields vanish on [0, 0.2] and [0.8, 1]: there the resonant generator
    # is exactly 0, a triple-degenerate spectrum
    pump = stirap.PulseEnvelope(300.0, center=0.6, width=0.2)
    stokes = stirap.PulseEnvelope(3000.0, center=0.4, width=0.2)
    return stirap.StirapSchedule(pump, stokes, 1.0, 800)


def wide_mirrored_schedule(n_steps=600):
    # both fields are on over all of [0, 1], so no step has a field off and
    # every step takes the step kernel; the cases on it keep the name
    # "gaussian" of the never-zero pair they were written for
    pump = stirap.PulseEnvelope(100.0, center=0.7, width=0.8)
    stokes = stirap.PulseEnvelope(1000.0, center=0.3, width=0.8)
    return stirap.StirapSchedule(pump, stokes, 1.0, n_steps)


KERNEL_SCHEDULES = {  # name: (schedule, params)
    "sin2-resonant": lambda: (narrow_mirrored_schedule(), PARAMS),
    "gaussian": lambda: (wide_mirrored_schedule(), PARAMS),
    "detuned": lambda: (schedule(margin=100.0, n_steps=200), detuned(400.0)),  # |D| dt = 2
}


@pytest.mark.parametrize("method", ["magnus4", "midpoint"])
@pytest.mark.parametrize("name", sorted(KERNEL_SCHEDULES))
def test_block_propagators_match_eigh_oracle(name, method):
    sched, params = KERNEL_SCHEDULES[name]()
    if name == "sin2-resonant":
        assert sched.pump.value(0.1) == 0.0 and sched.stokes.value(0.9) == 0.0
    ns = np.arange(13)
    got = stirap.block_propagators(sched, params, ns, method=method)
    want = eigh_stepper_oracle(sched, params, ns, method=method)
    assert np.max(np.abs(got - want)) <= 1e-12


def assert_trajectory_matches_eigh_oracle(sched, params):
    got = stirap.block_propagators(sched, params, [0, 4], trajectory=True)
    want = eigh_stepper_oracle(sched, params, [0, 4], trajectory=True)
    assert got.shape == want.shape == (801, 2, 3, 3)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_block_trajectory_matches_eigh_oracle():
    assert_trajectory_matches_eigh_oracle(narrow_mirrored_schedule(), detuned(37.0))


def test_resonant_block_trajectory_matches_eigh_oracle():
    assert_trajectory_matches_eigh_oracle(narrow_mirrored_schedule(), PARAMS)


@pytest.mark.parametrize("scale", [0.0, 1e-9, 0.3 * stirap._SERIES_SPREAD,
                                   3 * stirap._SERIES_SPREAD, 0.5, 4.0])
def test_step_exponentials_match_expm(scale):
    rng = np.random.default_rng(5)
    for _ in range(30):
        u, v, w = scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
        d = scale * rng.standard_normal()
        m = np.array([[0, u, w], [np.conj(u), d, v], [np.conj(w), np.conj(v), 0]])
        got = stirap._step_exponentials(np.array([u]), np.array([v]), np.array([w]), d)[..., 0]
        assert np.max(np.abs(got - scipy.linalg.expm(-1j * m))) <= 1e-14


@pytest.mark.parametrize("scale", [0.0, 1e-9, 0.5, 4.0, 40.0])
def test_step_rotations_match_eigh_exponential(scale):
    # the rotation read out of a step's Cayley-Klein pair against exp(A) =
    # exp(-i (iA)) through eigh of the Hermitian iA: within 4e-15 of a 40-digit
    # exponential up to scale 4 and 4e-14 at 40, where scipy's expm itself is
    # off by 7e-14 and 8e-13 (scaling and squaring)
    rng = np.random.default_rng(6)
    for _ in range(30):
        u, v, w = scale * rng.standard_normal(3)
        a = np.array([[0, u, w], [-u, 0, -v], [-w, v, 0]])
        lam, vec = np.linalg.eigh(1j * a)
        want = (vec * np.exp(-1j * lam)) @ vec.conj().T
        spinor = stirap._step_spinors(np.array([u]), np.array([v]), np.array([w]))
        got = stirap._rotation_from_spinor(spinor)[..., 0]
        if scale == 0.0:
            assert np.array_equal(got, np.eye(3))
        assert np.max(np.abs(got - want)) <= (1e-13 if scale > 4 else 1e-14)


def spinor_matrices(x):
    """(steps, batch, 2, 2) SU(2) matrices [[alpha, beta], [-conj(beta), conj(alpha)]]
    of (2, batch, steps) Cayley-Klein pairs."""
    alpha, beta = x.transpose(0, 2, 1)
    return np.stack((np.stack((alpha, beta), -1), np.stack((-beta.conj(), alpha.conj()), -1)), -2)


@pytest.mark.parametrize("length", [1, 2, 3, 5, 255, 256, 257])
def test_pairwise_prefix_ends_on_the_product(length):
    # one tree, two products: complex 3x3 blocks and SU(2) Cayley-Klein pairs
    rng = np.random.default_rng(length)
    m = rng.standard_normal((length, 2, 3, 3)) + 1j * rng.standard_normal((length, 2, 3, 3))
    m /= np.linalg.norm(m, ord=2, axis=(-2, -1), keepdims=True)  # keep long products O(1)
    matrices = np.ascontiguousarray(m.transpose(2, 3, 0, 1))  # (3, 3, steps, batch)
    pairs = rng.standard_normal((2, 2, length)) + 1j * rng.standard_normal((2, 2, length))
    pairs /= np.sqrt(np.sum(np.abs(pairs) ** 2, axis=0))  # unit: a point of SU(2)
    for stack, product, as_matrices in [
            (matrices, stirap._matmul3, lambda x: x.transpose(2, 3, 0, 1)),
            (pairs, stirap._spinor_product, spinor_matrices)]:
        prefix = stirap._pairwise_product(stack, product, prefix=True)
        assert np.array_equal(prefix[:, :, -1], stirap._pairwise_product(stack, product))
        steps, got = as_matrices(stack), as_matrices(prefix)  # (steps, batch, k, k)
        want = steps[0]
        for k in range(length):
            if k:
                want = steps[k] @ want
            assert np.max(np.abs(got[k] - want)) <= 1e-12


@pytest.mark.parametrize("n_steps, detuning", [  # step counts not multiples of the chunk
    *(pytest.param(k, 37.0, id=f"{k}") for k in (1, 257, 513)),
    *(pytest.param(k, 0.0, id=f"{k}-resonant") for k in (1, 257, 513)),
])
def test_block_propagators_match_eigh_oracle_across_chunks(n_steps, detuning):
    sched, params = schedule(margin=100.0, n_steps=n_steps), detuned(detuning)
    ns = np.arange(5)
    final = stirap.block_propagators(sched, params, ns)
    traj = stirap.block_propagators(sched, params, ns, trajectory=True)
    assert np.max(np.abs(final - eigh_stepper_oracle(sched, params, ns))) <= 1e-12
    want = eigh_stepper_oracle(sched, params, ns, trajectory=True)
    assert traj.shape == want.shape == (n_steps + 1, 5, 3, 3)
    assert np.max(np.abs(traj - want)) <= 1e-12
    assert traj.flags.c_contiguous and traj.base is None  # one array, not a view
    assert np.array_equal(traj[-1], final)


def test_empty_rung_batch():
    sched = schedule(n_steps=300)
    assert np.array_equal(stirap.passage_matrix(sched, PARAMS, 1), np.eye(4))
    up, down = stirap.passage_blocks(sched, PARAMS, 0)
    assert up.shape == down.shape == (0, 3, 3)


@pytest.mark.parametrize("shape, detuning", [
    *(pytest.param(shape, 37.0, id=shape) for shape in ("sin2", "gaussian")),
    *(pytest.param(shape, 0.0, id=f"{shape}-resonant") for shape in ("sin2", "gaussian")),
])
def test_passage_blocks_down_is_transposed_up(shape, detuning):
    if shape == "sin2":
        sched, params = narrow_mirrored_schedule(), detuned(detuning)
    else:
        sched, params = wide_mirrored_schedule(), detuned(-detuning)
    up, down = stirap.passage_blocks(sched, params, 12)
    assert np.shares_memory(up, down) and not down.flags.writeable  # no second build
    integrated = stirap.block_propagators(stirap.reversed_schedule(sched), params, np.arange(12))
    assert np.max(np.abs(down - integrated)) <= 1e-12


def test_resonant_branch_is_continuous_in_detuning():
    # detuning 0 takes the rotation kernel, any other the general one
    ns = np.arange(13)
    at_zero = stirap.block_propagators(schedule(n_steps=600), detuned(0.0), ns)
    near = stirap.block_propagators(schedule(n_steps=600), detuned(1e-9), ns)
    assert np.max(np.abs(at_zero - near)) <= 1e-7


def _refuse(*args):
    raise AssertionError("wrong step kernel")


@pytest.mark.parametrize("detuning, unused", [(0.0, "_step_exponentials"),
                                              (37.0, "_step_spinors")])
def test_detuning_picks_the_step_kernel(monkeypatch, detuning, unused):
    monkeypatch.setattr(stirap, unused, _refuse)
    up, down = stirap.passage_blocks(schedule(n_steps=300), detuned(detuning), 12)
    assert up.shape == down.shape == (12, 3, 3)
    stirap.block_trajectory(schedule(n_steps=300), detuned(detuning), 3)


def count_step_entries(monkeypatch, kernel, n_rungs):
    """Wrap a step kernel; the returned list collects its step entries per rung, per call."""
    calls, original = [], getattr(stirap, kernel)

    def counted(u, v, w, *rest):
        calls.append(np.broadcast(u, v, w).size // n_rungs)
        return original(u, v, w, *rest)

    monkeypatch.setattr(stirap, kernel, counted)
    return calls


@pytest.mark.parametrize("name, kernel, expected", [
    # Stokes alone on [0, 0.2T] and the pump alone on [0.8T, T]: 400 + 400 of
    # 2000 steps collapse to one rotation each, the other 1200 take the kernel
    ("sin2", "_step_spinors", 1202),
    ("gaussian", "_step_spinors", 2000),  # both fields on throughout: no run
    ("detuned", "_step_exponentials", 2000),  # a single-field run does not commute
])
def test_step_kernel_work_per_rung(monkeypatch, name, kernel, expected):
    n_rungs = 13
    sched = (wide_mirrored_schedule(n_steps=2000) if name == "gaussian"
             else stirap.standard_schedule(1.0, PARAMS, margin=100.0, n_steps=2000))
    params = detuned(37.0) if name == "detuned" else PARAMS
    calls = count_step_entries(monkeypatch, kernel, n_rungs)
    stirap.block_propagators(sched, params, np.arange(n_rungs))
    assert sum(calls) == expected


def per_step_spinor_reference(sched, params, ns):
    """Resonant passage as a plain step-by-step product of _step_spinors pairs.

    Returns the blocks at every step boundary, (n_steps + 1, rungs, 3, 3)."""
    dt, half_rates = sched.dt, stirap.sideband_factors(params, np.asarray(ns)) / 2
    c1, c2 = stirap._MAGNUS_C1, stirap._MAGNUS_C2
    p = np.zeros((2, len(ns)), dtype=complex)
    p[0] = 1.0
    out = [p]
    for k in range(sched.n_steps):
        t1, t2 = (k + c1) * dt, (k + c2) * dt
        a1, a2 = sched.pump.value(t1) / 2, sched.pump.value(t2) / 2
        b1, b2 = half_rates * sched.stokes.value(t1), half_rates * sched.stokes.value(t2)
        u, v = np.full(len(ns), dt * (a1 + a2) / 2), dt * (b1 + b2) / 2
        w = -stirap._MAGNUS_COEFF * dt * dt * (a2 * b1 - b2 * a1)
        p = stirap._spinor_product(stirap._step_spinors(u, v, w), p)
        out.append(p)
    rotations = stirap._rotation_from_spinor(np.stack(out, axis=-1))  # (3, 3, rungs, steps + 1)
    return rotations.transpose(3, 2, 0, 1) * stirap._ROTATION_PHASES


def unequal_widths():
    up = schedule(n_steps=1000)
    return replace(up, pump=replace(up.pump, width=0.45))  # pump off on [0, 0.25]


COLLAPSE_SCHEDULES = {  # name: (schedule, (leading, trailing) run lengths)
    "standard-1": (schedule(n_steps=1), (0, 0)),
    "standard-7": (schedule(n_steps=7), (1, 1)),
    "standard-1000": (schedule(n_steps=1000), (200, 200)),
    "standard-3000": (schedule(n_steps=3000), (600, 600)),  # longer than a chunk
    "down": (stirap.reversed_schedule(schedule(n_steps=1000)), (200, 200)),
    "unequal-widths": (unequal_widths(), (250, 200)),
}


@pytest.mark.parametrize("name", sorted(COLLAPSE_SCHEDULES))
def test_collapsed_runs_match_the_per_step_product(monkeypatch, name):
    sched, (lead, trail) = COLLAPSE_SCHEDULES[name]
    if name == "down":  # the leading run has the Stokes field off
        assert sched.stokes.value(0.0) == 0.0 and sched.pump.value(0.0) > 0.0
    ns = np.arange(13)
    calls = count_step_entries(monkeypatch, "_step_spinors", len(ns))
    final = stirap.block_propagators(sched, PARAMS, ns)
    # each run is one step entry, every other step one
    assert sum(calls) == sched.n_steps - lead - trail + (lead > 0) + (trail > 0)
    traj = stirap.block_propagators(sched, PARAMS, ns, trajectory=True)
    want = per_step_spinor_reference(sched, PARAMS, ns)
    assert np.max(np.abs(final - want[-1])) <= 1e-13
    assert np.max(np.abs(traj - want)) <= 1e-13
    assert np.array_equal(traj[-1], final)


def test_passage_without_pump_is_one_closed_form_rotation(monkeypatch):
    # the whole passage is one pump-off run: a rotation by the summed Stokes
    # angle theta_n on (|3,n>, |2,n+1>)
    up = schedule(n_steps=1000)
    sched = replace(up, pump=replace(up.pump, peak_rabi=0.0))
    ns = np.arange(13)
    calls = count_step_entries(monkeypatch, "_step_spinors", len(ns))
    final = stirap.block_propagators(sched, PARAMS, ns)
    assert calls == [1]
    steps = np.arange(sched.n_steps)[:, None]
    nodes = (steps + [stirap._MAGNUS_C1, stirap._MAGNUS_C2]) * sched.dt
    theta = stirap.sideband_factors(PARAMS, ns) / 2 * sched.dt * np.sum(
        sched.stokes.value(nodes).mean(axis=1))
    want = np.zeros((13, 3, 3), dtype=complex)
    want[:, 0, 0] = 1.0
    want[:, 1, 1] = want[:, 2, 2] = np.cos(theta)
    want[:, 1, 2] = want[:, 2, 1] = -1j * np.sin(theta)
    traj = stirap.block_propagators(sched, PARAMS, ns, trajectory=True)
    assert np.max(np.abs(final - want)) <= 1e-13
    assert np.max(np.abs(traj - per_step_spinor_reference(sched, PARAMS, ns))) <= 1e-13
    assert np.array_equal(traj[-1], final)


def test_passage_without_fields_is_the_identity():
    sched = schedule(margin=0.0, n_steps=1000)
    ns = np.arange(13)
    final = stirap.block_propagators(sched, PARAMS, ns)
    traj = stirap.block_propagators(sched, PARAMS, ns, trajectory=True)
    assert np.array_equal(final, np.broadcast_to(np.eye(3), (13, 3, 3)))
    assert np.array_equal(traj, np.broadcast_to(np.eye(3), (1001, 13, 3, 3)))


def test_resonant_passage_is_a_real_rotation():
    sched = schedule(n_steps=2000)
    assert np.all(stirap.transfer_amplitudes(sched, detuned(0.0), 13).imag == 0.0)
    u = stirap.block_propagators(sched, detuned(0.0), np.arange(13))
    d = np.diag([1.0, 1j, 1.0])
    r = d.conj().T @ u @ d  # back to the basis (|1,n>, i|3,n>, |2,n+1>)
    assert np.all(r.imag == 0.0)
    r = r.real
    assert np.max(np.abs(r @ r.transpose(0, 2, 1) - np.eye(3))) <= 1e-13


def test_resonant_transfer_amplitude_is_exactly_real():
    # transfer_phase reads pi for an adiabatic resonant passage only because
    # the amplitude has no imaginary part at all: up, a down passage that is
    # integrated on its own (the pulses do not mirror), and a trajectory
    up = schedule(n_steps=1000)
    down = stirap.reversed_schedule(replace(up, pump=replace(up.pump, width=0.45)))
    for sched in (up, down):
        amps = stirap.transfer_amplitudes(sched, PARAMS, 13)
        assert np.all(amps.imag == 0.0) and np.all(amps.real < 0.0)
        assert np.all(stirap.transfer_phase(amps) == np.pi)
        _, traj = stirap.block_trajectory(sched, PARAMS, 4)
        assert traj[-1, 2 if sched is up else 0] == amps[4]
        assert np.all(traj[:, [0, 2]].imag == 0.0) and np.all(traj[:, 1].real == 0.0)


# ---------------------------------------------------------------- propagate

def test_propagate_ground_control_untouched():
    space = CompositeSpace(2, FockSpace(8))
    rng = np.random.default_rng(2)
    phonon = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    phonon /= np.linalg.norm(phonon)
    ion = np.zeros(16, dtype=complex)
    ion[0 * 4 + 1] = 1.0  # control |0>, target |1>
    state = compose_state(space, ion, phonon)
    out = stirap.propagate(state, schedule(n_steps=200), PARAMS, control_ion=0)
    assert np.array_equal(out.amplitudes, state.amplitudes)


def test_propagate_transfers_vacuum_rung():
    space = CompositeSpace(1, FockSpace(4))
    state = basis_state(space, [1], 0)
    sched = schedule(n_steps=2000)
    out = stirap.propagate(state, sched, PARAMS)
    pop = abs(out.amplitudes[space.encode([2], 1)]) ** 2
    assert pop >= 0.999
    # halved-dt integration oracle agrees to 1e-8
    out2 = stirap.propagate(state, schedule(n_steps=4000), PARAMS)
    pop2 = abs(out2.amplitudes[space.encode([2], 1)]) ** 2
    assert abs(pop - pop2) < 1e-8
    assert abs(out.norm - 1.0) < 1e-9


def test_propagate_round_trip_all_rungs():
    up = schedule(n_steps=2000)
    down = stirap.reversed_schedule(up)
    space = CompositeSpace(1, FockSpace(12))
    for n in range(11):
        state = basis_state(space, [1], n)
        lifted = stirap.propagate(state, up, PARAMS)
        # the up passage leaves ~1e-4 non-adiabatic residue on levels 1/3;
        # let the down passage carry it through rather than reject the state
        back = stirap.propagate(lifted, down, PARAMS, domain_tol=0.05)
        assert abs(state.overlap(back)) ** 2 >= 0.998


def test_propagate_round_trip_reads_one_build(passage_builds):
    up = schedule(n_steps=2000)
    down = stirap.reversed_schedule(up)
    space = CompositeSpace(1, FockSpace(12))
    for n in range(11):
        lifted = stirap.propagate(basis_state(space, [1], n), up, PARAMS)
        stirap.propagate(lifted, down, PARAMS, domain_tol=0.05)
    assert passage_builds == ["up"]  # the down passage is the mirrored up^T
    stirap.passage_matrix(up, PARAMS, 13)
    stirap.passage_matrix(down, PARAMS, 13)
    assert passage_builds == ["up"]


def test_unmirrored_down_reader_builds_each_direction_once(passage_builds):
    pump = stirap.PulseEnvelope(90.0, center=0.3, width=0.5)
    stokes = stirap.PulseEnvelope(900.0, center=0.72, width=0.5)
    down = stirap.StirapSchedule(pump, stokes, 1.0, 300)  # pump first: the down passage
    assert down.direction == "down"
    amps = stirap.transfer_amplitudes(down, PARAMS, 4)
    stirap.propagate(basis_state(CompositeSpace(1, FockSpace(4)), [2], 2), down, PARAMS)
    assert sorted(passage_builds) == ["down", "up"]
    integrated = stirap.block_propagators(down, PARAMS, [3])[0]
    assert abs(amps[3]) ** 2 == abs(integrated[0, 2]) ** 2


def test_every_transfer_reader_reads_transfer_amplitudes(tmp_path, passage_builds):
    n_max = 8
    d = n_max + 1  # the gate's and the sweep's rung count
    cal = stirap.calibrate_transfer(PARAMS, [1.0], pump_peak=100.0, n_values=tuple(range(d)),
                                    threshold=0.0, n_steps=300)
    up = cal.schedule
    assert up == schedule(n_steps=300)  # the mirrored standard pair
    pump = stirap.PulseEnvelope(90.0, center=0.3, width=0.5)
    stokes = stirap.PulseEnvelope(900.0, center=0.72, width=0.5)
    down = stirap.StirapSchedule(pump, stokes, 1.0, 300)
    # a down read is the down half of its reverse's (up, down) pair
    pair = stirap.passage_blocks(stirap.reversed_schedule(down), PARAMS, d)
    assert np.array_equal(stirap.transfer_amplitudes(down, PARAMS, d), pair[1][:, 0, 2])
    amps = stirap.transfer_amplitudes(up, PARAMS, d)
    assert np.array_equal(cal.efficiencies, np.abs(amps) ** 2)

    report = g.gate_report(g.GateConfig(params=PARAMS, schedule=up),
                           fock_state(1, n_max))
    assert report.residual_phases == {n: float(stirap.transfer_phase(amps[n]))
                                      for n in range(n_max)}

    doc = {
        "n_max": n_max, "phonon": "fock:1",
        "gate": {"mode": "stirap",
                 "params": {"eta": PARAMS.eta, "omega_rad_per_s": PARAMS.omega,
                            "delta_rad_per_s": PARAMS.delta},
                 "schedule": {"total_duration_s": 1.0, "margin": 100.0, "n_steps": 300}},
        "sweep": {"axes": [{"name": "margin", "values": [100.0]}]},
    }
    cfg, out = tmp_path / "sweep.json", tmp_path / "sweep.csv"
    cfg.write_text(json.dumps(doc))
    assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    header, row = (line.split(",") for line in out.read_text().splitlines())
    efficiency = float(row[header.index("transfer_efficiency")])
    assert efficiency == np.min(np.abs(amps[:n_max]) ** 2)
    assert sorted(passage_builds) == ["down", "up", "up"]  # one build per schedule


def test_passage_blocks_is_positional_only():
    # a keyword call would key the cache apart from the positional one
    with pytest.raises(TypeError):
        stirap.passage_blocks(schedule(n_steps=10), PARAMS, n_rungs=3)


def test_rung_blocks_independent_of_batch():
    sched = schedule(margin=80.0, n_steps=300)
    for params in (detuned(7.0), detuned(0.0)):  # the SU(3) and the SU(2) product
        full = stirap.block_propagators(sched, params, np.arange(33))
        for n in range(33):
            assert np.array_equal(stirap.block_propagators(sched, params, [n])[0], full[n])


@pytest.mark.parametrize("batch", [[5], [5, 6, 7], list(range(5, 13)), [12, 5, 0]])
def test_collapsed_rung_blocks_independent_of_batch(batch):
    # the single-field runs (400 + 400 of 2000 steps) are found from the
    # envelopes, not the rungs, so a batch that starts elsewhere reads the same
    sched = schedule(n_steps=2000)
    full = stirap.block_propagators(sched, PARAMS, np.arange(13))
    assert np.array_equal(stirap.block_propagators(sched, PARAMS, batch), full[batch])
    # detuned, the rounding of the 3x3 products can depend on the batch's array
    # sizes: a 243-rung build reads rung n to about 1e-15 of a smaller batch
    sched, params = schedule(n_steps=300), detuned(7.0)
    wide = stirap.block_propagators(sched, params, np.arange(243))
    assert np.max(np.abs(stirap.block_propagators(sched, params, batch) - wide[batch])) <= 1e-14


BOUNDARY_INPUTS = [  # direction, control level, phonon rung (n_max = 4), expected error
    ("up", 0, 0, None), ("up", 1, 0, None), ("up", 0, 4, None),
    ("up", 2, 1, DomainError), ("up", 3, 1, DomainError), ("up", 1, 4, TruncationLeakage),
    ("down", 0, 0, None), ("down", 2, 1, None), ("down", 2, 4, None),
    ("down", 1, 1, DomainError), ("down", 3, 1, DomainError), ("down", 2, 0, DomainError),
]


@pytest.mark.parametrize("control", [0, 1])
@pytest.mark.parametrize("direction, level, n, expected", BOUNDARY_INPUTS)
def test_propagate_and_ideal_passages_share_domain_rule(direction, level, n, expected, control):
    levels = [1, 1]
    levels[control] = level
    state = basis_state(CompositeSpace(2, FockSpace(4)), levels, n)
    sched = schedule(n_steps=50)
    ideal = adiabatic_up(control)
    if direction == "down":
        sched, ideal = stirap.reversed_schedule(sched), adiabatic_down(control)
    for run in (lambda: stirap.propagate(state, sched, PARAMS, control_ion=control),
                lambda: ideal.apply(state)):
        if expected is None:
            run()
        else:
            with pytest.raises(expected):
                run()


def test_propagate_domain_guards():
    space = CompositeSpace(1, FockSpace(4))
    up = schedule(n_steps=100)
    with pytest.raises(DomainError):
        stirap.propagate(basis_state(space, [2], 1), up, PARAMS)
    with pytest.raises(TruncationLeakage):
        stirap.propagate(basis_state(space, [1], 4), up, PARAMS)
    down = stirap.reversed_schedule(up)
    with pytest.raises(DomainError):
        stirap.propagate(basis_state(space, [1], 1), down, PARAMS)
    with pytest.raises(DomainError):
        stirap.propagate(basis_state(space, [2], 0), down, PARAMS)


# unnormalized too: the ladder-top rule and the norm-drift check are both relative
@pytest.mark.parametrize("scale", [1.0, 1e-2, 1e2, 1e6, 1e9])
@pytest.mark.parametrize("share, expected", [(1e-6, TruncationLeakage), (1e-10, None)])
def test_passage_ladder_top_rule_is_relative_at_leak_tol(share, expected, scale):
    # a share of the weight on |1>|n_max>, the rest on |1>|0>; LEAK_TOL = 1e-8 lies
    # between the shares, and scaling by 1e-2 or 1e2 moves the absolute top weight
    # across it, which an absolute rule would follow
    space = CompositeSpace(1, FockSpace(4))
    amps = np.zeros(space.dim, dtype=complex)
    amps[space.encode([1], 0)] = np.sqrt(1.0 - share)
    amps[space.encode([1], 4)] = np.sqrt(share)
    state = CompositeState(space, scale * amps)
    for run in (lambda: stirap.propagate(state, schedule(n_steps=50), PARAMS),
                lambda: adiabatic_up(0).apply(state)):
        if expected is None:
            run()
        else:
            with pytest.raises(expected, match="LEAK_TOL"):
                run()


def test_propagate_matches_dense_full_matrix_path():
    # block-diagonal structure: the assembled full-space propagation is identical
    d = 9  # n_max = 8
    sched = schedule(margin=40.0, n_steps=200)
    u_dense = dense_passage_oracle(sched, PARAMS, d)
    space = CompositeSpace(1, FockSpace(d - 1))
    rng = np.random.default_rng(11)
    amps = np.zeros(space.dim, dtype=complex)
    for lvl in (0, 1):
        for n in range(d - 1):  # keep the ladder top clear
            amps[space.encode([lvl], n)] = rng.standard_normal() + 1j * rng.standard_normal()
    amps /= np.linalg.norm(amps)
    state = CompositeState(space, amps)
    out = stirap.propagate(state, sched, PARAMS)
    assert np.max(np.abs(out.amplitudes - u_dense @ amps)) < 1e-10
    u_blocks = stirap.passage_matrix(sched, PARAMS, d)
    assert np.max(np.abs(u_blocks - u_dense)) < 1e-10


# ---------------------------------------------------------------- efficiency and phase

def test_transfer_efficiency_zero_drive():
    pump = stirap.PulseEnvelope(0.0, center=0.7, width=0.2)
    stokes = stirap.PulseEnvelope(0.0, center=0.3, width=0.2)
    sched = stirap.StirapSchedule(pump, stokes, 1.0, 100)
    assert abs(stirap.transfer_amplitudes(sched, PARAMS, 1)[0]) ** 2 == 0.0


def test_transfer_efficiency_monotone_in_duration():
    scheds = [stirap.standard_schedule(t, PARAMS, pump_peak=1.0, n_steps=1000)
              for t in (25.0, 50.0, 100.0)]
    effs = [abs(stirap.transfer_amplitudes(sched, PARAMS, 1)[0]) ** 2 for sched in scheds]
    assert effs[0] <= effs[1] <= effs[2]
    assert effs[2] >= 0.999


def test_transfer_efficiency_high_for_low_and_high_rungs():
    sched = schedule()
    assert abs(stirap.transfer_amplitudes(sched, PARAMS, 1)[0]) ** 2 >= 0.999
    assert abs(stirap.transfer_amplitudes(sched, PARAMS, 6)[5]) ** 2 >= 0.999


def test_transfer_efficiency_down_direction():
    down = stirap.reversed_schedule(schedule())
    for n in (0, 4):
        assert abs(stirap.transfer_amplitudes(down, PARAMS, n + 1)[n]) ** 2 >= 0.999
    phase = stirap.transfer_phase(stirap.transfer_amplitudes(down, PARAMS, 1)[0])
    assert abs(abs(phase) - np.pi) < 1e-3
    _, amps = stirap.block_trajectory(down, PARAMS, 1)
    assert abs(np.abs(amps[0, 2]) ** 2 - 1.0) == 0.0  # starts on the shelf level
    assert np.abs(amps[-1, 0]) ** 2 >= 0.999


def test_residual_phase_dt_converged():
    p1, p2 = (stirap.transfer_phase(stirap.transfer_amplitudes(schedule(n_steps=n), PARAMS, 1)[0])
              for n in (2000, 4000))
    assert abs(p1 - p2) < 1e-6


def test_residual_phase_near_pi_and_reported_per_rung():
    sched = schedule()
    phases = [stirap.transfer_phase(stirap.transfer_amplitudes(sched, PARAMS, n + 1)[n])
              for n in (0, 1)]
    for p in phases:
        assert abs(abs(p) - np.pi) < 1e-3
    assert -np.pi < phases[0] <= np.pi


def test_identity_branch_phase_zero():
    space = CompositeSpace(1, FockSpace(5))
    state = basis_state(space, [0], 3)
    out = stirap.propagate(state, schedule(n_steps=100), PARAMS)
    assert np.angle(out.overlap(state)) == 0.0


def test_transfer_phase_reads_minus_pi_as_pi():
    assert stirap.transfer_phase(complex(-1.0, -0.0)) == np.pi
    assert stirap.transfer_phase(complex(-1.0, -1e-17)) == np.pi
    assert stirap.transfer_phase(complex(-1.0, -1e-6)) < 0
    assert stirap.transfer_phase(-1j) == -np.pi / 2


def test_residual_phase_undefined_for_weak_drive():
    sched = schedule(margin=5.0, n_steps=500)
    assert abs(stirap.transfer_amplitudes(sched, PARAMS, 1)[0]) ** 2 < stirap.PHASE_MIN_TRANSFER
    report = g.gate_report(g.GateConfig(params=PARAMS, schedule=sched),
                           fock_state(0, 4))
    assert 0 not in report.residual_phases  # too weak a transfer to carry a phase


def test_intermediate_occupancy_shrinks_with_margin():
    maxima = []
    for m in (10.0, 30.0, 100.0):
        _, amps = stirap.block_trajectory(schedule(margin=m, n_steps=1000), PARAMS, 0)
        maxima.append(float(np.max(np.abs(amps[:, 1]) ** 2)))
    assert maxima[0] > maxima[1] > maxima[2]


def test_block_trajectory_final_population_matches_efficiency():
    sched = schedule(n_steps=500)
    _, amps = stirap.block_trajectory(sched, PARAMS, 2)
    eff = abs(stirap.transfer_amplitudes(sched, PARAMS, 3)[2]) ** 2
    assert abs(np.abs(amps[-1, 2]) ** 2 - eff) == 0.0  # same accumulated product


# ---------------------------------------------------------------- calibration

def test_calibrate_transfer_finds_minimal_margin():
    cal = stirap.calibrate_transfer(PARAMS, durations=[20, 40, 60, 80, 100, 120, 140],
                                    pump_peak=1.0)
    assert cal.margin == 100.0
    assert cal.efficiencies.min() >= 0.999
    assert len(cal.history) == 5  # stops at the first duration that clears the bar
    assert cal.history[-1][2] >= 0.999


def test_calibrate_transfer_reports_failure():
    with pytest.raises(ValueError):
        stirap.calibrate_transfer(PARAMS, durations=[5, 10], pump_peak=1.0)
