"""A first-principles oracle: the gate's pulses built from ion and phonon operators.

Nothing here reads the model's rung blocks (hamiltonian_block, passage_blocks,
_gate_blocks). Each pulse is a dense operator on the full space of k ions x d
phonon levels, index layout ion-major and phonon-minor as in
hotgate.hilbert.CompositeSpace, built from the phonon ladder operator a, the
phonon shift a^dagger / sqrt(a a^dagger) and the ion projectors |i><j|:

- the conditional phase exp(-i pi (1+epsilon) a^dagger a (x) |1><1|_t);
- the ideal passage, the swap |1,n> <-> |2,n+1> on the control ion;
- the time-resolved passage, H(t) from ladder_passage_hamiltonian stepped
  with the two-node magnus4 rule and scipy.linalg.expm per step;
- the gate, the four pulses in turn: phase, up, phase, down.

Inputs with no weight on the top rung n = d-1 never reach the truncation, so
there the oracle gate is the model's gate, not an approximation of it.
"""
from functools import lru_cache

import numpy as np
import scipy.linalg

from hotgate import stirap

ION_LEVELS = 4


def annihilation(d):
    """a on d phonon levels: a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1.0, d)), 1)


def shift(d):
    """The phonon shift |n+1><n| on d levels, n < d-1: a^dagger without its sqrt(n+1)."""
    return np.eye(d, k=-1)


def flip(i, j):
    """|i><j| on one ion."""
    ion = np.eye(ION_LEVELS)
    return np.outer(ion[i], ion[j])


def lift(op, ion, n_ions, d):
    """op on one ion (x) the phonon mode, (4d, 4d), as an operator on the full space
    of n_ions ions and d phonon levels, the identity on the other ions."""
    full = np.kron(op, np.eye(ION_LEVELS ** (n_ions - 1)))  # axes (ion, phonon, others)
    others = iter(range(2, n_ions + 1))
    order = [0 if i == ion else next(others) for i in range(n_ions)] + [1]
    shape = (ION_LEVELS, d) + (ION_LEVELS,) * (n_ions - 1)
    perm = order + [len(shape) + axis for axis in order]
    dim = ION_LEVELS**n_ions * d
    return full.reshape(shape + shape).transpose(perm).reshape(dim, dim)


def conditional_phase(target, epsilon, n_ions, d):
    """exp(-i pi (1+epsilon) a^dagger a (x) |1><1|_t) on the full space."""
    a = annihilation(d)
    h = np.kron(flip(1, 1), a.T @ a)
    return lift(scipy.linalg.expm(-1j * np.pi * (1.0 + epsilon) * h), target, n_ions, d)


def ideal_passage(control, n_ions, d):
    """The swap |1,n> <-> |2,n+1> of the control ion, from the phonon shift S:
    |2><1| (x) S + |1><2| (x) S^T, and the identity on every state without a
    partner (levels 0 and 3, |1,d-1> and |2,0>)."""
    s, eye = shift(d), np.eye(d)
    op = (np.kron(flip(0, 0) + flip(3, 3), eye)
          + np.kron(flip(2, 1), s) + np.kron(flip(1, 2), s.T)
          + np.kron(flip(1, 1), eye - s.T @ s) + np.kron(flip(2, 2), eye - s @ s.T))
    return lift(op, control, n_ions, d)


def ladder_passage_hamiltonian(t, sched, params, d):
    """The passage Hamiltonian on the control ion (x) d phonon levels, from ladder
    operators: the pump on |1> <-> |3>, the detuning on |3>, and the red Stokes
    sideband eta Omega_S / 2 (|3><2| a + h.c.), which takes a phonon off the mode
    as the ion leaves the shelf |2>."""
    pump = float(sched.pump.value(t)) / 2 * np.kron(flip(3, 1) + flip(1, 3), np.eye(d))
    stokes = params.eta * float(sched.stokes.value(t)) / 2 * np.kron(flip(3, 2), annihilation(d))
    return pump + stokes + stokes.T + params.delta_stirap * np.kron(flip(3, 3), np.eye(d))


def passage(sched, params, control, n_ions, d):
    """The time-resolved passage of sched on the full space (_stepped)."""
    return lift(_stepped(sched, params, d), control, n_ions, d)


@lru_cache(maxsize=8)
def _stepped(sched, params, d):
    """The passage on the control ion (x) d levels: H(t) at the two Gauss nodes of
    each step, the magnus4 generator (h1 + h2)/2 - i sqrt(3)/12 dt [h2, h1], and
    scipy.linalg.expm of each step, multiplied in time order."""
    dt = sched.dt
    u = np.eye(ION_LEVELS * d, dtype=complex)
    for k in range(sched.n_steps):
        h1 = ladder_passage_hamiltonian((k + 0.5 - np.sqrt(3.0) / 6.0) * dt, sched, params, d)
        h2 = ladder_passage_hamiltonian((k + 0.5 + np.sqrt(3.0) / 6.0) * dt, sched, params, d)
        gen = 0.5 * (h1 + h2) - 1j * np.sqrt(3.0) / 12.0 * dt * (h2 @ h1 - h1 @ h2)
        u = scipy.linalg.expm(-1j * gen * dt) @ u
    u.flags.writeable = False
    return u


def gate(config, d):
    """The four pulses of config in turn on n_ions ions x d phonon levels, dense:
    down @ phase @ up @ phase, the ideal passages without a schedule."""
    k, control = config.params.n_ions, config.control
    phase = conditional_phase(config.target, config.epsilon, k, d)
    if config.schedule is None:
        up = down = ideal_passage(control, k, d)
    else:
        up = passage(config.schedule, config.params, control, k, d)
        down = passage(stirap.reversed_schedule(config.schedule), config.params, control, k, d)
    return down @ phase @ up @ phase
