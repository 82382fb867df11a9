"""Ideal (instantaneous) protocol unitaries and the physical coupling formulas.

Conventions (normative):
  * hbar = 1; angular frequencies in rad/s, durations in s.
  * The population-inversion operator on the qubit {|0>, |1>} has eigenvalues
    -1/2 on |0> and +1/2 on |1>, so (sigma_z + 1/2) annihilates |0> and acts
    as 1 on |1>. This is the sign convention under which the conditional
    phase flips exactly the odd-occupation, excited-ion branch.
  * The ideal adiabatic-passage maps carry amplitude exactly +1; any phase a
    time-resolved passage accumulates is measured by the stirap module, not
    absorbed here.
  * carrier_rotation(theta, phi) = exp(-i (theta/2) (cos phi sx + sin phi sy))
    on the qubit levels of one ion.
  * Rung laws, once each: sideband_factors (eta sqrt(n+1)), conditional_phase_factors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, TruncationLeakage
from .hilbert import (
    DOMAIN_ATOL,
    LEAK_TOL,
    CompositeSpace,
    CompositeState,
    DensityOperator,
)


@dataclass(frozen=True)
class PhysicalParams:
    """Trap and laser parameters.

    eta: Lamb-Dicke parameter; omega: carrier Rabi frequency (rad/s);
    n_ions: ions sharing the bus mode; delta: standing-wave detuning (rad/s,
    > 0, so that chi > 0 and the conditional-phase pulse lasts tau = pi/chi);
    delta_stirap: detuning of pump/Stokes from the intermediate level (rad/s).
    """

    eta: float
    omega: float
    n_ions: int
    delta: float
    delta_stirap: float = 0.0

    def __post_init__(self):
        for name in ("eta", "omega", "delta", "delta_stirap"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eta <= 0:
            raise ValueError(f"eta must be > 0, got {self.eta}")
        if self.omega <= 0:
            raise ValueError(f"omega must be > 0, got {self.omega}")
        if self.n_ions < 1:
            raise ValueError(f"n_ions must be >= 1, got {self.n_ions}")
        if self.delta <= 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")


def chi(params: PhysicalParams) -> float:
    """Conditional-phase coupling rate eta^2 omega^2 / (n_ions delta), rad/s."""
    return params.eta**2 * params.omega**2 / (params.n_ions * params.delta)


def tau(params: PhysicalParams) -> float:
    """Conditional-phase pulse duration pi/chi (s); PhysicalParams keeps chi > 0."""
    return np.pi / chi(params)


class IdealUnitary:
    """Structured unitary action on composite states.

    The kernel is a pure linear map on arrays of shape space.shape + (batch,).
    Domain checks run against the actual population distribution before the
    kernel is applied.
    """

    def __init__(self, label: str, kernel, check=None):
        self.label = label
        self._kernel = kernel
        self._check = check

    def __repr__(self):
        return f"IdealUnitary({self.label})"

    def apply(self, state: CompositeState) -> CompositeState:
        space = state.space
        x = state.amplitudes.reshape(space.shape + (1,))
        if self._check is not None:
            self._check(space, np.abs(x[..., 0]) ** 2)
        y = self._kernel(space, x)
        return CompositeState(space, y.reshape(space.dim), copy=False)

    def apply_density(self, rho: DensityOperator) -> DensityOperator:
        space = rho.space
        if not isinstance(space, CompositeSpace):
            raise DomainError(f"{self.label} needs a density operator on a CompositeSpace")
        if self._check is not None:
            pops = np.real(np.diag(rho.matrix)).reshape(space.shape)
            self._check(space, pops)
        d = space.dim
        left = self._kernel(space, rho.matrix.reshape(space.shape + (d,))).reshape(d, d)
        full = self._kernel(space, left.conj().T.reshape(space.shape + (d,))).reshape(d, d)
        return DensityOperator(full.conj().T, space, validate=False)

    def to_matrix(self, space: CompositeSpace) -> np.ndarray:
        """Dense matrix on the full composite space (domain checks skipped)."""
        d = space.dim
        eye = np.eye(d, dtype=complex).reshape(space.shape + (d,))
        return self._kernel(space, eye).reshape(d, d)


def outside_weight(weights: np.ndarray, ion: int, levels, tol: float = DOMAIN_ATOL) -> float:
    """Population of one ion on the given levels if it exceeds tol times the total, else 0.

    The one outside-the-domain rule: the conditional phase, the passages and
    the gate's qubit-subspace check raise when it is non-zero.
    """
    total = max(float(np.sum(weights)), 1e-300)
    bad = float(np.sum(np.take(weights, levels, axis=ion)))
    return bad if bad > tol * total else 0.0


def _ion_slice(ndim: int, ion: int, level: int):
    sl = [slice(None)] * ndim
    sl[ion] = level
    return tuple(sl)


def sideband_factors(params: PhysicalParams, ns):
    """Lamb-Dicke red-sideband factor eta sqrt(n+1) of rung n: the passage's rung law.

    A rung below 0 raises IndexError; every reader of a rung takes its factor here.
    """
    ns = np.asarray(ns)
    if ns.size and ns.min() < 0:
        raise IndexError(f"occupation {ns.min()} must be >= 0")
    return params.eta * np.sqrt(ns + 1.0)


def conditional_phase_factors(dim: int, epsilon: float = 0.0) -> np.ndarray:
    """Phases exp(-i pi (1+epsilon) n) of |1>_t |n> for n < dim; exactly (-1)^n at epsilon = 0.

    For integer n the phase has period 2 in 1+epsilon, which is therefore
    taken modulo 2 first: exact, a no-op while 0 <= 1+epsilon < 2, and finite
    for any finite epsilon.
    """
    n = np.arange(dim)
    if epsilon == 0.0:
        return (-1.0 + 0j) ** n  # exact alternating signs
    return np.exp(-1j * np.pi * ((1.0 + epsilon) % 2.0) * n)


def conditional_phase(target_ion: int, epsilon: float = 0.0) -> IdealUnitary:
    """Conditional phase pulse: |1>_t |n> -> exp(-i pi (1+epsilon) n) |1>_t |n>.

    epsilon is a relative pulse-duration error for sensitivity studies; at
    epsilon = 0 the phase is exactly (-1)^n on the excited-ion branch.
    Undefined (DomainError) when the target ion occupies levels 2 or 3.
    """

    def kernel(space, x):
        out = x.copy()
        sl = _ion_slice(x.ndim, target_ion, 1)
        phases = conditional_phase_factors(space.fock.dim, epsilon)
        # after slicing the target axis away, the phonon axis sits at n_ions-1
        shape = [1] * (x.ndim - 1)
        shape[space.n_ions - 1] = space.fock.dim
        out[sl] = x[sl] * phases.reshape(shape)
        return out

    def check(space, weights):
        bad = outside_weight(weights, target_ion, (2, 3))
        if bad:
            raise DomainError(
                f"conditional phase undefined: target ion {target_ion} has population "
                f"{bad:.3e} on levels 2/3"
            )

    return IdealUnitary(f"S[{target_ion}]", kernel, check)


def _swap_kernel(control_ion: int):
    def kernel(space, x):
        x = np.moveaxis(x, control_ion, 0)
        out = x.copy()
        # exchange |1>|n> and |2>|n+1>; |1>|n_max> and |2>|0> have no partner
        out[(2, Ellipsis, slice(1, None), slice(None))] = x[(1, Ellipsis, slice(0, -1), slice(None))]
        out[(1, Ellipsis, slice(0, -1), slice(None))] = x[(2, Ellipsis, slice(1, None), slice(None))]
        return np.moveaxis(out, 0, control_ion)

    return kernel


def passage_check(control_ion: int, direction: str, domain_tol: float = DOMAIN_ATOL):
    """Domain rule of a passage on the control ion, as an IdealUnitary check.

    'up' needs the control ion on {0,1} and the ladder top on levels 1 and 3
    clear within LEAK_TOL (that weight would leave the space); 'down' needs
    it on {0,2} and nothing on |2>|0>, which has no phonon to give up.
    """
    outside = (2, 3) if direction == "up" else (1, 3)

    def check(space, weights):
        bad = outside_weight(weights, control_ion, outside, domain_tol)
        if bad:
            raise DomainError(
                f"passage {direction} undefined: control ion {control_ion} has population "
                f"{bad:.3e} on levels {outside[0]}/{outside[1]}"
            )
        total = max(float(np.sum(weights)), 1e-300)
        w = np.moveaxis(weights, control_ion, 0)
        if direction == "up":
            top = float(np.sum(w[[1, 3], ..., -1]))
            if top > LEAK_TOL * total:
                raise TruncationLeakage(
                    f"population {top:.3e} at the top of the passage ladder exceeds "
                    f"LEAK_TOL = {LEAK_TOL}"
                )
        else:
            vac = float(np.sum(w[2, ..., 0]))
            if vac > domain_tol * total:
                raise DomainError(
                    f"passage down undefined on |2>|0>: population {vac:.3e} with no "
                    "phonon to remove"
                )

    return check


def adiabatic_up(control_ion: int) -> IdealUnitary:
    """Ideal passage up: |1>_c |n> -> |2>_c |n+1>, identity on |0>_c.

    Requires no population on levels 2/3 of the control ion and negligible
    weight at the top of the ladder (it would leave the space).
    """
    return IdealUnitary(f"A+[{control_ion}]", _swap_kernel(control_ion),
                        passage_check(control_ion, "up"))


def adiabatic_down(control_ion: int) -> IdealUnitary:
    """Ideal passage down: |2>_c |n+1> -> |1>_c |n>, identity on |0>_c.

    Requires no population on levels 1/3 of the control ion and none on
    |2>_c |0>, which has no phonon to give up.
    """
    return IdealUnitary(f"A-[{control_ion}]", _swap_kernel(control_ion),
                        passage_check(control_ion, "down"))


def rotation_matrix_2x2(theta: float, phi: float) -> np.ndarray:
    """Qubit rotation exp(-i (theta/2)(cos phi sx + sin phi sy)) in the {0,1} basis."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array(
        [[c, -1j * np.exp(-1j * phi) * s],
         [-1j * np.exp(1j * phi) * s, c]],
        dtype=complex,
    )


def carrier_rotation(ion: int, theta: float, phi: float) -> IdealUnitary:
    """Carrier rotation on the qubit levels of one ion; identity elsewhere."""
    r = rotation_matrix_2x2(theta, phi)

    def kernel(space, x):
        out = x.copy()
        sl0 = _ion_slice(x.ndim, ion, 0)
        sl1 = _ion_slice(x.ndim, ion, 1)
        x0, x1 = x[sl0], x[sl1]
        out[sl0] = r[0, 0] * x0 + r[0, 1] * x1
        out[sl1] = r[1, 0] * x0 + r[1, 1] * x1
        return out

    return IdealUnitary(f"R[{ion}]({theta:.4g},{phi:.4g})", kernel, check=None)


def conditional_phase_hamiltonian(target_ion: int, params: PhysicalParams,
                       space: CompositeSpace) -> np.ndarray:
    """Effective standing-wave Hamiltonian chi * (a^dag a) (sigma_z + 1/2), dense.

    Diagonal in the composite basis: eigenvalue chi * n on |1>_t |n>, zero on
    the |0>_t branch (hbar = 1). exp(-i H tau) with tau = pi/chi reproduces
    the conditional phase, which tests verify by dense exponentiation.
    """
    diag = np.zeros(space.shape)
    sl = _ion_slice(len(space.shape), target_ion, 1)
    n = np.arange(space.fock.dim)
    shape = [1] * (len(space.shape) - 1)
    shape[space.n_ions - 1] = space.fock.dim
    diag[sl] = chi(params) * n.reshape(shape)
    return np.diag(diag.reshape(space.dim).astype(complex))
