"""Independent oracles shared by the test modules.

Everything here recomputes physics from first principles (density matrices,
trace norms, spin-flip concurrence) so the package's closed forms are checked
against a route they do not share.
"""
from __future__ import annotations

import cmath
import math
import os
from fractions import Fraction
from pathlib import Path

import numpy as np

from complement_opt import ExcitationState, TwoQubitPure
# seeded random cases: the same draws as the verify command's
from complement_opt.verify import _random_basis as random_basis, _random_case as random_coupling

SRC = Path(__file__).resolve().parents[1] / "src"

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SPIN_FLIP = np.kron(PAULI_Y, PAULI_Y)


def reduced_pair_density(state: ExcitationState) -> np.ndarray:
    """Trace the probes out of |psi><psi|; basis |00>, |01>, |10>, |11>."""
    vacuum_branch = np.array([0.0, state.amp_b, state.amp_a, 0.0], dtype=complex)
    rho = np.outer(vacuum_branch, vacuum_branch.conj())
    rho[0, 0] += np.sum(np.abs(state.amp_r) ** 2)
    return rho


def dense_projection(state: ExcitationState, basis) -> tuple[np.ndarray, float]:
    """Project the probes of the full 2^(n+2) state vector, qubit by qubit.

    ``basis`` is a tuple of (theta_i, phi_i) pairs in probe order.  Builds psi
    over the axes (A, B, probe 1, ..., probe n), contracts each probe axis in
    turn with (cos theta_i, exp(i phi_i) sin theta_i) (linear pairing, no
    conjugation) and returns the normalized pair amplitudes (c00, c01, c10,
    c11) and the outcome probability.
    """
    n = state.n
    psi = np.zeros((2,) * (n + 2), dtype=complex)
    vacuum = (0,) * n
    psi[(0, 1) + vacuum] = state.amp_b
    psi[(1, 0) + vacuum] = state.amp_a
    for i, amp in enumerate(state.amp_r):
        psi[(0, 0) + tuple(int(j == i) for j in range(n))] = amp
    for theta, phi in basis:
        probe = np.array([math.cos(theta), cmath.exp(1j * phi) * math.sin(theta)])
        psi = np.tensordot(psi, probe, axes=([2], [0]))
    pair = psi.reshape(4)
    prob = float(np.vdot(pair, pair).real)
    return pair / math.sqrt(prob), prob


def trace_norm_pair_distinguishability(state: ExcitationState) -> float:
    """Trace-norm distance of the conditional B states given the A state."""
    rho = reduced_pair_density(state)
    block_a0 = rho[0:2, 0:2]
    block_a1 = rho[2:4, 2:4]
    eigenvalues = np.linalg.eigvalsh(block_a0 - block_a1)
    return float(np.sum(np.abs(eigenvalues)))


def wootters_concurrence(rho: np.ndarray) -> float:
    """Mixed-state two-qubit concurrence via the spin-flip eigenvalues."""
    r_matrix = rho @ SPIN_FLIP @ rho.conj() @ SPIN_FLIP
    eigenvalues = np.sort(np.abs(np.linalg.eigvals(r_matrix).real))[::-1]
    roots = np.sqrt(np.clip(eigenvalues, 0.0, None))
    return float(max(0.0, roots[0] - roots[1] - roots[2] - roots[3]))


def amplitudes(state: TwoQubitPure) -> np.ndarray:
    """The four amplitudes of a pure pair as an array, |00>, |01>, |10>, |11> order."""
    return np.array([state.c00, state.c01, state.c10, state.c11], dtype=complex)


def random_pure_pair(rng: np.random.Generator) -> TwoQubitPure:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    return TwoQubitPure(*amps)


def package_env() -> dict:
    """Environment for a subprocess whose PYTHONPATH finds the package in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def orthogonal_pair_angles(theta: float, phi: float) -> tuple[float, float]:
    """Angles of the basis vector completing (theta, phi) to a full basis."""
    return math.pi / 2.0 - theta, phi + math.pi


def _dyadic(x: float) -> tuple[int, int]:
    """The float x as (m, e) with x = m * 2^e exactly: a float's denominator
    is a power of two."""
    m, d = x.as_integer_ratio()
    return m, 1 - d.bit_length()


def _mul(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return x[0] * y[0], x[1] + y[1]


def _add(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    (m, e), (k, f) = x, y
    return (m + (k << (f - e)), e) if e <= f else ((m << (e - f)) + k, f)


def exact_record(a: float, b_abs: float, angles) -> tuple:
    """V^2, P and C^2 of the record that projects probe i at angles[i] =
    (theta_i, phi_i), each a correctly rounded float, and its outcome
    probability as an exact ``Fraction``.

    The floats a, |b| and the cosines and sines of the angles are taken as the
    exact dyadic rationals they represent, and every product and sum is an
    exact integer operation, so nothing underflows however improbable the
    record.  After n collisions probe i holds a^(i-1) b, qubit B a^n and qubit
    A 1 (times 1/sqrt(2), which only halves the probability; the phase of b is
    common to all probe amplitudes and changes no modulus).  The probes are
    projected one at a time, in order: probe i scales every branch in which it
    holds no excitation by alpha_i = cos(theta_i) and moves its own
    excitation, which carries alpha_j of every earlier probe, into |0_A 0_B>
    with weight beta_i = exp(i phi_i) sin(theta_i), kept as its real and
    imaginary parts.
    """
    a = _dyadic(a)
    re = im = (0, 0)
    prod_alpha, amp = (1, 0), _dyadic(b_abs)
    for theta, phi in angles:
        alpha = _dyadic(math.cos(theta))
        moved = _mul(_mul(_dyadic(math.sin(theta)), amp), prod_alpha)
        re = _add(_mul(alpha, re), _mul(_dyadic(math.cos(phi)), moved))
        im = _add(_mul(alpha, im), _mul(_dyadic(math.sin(phi)), moved))
        prod_alpha = _mul(prod_alpha, alpha)
        amp = _mul(amp, a)
    c01 = _mul((a[0] ** len(angles), a[1] * len(angles)), prod_alpha)
    moduli = (_add(_mul(re, re), _mul(im, im)), _mul(c01, c01), _mul(prod_alpha, prod_alpha))
    e = min(f for _, f in moduli)
    m1, m2, m3 = (m << (f - e) for m, f in moduli)
    total = m1 + m2 + m3
    return (
        4 * m1 * m3 / total ** 2,
        abs(m3 - m1 - m2) / total,
        4 * m2 * m3 / total ** 2,
        Fraction(total, 2 ** (1 - e)),
    )
