"""Independent oracles shared by the test modules.

Everything here recomputes physics from first principles (density matrices,
trace norms, spin-flip concurrence) so the package's closed forms are checked
against a route they do not share.
"""
from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

from complement_opt import (
    ExcitationState,
    MeasurementBasis,
    TwoQubitPure,
    make_config,
)

SRC = Path(__file__).resolve().parents[1] / "src"

PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SPIN_FLIP = np.kron(PAULI_Y, PAULI_Y)


def reduced_pair_density(state: ExcitationState) -> np.ndarray:
    """Trace the probes out of |psi><psi|; basis |00>, |01>, |10>, |11>."""
    vacuum_branch = np.array([0.0, state.amp_b, state.amp_a, 0.0], dtype=complex)
    rho = np.outer(vacuum_branch, vacuum_branch.conj())
    rho[0, 0] += np.sum(np.abs(state.amp_r) ** 2)
    return rho


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


def random_pure_pair(rng: np.random.Generator) -> TwoQubitPure:
    amps = rng.normal(size=4) + 1j * rng.normal(size=4)
    amps /= np.linalg.norm(amps)
    return TwoQubitPure(*amps)


def random_coupling(rng: np.random.Generator, n_cap: int = 20):
    """Random admissible coupling plus a collision count n <= n_cap."""
    n_total = int(rng.integers(1, 25))
    total_time = float(rng.uniform(0.5, 10.0))
    dt = total_time / n_total
    g = float(rng.uniform(0.0, 0.98 * math.pi / 2.0) / dt)
    n = int(rng.integers(0, min(n_total, n_cap) + 1))
    return make_config(g, total_time, n_total), n


def random_basis(rng: np.random.Generator, n: int) -> MeasurementBasis:
    return MeasurementBasis.from_angles(
        zip(rng.uniform(0.0, math.pi, n), rng.uniform(0.0, 2.0 * math.pi, n))
    )


def package_env() -> dict:
    """Environment for a subprocess whose PYTHONPATH finds the package in src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def orthogonal_pair_angles(theta: float, phi: float) -> tuple[float, float]:
    """Angles of the basis vector completing (theta, phi) to a full basis."""
    return math.pi / 2.0 - theta, phi + math.pi
