"""Closed-form maximization of a complementarity quantity over probe bases.

With x = |gamma1/gamma3|^2 and s = a^(2n) the post-selected pair has
V = 2 sqrt(x)/(1+s+x), P = |1-s-x|/(1+s+x) and C = 2 a^n/(1+s+x), so the
basis matters only through x.  Measuring probe 1 at (theta_1, 0) and every
later probe at theta = 0 gives x = |b|^2 tan^2(theta_1), which spans [0, inf):

* V* = 1/sqrt(1+s) at x = 1+s, theta_1 = atan2(sqrt(1+s), |b|);
* C* = 2 a^n/(1+s) at x = 0, theta_1 = 0;
* P* is the larger of theta_1 = pi/2 (P = 1 at outcome probability |b|^2/2)
  and theta_1 = 0 (P = (1-s)/(1+s) at outcome probability (1+s)/2); when the
  two lie within ``TIE_TOLERANCE`` the more probable one is reported.

Without coupling (b = 0) no basis changes the pair and theta_1 = 0 is used.
The reported triple and outcome probability always come from
``gamma_coefficients`` and ``complementarity_after``.  Below g*dt of about
1e-14 the V* and P* records fall under ``DEGENERATE_PROBABILITY`` and
``maximize`` raises ``DegenerateOutcomeError``.

``grid_reference_maximum`` is the independent exhaustive reference that checks
the closed form on small n.  A phase shared by all probes changes no |gamma|,
so it fixes phi_1 = 0 and searches the 2n - 1 free angles: a grid of 180
points at n = 1 (1 degree steps) and 30 x 30 x 60 = 54,000 at n = 2 (6 degree
steps), then a Nelder-Mead polish of the leading points over those same
angles.  The grid runs through the same batched kernel as the library
(``measurement.postselected_amplitudes`` and the moduli-to-V/P/C formula), but
only to pick the leading grid points; the value it returns is recomputed at
its returned angles through ``oracle_evolve``, ``project_oracle`` and
``complementarity.triple``, so an error in the shared kernel cannot reach it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .collisions import CouplingConfig, oracle_evolve
from .complementarity import ComplementarityTriple, triple as pure_triple
from .errors import DegenerateOutcomeError, DomainError
from .measurement import (
    DEGENERATE_PROBABILITY, MeasurementBasis, _complementarity_from_moduli,
    complementarity_after, gamma_coefficients, postselected_amplitudes, project_oracle,
)

#: candidate optima whose values lie within this of the best are ties
TIE_TOLERANCE = 1e-9


class Objective(Enum):
    VISIBILITY = "visibility"
    PREDICTABILITY = "predictability"
    CONCURRENCE = "concurrence"


@dataclass(frozen=True)
class OptimizationResult:
    objective: Objective
    n: int
    basis: MeasurementBasis
    achieved: ComplementarityTriple
    outcome_probability: float


def objective_value(t: ComplementarityTriple, objective: Objective) -> float:
    if objective is Objective.VISIBILITY:
        return t.V
    if objective is Objective.PREDICTABILITY:
        return t.P
    return t.C


def maximize(cfg: CouplingConfig, n: int, objective: Objective) -> OptimizationResult:
    """Optimal measurement basis for the given quantity after n collisions; of
    candidates within ``TIE_TOLERANCE`` of the best, the most probable wins."""
    cfg.check_n(n)
    if cfg.b == 0 or objective is Objective.CONCURRENCE:
        thetas = (0.0,)
    elif objective is Objective.VISIBILITY:
        thetas = (math.atan2(math.sqrt(1.0 + cfg.a ** (2 * n)), abs(cfg.b)),)
    else:
        thetas = (math.pi / 2.0, 0.0)
    candidates = []
    for theta1 in thetas:
        basis = MeasurementBasis.from_angles((theta1 if i == 0 else 0.0, 0.0) for i in range(n))
        gt = gamma_coefficients(cfg, basis, n)
        achieved = complementarity_after(gt)
        candidates.append(OptimizationResult(objective, n, basis, achieved, gt.outcome_probability))
    best = max(objective_value(c.achieved, objective) for c in candidates)
    return max(
        (c for c in candidates if objective_value(c.achieved, objective) >= best - TIE_TOLERANCE),
        key=lambda c: c.outcome_probability,
    )


def curve(cfg: CouplingConfig, objective: Objective, n_max: int) -> list[OptimizationResult]:
    """Maximization for each n in 1..n_max."""
    cfg.check_n(n_max)
    return [maximize(cfg, n, objective) for n in range(1, n_max + 1)]


#: grid spacing in degrees of theta and phi, by n
_REFERENCE_STEPS_DEG = {1: 1.0, 2: 6.0}
#: leading grid points polished by Nelder-Mead
_POLISHED = 8


def grid_reference_maximum(cfg: CouplingConfig, n: int, objective: Objective):
    """Exhaustive reference optimum for small n: dense angle grid plus
    Nelder-Mead polish of the leading grid points.

    A phase common to all probes changes no |gamma|, so phi_1 is fixed at 0:
    the grid and the polish run over the 2n - 1 free angles theta_1..theta_n,
    phi_2..phi_n (180 points at n = 1, 54,000 at n = 2).  The grid ranks bases
    with the shared post-selection kernel; the returned value is recomputed at
    the returned angles through the sequential-collision state, the direct
    projection route and the pure-state formulas, so it is independent of both
    the kernel and the closed form in ``maximize``.  Supports n <= 2.
    Returns (value, angles) with angles as n (theta, phi) pairs.
    """
    cfg.check_n(n)
    if n and n not in _REFERENCE_STEPS_DEG:
        raise DomainError(f"grid reference supports n <= 2, got n={n}")
    state = oracle_evolve(cfg, n)

    def pairs(free: np.ndarray) -> list:
        return list(zip(free[:n], (0.0, *free[n:])))

    def negated(free: np.ndarray) -> float:
        try:
            pure, _ = project_oracle(state, MeasurementBasis.from_angles(pairs(free)))
        except DegenerateOutcomeError:
            return 1e6
        return -objective_value(pure_triple(pure), objective)

    if n == 0:
        return -negated(np.empty(0)), ()
    step = math.radians(_REFERENCE_STEPS_DEG[n])
    axes = [np.arange(0.0, math.pi - 1e-12, step)] * n
    axes += [np.arange(0.0, 2.0 * math.pi - 1e-12, step)] * (n - 1)
    # one row of free angles per grid point
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2 * n - 1)
    phases = np.concatenate([np.zeros((grid.shape[0], 1)), grid[:, n:]], axis=1)
    amplitudes = postselected_amplitudes(
        cfg.a, cfg.b, np.cos(grid[:, :n]), np.sin(grid[:, :n]) * np.exp(1j * phases)
    )
    m1, m2, m3 = (np.abs(g) ** 2 for g in amplitudes)
    with np.errstate(divide="ignore", invalid="ignore"):
        v, p, c = _complementarity_from_moduli(m1, m2, m3)
    vals = objective_value(ComplementarityTriple(v, p, c, math.nan), objective)
    vals = np.where(m1 + m2 + m3 < DEGENERATE_PROBABILITY, -np.inf, vals)

    from scipy.optimize import minimize

    # Nelder-Mead keeps its best vertex, so no polish ends below its grid start
    best = min(
        (
            minimize(
                negated,
                grid[j],
                method="Nelder-Mead",
                options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000, "maxfev": 6000},
            )
            for j in np.argpartition(vals, -_POLISHED)[-_POLISHED:]
        ),
        key=lambda res: res.fun,
    )
    return -best.fun, tuple(pairs(best.x))
