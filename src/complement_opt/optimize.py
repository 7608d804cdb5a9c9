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
1e-14 the V* and P* records fall under ``DEGENERATE_NORM`` and ``maximize``
raises ``DegenerateOutcomeError``.  ``grid_reference_maximum`` is the
independent exhaustive reference that checks the closed form on small n.
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
    MeasurementBasis, _exclusive_products, complementarity_after, gamma_coefficients,
)

#: candidate optima whose values lie within this of the best are ties
TIE_TOLERANCE = 1e-9
#: squared-norm threshold below which a grid point counts as impossible
_DEGENERATE_TOTAL = 1e-28


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


def _moduli_sq(a, b, n, theta, phi):
    """Squared moduli (m1, m2, m3) of the post-selected amplitudes, batched.

    theta/phi have shape (..., n); the common 1/sqrt(2) factor is dropped
    since every objective is scale-invariant.
    """
    alpha = np.cos(theta)
    beta = np.exp(1j * phi) * np.sin(theta)
    weights = a ** np.arange(n)
    prod_alpha = np.prod(alpha, axis=-1)
    g1 = b * np.sum(weights * beta * _exclusive_products(alpha), axis=-1)
    g3 = prod_alpha
    g2 = a ** n * prod_alpha
    return np.abs(g1) ** 2, g2 * g2, g3 * g3


def _value_from_moduli(kind: Objective, m1, m2, m3):
    total = m1 + m2 + m3
    with np.errstate(divide="ignore", invalid="ignore"):
        if kind is Objective.VISIBILITY:
            val = 2.0 * np.sqrt(m1 * m3) / total
        elif kind is Objective.PREDICTABILITY:
            val = np.abs(m3 - m1 - m2) / total
        else:
            val = 2.0 * np.sqrt(m2 * m3) / total
    return np.where(total < _DEGENERATE_TOTAL, -np.inf, val)


_REFERENCE_STEPS_DEG = {1: 1.0, 2: 6.0}


def grid_reference_maximum(
    cfg: CouplingConfig,
    n: int,
    objective: Objective,
    theta_step_deg: float | None = None,
    refine: bool = True,
    top_k: int = 8,
    chunk: int = 250_000,
):
    """Exhaustive reference optimum for small n: dense angle grid plus
    Nelder-Mead polish of the leading grid points.

    The polish evaluates the objective through the sequential-collision state
    and the direct projection route, independently of the closed form in
    ``maximize``.  Supports n <= 2 (the 2n-dimensional grid grows too fast
    beyond that).  Returns (value, angles).
    """
    cfg.check_n(n)
    if n == 0:
        gt = gamma_coefficients(cfg, MeasurementBasis.empty(), 0)
        return objective_value(complementarity_after(gt), objective), ()
    if n not in _REFERENCE_STEPS_DEG and theta_step_deg is None:
        raise DomainError(f"grid reference supports n <= 2, got n={n}")
    step = math.radians(theta_step_deg or _REFERENCE_STEPS_DEG[n])
    tg = np.arange(0.0, math.pi - 1e-12, step)
    pg = np.arange(0.0, 2.0 * math.pi - 1e-12, step)
    k_pair = tg.size * pg.size
    total = k_pair ** n

    leaders: list[tuple[float, np.ndarray, np.ndarray]] = []
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total))
        theta = np.empty((idx.size, n))
        phi = np.empty((idx.size, n))
        rem = idx
        for col in range(n - 1, -1, -1):
            pair_idx = rem % k_pair
            rem = rem // k_pair
            theta[:, col] = tg[pair_idx // pg.size]
            phi[:, col] = pg[pair_idx % pg.size]
        vals = _value_from_moduli(objective, *_moduli_sq(cfg.a, cfg.b, n, theta, phi))
        take = min(top_k, vals.size)
        part = np.argpartition(vals, -take)[-take:]
        leaders.extend((float(vals[j]), theta[j].copy(), phi[j].copy()) for j in part)
        leaders.sort(key=lambda c: -c[0])
        leaders = leaders[:top_k]

    best_v, best_theta, best_phi = leaders[0]
    if not refine:
        return best_v, tuple(zip(best_theta, best_phi))

    from scipy.optimize import minimize
    from .measurement import project_oracle

    state = oracle_evolve(cfg, n)

    def negated(x: np.ndarray) -> float:
        basis = MeasurementBasis.from_angles(zip(x[:n], x[n:]))
        try:
            pure, _ = project_oracle(state, basis)
        except DegenerateOutcomeError:
            return 1e6
        return -objective_value(pure_triple(pure), objective)

    for v0, t0, p0 in leaders:
        res = minimize(
            negated,
            np.concatenate([t0, p0]),
            method="Nelder-Mead",
            options={"xatol": 1e-10, "fatol": 1e-13, "maxiter": 4000, "maxfev": 6000},
        )
        if -res.fun > best_v:
            best_v = -res.fun
            best_theta, best_phi = res.x[:n], res.x[n:]
    return best_v, tuple(zip(best_theta, best_phi))
