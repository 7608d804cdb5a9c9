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
So an optimum is one angle, ``OptimizationResult.theta1``, and its basis, a
tuple of n (theta, phi) pairs like every basis, is derived from it.  The
reported triple and outcome probability come from the one-angle closed form
``measurement.one_angle_gamma`` and
``complementarity_after`` in O(1) per n; a test checks them bit for bit
against ``gamma_coefficients`` on the derived basis.  The V and P optima sit
at or within about g*dt of theta_1 = pi/2, which float angles resolve only to
about 1e-16, so ``maximize`` raises ``DomainError`` when its best V or P falls
more than ``TIE_TOLERANCE`` short of the closed form (at n = 1 from g*dt = 1e-12
down).

``grid_reference_maximum`` is the independent exhaustive reference that checks
the closed form on small n; its docstring describes the grid, the search and
the one route every value takes.
"""
from __future__ import annotations

import heapq
import itertools
import math
from enum import Enum
from typing import NamedTuple

from .collisions import CouplingConfig, distinguishability_ab, oracle_evolve
from .complementarity import ComplementarityTriple, triple as pure_triple
from .errors import ConfigError, DomainError
from .measurement import (
    canonical_angles, complementarity_after, one_angle_gamma, project_oracle,
)

#: ties among candidate optima, and the most the best may fall short of its closed form
TIE_TOLERANCE = 1e-9


class Objective(Enum):
    VISIBILITY = "visibility"
    PREDICTABILITY = "predictability"
    CONCURRENCE = "concurrence"


#: the ComplementarityTriple field of each objective; Objective lists them in
#: the triple's order (V, P, C)
_FIELD = {objective: i for i, objective in enumerate(Objective)}


class OptimizationResult(NamedTuple):
    """An optimum: probe 1 measured at (theta1, 0), every later probe at (0, 0),
    theta1 in [0, pi/2]."""

    objective: Objective
    n: int
    theta1: float
    achieved: ComplementarityTriple
    outcome_probability: float

    @property
    def basis(self) -> tuple[tuple[float, float], ...]:
        """The n (theta, phi) pairs, () at n = 0; theta1 in [0, pi/2] is
        canonical already."""
        if not self.n:
            return ()
        return ((self.theta1, 0.0),) + ((0.0, 0.0),) * (self.n - 1)


def objective_value(t: ComplementarityTriple, objective: Objective) -> float:
    return t[_FIELD[objective]]


def maximize(cfg: CouplingConfig, n: int, objective: Objective) -> OptimizationResult:
    """Optimal first-probe angle theta1 for the given quantity after n
    collisions; of candidates within ``TIE_TOLERANCE`` of the best, the most
    probable wins, and a best V or P more than that below its closed form
    raises ``DomainError``."""
    cfg.check_n(n)
    if not isinstance(objective, Objective):
        raise ConfigError(f"objective {objective!r} is no Objective")
    optimum = None  # the closed form the best candidate must reach
    if cfg.b == 0 or n == 0 or objective is Objective.CONCURRENCE:
        thetas = (0.0,)
    elif objective is Objective.VISIBILITY:
        root = math.sqrt(1.0 + distinguishability_ab(cfg, n))
        thetas, optimum = (math.atan2(root, abs(cfg.b)),), 1.0 / root
    else:
        thetas, optimum = (math.pi / 2.0, 0.0), 1.0
    candidates = []
    for theta1 in thetas:
        gt = one_angle_gamma(cfg, theta1, n)
        candidates.append(OptimizationResult(
            objective, n, theta1, complementarity_after(gt), gt.outcome_probability
        ))
    best = max(objective_value(c.achieved, objective) for c in candidates)
    if optimum is not None and best < optimum - TIE_TOLERANCE:
        raise DomainError(
            f"best {objective.value} {best!r} is short of the closed form {optimum!r}: float "
            f"angles cannot resolve the optimal basis at g*dt = {cfg.g * cfg.dt:.3g}"
        )
    return max(
        (c for c in candidates if objective_value(c.achieved, objective) >= best - TIE_TOLERANCE),
        key=lambda c: c.outcome_probability,
    )


def curve(cfg: CouplingConfig, objective: Objective, n_max: int) -> list[OptimizationResult]:
    """Maximization for each n in 1..n_max."""
    cfg.check_n(n_max)
    return [maximize(cfg, n, objective) for n in range(1, n_max + 1)]


#: grid spacing of every free angle in degrees; it must divide 90 so that
#: theta = pi/2, where P = 1 sits, lies on the grid
_REFERENCE_STEP_DEG = 15.0
#: leading grid points polished by the compass search
_POLISHED = 8
#: the compass search stops once its step falls below this many radians
_POLISH_STOP = 1e-9
#: V, P and C of a normalized state never exceed 1, so no move can beat a best of 1
_POLISH_CEILING = 1.0


def grid_reference_maximum(cfg: CouplingConfig, n: int) -> dict[Objective, tuple[float, tuple]]:
    """Exhaustive reference optima for small n: a grid of 15 degree angle steps
    plus a compass search from each of the 8 leading grid points over those
    same angles, for every objective.

    A phase common to all probes changes no |gamma|, so phi_1 is fixed at 0:
    the grid and the polish run over the 2n - 1 free angles theta_1..theta_n,
    phi_2..phi_n.  (pi - theta, phi + pi) only flips the sign of a probe's
    vector, so the theta axes cover [0, pi/2] (7 points at n = 1, 1,176 at
    n = 2).  Every value, on the grid and in the polish, comes from the
    sequential-collision state (``oracle_evolve``), the direct projection
    route (``project_oracle``) and the pure-state formulas
    (``complementarity.triple``), so it is independent of both the
    post-selection kernel and the closed form in ``maximize``.  A polish
    stops once its best value reaches 1, the ceiling of V, P and C, or its
    step falls below 1e-9 rad.  One pass serves all three objectives: the
    triple of each projector is computed once and kept in a dict local to the
    call, keyed by the free angles and, where some theta_i (i >= 2) is 0, by
    the same angles with that phi_i = 0 too, so nothing is kept across calls.
    Supports n <= 2.  Returns {objective: (value, angles)}, Python floats, with angles
    as the n canonical (theta, phi) pairs (``canonical_angles``) at which the
    value was computed.
    """
    cfg.check_n(n)
    if n > 2:
        raise DomainError(f"grid reference supports n <= 2, got n={n}")
    state = oracle_evolve(cfg, n)
    # free angles and their projector keys (see value) -> triple, shared by the three
    # objectives; an unrounded key makes a hit return exactly what a miss would compute
    triples: dict[tuple, ComplementarityTriple] = {}

    def basis(free: tuple) -> tuple[tuple[float, float], ...]:
        return tuple(itertools.starmap(canonical_angles, zip(free[:n], (0.0, *free[n:]))))

    def value(free: tuple, field: int) -> float:
        t = triples.get(free)
        if t is None:
            key = free
            if 0.0 in free[1:n]:
                # at theta_i = 0, beta_i is a complex of signed zeros that adds only +-0
                # to c00, and the triple reads moduli: it has the same bits for every phi_i
                key = free[:n] + tuple(
                    0.0 if theta == 0.0 else phi for theta, phi in zip(free[1:n], free[n:])
                )
                t = triples.get(key)
            if t is None:
                pure, _ = project_oracle(state, basis(free))
                t = triples[key] = pure_triple(pure)
            triples[free] = t
        return t[field]

    step = math.radians(_REFERENCE_STEP_DEG)

    def polish(free: tuple, field: int) -> tuple[float, tuple]:
        # compass search: it accepts only improvements, so it never ends below its start
        best, h = value(free, field), step
        while h >= _POLISH_STOP and best < _POLISH_CEILING:
            for i, move in itertools.product(range(len(free)), (h, -h)):
                trial = free[:i] + (free[i] + move,) + free[i + 1:]
                trial_value = value(trial, field)
                if trial_value > best:
                    free, best = trial, trial_value
                    break
            else:
                h /= 2.0
        return best, free

    per_right_angle = round(90.0 / _REFERENCE_STEP_DEG)
    # (theta, phi) and (pi - theta, phi + pi) are the same projector up to sign
    thetas = [i * step for i in range(per_right_angle + 1)]
    phis = [i * step for i in range(4 * per_right_angle)]
    # at n = 0 the product over no axes yields one point, the empty one
    grid = list(itertools.product(*[thetas] * n, *[phis] * (n - 1)))

    def search(field: int) -> tuple[float, tuple]:
        starts = heapq.nlargest(_POLISHED, grid, key=lambda free: value(free, field))
        best, free = max((polish(free, field) for free in starts), key=lambda r: r[0])
        # the canonical angles are exactly the ones value evaluated
        return best, basis(free)

    return {objective: search(_FIELD[objective]) for objective in Objective}
