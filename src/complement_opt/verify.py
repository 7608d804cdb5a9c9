"""Built-in invariant suite: exercises the identities the whole package rests on.

Four families of checks, all seeded and deterministic:

* closure: V^2 + P^2 + C^2 = 1 for post-selected states of random runs;
* dual routes: closed-form evolution vs sequential rotations, and the
  post-selection algebra vs direct projection of the oracle state;
* the information budget a^(2n) + sum_i |a^(i-1) b|^2 = 1;
* the closed-form optimizer vs the exhaustive small-n grid reference.

The sampled checks draw their random cases from ``random.Random`` through
``random()`` alone, a sequence Python keeps fixed for a given seed.
The closure check takes V, P and C from the library's ``complementarity_after``.
Every draw is evaluated, since no measurement record is impossible.  Each check
collects one gap per quantity it compares and passes only if every gap is
within its threshold, so a NaN gap fails and is reported as nan.
``perturb=True`` substitutes a triple function whose P has one sign flipped (a
deliberate fault) so callers can confirm the suite fails when the math is wrong.
"""
from __future__ import annotations

import math
import random
from typing import NamedTuple

from .collisions import distinguishability_ab, evolve_closed_form, make_config, oracle_evolve
from .errors import ConfigError, check_count
from .measurement import (
    GammaTriple,
    complementarity_after,
    gamma_coefficients,
    per_qubit_distinguishability,
    postselected_state,
    project_oracle,
)
from .optimize import grid_reference_maximum, maximize, objective_value
from .experiments import PRESETS, preset_config


class CheckResult(NamedTuple):
    name: str
    passed: bool
    detail: str


def _random_case(rng: random.Random, n_cap=20):
    """Random coupling and collision count with g*dt safely inside (0, pi/2);
    ``rng.random()`` < 1, so ``int(k * rng.random())`` lies in 0..k-1."""
    N_total = 1 + int(24 * rng.random())
    T = 0.5 + 9.5 * rng.random()
    dt = T / N_total
    g = 0.98 * (math.pi / 2.0) * rng.random() / dt
    n = int((min(N_total, n_cap) + 1) * rng.random())
    return make_config(g, T, N_total), n


def _random_basis(rng: random.Random, n) -> tuple[tuple[float, float], ...]:
    """n angles theta in [0, pi), then n azimuths phi in [0, 2 pi), paired in
    probe order; canonical as drawn."""
    thetas = [math.pi * rng.random() for _ in range(n)]
    phis = [2.0 * math.pi * rng.random() for _ in range(n)]
    return tuple(zip(thetas, phis))


def _sign_fault(gt: GammaTriple):
    """``complementarity_after`` with the sign of the |gamma2|^2 term in P flipped."""
    m1, m2, m3 = (abs(g) ** 2 for g in (gt.gamma1, gt.gamma2, gt.gamma3))
    return complementarity_after(gt)._replace(P=abs(m3 - m1 + m2) / (m1 + m2 + m3))


def _check(
    name: str, threshold: float, scope: str, statistic: str, gaps: list[float]
) -> CheckResult:
    """Passes if and only if every gap is at most ``threshold``; a NaN gap is
    reported as the largest, and fails."""
    worst = math.nan if any(map(math.isnan, gaps)) else max(gaps, default=0.0)
    return CheckResult(
        name=name,
        passed=worst <= threshold,
        detail=f"{scope}, max {statistic} = {worst:.3e}",
    )


def _closure_check(samples: int, seed: int, triple_of) -> CheckResult:
    rng = random.Random(seed)
    gaps = []
    for _ in range(samples):
        cfg, n = _random_case(rng)
        t = triple_of(gamma_coefficients(cfg, _random_basis(rng, n)))
        gaps.append(abs(t.V * t.V + t.P * t.P + t.C * t.C - 1.0))
    return _check(
        "closure-after-measurement", 1e-10, f"{samples} samples", "|V^2+P^2+C^2-1|", gaps
    )


def _evolution_check(seed: int, cases: int = 200) -> CheckResult:
    rng = random.Random(seed + 1)
    gaps = []
    for _ in range(cases):
        cfg, n = _random_case(rng)
        closed = evolve_closed_form(cfg, n)
        oracle = oracle_evolve(cfg, n)
        gaps += (
            abs(closed.amp_b - oracle.amp_b),
            abs(closed.amp_a - oracle.amp_a),
            *(abs(x - y) for x, y in zip(closed.amp_r, oracle.amp_r)),
            abs(closed.norm_sq() - 1.0),
        )
    return _check("evolution-dual-route", 1e-10, f"{cases} cases", "amplitude gap", gaps)


def _projection_check(samples: int, seed: int) -> CheckResult:
    rng = random.Random(seed + 2)
    gaps = []
    for _ in range(samples):
        cfg, n = _random_case(rng, n_cap=10)
        basis = _random_basis(rng, n)
        gt = gamma_coefficients(cfg, basis)
        pure, prob = project_oracle(oracle_evolve(cfg, n), basis)
        expected = postselected_state(gt)
        gaps += (
            abs(prob - gt.outcome_probability),
            abs(pure.c00 - expected.c00),
            abs(pure.c01 - expected.c01),
            abs(pure.c10 - expected.c10),
        )
    return _check(
        "postselection-dual-route", 1e-10, f"{samples} samples", "state/probability gap", gaps
    )


def _budget_check() -> CheckResult:
    configs = [preset_config(preset) for preset in PRESETS]
    gaps = [
        abs(
            distinguishability_ab(cfg, n)
            + sum(per_qubit_distinguishability(cfg, i) for i in range(1, n + 1))
            - 1.0
        )
        for cfg in configs
        for n in range(0, cfg.N_total + 1)
    ]
    n_max = max(cfg.N_total for cfg in configs)
    return _check(
        "distinguishability-budget", 1e-12, f"both presets, n <= {n_max}", "|budget - 1|", gaps
    )


def _optimizer_check() -> CheckResult:
    gaps = []
    for preset in PRESETS:
        cfg = preset_config(preset)
        for n in (1, 2):
            for objective, (reference, _) in grid_reference_maximum(cfg, n).items():
                achieved = objective_value(maximize(cfg, n, objective).achieved, objective)
                gaps.append(abs(achieved - reference))
    return _check(
        "small-n-optimizer-reference",
        1e-3,
        "n in (1, 2), both presets, all objectives",
        "gap",
        gaps,
    )


def run_verification(
    samples: int = 500, seed: int = 0, perturb: bool = False
) -> list[CheckResult]:
    """Run every check; deterministic for fixed (samples, seed, perturb).

    Raises :class:`ConfigError` unless samples >= 1 and seed >= 0 are
    ints, no bool.
    """
    check_count(samples, "samples", ConfigError, 1)
    check_count(seed, "seed", ConfigError)
    return [
        _closure_check(samples, seed, _sign_fault if perturb else complementarity_after),
        _evolution_check(seed),
        _projection_check(samples, seed),
        _budget_check(),
        _optimizer_check(),
    ]
