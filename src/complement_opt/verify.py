"""Built-in invariant suite: exercises the identities the whole package rests on.

Four families of checks, all seeded and deterministic:

* closure: V^2 + P^2 + C^2 = 1 for post-selected states of random runs;
* dual routes: closed-form evolution vs sequential rotations, and the
  post-selection algebra vs direct projection of the oracle state;
* the information budget a^(2n) + sum_i |a^(i-1) b|^2 = 1;
* the closed-form optimizer vs the exhaustive small-n grid reference.

The closure check takes V, P and C from the library's ``complementarity_after``.
``perturb=True`` substitutes a triple function whose P has one sign flipped (a
deliberate fault) so callers can confirm the suite fails when the math is wrong.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .collisions import evolve_closed_form, make_config, oracle_evolve
from .errors import DegenerateOutcomeError
from .measurement import (
    GammaTriple,
    MeasurementBasis,
    complementarity_after,
    gamma_coefficients,
    per_qubit_distinguishability,
    postselected_state,
    project_oracle,
)
from .optimize import Objective, grid_reference_maximum, maximize, objective_value
from .experiments import preset_config


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _random_case(rng, n_cap=20):
    """Random coupling and collision count with g*dt safely inside (0, pi/2)."""
    N_total = int(rng.integers(1, 25))
    T = float(rng.uniform(0.5, 10.0))
    dt = T / N_total
    g = float(rng.uniform(0.0, 0.98 * math.pi / 2.0) / dt)
    n = int(rng.integers(0, min(N_total, n_cap) + 1))
    return make_config(g, T, N_total), n


def _random_basis(rng, n) -> MeasurementBasis:
    return MeasurementBasis.from_angles(
        zip(rng.uniform(0.0, math.pi, n), rng.uniform(0.0, 2.0 * math.pi, n))
    )


def _sign_fault(gt: GammaTriple):
    """``complementarity_after`` with the sign of the |gamma2|^2 term in P flipped."""
    m1, m2, m3 = (abs(g) ** 2 for g in (gt.gamma1, gt.gamma2, gt.gamma3))
    return replace(complementarity_after(gt), P=abs(m3 - m1 + m2) / (m1 + m2 + m3))


def _closure_check(samples: int, seed: int, triple_of) -> CheckResult:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        cfg, n = _random_case(rng)
        basis = _random_basis(rng, n)
        try:
            gt = gamma_coefficients(cfg, basis, n)
        except DegenerateOutcomeError:
            continue
        t = triple_of(gt)
        worst = max(worst, abs(t.V * t.V + t.P * t.P + t.C * t.C - 1.0))
    return CheckResult(
        name="closure-after-measurement",
        passed=worst <= 1e-10,
        detail=f"{samples} samples, max |V^2+P^2+C^2-1| = {worst:.3e}",
    )


def _evolution_check(seed: int, cases: int = 200) -> CheckResult:
    rng = np.random.default_rng(seed + 1)
    worst = 0.0
    for _ in range(cases):
        cfg, n = _random_case(rng)
        closed = evolve_closed_form(cfg, n)
        oracle = oracle_evolve(cfg, n)
        worst = max(
            worst,
            abs(closed.amp_b - oracle.amp_b),
            abs(closed.amp_a - oracle.amp_a),
            float(np.max(np.abs(closed.amp_r - oracle.amp_r))) if n else 0.0,
            abs(closed.norm_sq() - 1.0),
        )
    return CheckResult(
        name="evolution-dual-route",
        passed=worst <= 1e-10,
        detail=f"{cases} cases, max amplitude gap = {worst:.3e}",
    )


def _projection_check(samples: int, seed: int) -> CheckResult:
    rng = np.random.default_rng(seed + 2)
    worst = 0.0
    for _ in range(samples):
        cfg, n = _random_case(rng, n_cap=10)
        basis = _random_basis(rng, n)
        try:
            gt = gamma_coefficients(cfg, basis, n)
            pure, prob = project_oracle(oracle_evolve(cfg, n), basis)
        except DegenerateOutcomeError:
            continue
        expected = postselected_state(gt)
        worst = max(
            worst,
            abs(prob - gt.outcome_probability),
            abs(pure.c00 - expected.c00),
            abs(pure.c01 - expected.c01),
            abs(pure.c10 - expected.c10),
        )
    return CheckResult(
        name="postselection-dual-route",
        passed=worst <= 1e-10,
        detail=f"{samples} samples, max state/probability gap = {worst:.3e}",
    )


def _budget_check() -> CheckResult:
    worst = 0.0
    for preset in ("strong", "weak"):
        cfg = preset_config(preset)
        for n in range(0, cfg.N_total + 1):
            total = cfg.a ** (2 * n) + sum(
                per_qubit_distinguishability(cfg, i) for i in range(1, n + 1)
            )
            worst = max(worst, abs(total - 1.0))
    return CheckResult(
        name="distinguishability-budget",
        passed=worst <= 1e-12,
        detail=f"both presets, n <= 20, max |budget - 1| = {worst:.3e}",
    )


def _optimizer_check() -> CheckResult:
    worst = 0.0
    for preset in ("strong", "weak"):
        cfg = preset_config(preset)
        for n in (1, 2):
            for objective in Objective:
                reference, _ = grid_reference_maximum(cfg, n, objective)
                achieved = objective_value(maximize(cfg, n, objective).achieved, objective)
                worst = max(worst, abs(achieved - reference))
    return CheckResult(
        name="small-n-optimizer-reference",
        passed=worst <= 1e-3,
        detail=f"n in (1, 2), both presets, all objectives, max gap = {worst:.3e}",
    )


def run_verification(
    samples: int = 500, seed: int = 0, perturb: bool = False
) -> list[CheckResult]:
    """Run every check; deterministic for fixed (samples, seed, perturb)."""
    return [
        _closure_check(samples, seed, _sign_fault if perturb else complementarity_after),
        _evolution_check(seed),
        _projection_check(samples, seed),
        _budget_check(),
        _optimizer_check(),
    ]
