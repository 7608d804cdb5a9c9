#!/usr/bin/env python3
"""Post-selecting the probe qubits.

Shows how measuring each probe in a chosen basis, a tuple of (theta, phi)
pairs in probe order, reshapes the pair state:
the closed-form post-selection amplitudes, their agreement with direct
projection of the collision state, the shared-basis shortcut, and how outcome
probabilities add up over a complete set of measurement records.
"""
import math
import random

from complement_opt import (
    complementarity_after,
    gamma_coefficients,
    make_config,
    oracle_evolve,
    postselected_state,
    project_oracle,
    uniform_gamma,
)


def separator(title):
    print(f"\n{'=' * 64}\n  {title}\n{'=' * 64}")


def random_angles(rng, n):
    """A basis of n (theta, phi) pairs, theta uniform in [0, pi) and phi in [0, 2 pi)."""
    return tuple((math.pi * rng.random(), 2 * math.pi * rng.random()) for _ in range(n))


def main():
    cfg = make_config(g=4.0, T=2.0 * math.pi, N_total=20)
    n = 4
    rng = random.Random(7)

    separator("POST-SELECTED PAIR STATE, RANDOM BASIS")
    basis = random_angles(rng, n)
    gt = gamma_coefficients(cfg, basis)
    state = postselected_state(gt)
    print(f"  basis (theta, phi): {tuple((round(t, 3), round(p, 3)) for t, p in basis)}")
    print(f"  c00 = {state.c00:+.6f}")
    print(f"  c01 = {state.c01:+.6f}")
    print(f"  c10 = {state.c10:+.6f}")
    print(f"  outcome probability = {gt.outcome_probability:.6f}")
    t = complementarity_after(gt)
    print(f"  V = {t.V:.6f}  P = {t.P:.6f}  C = {t.C:.6f}  "
          f"(closure residual {t.closure_residual:+.2e})")

    separator("DUAL ROUTE: ALGEBRA vs DIRECT PROJECTION")
    pure, prob = project_oracle(oracle_evolve(cfg, n), basis)
    print(f"  probability gap  : {abs(prob - gt.outcome_probability):.3e}")
    print(f"  amplitude gaps   : {abs(pure.c00 - state.c00):.3e}, "
          f"{abs(pure.c01 - state.c01):.3e}, {abs(pure.c10 - state.c10):.3e}")

    separator("SHARED BASIS FOR EVERY PROBE")
    print("  theta/pi   V        P        C        probability")
    for frac in (0.0, 0.1, 0.25, 0.4, 0.49):
        theta = frac * math.pi
        gt = uniform_gamma(cfg, theta, 0.0, n)
        t = complementarity_after(gt)
        print(f"  {frac:5.2f}    {t.V:.5f}  {t.P:.5f}  {t.C:.5f}  {gt.outcome_probability:.6f}")

    separator("PROBABILITIES OVER A COMPLETE OUTCOME SET")
    pairs = random_angles(rng, 3)
    state3 = oracle_evolve(cfg, 3)
    total = 0.0
    for bits in range(8):
        chosen = [
            pairs[i] if not bits & (1 << i)
            else (math.pi / 2 - pairs[i][0], pairs[i][1] + math.pi)
            for i in range(3)
        ]
        _, p = project_oracle(state3, tuple(chosen))
        total += p
    print(f"  sum over all 8 records of 3 probes: {total:.12f}")


if __name__ == "__main__":
    main()
