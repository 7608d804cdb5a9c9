#!/usr/bin/env python3
"""Steering the pair by optimizing the probe measurement bases.

For each target quantity (visibility, predictability, concurrence) the
optimal basis follows in closed form: only the first probe's angle matters,
so ``OptimizationResult.basis`` is ((theta1, 0), (0, 0), ...), one (theta, phi)
pair per probe, and it feeds ``gamma_coefficients(cfg, basis)`` as it is.  Strong coupling drains the
entanglement no matter what is maximized, while weak coupling lets the
concurrence survive; the visibility shows the opposite preference.
"""
import math

from complement_opt import (
    Objective,
    curve,
    gamma_coefficients,
    make_config,
    maximize,
    postselected_state,
    reservoir_limit_concurrence,
)

N_MAX = 12


def show_curve(cfg, label, objective):
    print(f"\n--- maximize {objective.value} | {label} coupling ---")
    print("  n    V        P        C        reservoir C   prob")
    for r in curve(cfg, objective, N_MAX):
        t = r.achieved
        res = reservoir_limit_concurrence(cfg.k, r.n * cfg.dt)
        print(f"  {r.n:2d}  {t.V:.5f}  {t.P:.5f}  {t.C:.5f}   {res:.5f}       "
              f"{r.outcome_probability:.4f}")


def show_states(cfg, label, ns=(1, 2, 10)):
    print(f"\n--- optimized pair states | {label} coupling ---")
    for objective in Objective:
        for n in ns:
            r = maximize(cfg, n, objective)
            s = postselected_state(gamma_coefficients(cfg, r.basis))
            print(f"  max {objective.value:<14} n={n:<2d}  "
                  f"|c00|={abs(s.c00):.2f} |c01|={abs(s.c01):.2f} |c10|={abs(s.c10):.2f}  "
                  f"probe 1 at (theta, phi) = ({r.basis[0][0]:.3f}, {r.basis[0][1]:.0f})")


def main():
    strong = make_config(4.0, 2.0 * math.pi, 20)
    weak = make_config(0.25, 2.0 * math.pi, 20)

    show_curve(strong, "strong", Objective.VISIBILITY)
    show_curve(strong, "strong", Objective.CONCURRENCE)
    show_curve(weak, "weak", Objective.CONCURRENCE)
    show_curve(weak, "weak", Objective.VISIBILITY)

    show_states(strong, "strong")
    show_states(weak, "weak")


if __name__ == "__main__":
    main()
