#!/usr/bin/env python3
"""Where the which-path information lives, and what measuring erases.

Strong coupling piles the information onto the first few probes; weak coupling
spreads it almost evenly.  Measuring to maximize visibility erases it (the
total distinguishability change approaches -1), while predictability- and
concurrence-maximizing measurements leave the budget untouched.
"""
import math

from complement_opt import (
    Objective,
    delta_d_pair,
    delta_d_total,
    make_config,
    maximize,
    per_qubit_distinguishability,
)

def bar(value, scale=40):
    return "#" * max(0, round(value * scale))


def main():
    strong = make_config(4.0, 2.0 * math.pi, 20)
    weak = make_config(0.25, 2.0 * math.pi, 20)

    print("per-probe information D(A:probe i) = |a^(i-1) b|^2")
    print(f"{'i':>4}  {'strong':<12} {'weak':<12}")
    for i in range(1, 11):
        ds = per_qubit_distinguishability(strong, i)
        dw = per_qubit_distinguishability(weak, i)
        print(f"{i:>4}  {ds:<12.6f} {dw:<12.6f}  strong {bar(ds):<40}")

    for name, cfg in (("strong", strong), ("weak", weak)):
        n = cfg.N_total
        budget = cfg.a ** (2 * n) + sum(
            per_qubit_distinguishability(cfg, i) for i in range(1, n + 1)
        )
        print(f"\ninformation budget, {name}: a^2n + sum_i |a^(i-1) b|^2 = {budget:.15f}")

    print("\ntotal / pair information change after optimized measurements (n = 4)")
    print(f"{'objective':<16} {'coupling':<8} {'dD_total':>10} {'dD_pair':>10}")
    for objective in Objective:
        for name, cfg in (("strong", strong), ("weak", weak)):
            v = min(maximize(cfg, 4, objective).achieved.V, 1.0)
            print(f"{objective.value:<16} {name:<8} {delta_d_total(v):>10.4f} "
                  f"{delta_d_pair(cfg, 4, v):>10.4f}")
    print("\nonly the visibility maximization erases stored information,")
    print("and it erases almost all of it when the coupling is strong")


if __name__ == "__main__":
    main()
