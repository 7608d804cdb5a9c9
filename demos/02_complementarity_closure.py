#!/usr/bin/env python3
"""Visibility, predictability and concurrence of pure two-qubit states, and
the closure identity V^2 + P^2 + C^2 = 1 that ties them together."""
import math
import random

from complement_opt import TwoQubitPure, triple

SQRT1_2 = 1.0 / math.sqrt(2.0)

SHOWCASE = [
    ("Bell pair (|01> + |10>)/sqrt2", TwoQubitPure(0.0, SQRT1_2, SQRT1_2)),
    ("product |00>", TwoQubitPure(1.0, 0.0, 0.0)),
    ("definite |10>", TwoQubitPure(0.0, 0.0, 1.0)),
    ("coherent (|00> + |10>)/sqrt2", TwoQubitPure(SQRT1_2, 0.0, SQRT1_2)),
    ("lopsided 0.29|01> + 0.95|10>", TwoQubitPure(0.0, 0.29, 0.95, 0.0)),
]


def normalized(amps):
    """The pure pair with amplitudes ``amps`` (|00>, |01>, |10>, |11>) scaled to unit norm."""
    norm = math.sqrt(sum(abs(x) ** 2 for x in amps))
    return TwoQubitPure(*(x / norm for x in amps))


def main():
    print("state                              V        P        C        V2+P2+C2")
    print("-" * 78)
    for label, state in SHOWCASE:
        state = normalized([state.c00, state.c01, state.c10, state.c11])
        t = triple(state)
        print(f"{label:<34} {t.V:.5f}  {t.P:.5f}  {t.C:.5f}  {1.0 + t.closure_residual:.9f}")

    rng = random.Random(0)
    worst = 0.0
    for _ in range(2000):
        t = triple(normalized([complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for _ in range(4)]))
        worst = max(worst, abs(t.closure_residual))
    print("-" * 78)
    print(f"closure residual over 2000 random pure states: max {worst:.3e}")


if __name__ == "__main__":
    main()
