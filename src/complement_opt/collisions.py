"""Sequential-collision dynamics of an entangled pair in the single-excitation sector.

Two qubits A and B start in the Bell state (|0_A 1_B> + |1_A 0_B>)/sqrt(2).
Qubit B then collides one at a time with N probe qubits, all prepared in |0>.
Each collision is a resonant excitation exchange of duration dt = T / N: on the
two-dimensional span of {|1_B 0_i>, |0_B 1_i>} it acts as

    |1_B 0_i>  ->  a |1_B 0_i> + b |0_B 1_i>
    |0_B 1_i>  ->  a |0_B 1_i> + b |1_B 0_i>

with a = cos(g dt) and b = -i sin(g dt).  The interaction preserves excitation
number, so the whole evolution lives in the (n+2)-dimensional space spanned by
"excitation on A", "excitation on B" and "excitation on probe i"; no 2^(n+2)
Hilbert space is ever materialized.  Free-evolution phases cancel in this frame
and never enter the amplitudes.

After n collisions the amplitudes are available in closed form
(``evolve_closed_form``) and by explicit sequential application of the exchange
rotation (``oracle_evolve``); the two must agree amplitude by amplitude.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError

_SQRT1_2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class CouplingConfig:
    """Physical parameters of the collision sequence and derived constants.

    g        coupling strength (inverse time)
    T        total interaction time
    N_total  number of probe qubits available
    dt       per-collision duration T / N_total
    a        cos(g dt), amplitude retained by qubit B per collision
    b        -i sin(g dt), amplitude transferred to the probe per collision
    k        g^2 T / N_total, effective decay rate in the many-probe limit
    """

    g: float
    T: float
    N_total: int
    dt: float
    a: float
    b: complex
    k: float

    def check_n(self, n: int) -> None:
        if not 0 <= n <= self.N_total:
            raise RangeError(
                f"collision count n={n} outside [0, N_total={self.N_total}]"
            )


def make_config(g: float, T: float, N_total: int) -> CouplingConfig:
    """Validate physical parameters and derive per-collision constants.

    Requires finite g >= 0, T > 0 and N_total >= 1, and g*dt < pi/2 (the
    exchange rotation must stay short of a full excitation swap).
    """
    if not all(math.isfinite(x) for x in (g, T, N_total)):
        raise DomainError(f"g, T and N_total must be finite, got {g}, {T}, {N_total}")
    if N_total < 1 or int(N_total) != N_total:
        raise DomainError(f"N_total must be a positive integer, got {N_total}")
    if not T > 0:
        raise DomainError(f"T must be positive, got {T}")
    if g < 0:
        raise DomainError(f"g must be non-negative, got {g}")
    N_total = int(N_total)
    dt = T / N_total
    if g > 0 and not g * dt < math.pi / 2:
        raise DomainError(
            f"g*dt = {g * dt:.6g} must lie in (0, pi/2); "
            "increase N_total or reduce g or T"
        )
    phase = g * dt
    a = math.cos(phase)
    b = -1j * math.sin(phase)
    return CouplingConfig(
        g=float(g), T=float(T), N_total=N_total, dt=dt, a=a, b=b,
        k=g * g * T / N_total,
    )


@dataclass(frozen=True, eq=False)
class ExcitationState:
    """Pure global state after ``n`` collisions, single-excitation sector.

    amp_b   amplitude of |0_A> |0...0> |1_B>   (excitation still on B)
    amp_r   amp_r[i-1] is the amplitude of the excitation sitting on probe i
    amp_a   amplitude of |1_A> |0...0> |0_B>   (excitation on A, untouched)
    """

    n: int
    amp_b: complex
    amp_r: np.ndarray
    amp_a: complex

    def norm_sq(self) -> float:
        return (
            abs(self.amp_b) ** 2
            + float(np.sum(np.abs(self.amp_r) ** 2))
            + abs(self.amp_a) ** 2
        )


def evolve_closed_form(cfg: CouplingConfig, n: int) -> ExcitationState:
    """State after n collisions: amp_b = a^n/sqrt2, amp_r[i] = a^(i-1) b/sqrt2."""
    cfg.check_n(n)
    powers = cfg.a ** np.arange(n)
    return ExcitationState(
        n=n,
        amp_b=cfg.a ** n * _SQRT1_2,
        amp_r=powers * cfg.b * _SQRT1_2,
        amp_a=_SQRT1_2,
    )


def oracle_evolve(cfg: CouplingConfig, n: int) -> ExcitationState:
    """State after n collisions built by applying each exchange rotation in turn.

    Brute-force reference for ``evolve_closed_form``: starts from the Bell
    state and rotates (amp_b, amp_r[i]) for i = 1..n sequentially.
    """
    cfg.check_n(n)
    amp_b = complex(_SQRT1_2)
    amp_r = np.zeros(n, dtype=complex)
    for i in range(n):
        amp_b, amp_r[i] = (
            cfg.a * amp_b + cfg.b * amp_r[i],
            cfg.b * amp_b + cfg.a * amp_r[i],
        )
    return ExcitationState(n=n, amp_b=amp_b, amp_r=amp_r, amp_a=_SQRT1_2)


def distinguishability_ab(cfg: CouplingConfig, n: int) -> float:
    """Which-path information about qubit A stored in qubit B: a^(2n).

    Equals the trace-norm distance between the conditional states of B given
    the state of A, evaluated on the reduced pair density operator.
    """
    cfg.check_n(n)
    return cfg.a ** (2 * n)


def concurrence_unmeasured(cfg: CouplingConfig, n: int) -> float:
    """Concurrence of the reduced A-B pair after n collisions, a^n."""
    cfg.check_n(n)
    return cfg.a ** n


def reservoir_limit_concurrence(k: float, t: float) -> float:
    """Pair concurrence in the many-probe (Markovian) limit, exp(-k t / 2)."""
    return math.exp(-k * t / 2.0)


def continuous_limit_gap(k: float, T: float, N: int) -> float:
    """Distance |cos^N sqrt(kT/N) - exp(-kT/2)| between the finite-N
    retention factor and its many-probe limit.

    Shrinks like 1/N; used to tabulate convergence toward the exponential
    decay law.
    """
    if N < 1:
        raise DomainError(f"N must be a positive integer, got {N}")
    x = k * T / N
    if x < 0 or math.sqrt(x) >= math.pi / 2:
        raise DomainError(
            f"kT/N = {x:.6g} must lie in [0, (pi/2)^2) for the cosine argument"
        )
    return abs(math.cos(math.sqrt(x)) ** N - math.exp(-k * T / 2.0))
