"""Projective post-selection of the probe qubits and its effect on the pair.

After n collisions, probe i is projected onto the basis vector
|M_i> = alpha_i |0_i> + beta_i |1_i> with alpha_i = cos(theta_i) and
beta_i = exp(i phi_i) sin(theta_i).  The retained amplitude for a probe in
components (x0, x1) is the linear pairing alpha * x0 + beta * x1 (no
conjugation); this fixes the global-phase convention of all post-selected
states produced here, and ``project_oracle`` uses the same pairing so the two
routes agree complex amplitude by complex amplitude.

Post-selecting every probe leaves the pair in an (unnormalized) state with
amplitudes

    gamma1  on |0_A 0_B>   (excitation removed by the measurements)
    gamma2  on |0_A 1_B>   (excitation still on B)
    gamma3  on |1_A 0_B>   (excitation on A)

gamma1 is always evaluated in product form,
sum_i a^(i-1) beta_i prod_{j != i} alpha_j, which stays finite when some
alpha_i = 0 (theta_i = pi/2), where the ratio form beta_i / alpha_i would blow
up even though the physics is regular.

``postselected_amplitudes`` (the amplitudes) and ``_complementarity_from_moduli``
(V, P, C from their squared moduli) are the one batched kernel: they take
arrays along the last axis as well as single records, so the library and the
grid reference in ``optimize`` share them.  A record whose outcome probability
is below ``DEGENERATE_PROBABILITY`` counts as impossible everywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .collisions import CouplingConfig, ExcitationState
from .complementarity import ComplementarityTriple, TwoQubitPure
from .errors import DegenerateOutcomeError, DomainError, RangeError

_SQRT1_2 = 1.0 / math.sqrt(2.0)

#: post-selections with outcome probability below this are rejected as impossible
DEGENERATE_PROBABILITY = 1e-28

_TWO_PI = 2.0 * math.pi


def canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    """Map angles into [0, pi) x [0, 2 pi); the projector is unchanged."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise DomainError(f"measurement angles must be finite, got ({theta}, {phi})")
    theta = math.fmod(theta, math.pi)
    if theta < 0.0:
        theta += math.pi
    phi = math.fmod(phi, _TWO_PI)
    if phi < 0.0:
        phi += _TWO_PI
    return theta, phi


@dataclass(frozen=True)
class MeasurementBasis:
    """Ordered projection angles (theta_i, phi_i), one pair per measured probe."""

    angles: tuple[tuple[float, float], ...]

    @classmethod
    def from_angles(cls, pairs: Iterable[Sequence[float]]) -> "MeasurementBasis":
        return cls(tuple(canonical_angles(t, p) for t, p in pairs))

    @classmethod
    def uniform(cls, theta: float, phi: float, n: int) -> "MeasurementBasis":
        return cls.from_angles([(theta, phi)] * n)

    @classmethod
    def empty(cls) -> "MeasurementBasis":
        return cls(())

    def __len__(self) -> int:
        return len(self.angles)

    @property
    def thetas(self) -> np.ndarray:
        return np.array([t for t, _ in self.angles], dtype=float)

    @property
    def phis(self) -> np.ndarray:
        return np.array([p for _, p in self.angles], dtype=float)

    @property
    def alphas(self) -> np.ndarray:
        return np.cos(self.thetas)

    @property
    def betas(self) -> np.ndarray:
        return np.exp(1j * self.phis) * np.sin(self.thetas)


@dataclass(frozen=True)
class GammaTriple:
    """Unnormalized post-selected pair amplitudes and outcome bookkeeping."""

    gamma1: complex
    gamma2: complex
    gamma3: complex
    norm_factor: float
    outcome_probability: float


def _check_possible(prob: float) -> None:
    if prob < DEGENERATE_PROBABILITY:
        raise DegenerateOutcomeError(
            f"post-selected outcome has probability {prob:.3g}; "
            "the measurement record is (numerically) impossible"
        )


def _make_gamma(g1: complex, g2: complex, g3: complex) -> GammaTriple:
    norm_sq = abs(g1) ** 2 + abs(g2) ** 2 + abs(g3) ** 2
    _check_possible(norm_sq)
    # positional: a frozen dataclass takes keywords measurably slower per record
    return GammaTriple(
        complex(g1), complex(g2), complex(g3), math.sqrt(norm_sq), float(norm_sq)
    )


def _exclusive_products(alpha: np.ndarray) -> np.ndarray:
    """Along the last axis: product of all entries except the own one (for an
    empty axis a single 1, which broadcasts away against empty operands)."""
    ones = np.ones(alpha.shape[:-1] + (1,), dtype=alpha.dtype)
    pre = np.concatenate([ones, np.cumprod(alpha[..., :-1], axis=-1)], axis=-1)
    suf = np.concatenate([np.cumprod(alpha[..., :0:-1], axis=-1)[..., ::-1], ones], axis=-1)
    return pre * suf


def postselected_amplitudes(a: float, b: complex, alpha: np.ndarray, beta: np.ndarray):
    """(gamma1, gamma2, gamma3) for probe coefficients alpha, beta along the last
    axis (one entry per measured probe); leading axes are independent records."""
    n = alpha.shape[-1]
    g3 = _SQRT1_2 * np.prod(alpha, axis=-1)
    g2 = a ** n * g3
    g1 = b * _SQRT1_2 * np.sum(a ** np.arange(n) * beta * _exclusive_products(alpha), axis=-1)
    return g1, g2, g3


def _complementarity_from_moduli(m1, m2, m3):
    """(V, P, C) of the pair from |gamma1|^2, |gamma2|^2, |gamma3|^2 (floats or
    arrays; operators only, so a single record pays no ufunc dispatch)."""
    total = m1 + m2 + m3
    return (
        2.0 * (m1 * m3) ** 0.5 / total,
        abs(m3 - m1 - m2) / total,
        2.0 * (m2 * m3) ** 0.5 / total,
    )


def gamma_coefficients(
    cfg: CouplingConfig, basis: MeasurementBasis, n: int
) -> GammaTriple:
    """Post-selected pair amplitudes after n collisions and n projections."""
    cfg.check_n(n)
    if len(basis) != n:
        raise RangeError(
            f"basis supplies {len(basis)} angle pairs but n={n} probes are measured"
        )
    return _make_gamma(*postselected_amplitudes(cfg.a, cfg.b, basis.alphas, basis.betas))


def project_oracle(
    state: ExcitationState, basis: MeasurementBasis
) -> tuple[TwoQubitPure, float]:
    """Apply the probe projections directly to a collision state.

    Independent route to the same post-selected pair state: pairs each probe
    amplitude with its basis vector and collects the surviving two-qubit
    amplitudes.  Returns the normalized pair state (c11 = 0 by construction)
    and the outcome probability.
    """
    if len(basis) != state.n:
        raise RangeError(
            f"basis supplies {len(basis)} angle pairs but the state has n={state.n}"
        )
    alpha = basis.alphas
    beta = basis.betas
    prod_alpha = float(np.prod(alpha)) if state.n else 1.0
    c00 = np.sum(state.amp_r * beta * _exclusive_products(alpha)) if state.n else 0.0
    c01 = state.amp_b * prod_alpha
    c10 = state.amp_a * prod_alpha
    prob = abs(c00) ** 2 + abs(c01) ** 2 + abs(c10) ** 2
    _check_possible(prob)
    norm = math.sqrt(prob)
    return TwoQubitPure(c00 / norm, c01 / norm, c10 / norm, 0.0), prob


def uniform_gamma(
    cfg: CouplingConfig, theta: float, phi: float, n: int
) -> GammaTriple:
    """Post-selected amplitudes when every probe is measured in the same basis.

    The probe sum collapses to a geometric factor sum_{i=1..n} a^(i-1); the
    a = 1 (zero-coupling) limit of that factor is n.  gamma1 carries
    alpha^(n-1), so theta = pi/2 gives b*beta/sqrt(2) for n = 1 and vanishes
    for n >= 2.
    """
    cfg.check_n(n)
    theta, phi = canonical_angles(theta, phi)
    alpha = math.cos(theta)
    beta = complex(math.cos(phi), math.sin(phi)) * math.sin(theta)
    g3 = _SQRT1_2 * alpha ** n
    g2 = cfg.a ** n * g3
    if n:
        geometric = float(n) if cfg.a == 1.0 else (cfg.a ** n - 1.0) / (cfg.a - 1.0)
        g1 = cfg.b * _SQRT1_2 * beta * alpha ** (n - 1) * geometric
    else:
        g1 = 0.0
    return _make_gamma(g1, g2, g3)


def complementarity_after(gt: GammaTriple) -> ComplementarityTriple:
    """Visibility, predictability and concurrence of the post-selected pair."""
    v, p, c = _complementarity_from_moduli(
        abs(gt.gamma1) ** 2, abs(gt.gamma2) ** 2, abs(gt.gamma3) ** 2
    )
    return ComplementarityTriple(v, p, c, v * v + p * p + c * c - 1.0)


def postselected_state(gt: GammaTriple) -> TwoQubitPure:
    """Normalized pair state (c00, c01, c10, 0) = (gamma1, gamma2, gamma3)/norm."""
    return TwoQubitPure(
        gt.gamma1 / gt.norm_factor,
        gt.gamma2 / gt.norm_factor,
        gt.gamma3 / gt.norm_factor,
        0.0,
    )


def per_qubit_distinguishability(cfg: CouplingConfig, i: int) -> float:
    """Which-path information deposited on probe i: |a^(i-1) b|^2.

    Set during collision i and never modified afterwards, hence independent
    of the total collision count once i has interacted.
    """
    if not 1 <= i <= cfg.N_total:
        raise RangeError(f"probe index i={i} outside [1, N_total={cfg.N_total}]")
    return (cfg.a ** (i - 1)) ** 2 * abs(cfg.b) ** 2


def _check_visibility(v_after: float) -> float:
    # tolerate float dust just outside [0, 1], reject anything further out
    if -1e-12 <= v_after < 0.0:
        return 0.0
    if 1.0 < v_after <= 1.0 + 1e-12:
        return 1.0
    if not 0.0 <= v_after <= 1.0:
        raise DomainError(f"visibility {v_after!r} outside [0, 1]")
    return v_after


def delta_d_total(v_after: float) -> float:
    """Change of total which-path information caused by the measurements.

    Before measuring, the information budget over the whole system is 1;
    afterwards only sqrt(1 - V^2) remains on the pair, so the variation
    sqrt(1 - V^2) - 1 lies in [-1, 0] and is most negative when the
    measurements erase the most information.
    """
    v = _check_visibility(v_after)
    return math.sqrt(max(1.0 - v * v, 0.0)) - 1.0


def delta_d_pair(cfg: CouplingConfig, n: int, v_after: float) -> float:
    """Information gained by the pair relative to its pre-measurement share.

    sqrt(1 - V^2) - a^(2n): the post-measurement pair information minus the
    a^(2n) the pair held before the probes were measured.
    """
    cfg.check_n(n)
    v = _check_visibility(v_after)
    return math.sqrt(max(1.0 - v * v, 0.0)) - cfg.a ** (2 * n)
