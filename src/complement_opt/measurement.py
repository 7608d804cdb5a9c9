"""Projective post-selection of the probe qubits and its effect on the pair.

A basis is a tuple of (theta_i, phi_i) float pairs, one per measured probe in
probe order, so its length is the collision count n.  Every route reads the
angles as given and tests them with one expression: a finite Python float
passes, and anything else goes through ``check_real``, which raises
``ConfigError`` for an angle that is no real number (a bool, a str, a complex,
None or a ``numpy.float32``), ``DomainError`` for a NaN, an infinity or an int
too large for a double, and lets a finite int through.  ``canonical_angles``
maps a pair into [0, pi) x [0, 2 pi) where canonical angles are wanted.

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

gamma1 is evaluated in product form,
sum_i a^(i-1) beta_i prod_{j != i} alpha_j, which stays finite however small
some alpha_i (theta_i near pi/2), where the ratio form beta_i / alpha_i would
blow up even though the physics is regular.  The products of alphas are carried
as p * 2^e: whenever |p| drops below 2^-256 it is multiplied by 2^256, which is
exact, and e lowered by 256, so they never underflow.

``gamma_coefficients(cfg, basis)`` (the amplitudes of one record) and
``_complementarity_from_moduli`` (V, P, C from their squared moduli) are the
library's post-selection kernel; a uniform-sweep cell is one ``uniform_gamma``
call and that V, P, C, with no ``ComplementarityTriple`` in between.
``project_oracle`` is the independent route: it projects the probes of a
collision state one at a time, in order, in plain complex arithmetic, and
shares no helper with the kernel, so a fault in the kernel shows up as a gap
between the two routes.  No record is impossible:
cos(theta) of a float is never 0.0 and qubit A keeps amplitude 1/sqrt(2), so
every record normalizes, however improbable.  Its outcome probability is
2^(2e) times the squared norm and reads 0.0 where that lies below the smallest
double.
"""
from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .collisions import _SQRT1_2, CouplingConfig, ExcitationState, distinguishability_ab
from .complementarity import ComplementarityTriple, TwoQubitPure
from .errors import DomainError, RangeError, check_count, check_real

_TWO_PI = 2.0 * math.pi

# a running product of alphas below 2^-256 is multiplied by 2^256 (exact)
_RESCALE_BITS = 256
_RESCALE = 2.0 ** _RESCALE_BITS
_TINY = 1.0 / _RESCALE


def _check_angles(theta, phi) -> None:
    """``check_real`` on both angles of a pair that is no finite float pair."""
    check_real(theta, "measurement angle theta")
    check_real(phi, "measurement angle phi")


def canonical_angles(theta: float, phi: float) -> tuple[float, float]:
    """Map angles into [0, pi) x [0, 2 pi); the projector is unchanged."""
    # fmod returns an in-range float unchanged, so it is returned as it is
    if (type(theta) is float and type(phi) is float
            and 0.0 <= theta < math.pi and 0.0 <= phi < _TWO_PI):
        return theta, phi
    _check_angles(theta, phi)
    # a tiny negative angle can round up to the excluded edge, the same projector as 0
    theta = math.fmod(theta, math.pi)
    if theta < 0.0:
        theta += math.pi
        if theta == math.pi:
            theta = 0.0
    phi = math.fmod(phi, _TWO_PI)
    if phi < 0.0:
        phi += _TWO_PI
        if phi == _TWO_PI:
            phi = 0.0
    return theta, phi


class GammaTriple(NamedTuple):
    """Unnormalized post-selected pair amplitudes, up to a common nonzero real
    factor, and the outcome probability.  The factor of ``gamma_coefficients``
    is 1, or 2^(256 k) once its product of alphas was rescaled k times."""

    gamma1: complex
    gamma2: complex
    gamma3: complex
    outcome_probability: float


def _make_gamma(
    g1: complex, g2: complex, g3: complex, scale: float = 1.0, exponent: int = 0
) -> GammaTriple:
    """The amplitudes and their probability, ``scale`` * 2^``exponent`` times
    their squared norm."""
    norm_sq = abs(g1) ** 2 + abs(g2) ** 2 + abs(g3) ** 2
    return GammaTriple(
        complex(g1), complex(g2), complex(g3), math.ldexp(scale * norm_sq, exponent)
    )


def _running_products(values: Iterable[float]) -> list[tuple[float, int]]:
    """Each prefix product of values, the empty one first, as a pair (p, e)
    worth p * 2^e; |p| stays at or above 2^-256 for any |value| >= 2^-54."""
    p, e = 1.0, 0
    products = [(p, e)]
    for value in values:
        p *= value
        if abs(p) < _TINY:
            p *= _RESCALE
            e -= _RESCALE_BITS
        products.append((p, e))
    return products


def _complementarity_from_moduli(m1: float, m2: float, m3: float):
    """(V, P, C) of the pair from |gamma1|^2, |gamma2|^2, |gamma3|^2."""
    total = m1 + m2 + m3
    return (
        2.0 * (m1 * m3) ** 0.5 / total,
        abs(m3 - m1 - m2) / total,
        2.0 * (m2 * m3) ** 0.5 / total,
    )


def gamma_coefficients(
    cfg: CouplingConfig, basis: Sequence[tuple[float, float]]
) -> GammaTriple:
    """Post-selected pair amplitudes after n = len(basis) collisions and n
    projections; a non-finite angle raises ``DomainError``, an angle that is
    no real number ``ConfigError``."""
    n = len(basis)
    cfg.check_n(n)
    alpha, beta = [], []
    for theta, phi in basis:
        if not (type(theta) is float and type(phi) is float
                and math.isfinite(theta) and math.isfinite(phi)):
            _check_angles(theta, phi)
        alpha.append(math.cos(theta))
        beta.append(complex(math.cos(phi), math.sin(phi)) * math.sin(theta))
    pre = _running_products(alpha)
    suf = _running_products(reversed(alpha[1:]))[::-1]
    p_all, e_all = pre[-1]
    # every amplitude carries the common factor 2^-e_all; for an empty alpha zip
    # drops the single exclusive product against the empty beta
    rest = [math.ldexp(p * q, e + f - e_all) for (p, e), (q, f) in zip(pre, suf)]
    g3 = _SQRT1_2 * p_all
    g2 = cfg.a ** n * g3
    g1 = cfg.b * _SQRT1_2 * sum(cfg.a ** i * b * r for i, (b, r) in enumerate(zip(beta, rest)))
    return _make_gamma(g1, g2, g3, exponent=2 * e_all)


def project_oracle(
    state: ExcitationState, basis: Sequence[tuple[float, float]]
) -> tuple[TwoQubitPure, float]:
    """Apply the probe projections directly to a collision state.

    Independent route to the same post-selected pair state: projects the
    probes one at a time, in order, in plain complex arithmetic.  Probe i
    scales every branch in which it holds no excitation by alpha_i and moves
    its own excitation branch, which carries alpha_j of every earlier probe,
    into |0_A 0_B> with weight beta_i.  Shares no helper with
    ``gamma_coefficients``.  Returns the normalized pair state (c11 = 0 by
    construction) and the outcome probability; the amplitudes are carried
    times 2^-e, e lowered by 256 whenever the product of alphas drops below
    2^-256, so they never underflow.  A basis whose length is not the
    state's n raises ``RangeError``, a non-finite angle ``DomainError``, an
    angle that is no real number ``ConfigError``.
    """
    if len(basis) != state.n:
        raise RangeError(
            f"basis supplies {len(basis)} angle pairs but the state has n={state.n}"
        )
    c00 = 0j
    prod_alpha = 1.0  # alpha_j of the probes projected so far
    e = 0
    for (theta, phi), amp in zip(basis, state.amp_r):
        if not (type(theta) is float and type(phi) is float
                and math.isfinite(theta) and math.isfinite(phi)):
            # its own test: the oracle shares no helper with the kernel
            check_real(theta, "measurement angle theta")
            check_real(phi, "measurement angle phi")
        alpha = math.cos(theta)
        beta = complex(math.cos(phi), math.sin(phi)) * math.sin(theta)
        c00 = alpha * c00 + beta * amp * prod_alpha
        prod_alpha *= alpha
        if abs(prod_alpha) < _TINY:
            prod_alpha, c00, e = prod_alpha * _RESCALE, c00 * _RESCALE, e - _RESCALE_BITS
    c01 = complex(state.amp_b) * prod_alpha
    c10 = complex(state.amp_a) * prod_alpha
    norm_sq = abs(c00) ** 2 + abs(c01) ** 2 + abs(c10) ** 2
    norm = math.sqrt(norm_sq)
    return TwoQubitPure(c00 / norm, c01 / norm, c10 / norm, 0.0), math.ldexp(norm_sq, 2 * e)


def uniform_gamma(
    cfg: CouplingConfig, theta: float, phi: float, n: int
) -> GammaTriple:
    """Post-selected amplitudes when every probe is measured in the same basis.

    The probe sum collapses to a geometric factor G = sum_{i=1..n} a^(i-1)
    (n when a = 1).  The factor alpha^(n-1) of every amplitude is divided out,
    leaving (b beta G, a^n alpha, alpha)/sqrt(2) at probability (alpha^2)^(n-1)
    times their squared norm; alpha = cos(theta) of a float is never 0.0
    (cos(pi/2) is 6.1e-17), so they normalize even where the probability underflows.
    """
    cfg.check_n(n)
    theta, phi = canonical_angles(theta, phi)
    alpha = math.cos(theta)
    beta = complex(math.cos(phi), math.sin(phi)) * math.sin(theta)
    a_n = cfg.a ** n
    geometric = float(n) if cfg.a == 1.0 else (a_n - 1.0) / (cfg.a - 1.0)
    g3 = _SQRT1_2 * alpha
    return _make_gamma(
        cfg.b * _SQRT1_2 * beta * geometric, a_n * g3, g3, (alpha * alpha) ** (n - 1)
    )


def one_angle_gamma(cfg: CouplingConfig, theta1: float, n: int) -> GammaTriple:
    """``gamma_coefficients`` of the basis with probe 1 at (theta1, 0) and every
    later probe at (0, 0), theta1 in [0, pi/2] (0 at n = 0), in O(1).

    Every alpha after the first is 1.0 and every beta after the first is a
    complex of signed zeros, so the kernel's probe sum is complex(sin theta1,
    0.0) and its product of alphas cos(theta1), never below 2^-256; the
    amplitudes (b sin theta1, a^n cos theta1, cos theta1)/sqrt(2) are formed
    by the kernel's operations in its order, and so carry its bits.  theta1
    is tested like every angle (see the module docstring).
    """
    cfg.check_n(n)
    if not (type(theta1) is float and math.isfinite(theta1)):
        check_real(theta1, "measurement angle theta1")
    g3 = _SQRT1_2 * math.cos(theta1)
    g2 = cfg.a ** n * g3
    g1 = cfg.b * _SQRT1_2 * complex(math.sin(theta1), 0.0)
    return _make_gamma(g1, g2, g3)


def complementarity_after(gt: GammaTriple) -> ComplementarityTriple:
    """Visibility, predictability and concurrence of the post-selected pair."""
    v, p, c = _complementarity_from_moduli(
        abs(gt.gamma1) ** 2, abs(gt.gamma2) ** 2, abs(gt.gamma3) ** 2
    )
    return ComplementarityTriple(v, p, c, v * v + p * p + c * c - 1.0)


def postselected_state(gt: GammaTriple) -> TwoQubitPure:
    """Normalized pair state (c00, c01, c10, 0): the amplitudes over their own norm."""
    norm = math.sqrt(abs(gt.gamma1) ** 2 + abs(gt.gamma2) ** 2 + abs(gt.gamma3) ** 2)
    return TwoQubitPure(gt.gamma1 / norm, gt.gamma2 / norm, gt.gamma3 / norm, 0.0)


def per_qubit_distinguishability(cfg: CouplingConfig, i: int) -> float:
    """Which-path information deposited on probe i: |a^(i-1) b|^2.

    Set during collision i and never modified afterwards, hence independent
    of the total collision count once i has interacted.
    """
    check_count(i, "probe index i", RangeError, 1, cfg.N_total)
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
    before = distinguishability_ab(cfg, n)
    v = _check_visibility(v_after)
    return math.sqrt(max(1.0 - v * v, 0.0)) - before
