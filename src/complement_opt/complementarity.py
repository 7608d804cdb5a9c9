"""Complementarity quantities of a pure two-qubit state.

For amplitudes (c00, c01, c10, c11) on |00>, |01>, |10>, |11> (first slot is
qubit A, second qubit B):

    concurrence     C = 2 |c00 c11 - c01 c10|
    visibility      V = 2 |c00 c10* + c01 c11*|      (coherence of qubit A)
    predictability  P = | |c10|^2 + |c11|^2 - |c00|^2 - |c01|^2 |
    distinguishability  D = sqrt(C^2 + P^2)

Every normalized pure state satisfies the closure identity
V^2 + P^2 + C^2 = 1, which doubles as a cheap self-test of any pipeline that
produces such states.  ``triple`` normalizes the amplitudes once, in plain
complex arithmetic, and returns Python floats; a norm that is not finite, or
is off 1 by more than ``NORM_TOLERANCE``, raises ``NormalizationError``.
"""
from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NormalizationError

#: inputs whose norm deviates from 1 by more than this raise NormalizationError;
#: smaller deviations are absorbed by silent renormalization.
NORM_TOLERANCE = 1e-6


class TwoQubitPure(NamedTuple):
    """Amplitudes of a pure two-qubit state, |00>, |01>, |10>, |11> order."""

    c00: complex
    c01: complex
    c10: complex
    c11: complex = 0.0


class ComplementarityTriple(NamedTuple):
    """Visibility, predictability and concurrence, plus the closure residual
    V^2 + P^2 + C^2 - 1."""

    V: float
    P: float
    C: float
    closure_residual: float


def triple(state: TwoQubitPure) -> ComplementarityTriple:
    """V, P and C from one normalization of the state: the four amplitudes are
    taken as Python complex numbers and divided by the state's norm."""
    c00, c01 = complex(state.c00), complex(state.c01)
    c10, c11 = complex(state.c10), complex(state.c11)
    norm = math.sqrt(abs(c00) ** 2 + abs(c01) ** 2 + abs(c10) ** 2 + abs(c11) ** 2)
    # NaN fails every comparison, so finiteness is tested on its own
    if not math.isfinite(norm) or abs(norm - 1.0) > NORM_TOLERANCE:
        raise NormalizationError(
            f"state norm {norm:.9g} deviates from 1 beyond {NORM_TOLERANCE:g}"
        )
    c00, c01, c10, c11 = c00 / norm, c01 / norm, c10 / norm, c11 / norm
    v = 2.0 * abs(c00 * c10.conjugate() + c01 * c11.conjugate())
    p = abs((abs(c10) ** 2 + abs(c11) ** 2) - (abs(c00) ** 2 + abs(c01) ** 2))
    c = 2.0 * abs(c00 * c11 - c01 * c10)
    return ComplementarityTriple(v, p, c, v * v + p * p + c * c - 1.0)
