import cmath
import math

import numpy as np
import pytest

from complement_opt import (
    ComplementarityTriple,
    NormalizationError,
    TwoQubitPure,
    triple,
)
from helpers import amplitudes, random_pure_pair, wootters_concurrence

SQRT1_2 = 1.0 / math.sqrt(2.0)

BELL = TwoQubitPure(0.0, SQRT1_2, SQRT1_2, 0.0)


def normalized(*amps) -> TwoQubitPure:
    arr = np.array(amps, dtype=complex)
    return TwoQubitPure(*(arr / np.linalg.norm(arr)))


class TestConcurrence:
    def test_bell_state(self):
        assert triple(BELL).C == pytest.approx(1.0, abs=1e-14)

    def test_product_state(self):
        assert triple(TwoQubitPure(1.0, 0.0, 0.0, 0.0)).C == 0.0

    def test_partially_entangled_reference_state(self):
        state = normalized(0.0, 0.29, 0.95, 0.0)
        value = triple(state).C
        assert value == pytest.approx(0.55, abs=0.02)
        assert value == pytest.approx(2 * 0.29 * 0.95 / (0.29**2 + 0.95**2), abs=1e-14)

    def test_matches_wootters_on_pure_states(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            state = random_pure_pair(rng)
            rho = np.outer(amplitudes(state), amplitudes(state).conj())
            assert triple(state).C == pytest.approx(
                wootters_concurrence(rho), abs=1e-7
            )


class TestVisibility:
    def test_equal_superposition_on_a(self):
        assert triple(TwoQubitPure(SQRT1_2, 0.0, SQRT1_2, 0.0)).V == pytest.approx(
            1.0, abs=1e-14
        )

    def test_bell_state_has_no_local_coherence(self):
        assert triple(BELL).V == pytest.approx(0.0, abs=1e-14)

    def test_eraser_reference_state(self):
        state = normalized(0.61 - 0.35j, -0.50, -0.50, 0.0)
        assert triple(state).V == pytest.approx(0.70, abs=0.01)


class TestPredictability:
    def test_definite_upper_state(self):
        assert triple(TwoQubitPure(0.0, 0.0, 1.0, 0.0)).P == 1.0

    def test_balanced_populations(self):
        assert triple(BELL).P == pytest.approx(0.0, abs=1e-14)

    def test_reference_phase_state(self):
        state = normalized(-0.05 + 0.99j, 0.0, 0.0, 0.0)
        assert triple(state).P == pytest.approx(1.0, abs=1e-12)


class TestDistinguishability:
    def test_bell(self):
        t = triple(BELL)
        assert math.hypot(t.C, t.P) == pytest.approx(1.0, abs=1e-12)

    def test_coherent_state(self):
        t = triple(TwoQubitPure(SQRT1_2, 0.0, SQRT1_2, 0.0))
        assert math.hypot(t.C, t.P) == pytest.approx(0.0, abs=1e-12)

    def test_closure_rearranged(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            state = random_pure_pair(rng)
            t = triple(state)
            assert math.hypot(t.C, t.P) == pytest.approx(
                math.sqrt(max(0.0, 1.0 - t.V * t.V)), abs=1e-10
            )


class TestTriple:
    def test_bell(self):
        t = triple(BELL)
        assert (t.V, t.P, t.C) == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)

    def test_definite_state(self):
        t = triple(TwoQubitPure(0.0, 0.0, 1.0, 0.0))
        assert (t.V, t.P, t.C) == pytest.approx((0.0, 1.0, 0.0), abs=1e-14)

    def test_closure_property_1000_random(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            t = triple(random_pure_pair(rng))
            assert abs(t.closure_residual) <= 1e-10

    def test_outputs_in_range(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            t = triple(random_pure_pair(rng))
            for value in (t.V, t.P, t.C):
                assert -1e-12 <= value <= 1.0 + 1e-12


class TestInvariances:
    def test_global_phase(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            state = random_pure_pair(rng)
            chi = rng.uniform(0.0, 2.0 * math.pi)
            rotated = TwoQubitPure(*(amplitudes(state) * cmath.exp(1j * chi)))
            t0, t1 = triple(state), triple(rotated)
            assert t0.V == pytest.approx(t1.V, abs=1e-12)
            assert t0.P == pytest.approx(t1.P, abs=1e-12)
            assert t0.C == pytest.approx(t1.C, abs=1e-12)

    def test_local_z_rotation_preserves_p_and_c(self):
        rng = np.random.default_rng(15)
        for _ in range(100):
            state = random_pure_pair(rng)
            chi = cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            rotated = TwoQubitPure(state.c00, state.c01, state.c10 * chi, state.c11 * chi)
            assert triple(state).P == pytest.approx(
                triple(rotated).P, abs=1e-12
            )
            assert triple(state).C == pytest.approx(triple(rotated).C, abs=1e-12)


class TestNormalization:
    def test_slightly_off_norm_is_renormalized(self):
        scale = 1.0 + 5e-7
        assert triple(TwoQubitPure(0.0, SQRT1_2 * scale, SQRT1_2 * scale, 0.0)).C == pytest.approx(
            1.0, abs=1e-6
        )

    def test_far_off_norm_raises(self):
        with pytest.raises(NormalizationError):
            triple(TwoQubitPure(0.0, 0.5, 0.5, 0.0))
        with pytest.raises(NormalizationError):
            triple(TwoQubitPure(1.1, 0.0, 0.0, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
    @pytest.mark.parametrize("slot", range(4))
    def test_non_finite_amplitude_raises(self, slot, bad):
        amps = [0.0, SQRT1_2, SQRT1_2, 0.0]
        amps[slot] = bad
        state = TwoQubitPure(*amps)
        with pytest.raises(NormalizationError):
            triple(state)

    def test_triple_type_carries_residual(self):
        t = ComplementarityTriple(V=0.6, P=0.0, C=0.8, closure_residual=0.0)
        assert t.V == 0.6 and t.C == 0.8
        # plain floats at the API edge, also for numpy amplitudes
        state = random_pure_pair(np.random.default_rng(16))
        t = triple(state)
        assert all(type(x) is float for x in (t.V, t.P, t.C, t.closure_residual))
