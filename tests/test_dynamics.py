import math

import numpy as np
import pytest

from complement_opt import (
    DomainError,
    RangeError,
    concurrence_unmeasured,
    continuous_limit_gap,
    distinguishability_ab,
    evolve_closed_form,
    make_config,
    oracle_evolve,
    reservoir_limit_concurrence,
)
from helpers import (
    random_coupling,
    reduced_pair_density,
    trace_norm_pair_distinguishability,
    wootters_concurrence,
)

SQRT1_2 = 1.0 / math.sqrt(2.0)


class TestMakeConfig:
    def test_strong_preset_values(self):
        cfg = make_config(4.0, 2.0 * math.pi, 20)
        assert cfg.a == pytest.approx(math.cos(0.4 * math.pi), abs=1e-15)
        assert abs(cfg.b) ** 2 == pytest.approx(math.sin(0.4 * math.pi) ** 2, abs=1e-15)
        assert abs(cfg.a) ** 2 + abs(cfg.b) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_weak_preset_value(self):
        cfg = make_config(0.25, 2.0 * math.pi, 20)
        assert cfg.a == pytest.approx(math.cos(math.pi / 40.0), abs=1e-15)

    def test_zero_coupling(self):
        cfg = make_config(0.0, 1.0, 5)
        assert cfg.a == 1.0
        assert cfg.b == 0.0
        assert cfg.k == 0.0

    def test_unitarity_random(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            cfg, _ = random_coupling(rng)
            assert abs(abs(cfg.a) ** 2 + abs(cfg.b) ** 2 - 1.0) <= 1e-14

    def test_derived_fields(self):
        cfg = make_config(1.0, 4.0, 8)
        assert cfg.dt == 0.5
        assert cfg.k == pytest.approx(0.5)
        assert cfg.b == pytest.approx(-1j * math.sin(0.5))

    @pytest.mark.parametrize(
        "g,T,N",
        [
            (4.0, 2.0 * math.pi, 5),   # g*dt > pi/2
            (1.0, math.pi, 2),         # g*dt == pi/2 exactly
            (1.0, -1.0, 5),
            (1.0, 0.0, 5),
            (1.0, 1.0, 0),
            (-0.1, 1.0, 5),
        ],
    )
    def test_domain_errors(self, g, T, N):
        with pytest.raises(DomainError):
            make_config(g, T, N)

    @pytest.mark.parametrize(
        "g,T,N",
        [
            (0.0, math.inf, 5),        # g*dt = 0 * inf = nan
            (math.nan, 1.0, 5),
            (1.0, math.nan, 5),
            (math.inf, 1.0, 5),
            (1e300, 1e300, 5),         # finite inputs, g*dt = inf
            (1.0, 1.0, math.inf),
            (1.0, 1.0, math.nan),
        ],
    )
    def test_non_finite_inputs(self, g, T, N):
        with pytest.raises(DomainError):
            make_config(g, T, N)


class TestEvolution:
    def test_initial_bell_state(self, strong):
        state = evolve_closed_form(strong, 0)
        assert state.amp_b == pytest.approx(SQRT1_2)
        assert state.amp_a == pytest.approx(SQRT1_2)
        assert state.amp_r.size == 0

    def test_single_collision(self, strong):
        state = evolve_closed_form(strong, 1)
        assert state.amp_b == pytest.approx(strong.a * SQRT1_2)
        assert state.amp_r[0] == pytest.approx(strong.b * SQRT1_2)

    def test_oracle_identity_at_n0(self, strong):
        state = oracle_evolve(strong, 0)
        assert state.amp_b == pytest.approx(SQRT1_2)
        assert state.amp_a == pytest.approx(SQRT1_2)

    def test_oracle_matches_closed_form_midway(self, strong):
        closed = evolve_closed_form(strong, 10)
        oracle = oracle_evolve(strong, 10)
        assert abs(closed.amp_b - oracle.amp_b) <= 1e-12
        assert np.max(np.abs(closed.amp_r - oracle.amp_r)) <= 1e-12

    def test_near_swap_transfers_excitation(self):
        # g*dt just below pi/2: one collision moves almost everything off B
        cfg = make_config(0.999 * math.pi / 2.0, 1.0, 1)
        state = oracle_evolve(cfg, 1)
        assert abs(state.amp_b) < 0.01
        assert abs(state.amp_r[0]) ** 2 == pytest.approx(0.5, abs=1e-4)

    def test_norm_conservation_random(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            cfg, n = random_coupling(rng)
            assert abs(evolve_closed_form(cfg, n).norm_sq() - 1.0) <= 1e-12
            assert abs(oracle_evolve(cfg, n).norm_sq() - 1.0) <= 1e-12

    def test_probe_weight_matches_depletion(self, strong, weak):
        # the probes jointly hold (1 - a^(2n))/2 of the population
        for cfg in (strong, weak):
            for n in (0, 1, 7, 20):
                state = evolve_closed_form(cfg, n)
                expected = (1.0 - cfg.a ** (2 * n)) / 2.0
                assert float(np.sum(np.abs(state.amp_r) ** 2)) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_oracle_equivalence_200_random(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            cfg, n = random_coupling(rng)
            closed = evolve_closed_form(cfg, n)
            oracle = oracle_evolve(cfg, n)
            assert abs(closed.amp_b - oracle.amp_b) <= 1e-10
            assert abs(closed.amp_a - oracle.amp_a) <= 1e-10
            if n:
                assert np.max(np.abs(closed.amp_r - oracle.amp_r)) <= 1e-10

    @pytest.mark.parametrize("n", [-1, 21])
    def test_range_errors(self, strong, n):
        with pytest.raises(RangeError):
            evolve_closed_form(strong, n)
        with pytest.raises(RangeError):
            oracle_evolve(strong, n)


class TestPairDistinguishability:
    def test_no_interaction(self, strong):
        assert distinguishability_ab(strong, 0) == 1.0

    def test_single_collision_vs_trace_norm(self, strong):
        value = distinguishability_ab(strong, 1)
        assert value == pytest.approx(math.cos(0.4 * math.pi) ** 2, abs=1e-14)
        oracle = trace_norm_pair_distinguishability(oracle_evolve(strong, 1))
        assert value == pytest.approx(oracle, abs=1e-12)

    def test_zero_coupling(self):
        cfg = make_config(0.0, 1.0, 6)
        assert all(distinguishability_ab(cfg, n) == 1.0 for n in range(7))

    def test_trace_norm_oracle_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cfg, n = random_coupling(rng)
            oracle = trace_norm_pair_distinguishability(oracle_evolve(cfg, n))
            assert distinguishability_ab(cfg, n) == pytest.approx(oracle, abs=1e-10)

    def test_equals_squared_concurrence(self, weak):
        for n in range(21):
            assert distinguishability_ab(weak, n) == pytest.approx(
                concurrence_unmeasured(weak, n) ** 2, abs=1e-14
            )

    def test_range_error(self, strong):
        with pytest.raises(RangeError):
            distinguishability_ab(strong, 21)


class TestConcurrenceUnmeasured:
    def test_initial(self, weak):
        assert concurrence_unmeasured(weak, 0) == 1.0

    def test_weak_after_all_collisions(self, weak):
        expected = math.cos(math.pi / 40.0) ** 20
        assert concurrence_unmeasured(weak, 20) == pytest.approx(expected, abs=1e-14)

    def test_matches_wootters_oracle(self, weak, strong):
        # 1e-7: limited by the non-hermitian eigensolver inside the oracle
        for cfg in (weak, strong):
            for n in (0, 1, 5, 13, 20):
                rho = reduced_pair_density(oracle_evolve(cfg, n))
                assert concurrence_unmeasured(cfg, n) == pytest.approx(
                    wootters_concurrence(rho), abs=1e-7
                )

    def test_zero_coupling(self):
        cfg = make_config(0.0, 2.0, 4)
        assert all(concurrence_unmeasured(cfg, n) == 1.0 for n in range(5))


class TestDistinguishabilityBudget:
    def test_exact_identity_both_presets(self, strong, weak):
        from complement_opt import per_qubit_distinguishability

        for cfg in (strong, weak):
            for n in range(21):
                total = cfg.a ** (2 * n) + sum(
                    per_qubit_distinguishability(cfg, i) for i in range(1, n + 1)
                )
                assert abs(total - 1.0) <= 1e-12


class TestReservoirLimit:
    def test_t_zero(self):
        assert reservoir_limit_concurrence(3.0, 0.0) == 1.0

    def test_k_zero(self):
        assert reservoir_limit_concurrence(0.0, 7.3) == 1.0

    def test_exponential_decay_values(self):
        for t in (0.1, 1.0, 4.0):
            assert reservoir_limit_concurrence(3.0, t) == pytest.approx(
                math.exp(-1.5 * t), abs=1e-15
            )


class TestContinuousLimitGap:
    def test_gap_shrinks_as_n_doubles(self):
        gaps = [continuous_limit_gap(3.0, 1.0, n) for n in (64, 128, 256, 512, 1024, 2048, 4096)]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_zero_rate(self):
        assert continuous_limit_gap(0.0, 1.0, 128) == 0.0

    def test_quadrupling_ratio_near_one_quarter(self):
        # leading error term scales like 1/N: quadrupling N divides the gap by ~4
        for n in (256, 512, 1024):
            ratio = continuous_limit_gap(3.0, 1.0, 4 * n) / continuous_limit_gap(3.0, 1.0, n)
            assert 0.2 <= ratio <= 0.3

    def test_domain_error(self):
        with pytest.raises(DomainError):
            continuous_limit_gap(30.0, 1.0, 10)  # sqrt(kT/N) > pi/2
        with pytest.raises(DomainError):
            continuous_limit_gap(3.0, 1.0, 0)
