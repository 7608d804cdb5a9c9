import math

import numpy as np
import pytest

from complement_opt import (
    DegenerateOutcomeError,
    DomainError,
    MeasurementBasis,
    Objective,
    complementarity_after,
    curve,
    gamma_coefficients,
    grid_reference_maximum,
    make_config,
    maximize,
    objective_value,
    oracle_evolve,
    postselected_state,
    project_oracle,
    triple,
)
from helpers import random_basis, random_coupling


def analytic_concurrence_max(cfg, n):
    a_n = cfg.a**n
    return 2 * a_n / (1 + a_n * a_n)


def analytic_visibility_max(cfg, n):
    return 1.0 / math.sqrt(1.0 + cfg.a ** (2 * n))


def small_a_config(phase):
    """Twenty probes with g*dt = phase."""
    return make_config(phase, 20.0, 20)


class TestMaximizeBasics:
    def test_n_zero_is_bell(self, strong):
        for objective in Objective:
            result = maximize(strong, 0, objective)
            t = result.achieved
            assert (t.V, t.P, t.C) == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)
            assert len(result.basis) == 0
            assert result.outcome_probability == pytest.approx(1.0, abs=1e-14)

    def test_result_consistency(self, strong):
        result = maximize(strong, 4, Objective.VISIBILITY)
        gt = gamma_coefficients(strong, result.basis, 4)
        re_evaluated = complementarity_after(gt)
        assert abs(re_evaluated.V - result.achieved.V) <= 1e-12
        assert abs(gt.outcome_probability - result.outcome_probability) <= 1e-12

    def test_closure_on_returned_triples(self, strong, weak):
        for cfg in (strong, weak):
            for objective in Objective:
                result = maximize(cfg, 3, objective)
                assert abs(result.achieved.closure_residual) <= 1e-10

    def test_achieved_dominates_start_points(self, strong):
        result = maximize(strong, 3, Objective.VISIBILITY)
        achieved = result.achieved.V
        for start in (0.0, math.pi / 4.0):
            gt = gamma_coefficients(strong, MeasurementBasis.uniform(start, 0.0, 3), 3)
            assert achieved >= complementarity_after(gt).V - 1e-9

    def test_dominates_random_bases(self, strong, weak):
        rng = np.random.default_rng(17)
        for cfg in (strong, weak):
            for n in (1, 2, 5):
                for objective in Objective:
                    best = objective_value(maximize(cfg, n, objective).achieved, objective)
                    for _ in range(100):
                        try:
                            gt = gamma_coefficients(cfg, random_basis(rng, n), n)
                        except DegenerateOutcomeError:
                            continue
                        value = objective_value(complementarity_after(gt), objective)
                        assert value <= best + 1e-12

    def test_zero_coupling_keeps_the_bell_pair(self):
        cfg = make_config(0.0, 1.0, 4)
        for objective in Objective:
            for n in range(5):
                result = maximize(cfg, n, objective)
                t = result.achieved
                assert (t.V, t.P, t.C) == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)
                assert result.outcome_probability == pytest.approx(1.0, abs=1e-14)


class TestOutcomeProbability:
    def test_predictability_strong_n2_is_most_probable_optimum(self, strong):
        result = maximize(strong, 2, Objective.PREDICTABILITY)
        assert result.achieved.P == pytest.approx(1.0, abs=1e-12)
        assert result.outcome_probability == pytest.approx(abs(strong.b) ** 2 / 2, abs=1e-12)
        assert result.outcome_probability == pytest.approx(0.452, abs=1e-3)

    def test_predictability_tie_prefers_higher_probability(self, strong):
        # strong n = 10: (1 - s)/(1 + s) is within 1e-9 of P = 1 and the
        # x = 0 record is more probable than post-selecting onto probe 1
        s = strong.a**20
        result = maximize(strong, 10, Objective.PREDICTABILITY)
        assert result.achieved.P == pytest.approx(1.0, abs=1e-9)
        assert result.outcome_probability == pytest.approx((1 + s) / 2, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 10, 20])
    def test_concurrence_probability(self, strong, weak, n):
        for cfg in (strong, weak):
            s = cfg.a ** (2 * n)
            result = maximize(cfg, n, Objective.CONCURRENCE)
            assert result.outcome_probability == pytest.approx((1 + s) / 2, abs=1e-12)
            assert type(result.outcome_probability) is float


class TestKnownLimit:
    def test_tiny_coupling_raises_for_visibility_and_predictability(self):
        cfg = small_a_config(1e-16)
        for objective in (Objective.VISIBILITY, Objective.PREDICTABILITY):
            with pytest.raises(DegenerateOutcomeError):
                maximize(cfg, 1, objective)
        assert maximize(cfg, 1, Objective.CONCURRENCE).achieved.C == pytest.approx(1.0)

    def test_small_coupling_still_reaches_optimum(self):
        cfg = small_a_config(1e-8)
        result = maximize(cfg, 1, Objective.VISIBILITY)
        assert result.achieved.V == pytest.approx(analytic_visibility_max(cfg, 1), abs=1e-7)


class TestDeterminism:
    def test_bit_for_bit_repeatability(self, weak):
        a = maximize(weak, 5, Objective.VISIBILITY)
        b = maximize(weak, 5, Objective.VISIBILITY)
        assert a.basis.angles == b.basis.angles
        assert a.achieved == b.achieved
        assert a.outcome_probability == b.outcome_probability


class TestAgainstAnalyticOptima:
    # g*dt = 1.45 and 1.5 put a = cos(g*dt) at about 0.12 and 0.07
    @pytest.fixture(scope="class")
    def configs(self, strong, weak):
        return (strong, weak, small_a_config(1.45), small_a_config(1.5))

    @pytest.mark.parametrize("n", range(1, 21))
    def test_concurrence_optimum(self, configs, n):
        for cfg in configs:
            result = maximize(cfg, n, Objective.CONCURRENCE)
            assert result.achieved.C == pytest.approx(
                analytic_concurrence_max(cfg, n), abs=1e-7
            )

    @pytest.mark.parametrize("n", range(1, 21))
    def test_visibility_optimum(self, configs, n):
        for cfg in configs:
            result = maximize(cfg, n, Objective.VISIBILITY)
            assert result.achieved.V == pytest.approx(
                analytic_visibility_max(cfg, n), abs=1e-7
            )

    @pytest.mark.parametrize("n", range(1, 21))
    def test_predictability_reaches_one(self, configs, n):
        # post-selecting the excitation onto one probe leaves exactly |00>
        for cfg in configs:
            result = maximize(cfg, n, Objective.PREDICTABILITY)
            assert result.achieved.P == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("phase", [1.45, 1.5])
    def test_predictability_at_small_a(self, phase):
        # at n = 1 the x = 0 branch gives P = 0.971 and 0.990, close to but
        # short of P* = 1
        cfg = small_a_config(phase)
        for n in range(1, 7):
            assert maximize(cfg, n, Objective.PREDICTABILITY).achieved.P >= 1.0 - 1e-9

    def test_weak_concurrence_state_n10(self, weak):
        result = maximize(weak, 10, Objective.CONCURRENCE)
        assert result.achieved.C >= 0.98
        state = postselected_state(gamma_coefficients(weak, result.basis, 10))
        assert abs(state.c01) == pytest.approx(0.69, abs=0.03)
        assert abs(state.c10) == pytest.approx(0.72, abs=0.03)

    def test_strong_concurrence_collapse_n10(self, strong):
        result = maximize(strong, 10, Objective.CONCURRENCE)
        assert result.achieved.C <= 0.05
        state = postselected_state(gamma_coefficients(strong, result.basis, 10))
        assert abs(state.c10) >= 0.999


class TestCurves:
    def test_curve_shape_and_closure(self, weak):
        results = curve(weak, Objective.CONCURRENCE, 5)
        assert [r.n for r in results] == [1, 2, 3, 4, 5]
        for r in results:
            assert abs(r.achieved.closure_residual) <= 1e-10


def oracle_objective(cfg, n, angles, objective):
    """Objective of a basis through the sequential-collision state, direct
    projection and the pure-state formulas, bypassing the shared kernel."""
    pure, _ = project_oracle(oracle_evolve(cfg, n), MeasurementBasis.from_angles(angles))
    return objective_value(triple(pure), objective)


class TestGridReference:
    def test_common_phase_shift_changes_nothing(self):
        # the symmetry that lets the reference fix phi_1 = 0
        rng = np.random.default_rng(23)
        for _ in range(200):
            cfg, n = random_coupling(rng, n_cap=4)
            angles = random_basis(rng, n).angles
            delta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
            shifted = [(theta, phi + delta) for theta, phi in angles]
            try:
                before = [oracle_objective(cfg, n, angles, o) for o in Objective]
            except DegenerateOutcomeError:
                continue
            after = [oracle_objective(cfg, n, shifted, o) for o in Objective]
            assert after == pytest.approx(before, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2])
    def test_output_contract(self, strong, weak, n):
        for cfg in (strong, weak):
            for objective in Objective:
                value, angles = grid_reference_maximum(cfg, n, objective)
                assert len(angles) == n
                assert angles[0][1] == 0.0
                assert oracle_objective(cfg, n, angles, objective) == value
                best = objective_value(maximize(cfg, n, objective).achieved, objective)
                assert value == pytest.approx(best, abs=1e-9)

    def test_trivial_n0(self, strong):
        value, angles = grid_reference_maximum(strong, 0, Objective.CONCURRENCE)
        assert value == pytest.approx(1.0, abs=1e-14)
        assert angles == ()

    def test_matches_analytic_n1(self, strong, weak):
        for cfg in (strong, weak):
            value, _ = grid_reference_maximum(cfg, 1, Objective.VISIBILITY)
            assert value == pytest.approx(analytic_visibility_max(cfg, 1), abs=1e-6)

    def test_value_independent_of_shared_kernel(self, strong, monkeypatch):
        # a V/P/C formula inflated by 0.5 must not reach the reference's value
        from complement_opt import measurement, optimize

        shared = measurement._complementarity_from_moduli
        calls = []

        def inflated(m1, m2, m3):
            calls.append(1)
            v, p, c = shared(m1, m2, m3)
            return v + 0.5, p, c

        for module in (measurement, optimize):
            monkeypatch.setattr(module, "_complementarity_from_moduli", inflated)
        basis = MeasurementBasis.from_angles([(0.4, 0.0)])
        assert complementarity_after(gamma_coefficients(strong, basis, 1)).V > 1.0
        calls.clear()
        value, _ = grid_reference_maximum(strong, 1, Objective.VISIBILITY)
        assert calls, "the grid no longer ranks through the shared kernel"
        assert value == pytest.approx(analytic_visibility_max(strong, 1), abs=1e-6)

    def test_rejects_large_n_without_step(self, strong):
        with pytest.raises(DomainError):
            grid_reference_maximum(strong, 3, Objective.CONCURRENCE)
