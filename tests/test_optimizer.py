import math
import random
import struct
import sys

import pytest

from complement_opt import (
    ComplementarityTriple,
    ConfigError,
    DomainError,
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
from complement_opt.experiments import _FLOAT, run_quantity_vs_n
from complement_opt.measurement import canonical_angles, one_angle_gamma
from complement_opt.optimize import TIE_TOLERANCE
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

    def test_closure_on_returned_triples(self, strong, weak):
        for cfg in (strong, weak):
            for objective in Objective:
                result = maximize(cfg, 3, objective)
                assert abs(result.achieved.closure_residual) <= 1e-10

    def test_achieved_dominates_start_points(self, strong):
        result = maximize(strong, 3, Objective.VISIBILITY)
        achieved = result.achieved.V
        for start in (0.0, math.pi / 4.0):
            gt = gamma_coefficients(strong, ((start, 0.0),) * 3)
            assert achieved >= complementarity_after(gt).V - 1e-9

    def test_dominates_random_bases(self, strong, weak):
        rng = random.Random(17)
        for cfg in (strong, weak):
            for n in (1, 2, 5):
                for objective in Objective:
                    best = objective_value(maximize(cfg, n, objective).achieved, objective)
                    for _ in range(100):
                        gt = gamma_coefficients(cfg, random_basis(rng, n))
                        value = objective_value(complementarity_after(gt), objective)
                        assert value <= best + 1e-12

    def test_objectives_follow_the_triple_fields(self):
        # objective_value and the grid reference read the triple field at Objective's position
        assert tuple(o.name[0] for o in Objective) == ComplementarityTriple._fields[:3] == (
            "V", "P", "C"
        )
        t = ComplementarityTriple(0.1, 0.2, 0.3, 0.4)
        assert [objective_value(t, o) for o in Objective] == [0.1, 0.2, 0.3]

    @pytest.mark.parametrize("objective", ["visibility", "concurrence", None, ["visibility"]])
    def test_objective_that_is_no_objective_config_error(self, strong, objective):
        # an objective's value string is no Objective; at n = 0 and through
        # curve too, not left to fail as a bare KeyError on the way
        for call in (
            lambda: maximize(strong, 0, objective),
            lambda: maximize(strong, 2, objective),
            lambda: curve(strong, objective, 2),
        ):
            with pytest.raises(ConfigError, match="objective"):
                call()

    def test_zero_coupling_keeps_the_bell_pair(self):
        cfg = make_config(0.0, 1.0, 4)
        for objective in Objective:
            for n in range(5):
                result = maximize(cfg, n, objective)
                t = result.achieved
                assert (t.V, t.P, t.C) == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)
                assert result.outcome_probability == pytest.approx(1.0, abs=1e-14)


def _bits(x: float) -> bytes:
    """The double's bytes, so that 0.0 and -0.0 differ."""
    return struct.pack("<d", x)


def _gamma_bits(gt) -> list[bytes]:
    return [_bits(x) for g in gt[:3] for x in (g.real, g.imag)] + [_bits(gt.outcome_probability)]


class TestAgainstTheKernel:
    """``maximize`` takes its triple from the one-angle closed form; the
    general kernel, run on the basis the result reports, gives the same bits."""

    @pytest.fixture(scope="class")
    def configs(self, strong, weak):
        rng = random.Random(41)
        seeded = [random_coupling(rng)[0] for _ in range(6)]
        return (strong, weak, make_config(0.0, 1.0, 4), small_a_config(1.5), *seeded)

    def test_closed_form_is_the_kernel_bit_for_bit(self, configs):
        for cfg in configs:
            for n in range(min(cfg.N_total, 20) + 1):
                for objective in Objective:
                    result = maximize(cfg, n, objective)
                    theta1 = result.theta1
                    assert type(theta1) is float and 0.0 <= theta1 <= math.pi / 2.0
                    angles = ((theta1, 0.0),) + ((0.0, 0.0),) * (n - 1) if n else ()
                    assert result.basis == angles
                    # canonical already: canonical_angles leaves every angle as it is
                    assert tuple(canonical_angles(*pair) for pair in angles) == angles
                    gt = gamma_coefficients(cfg, result.basis)
                    kernel = (*complementarity_after(gt), gt.outcome_probability)
                    reported = (*result.achieved, result.outcome_probability)
                    where = (cfg, n, objective)
                    assert list(map(_bits, reported)) == list(map(_bits, kernel)), where
                    # the amplitudes too, each part of each complex
                    assert _gamma_bits(one_angle_gamma(cfg, theta1, n)) == _gamma_bits(gt), where

    def test_angles_cell_is_the_join_over_the_basis(self, configs):
        # quantity-vs-n writes the cell from theta1 and n; only the optimizer
        # states the basis layout, so the cell must be its generic join
        for cfg in configs:
            n_max = min(cfg.N_total, 20)
            for objective in Objective:
                rows = run_quantity_vs_n(cfg, objective, n_max, None)
                assert [row.n for row in rows] == list(range(1, n_max + 1))
                for row, result in zip(rows, curve(cfg, objective, n_max)):
                    joined = " ".join([_FLOAT % x for pair in result.basis for x in pair])
                    assert row.angles == joined, (cfg, row.n, objective)


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
        # float angles cannot represent the optimal basis; theta_1 = 0 stays exact
        cfg = small_a_config(1e-16)
        for objective in (Objective.VISIBILITY, Objective.PREDICTABILITY):
            with pytest.raises(DomainError, match="closed form"):
                maximize(cfg, 1, objective)
        assert maximize(cfg, 1, Objective.CONCURRENCE).achieved.C == pytest.approx(1.0)

    @pytest.mark.parametrize("phase", [1e-12, 1e-13, 1e-20])
    def test_unrepresentable_optimum_raises(self, phase):
        # here the best float basis falls short of the closed form by more
        # than TIE_TOLERANCE (V* by 2.2e-9 and P* by 7.5e-9 at 1e-12)
        cfg = small_a_config(phase)
        for objective in (Objective.VISIBILITY, Objective.PREDICTABILITY):
            with pytest.raises(DomainError, match="closed form"):
                maximize(cfg, 1, objective)

    def test_smallest_representable_coupling_reaches_closed_form(self):
        cfg = small_a_config(1e-11)
        v = maximize(cfg, 1, Objective.VISIBILITY).achieved.V
        p = maximize(cfg, 1, Objective.PREDICTABILITY).achieved.P
        assert abs(v - analytic_visibility_max(cfg, 1)) <= TIE_TOLERANCE
        assert abs(p - 1.0) <= TIE_TOLERANCE

    def test_small_coupling_still_reaches_optimum(self):
        cfg = small_a_config(1e-8)
        result = maximize(cfg, 1, Objective.VISIBILITY)
        assert result.achieved.V == pytest.approx(analytic_visibility_max(cfg, 1), abs=1e-7)


class TestDeterminism:
    def test_bit_for_bit_repeatability(self, weak):
        a = maximize(weak, 5, Objective.VISIBILITY)
        b = maximize(weak, 5, Objective.VISIBILITY)
        assert a.basis == b.basis
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
        state = postselected_state(gamma_coefficients(weak, result.basis))
        assert abs(state.c01) == pytest.approx(0.69, abs=0.03)
        assert abs(state.c10) == pytest.approx(0.72, abs=0.03)

    def test_strong_concurrence_collapse_n10(self, strong):
        result = maximize(strong, 10, Objective.CONCURRENCE)
        assert result.achieved.C <= 0.05
        state = postselected_state(gamma_coefficients(strong, result.basis))
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
    pure, _ = project_oracle(oracle_evolve(cfg, n), tuple(angles))
    return objective_value(triple(pure), objective)


class TestGridReference:
    def test_common_phase_shift_changes_nothing(self):
        # the symmetry that lets the reference fix phi_1 = 0
        rng = random.Random(23)
        for _ in range(200):
            cfg, n = random_coupling(rng, n_cap=4)
            angles = random_basis(rng, n)
            delta = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
            shifted = [(theta, phi + delta) for theta, phi in angles]
            before = [oracle_objective(cfg, n, angles, o) for o in Objective]
            after = [oracle_objective(cfg, n, shifted, o) for o in Objective]
            assert after == pytest.approx(before, abs=1e-12)

    def test_half_period_changes_nothing(self):
        # the symmetry that lets the reference's theta axes stop at pi/2:
        # (pi - theta, phi + pi) flips the sign of the probe vector
        rng = random.Random(29)
        control_moved = 0.0
        for _ in range(200):
            cfg, n = random_coupling(rng, n_cap=4)
            if n == 0:
                continue
            angles = random_basis(rng, n)
            i = rng.randrange(n)
            theta, phi = angles[i]
            mirrored = list(angles)
            mirrored[i] = (math.pi - theta, phi + math.pi)
            control = list(angles)
            control[i] = (math.pi - theta, phi)
            before = [oracle_objective(cfg, n, angles, o) for o in Objective]
            after = [oracle_objective(cfg, n, mirrored, o) for o in Objective]
            assert after == pytest.approx(before, abs=1e-12)
            moved = oracle_objective(cfg, n, control, Objective.VISIBILITY)
            control_moved = max(control_moved, abs(moved - before[0]))
        # negative control: theta -> pi - theta alone is a different projector
        assert control_moved > 0.1

    @pytest.mark.parametrize("n", [1, 2])
    def test_output_contract(self, strong, weak, n):
        for cfg in (strong, weak):
            reference = grid_reference_maximum(cfg, n)
            assert list(reference) == list(Objective)
            for objective in Objective:
                value, angles = reference[objective]
                assert type(value) is float
                assert all(type(x) is float for pair in angles for x in pair)
                assert all(0.0 <= t < math.pi and 0.0 <= p < 2.0 * math.pi for t, p in angles)
                assert len(angles) == n
                assert angles[0][1] == 0.0
                assert oracle_objective(cfg, n, angles, objective) == value
                best = objective_value(maximize(cfg, n, objective).achieved, objective)
                assert value == pytest.approx(best, abs=1e-9)

    def test_trivial_n0(self, strong):
        value, angles = grid_reference_maximum(strong, 0)[Objective.CONCURRENCE]
        assert value == pytest.approx(1.0, abs=1e-14)
        assert angles == ()

    def test_matches_analytic_n1(self, strong, weak):
        for cfg in (strong, weak):
            value, _ = grid_reference_maximum(cfg, 1)[Objective.VISIBILITY]
            assert value == pytest.approx(analytic_visibility_max(cfg, 1), abs=1e-6)

    def test_value_independent_of_shared_kernel(self, strong, monkeypatch):
        # a V/P/C formula inflated by 0.5 must not reach the reference's value
        from complement_opt import measurement

        shared = measurement._complementarity_from_moduli

        def inflated(m1, m2, m3):
            v, p, c = shared(m1, m2, m3)
            return v + 0.5, p, c

        monkeypatch.setattr(measurement, "_complementarity_from_moduli", inflated)
        basis = ((0.4, 0.0),)
        assert complementarity_after(gamma_coefficients(strong, basis)).V > 1.0
        value, _ = grid_reference_maximum(strong, 1)[Objective.VISIBILITY]
        assert value == pytest.approx(analytic_visibility_max(strong, 1), abs=1e-6)

    def test_runs_without_the_post_selection_kernel(self, strong, monkeypatch):
        # the kernel replaced by failing functions wherever the package holds it
        from complement_opt import measurement

        kernel = (measurement.gamma_coefficients, measurement._complementarity_from_moduli)

        def broken(*args):
            raise AssertionError("the grid reference reached the post-selection kernel")

        for name, module in list(sys.modules.items()):
            if name == "complement_opt" or name.startswith("complement_opt."):
                for attr, obj in list(vars(module).items()):
                    if any(obj is f for f in kernel):
                        monkeypatch.setattr(module, attr, broken)
        value, _ = grid_reference_maximum(strong, 1)[Objective.VISIBILITY]
        assert value == pytest.approx(analytic_visibility_max(strong, 1), abs=1e-6)

    def test_one_pass_serves_every_objective(self, weak, monkeypatch):
        # each projector is projected once per call: weak n = 2 took 12,225
        # projections as three per-objective searches and 5,976 as one pass keyed
        # by the free angles; keyed by projector, with a polish stopping at the
        # ceiling 1, it takes 3,678.  A second call repeats them all, so nothing
        # is kept across calls
        from complement_opt import optimize

        calls = []
        project = optimize.project_oracle
        monkeypatch.setattr(
            optimize, "project_oracle", lambda *args: calls.append(1) or project(*args)
        )
        first = grid_reference_maximum(weak, 2)
        once = len(calls)
        assert once == 3_678
        # P's leading grid point already reads 1, so its polish returns it unmoved
        assert first[Objective.PREDICTABILITY] == (1.0, ((0.0, 0.0), (math.pi / 2.0, 0.0)))
        assert grid_reference_maximum(weak, 2) == first
        assert len(calls) == 2 * once

    def test_rejects_large_n_without_step(self, strong):
        with pytest.raises(DomainError):
            grid_reference_maximum(strong, 3)
