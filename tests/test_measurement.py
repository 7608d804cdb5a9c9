import math

import numpy as np
import pytest

from complement_opt import (
    DegenerateOutcomeError,
    DomainError,
    GammaTriple,
    MeasurementBasis,
    RangeError,
    complementarity_after,
    delta_d_pair,
    delta_d_total,
    distinguishability,
    gamma_coefficients,
    make_config,
    maximize,
    Objective,
    oracle_evolve,
    per_qubit_distinguishability,
    postselected_state,
    project_oracle,
    uniform_gamma,
)
from complement_opt.measurement import canonical_angles
from helpers import orthogonal_pair_angles, random_basis, random_coupling

SQRT1_2 = 1.0 / math.sqrt(2.0)


class TestMeasurementBasis:
    def test_canonicalization(self):
        theta, phi = canonical_angles(-0.1, 7.0)
        assert theta == pytest.approx(math.pi - 0.1)
        assert phi == pytest.approx(7.0 - 2.0 * math.pi)

    def test_basis_construction(self):
        basis = MeasurementBasis.from_angles([(3.5, -1.0), (0.2, 0.3)])
        assert len(basis) == 2
        assert all(0.0 <= t < math.pi for t in basis.thetas)
        assert all(0.0 <= p < 2.0 * math.pi for p in basis.phis)

    def test_alpha_beta_unit(self):
        rng = np.random.default_rng(20)
        basis = random_basis(rng, 8)
        assert np.allclose(np.abs(basis.alphas) ** 2 + np.abs(basis.betas) ** 2, 1.0)


class TestGammaCoefficients:
    def test_empty_basis_returns_bell(self, strong):
        gt = gamma_coefficients(strong, MeasurementBasis.empty(), 0)
        assert gt.gamma1 == 0.0
        assert gt.gamma2 == pytest.approx(SQRT1_2)
        assert gt.gamma3 == pytest.approx(SQRT1_2)
        assert gt.outcome_probability == pytest.approx(1.0, abs=1e-14)

    def test_bookkeeping_is_python_float(self, strong):
        # numpy scalars must not leak into results, CSVs or manifests
        for n in (0, 1, 6):
            gt = gamma_coefficients(strong, MeasurementBasis.uniform(0.3, 0.2, n), n)
            assert type(gt.outcome_probability) is float
            assert type(gt.norm_factor) is float
        gt = uniform_gamma(strong, 0.3, 0.2, 6)
        assert type(gt.outcome_probability) is float and type(gt.norm_factor) is float

    def test_all_zero_angles(self, strong):
        n = 6
        gt = gamma_coefficients(strong, MeasurementBasis.uniform(0.0, 0.0, n), n)
        assert gt.gamma1 == 0.0
        assert gt.gamma2 == pytest.approx(strong.a**n * SQRT1_2, abs=1e-15)
        assert gt.gamma3 == pytest.approx(SQRT1_2)

    def test_dual_route_random(self):
        rng = np.random.default_rng(21)
        for _ in range(150):
            cfg, n = random_coupling(rng, n_cap=8)
            basis = random_basis(rng, n)
            gt = gamma_coefficients(cfg, basis, n)
            pure, prob = project_oracle(oracle_evolve(cfg, n), basis)
            expected = postselected_state(gt)
            assert prob == pytest.approx(gt.outcome_probability, abs=1e-12)
            assert abs(pure.c00 - expected.c00) <= 1e-10
            assert abs(pure.c01 - expected.c01) <= 1e-10
            assert abs(pure.c10 - expected.c10) <= 1e-10
            assert pure.c11 == 0.0

    def test_length_mismatch(self, strong):
        with pytest.raises(RangeError):
            gamma_coefficients(strong, MeasurementBasis.uniform(0.1, 0.0, 3), 4)

    def test_degenerate_outcome(self, strong):
        basis = MeasurementBasis.uniform(math.pi / 2.0, 0.0, 2)
        with pytest.raises(DegenerateOutcomeError):
            gamma_coefficients(strong, basis, 2)
        with pytest.raises(DegenerateOutcomeError):
            project_oracle(oracle_evolve(strong, 2), basis)

    def test_theta_pi_over_2_single_probe_is_regular(self, strong):
        gt = gamma_coefficients(strong, MeasurementBasis.uniform(math.pi / 2.0, 0.7, 1), 1)
        assert abs(gt.gamma1) == pytest.approx(abs(strong.b) * SQRT1_2, abs=1e-12)
        assert gt.outcome_probability == pytest.approx(abs(strong.b) ** 2 / 2.0, abs=1e-12)


class TestProbabilityAccounting:
    def test_two_outcomes_sum_to_one_single_probe(self, strong, weak):
        rng = np.random.default_rng(22)
        for cfg in (strong, weak):
            for _ in range(20):
                theta = rng.uniform(0.0, math.pi)
                phi = rng.uniform(0.0, 2.0 * math.pi)
                state = oracle_evolve(cfg, 1)
                _, p_hit = project_oracle(state, MeasurementBasis.from_angles([(theta, phi)]))
                _, p_miss = project_oracle(
                    state, MeasurementBasis.from_angles([orthogonal_pair_angles(theta, phi)])
                )
                assert p_hit + p_miss == pytest.approx(1.0, abs=1e-12)

    def test_complete_outcome_set_sums_to_one(self, strong):
        rng = np.random.default_rng(23)
        n = 5
        pairs = list(zip(rng.uniform(0, math.pi, n), rng.uniform(0, 2 * math.pi, n)))
        state = oracle_evolve(strong, n)
        total = 0.0
        for bits in range(2**n):
            chosen = [
                pairs[i] if not bits & (1 << i) else orthogonal_pair_angles(*pairs[i])
                for i in range(n)
            ]
            try:
                _, prob = project_oracle(state, MeasurementBasis.from_angles(chosen))
            except DegenerateOutcomeError:
                continue
            total += prob
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_probability_bounds_random(self):
        rng = np.random.default_rng(24)
        for _ in range(100):
            cfg, n = random_coupling(rng, n_cap=10)
            try:
                gt = gamma_coefficients(cfg, random_basis(rng, n), n)
            except DegenerateOutcomeError:
                continue
            assert 0.0 < gt.outcome_probability <= 1.0 + 1e-12


class TestUniformGamma:
    def test_theta_zero(self, strong):
        gt = uniform_gamma(strong, 0.0, 0.0, 5)
        assert gt.gamma1 == 0.0
        assert gt.gamma2 == pytest.approx(strong.a**5 * SQRT1_2)
        assert gt.gamma3 == pytest.approx(SQRT1_2)

    def test_matches_per_probe_route(self, strong, weak):
        rng = np.random.default_rng(25)
        near_edges = [(1e-9, 0.4), (math.pi / 2.0 - 1e-9, 1.0)]
        for cfg in (strong, weak):
            cases = [(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)) for _ in range(12)]
            for theta, phi in cases + near_edges:
                for n in (1, 2, 5):
                    try:
                        u = uniform_gamma(cfg, theta, phi, n)
                    except DegenerateOutcomeError:
                        with pytest.raises(DegenerateOutcomeError):
                            gamma_coefficients(cfg, MeasurementBasis.uniform(theta, phi, n), n)
                        continue
                    g = gamma_coefficients(cfg, MeasurementBasis.uniform(theta, phi, n), n)
                    assert abs(u.gamma1 - g.gamma1) <= 1e-12
                    assert abs(u.gamma2 - g.gamma2) <= 1e-12
                    assert abs(u.gamma3 - g.gamma3) <= 1e-12

    def test_zero_coupling_limit_factor(self):
        cfg = make_config(0.0, 1.0, 6)
        gt = uniform_gamma(cfg, 0.3, 0.9, 5)
        # b = 0 kills gamma1; populations stay balanced and normalizable
        assert gt.gamma1 == 0.0
        assert gt.gamma2 == pytest.approx(gt.gamma3)
        assert gt.outcome_probability == pytest.approx(math.cos(0.3) ** 10, abs=1e-12)

    def test_degenerate_many_probes_at_pi_over_2(self, weak):
        with pytest.raises(DegenerateOutcomeError):
            uniform_gamma(weak, math.pi / 2.0, 0.0, 4)


class TestComplementarityAfter:
    def test_no_measurement_bell(self, strong):
        t = complementarity_after(gamma_coefficients(strong, MeasurementBasis.empty(), 0))
        assert (t.V, t.P, t.C) == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)

    def test_all_zero_basis_weak_20(self, weak):
        n = 20
        t = complementarity_after(
            gamma_coefficients(weak, MeasurementBasis.uniform(0.0, 0.0, n), n)
        )
        a_n = weak.a**n
        assert t.C == pytest.approx(2 * a_n / (1 + a_n * a_n), abs=1e-12)
        assert t.V == 0.0

    def test_reference_eraser_cell(self):
        # reconstructed from tabulated amplitudes (0.17-0.68i, 0.06, 0.70)
        gt = GammaTriple(
            gamma1=0.17 - 0.68j, gamma2=0.06, gamma3=0.70,
            norm_factor=math.sqrt(abs(0.17 - 0.68j) ** 2 + 0.06**2 + 0.70**2),
            outcome_probability=1.0,
        )
        t = complementarity_after(gt)
        assert t.V == pytest.approx(0.99, abs=0.01)

    def test_closure_random(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            cfg, n = random_coupling(rng, n_cap=12)
            try:
                gt = gamma_coefficients(cfg, random_basis(rng, n), n)
            except DegenerateOutcomeError:
                continue
            assert abs(complementarity_after(gt).closure_residual) <= 1e-10

    def test_matches_pure_state_route(self):
        from complement_opt import triple

        rng = np.random.default_rng(27)
        for _ in range(100):
            cfg, n = random_coupling(rng, n_cap=8)
            try:
                gt = gamma_coefficients(cfg, random_basis(rng, n), n)
            except DegenerateOutcomeError:
                continue
            direct = complementarity_after(gt)
            via_state = triple(postselected_state(gt))
            assert direct.V == pytest.approx(via_state.V, abs=1e-10)
            assert direct.P == pytest.approx(via_state.P, abs=1e-10)
            assert direct.C == pytest.approx(via_state.C, abs=1e-10)


class TestPerProbeDistinguishability:
    def test_first_probe(self, strong):
        assert per_qubit_distinguishability(strong, 1) == pytest.approx(
            abs(strong.b) ** 2, abs=1e-15
        )

    def test_zero_coupling(self):
        cfg = make_config(0.0, 1.0, 8)
        assert all(per_qubit_distinguishability(cfg, i) == 0.0 for i in range(1, 9))

    def test_strong_geometric_decay(self, strong):
        ratio = strong.a**2
        for i in range(1, 20):
            assert per_qubit_distinguishability(strong, i + 1) == pytest.approx(
                ratio * per_qubit_distinguishability(strong, i), abs=1e-15
            )

    def test_weak_profile_flat_within_12_percent(self, weak):
        values = [per_qubit_distinguishability(weak, i) for i in range(1, 21)]
        assert min(values) / max(values) >= 0.88

    @pytest.mark.parametrize("i", [0, 21])
    def test_range_errors(self, strong, i):
        with pytest.raises(RangeError):
            per_qubit_distinguishability(strong, i)


class TestDeltaD:
    def test_total_endpoints(self):
        assert delta_d_total(0.0) == 0.0
        assert delta_d_total(1.0) == -1.0

    def test_total_range(self):
        for v in np.linspace(0.0, 1.0, 21):
            assert -1.0 <= delta_d_total(float(v)) <= 0.0

    @pytest.mark.parametrize("v", [-0.5, 1.5])
    def test_total_domain_error(self, v):
        with pytest.raises(DomainError):
            delta_d_total(v)

    def test_pair_trivial_cases(self, strong):
        assert delta_d_pair(strong, 0, 0.0) == pytest.approx(0.0, abs=1e-15)
        cfg0 = make_config(0.0, 1.0, 5)
        for n in range(6):
            assert delta_d_pair(cfg0, n, 0.0) == pytest.approx(0.0, abs=1e-15)

    def test_pair_after_eraser_suppression(self, strong):
        # a predictability-maximizing run leaves V ~ 0, so the pair picks up
        # nearly the whole 1 - a^(2n) that was stored on the probes
        result = maximize(strong, 10, Objective.PREDICTABILITY)
        v = result.achieved.V
        value = delta_d_pair(strong, 10, v)
        assert value == pytest.approx(1.0 - strong.a**20, abs=1e-6)
        state = postselected_state(gamma_coefficients(strong, result.basis, 10))
        assert math.sqrt(max(0.0, 1.0 - v * v)) == pytest.approx(
            distinguishability(state), abs=1e-10
        )

    def test_pair_range_error(self, strong):
        with pytest.raises(RangeError):
            delta_d_pair(strong, 30, 0.0)
