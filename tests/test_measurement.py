import cmath
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from complement_opt import (
    ConfigError,
    DomainError,
    GammaTriple,
    RangeError,
    complementarity_after,
    delta_d_pair,
    delta_d_total,
    gamma_coefficients,
    make_config,
    maximize,
    Objective,
    oracle_evolve,
    per_qubit_distinguishability,
    postselected_state,
    project_oracle,
    triple,
    uniform_gamma,
)
from complement_opt import measurement
from complement_opt.experiments import preset_config
from complement_opt.measurement import canonical_angles, one_angle_gamma
from helpers import (
    dense_projection,
    exact_record,
    orthogonal_pair_angles,
    random_basis,
    random_coupling,
)

SQRT1_2 = 1.0 / math.sqrt(2.0)


def fmod_canonical_angles(theta, phi):
    """``canonical_angles`` with no fast path for angles already in range."""
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise DomainError(f"measurement angles must be finite, got ({theta}, {phi})")
    theta = math.fmod(theta, math.pi)
    if theta < 0.0:
        theta += math.pi
        if theta == math.pi:
            theta = 0.0
    phi = math.fmod(phi, 2.0 * math.pi)
    if phi < 0.0:
        phi += 2.0 * math.pi
        if phi == 2.0 * math.pi:
            phi = 0.0
    return theta, phi


class TestAngles:
    def test_canonicalization(self):
        theta, phi = canonical_angles(-0.1, 7.0)
        assert theta == pytest.approx(math.pi - 0.1)
        assert phi == pytest.approx(7.0 - 2.0 * math.pi)

    @given(
        st.floats(min_value=-1e3, max_value=1e3),
        st.floats(min_value=-1e3, max_value=1e3),
    )
    @example(-1e-17, -1e-17)
    @example(math.pi, 2.0 * math.pi)
    def test_canonical_range_idempotence_and_projector(self, theta, phi):
        canon = canonical_angles(theta, phi)
        t, p = canon
        assert 0.0 <= t < math.pi and 0.0 <= p < 2.0 * math.pi
        assert canonical_angles(t, p) == canon
        # the same probe vector up to a sign, so the same projector
        before = np.array([math.cos(theta), complex(math.cos(phi), math.sin(phi)) * math.sin(theta)])
        after = np.array([math.cos(t), complex(math.cos(p), math.sin(p)) * math.sin(t)])
        assert min(np.abs(after - before).max(), np.abs(after + before).max()) <= 1e-12

    def test_fast_path_matches_fmod_path(self):
        edges = [
            0.0, -0.0, 5e-324, -5e-324, -1e-300, 0.3, 3.0, 6.0,
            math.pi, math.nextafter(math.pi, 0.0),
            2.0 * math.pi, math.nextafter(2.0 * math.pi, 0.0), 1e300, -1e300,
        ]
        for theta, phi in itertools.product(edges, repeat=2):
            fast = canonical_angles(theta, phi)
            assert [x.hex() for x in fast] == [x.hex() for x in fmod_canonical_angles(theta, phi)]
        for bad in (math.nan, math.inf, -math.inf):
            for theta, phi in ((bad, 0.3), (0.3, bad), (bad, bad)):
                with pytest.raises(DomainError, match="finite"):
                    canonical_angles(theta, phi)

    @pytest.mark.parametrize("theta, phi", [
        (math.nan, 0.0), (0.3, math.nan), (math.inf, 0.0), (-math.inf, 0.0),
        (0.3, math.inf), (0.3, -math.inf),
    ])
    def test_non_finite_angles_rejected(self, strong, theta, phi):
        # the basis reaches both routes as given, through no canonicalizing
        # helper, with the bad pair first or after a finite one
        for basis in (((theta, phi),), ((0.3, 0.2), (theta, phi))):
            with pytest.raises(DomainError, match="finite"):
                gamma_coefficients(strong, basis)
            with pytest.raises(DomainError, match="finite"):
                project_oracle(oracle_evolve(strong, len(basis)), basis)
        with pytest.raises(DomainError, match="finite"):
            uniform_gamma(strong, theta, phi, 1)

    @pytest.mark.parametrize("route", [
        # both routes with the bad pair first or after a finite one, the
        # shared-basis closed form, and the canonicalizing helper
        lambda cfg, pair: gamma_coefficients(cfg, (pair,)),
        lambda cfg, pair: gamma_coefficients(cfg, ((0.3, 0.2), pair)),
        lambda cfg, pair: project_oracle(oracle_evolve(cfg, 1), (pair,)),
        lambda cfg, pair: project_oracle(oracle_evolve(cfg, 2), ((0.3, 0.2), pair)),
        lambda cfg, pair: uniform_gamma(cfg, *pair, 1),
        lambda cfg, pair: canonical_angles(*pair),
    ], ids=["kernel", "kernel-second", "oracle", "oracle-second", "uniform", "canonical"])
    @pytest.mark.parametrize("pair, error, name", [
        pytest.param(("0.3", 0.2), ConfigError, "theta", id="str-theta"),
        pytest.param((0.3, "0.2"), ConfigError, "phi", id="str-phi"),
        pytest.param((0.3j, 0.2), ConfigError, "theta", id="complex-theta"),
        pytest.param((0.3, None), ConfigError, "phi", id="None-phi"),
        pytest.param((10**400, 0.2), DomainError, "theta", id="huge-int-theta"),
        pytest.param((0.3, -10**400), DomainError, "phi", id="huge-int-phi"),
        pytest.param((True, 0.2), ConfigError, "theta", id="bool-theta"),
        pytest.param((0.3, False), ConfigError, "phi", id="bool-phi"),
    ])
    def test_angle_that_is_no_float_raises_a_typed_error(self, strong, route, pair, error, name):
        # check_real's rule, applied to any pair that is no finite float pair
        with pytest.raises(error, match=f"measurement angle {name}"):
            route(strong, pair)

    @pytest.mark.parametrize("theta1, error", [
        pytest.param("0.3", ConfigError, id="str"),
        pytest.param(0.3j, ConfigError, id="complex"),
        pytest.param(None, ConfigError, id="None"),
        pytest.param(10**400, DomainError, id="huge-int"),
        pytest.param(math.inf, DomainError, id="inf"),
        pytest.param(-math.inf, DomainError, id="-inf"),
        pytest.param(math.nan, DomainError, id="nan"),
        pytest.param(True, ConfigError, id="bool"),
        pytest.param(np.float32(0.3), ConfigError, id="float32"),
    ])
    def test_one_angle_that_is_no_finite_float(self, strong, theta1, error):
        with pytest.raises(error, match="measurement angle theta1"):
            one_angle_gamma(strong, theta1, 2)

    def test_message_names_no_bound_it_does_not_have(self, strong):
        # every angle message comes from check_real, whose default bound is -inf
        with pytest.raises(DomainError, match=r"^measurement angle theta must be finite, got nan$"):
            gamma_coefficients(strong, ((math.nan, 0.3),))


class TestGammaCoefficients:
    def test_empty_basis_returns_bell(self, strong):
        gt = gamma_coefficients(strong, ())
        assert gt.gamma1 == 0.0
        assert gt.gamma2 == pytest.approx(SQRT1_2)
        assert gt.gamma3 == pytest.approx(SQRT1_2)
        assert gt.outcome_probability == pytest.approx(1.0, abs=1e-14)

    def test_bookkeeping_is_python_float(self, strong):
        # numpy scalars must not leak into results, CSVs or manifests
        for n in (0, 1, 6):
            gt = gamma_coefficients(strong, ((0.3, 0.2),) * n)
            assert type(gt.outcome_probability) is float
        gt = uniform_gamma(strong, 0.3, 0.2, 6)
        assert type(gt.outcome_probability) is float

    def test_all_zero_angles(self, strong):
        n = 6
        gt = gamma_coefficients(strong, ((0.0, 0.0),) * n)
        assert gt.gamma1 == 0.0
        assert gt.gamma2 == pytest.approx(strong.a**n * SQRT1_2, abs=1e-15)
        assert gt.gamma3 == pytest.approx(SQRT1_2)

    def test_dual_route_random(self):
        rng = random.Random(21)
        for _ in range(150):
            cfg, n = random_coupling(rng, n_cap=8)
            basis = random_basis(rng, n)
            gt = gamma_coefficients(cfg, basis)
            pure, prob = project_oracle(oracle_evolve(cfg, n), basis)
            expected = postselected_state(gt)
            assert prob == pytest.approx(gt.outcome_probability, abs=1e-12)
            assert abs(pure.c00 - expected.c00) <= 1e-10
            assert abs(pure.c01 - expected.c01) <= 1e-10
            assert abs(pure.c10 - expected.c10) <= 1e-10
            assert pure.c11 == 0.0

    def test_degenerate_outcome(self, strong):
        # two probes at theta = pi/2 leave an improbable record, which is
        # evaluated; twenty leave one whose probability underflows to 0.0, and
        # both routes still normalize it
        basis = ((math.pi / 2.0, 0.0),) * 2
        gt = gamma_coefficients(strong, basis)
        pure, prob = project_oracle(oracle_evolve(strong, 2), basis)
        assert 0.0 < gt.outcome_probability < 1e-30
        assert prob == pytest.approx(gt.outcome_probability, rel=1e-12, abs=0.0)
        t = complementarity_after(gt)
        assert t.P == pytest.approx(1.0, abs=1e-12)
        assert abs(t.closure_residual) <= 1e-10
        assert abs(pure.c00 - postselected_state(gt).c00) <= 1e-12
        basis = ((math.pi / 2.0, 0.0),) * 20
        gt = gamma_coefficients(strong, basis)
        pure, prob = project_oracle(oracle_evolve(strong, 20), basis)
        assert gt.outcome_probability == prob == 0.0
        assert complementarity_after(gt).P == pytest.approx(1.0, abs=1e-12)
        assert abs(pure.c10 - postselected_state(gt).c10) <= 1e-12

    def test_theta_pi_over_2_single_probe_is_regular(self, strong):
        gt = gamma_coefficients(strong, ((math.pi / 2.0, 0.7),))
        assert abs(gt.gamma1) == pytest.approx(abs(strong.b) * SQRT1_2, abs=1e-12)
        assert gt.outcome_probability == pytest.approx(abs(strong.b) ** 2 / 2.0, abs=1e-12)


def assert_matches_dense(state, basis):
    pair, prob = dense_projection(state, basis)
    pure, oracle_prob = project_oracle(state, basis)
    assert abs(oracle_prob - prob) <= 1e-12
    assert abs(pure.c00 - pair[0]) <= 1e-12
    assert abs(pure.c01 - pair[1]) <= 1e-12
    assert abs(pure.c10 - pair[2]) <= 1e-12
    assert pair[3] == 0.0


class TestProjectOracle:
    def test_matches_dense_state_vector(self):
        rng = random.Random(24)
        for _ in range(80):
            cfg, n = random_coupling(rng, n_cap=6)
            assert_matches_dense(oracle_evolve(cfg, n), random_basis(rng, n))

    @pytest.mark.parametrize("n", [1, 2, 4, 6])
    def test_probes_at_theta_pi_over_2(self, strong, n):
        # one such probe leaves a probable record, two an improbable one;
        # both are projected like any other
        rng = random.Random(25 + n)
        angles = list(random_basis(rng, n))
        state = oracle_evolve(strong, n)
        angles[-1] = (math.pi / 2.0, angles[-1][1])
        assert_matches_dense(state, tuple(angles))
        if n >= 2:
            angles[0] = (math.pi / 2.0, angles[0][1])
            basis = tuple(angles)
            assert 0.0 < dense_projection(state, basis)[1] < 1e-30
            assert_matches_dense(state, basis)

    @settings(derandomize=True, deadline=None)
    @given(
        st.floats(0.01, 1.5),
        st.lists(
            st.tuples(
                st.floats(0.0, math.pi, exclude_max=True),
                st.floats(0.0, 2.0 * math.pi, exclude_max=True),
            ),
            min_size=1,
            max_size=3,
        ),
        st.data(),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_theta_zero_projector_ignores_phi(self, g_dt, angles, data, phi):
        # the premise of the grid reference's projector key: a probe at theta = 0
        # is projected on |0> whatever its phi, bit for bit
        n = len(angles)
        state = oracle_evolve(make_config(n * g_dt, 1.0, n), n)
        i = data.draw(st.integers(0, n - 1))

        def bits(theta, probe_phi):
            chosen = list(angles)
            chosen[i] = (theta, probe_phi)
            pure, _ = project_oracle(state, tuple(chosen))
            return [x.hex() for x in triple(pure)]

        for theta in (0.0, -0.0):
            assert bits(theta, phi) == bits(theta, 0.0)

    def test_theta_away_from_zero_feels_phi(self, strong):
        # negative control for the property above: at theta = 0.3 the phase of
        # the second probe moves the triple
        state = oracle_evolve(strong, 2)
        triples = set()
        for phi in (0.0, 1.0, 2.0):
            pure, _ = project_oracle(state, ((0.7, 0.0), (0.3, phi)))
            triples.add(triple(pure))
        assert len(triples) == 3

    def test_independent_of_batched_kernel(self, strong, monkeypatch):
        # negative control: a fault in the kernel's helper must open a gap
        from complement_opt import verify

        shared = measurement._running_products
        monkeypatch.setattr(
            measurement, "_running_products", lambda values: [(1.1 * p, e) for p, e in shared(values)]
        )
        assert not verify._projection_check(300, 3).passed
        basis = ((0.7, 0.3),) * 3
        pure, _ = project_oracle(oracle_evolve(strong, 3), basis)
        expected = postselected_state(gamma_coefficients(strong, basis))
        gaps = (pure.c00 - expected.c00, pure.c01 - expected.c01, pure.c10 - expected.c10)
        assert max(map(abs, gaps)) > 1e-3


#: records whose products of alphas underflowed before they were rescaled:
#: each true outcome probability lies below the smallest double
UNDERFLOWING = {
    "weak-20-at-half-pi": (preset_config("weak"), [(math.pi / 2.0, 0.0)] * 20),
    "300-at-1.5": (make_config(0.05, 2.0, 300), [(1.5, 0.0)] * 300),
    "400-cycling": (
        make_config(0.05, 2.0, 400),
        [((1.5, 0.3, math.pi / 2.0, 1.0)[i % 4], 0.7) for i in range(400)],
    ),
}

#: doubles within 64 ulps of pi/2, where cos(theta) is about 1e-16 or less
NEAR_HALF_PI = st.integers(-64, 64).map(lambda k: math.pi / 2.0 + k * math.ulp(math.pi / 2.0))


def both_routes(cfg, angles):
    """The kernel's GammaTriple and the oracle's (state, probability) of one record."""
    basis = tuple(angles)
    n = len(basis)
    return gamma_coefficients(cfg, basis), project_oracle(oracle_evolve(cfg, n), basis)


class TestRescaledProducts:
    @pytest.mark.parametrize("record", UNDERFLOWING)
    def test_underflowing_record_matches_exact_oracle(self, record):
        cfg, angles = UNDERFLOWING[record]
        v2, p, c2, prob = exact_record(cfg.a, abs(cfg.b), angles)
        assert prob < 5e-324
        gt, (pure, oracle_prob) = both_routes(cfg, angles)
        assert gt.outcome_probability == oracle_prob == 0.0
        for t in (complementarity_after(gt), triple(pure)):
            assert t.V ** 2 == pytest.approx(v2, abs=1e-12)
            assert t.P == pytest.approx(p, abs=1e-12)
            assert t.C ** 2 == pytest.approx(c2, abs=1e-12)
        state = postselected_state(gt)
        assert all(map(cmath.isfinite, (state.c00, state.c01, state.c10)))
        assert all(map(cmath.isfinite, (pure.c00, pure.c01, pure.c10)))

    @pytest.mark.parametrize("preset", ["strong", "weak"])
    def test_one_rescale_keeps_the_probability(self, preset):
        # six probes at pi/2: |prod alpha| ~ 5e-98 crosses 2^-256 once, and the
        # probability (below 1e-162) is still a double
        cfg = preset_config(preset)
        angles = [(math.pi / 2.0, 0.0)] * 6
        assert measurement._running_products([math.cos(t) for t, _ in angles])[-1][1] == -256
        prob = float(exact_record(cfg.a, abs(cfg.b), angles)[3])
        gt, (_, oracle_prob) = both_routes(cfg, angles)
        assert gt.outcome_probability == pytest.approx(prob, rel=1e-12, abs=0.0)
        assert oracle_prob == pytest.approx(prob, rel=1e-12, abs=0.0)

    @settings(derandomize=True, deadline=None)
    @given(
        st.floats(0.01, 1.5),
        st.lists(
            st.tuples(
                st.one_of(st.floats(0.0, math.pi, exclude_max=True), NEAR_HALF_PI),
                st.floats(0.0, 2.0 * math.pi, exclude_max=True),
            ),
            max_size=40,
        ),
    )
    def test_routes_agree_at_any_depth(self, g_dt, angles):
        gt, (pure, _) = both_routes(make_config(40.0 * g_dt, 1.0, 40), angles)
        for t in (complementarity_after(gt), triple(pure)):
            assert all(map(math.isfinite, (t.V, t.P, t.C)))
            assert abs(t.closure_residual) <= 1e-10
        expected = postselected_state(gt)
        assert abs(pure.c00 - expected.c00) <= 1e-10
        assert abs(pure.c01 - expected.c01) <= 1e-10
        assert abs(pure.c10 - expected.c10) <= 1e-10


class TestProbabilityAccounting:
    def test_two_outcomes_sum_to_one_single_probe(self, strong, weak):
        rng = np.random.default_rng(22)
        for cfg in (strong, weak):
            for _ in range(20):
                theta = rng.uniform(0.0, math.pi)
                phi = rng.uniform(0.0, 2.0 * math.pi)
                state = oracle_evolve(cfg, 1)
                _, p_hit = project_oracle(state, ((theta, phi),))
                _, p_miss = project_oracle(state, (orthogonal_pair_angles(theta, phi),))
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
            _, prob = project_oracle(state, tuple(chosen))
            total += prob
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_probability_bounds_random(self):
        rng = random.Random(24)
        for _ in range(100):
            cfg, n = random_coupling(rng, n_cap=10)
            gt = gamma_coefficients(cfg, random_basis(rng, n))
            assert 0.0 < gt.outcome_probability <= 1.0 + 1e-12


class TestUniformGamma:
    def test_theta_zero(self, strong):
        gt = uniform_gamma(strong, 0.0, 0.0, 5)
        assert gt.gamma1 == 0.0
        assert gt.gamma2 == pytest.approx(strong.a**5 * SQRT1_2)
        assert gt.gamma3 == pytest.approx(SQRT1_2)

    def test_matches_per_probe_route(self, strong, weak):
        # uniform_gamma's amplitudes differ from the per-probe ones by the
        # factor alpha^(n-1), so the two states agree up to its sign
        rng = np.random.default_rng(25)
        near_edges = [(1e-9, 0.4), (math.pi / 2.0 - 1e-9, 1.0)]
        for cfg in (strong, weak):
            cases = [(rng.uniform(0, math.pi), rng.uniform(0, 2 * math.pi)) for _ in range(12)]
            for theta, phi in cases + near_edges:
                for n in (0, 1, 2, 5):
                    u = uniform_gamma(cfg, theta, phi, n)
                    g = gamma_coefficients(cfg, ((theta, phi),) * n)
                    tu, tg = complementarity_after(u), complementarity_after(g)
                    assert abs(tu.V - tg.V) <= 1e-12
                    assert abs(tu.P - tg.P) <= 1e-12
                    assert abs(tu.C - tg.C) <= 1e-12
                    assert u.outcome_probability == pytest.approx(
                        g.outcome_probability, rel=1e-12, abs=0.0
                    )
                    su, sg = postselected_state(u), postselected_state(g)
                    sign = 1.0 if math.cos(theta) > 0.0 or n % 2 else -1.0
                    assert abs(su.c00 - sign * sg.c00) <= 1e-12
                    assert abs(su.c01 - sign * sg.c01) <= 1e-12
                    assert abs(su.c10 - sign * sg.c10) <= 1e-12

    def test_zero_coupling_limit_factor(self):
        cfg = make_config(0.0, 1.0, 6)
        gt = uniform_gamma(cfg, 0.3, 0.9, 5)
        # b = 0 kills gamma1; populations stay balanced and normalizable
        assert gt.gamma1 == 0.0
        assert gt.gamma2 == pytest.approx(gt.gamma3)
        assert gt.outcome_probability == pytest.approx(math.cos(0.3) ** 10, abs=1e-12)

    def test_many_probes_at_pi_over_2_are_improbable(self, weak):
        gt = uniform_gamma(weak, math.pi / 2.0, 0.0, 4)
        per_probe = gamma_coefficients(weak, ((math.pi / 2.0, 0.0),) * 4)
        assert 0.0 < gt.outcome_probability < 1e-90
        assert gt.outcome_probability == pytest.approx(
            per_probe.outcome_probability, rel=1e-12, abs=0.0
        )
        t = complementarity_after(gt)
        assert t.P == pytest.approx(1.0, abs=1e-12)
        assert abs(t.closure_residual) <= 1e-10
        # at n = 20 both routes' probabilities underflow to 0.0, and both
        # still normalize the record
        shared = uniform_gamma(weak, math.pi / 2.0, 0.0, 20)
        per_probe = gamma_coefficients(weak, ((math.pi / 2.0, 0.0),) * 20)
        assert shared.outcome_probability == per_probe.outcome_probability == 0.0
        t, tp = complementarity_after(shared), complementarity_after(per_probe)
        assert t.P == pytest.approx(1.0, abs=1e-12)
        assert (tp.V, tp.P, tp.C) == pytest.approx((t.V, t.P, t.C), abs=1e-12)


class TestComplementarityAfter:
    def test_no_measurement_bell(self, strong):
        t = complementarity_after(gamma_coefficients(strong, ()))
        assert (t.V, t.P, t.C) == pytest.approx((0.0, 0.0, 1.0), abs=1e-14)

    def test_all_zero_basis_weak_20(self, weak):
        n = 20
        t = complementarity_after(gamma_coefficients(weak, ((0.0, 0.0),) * n))
        a_n = weak.a**n
        assert t.C == pytest.approx(2 * a_n / (1 + a_n * a_n), abs=1e-12)
        assert t.V == 0.0

    def test_reference_eraser_cell(self):
        # reconstructed from tabulated amplitudes (0.17-0.68i, 0.06, 0.70)
        gt = GammaTriple(
            gamma1=0.17 - 0.68j, gamma2=0.06, gamma3=0.70,
            outcome_probability=1.0,
        )
        t = complementarity_after(gt)
        assert t.V == pytest.approx(0.99, abs=0.01)

    def test_closure_random(self):
        rng = random.Random(26)
        for _ in range(300):
            cfg, n = random_coupling(rng, n_cap=12)
            gt = gamma_coefficients(cfg, random_basis(rng, n))
            assert abs(complementarity_after(gt).closure_residual) <= 1e-10

    def test_matches_pure_state_route(self):
        rng = random.Random(27)
        for _ in range(100):
            cfg, n = random_coupling(rng, n_cap=8)
            gt = gamma_coefficients(cfg, random_basis(rng, n))
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

    def test_total_dust_window(self):
        # only float dust below 0 is read as V = 0; a small real V is kept
        assert delta_d_total(5e-4) == pytest.approx(math.sqrt(1 - 2.5e-7) - 1, rel=1e-9, abs=0.0)
        assert delta_d_total(-5e-13) == 0.0

    @pytest.mark.parametrize("v", [-0.5, 1.5, -2e-12, 1 + 2e-12])
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
        t = triple(postselected_state(gamma_coefficients(strong, result.basis)))
        assert math.sqrt(max(0.0, 1.0 - v * v)) == pytest.approx(
            math.hypot(t.C, t.P), abs=1e-10
        )

    def test_pair_range_error(self, strong):
        with pytest.raises(RangeError):
            delta_d_pair(strong, 30, 0.0)
