import json
import math

import numpy as np
import pytest

from complement_opt import DomainError, Objective, make_config
from complement_opt.experiments import (
    EXPERIMENTS,
    ExperimentSpec,
    PRESETS,
    preset_config,
    run_continuous_limit_convergence,
    run_delta_d,
    run_distinguishability_profile,
    run_experiment,
    run_quantity_vs_n,
    run_table_states,
    run_uniform_sweep,
)
from complement_opt.collisions import continuous_limit_gap


class TestPresets:
    def test_named_regimes(self):
        strong = preset_config("strong")
        weak = preset_config("weak")
        assert strong.g == 4.0 and strong.N_total == 20
        assert weak.g == 0.25 and weak.T == pytest.approx(2.0 * math.pi)
        assert set(PRESETS) == {"strong", "weak"}

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            preset_config("medium")


class TestQuantityVsN:
    def test_rows_and_closure(self, strong):
        records = run_quantity_vs_n(strong, Objective.VISIBILITY, 3)
        assert [r.n for r in records] == [1, 2, 3]
        for r in records:
            assert abs(r.V**2 + r.P**2 + r.C**2 - 1.0) <= 1e-10
            assert len(r.angles) == 2 * r.n
            assert 0.0 < r.outcome_probability <= 1.0 + 1e-12

    def test_reservoir_column_default_rate(self, strong):
        records = run_quantity_vs_n(strong, Objective.CONCURRENCE, 3)
        for r in records:
            expected = math.exp(-strong.k * r.n * strong.dt / 2.0)
            assert r.reservoir_C == pytest.approx(expected, abs=1e-15)

    def test_reservoir_column_custom_rate(self, strong):
        records = run_quantity_vs_n(
            strong, Objective.CONCURRENCE, 2, reservoir_k=3.0
        )
        assert records[0].reservoir_C == pytest.approx(
            math.exp(-1.5 * strong.dt), abs=1e-15
        )

    def test_strong_concurrence_tracks_reservoir_shape(self, strong):
        records = run_quantity_vs_n(strong, Objective.CONCURRENCE, 6)
        for r in records:
            if r.n >= 4:
                assert abs(r.C - r.reservoir_C) <= 0.1


class TestUniformSweep:
    def test_theta_zero_reproduces_no_eraser_values(self, strong):
        sweep = run_uniform_sweep(strong, 5, theta_steps=12)
        for i, n in enumerate(sweep.ns):
            a_n = strong.a ** int(n)
            assert sweep.V[i, 0] == pytest.approx(0.0, abs=1e-14)
            assert sweep.C[i, 0] == pytest.approx(2 * a_n / (1 + a_n * a_n), abs=1e-12)

    def test_degenerate_cells_are_missing(self, strong):
        sweep = run_uniform_sweep(strong, 4, theta_steps=12)
        mid = 6  # theta = pi/2 exactly
        assert math.isclose(sweep.thetas[mid], math.pi / 2.0)
        assert not np.isnan(sweep.V[0, mid])  # n = 1 stays regular
        assert np.isnan(sweep.V[1:, mid]).all()

    def test_strong_quarter_pi_gives_high_visibility(self, strong):
        sweep = run_uniform_sweep(strong, 18, theta_steps=12)
        quarter = 3  # theta = pi/4
        assert math.isclose(sweep.thetas[quarter], math.pi / 4.0)
        assert sweep.V[-1, quarter] >= 0.9

    def test_strong_near_pi_over_2_gives_high_predictability(self, strong):
        # the n = 18 row has a missing band around pi/2 where the outcome
        # probability underflows; the nearest recorded cells sit near P = 1
        sweep = run_uniform_sweep(strong, 18, theta_steps=60)
        row = sweep.P[-1]
        finite = np.flatnonzero(~np.isnan(row))
        near = finite[np.argmin(np.abs(sweep.thetas[finite] - math.pi / 2.0))]
        assert row[near] >= 0.9

    def test_recorded_cells_satisfy_closure(self, strong):
        sweep = run_uniform_sweep(strong, 6, theta_steps=24)
        total = sweep.V**2 + sweep.P**2 + sweep.C**2
        finite = ~np.isnan(total)
        assert finite.any()
        assert np.max(np.abs(total[finite] - 1.0)) <= 1e-10

    def test_weak_theta_pi_sustains_entanglement(self, weak):
        sweep = run_uniform_sweep(weak, 20, theta_steps=12)
        for i, n in enumerate(sweep.ns):
            a_n = weak.a ** int(n)
            assert sweep.C[i, -1] == pytest.approx(2 * a_n / (1 + a_n * a_n), abs=1e-12)
            assert sweep.C[i, -1] >= 0.98


class TestDistinguishabilityProfile:
    def test_strong_profile(self, strong):
        rows = run_distinguishability_profile(strong)
        assert len(rows) == 20
        assert rows[0][1] == pytest.approx(math.sin(0.4 * math.pi) ** 2, abs=1e-14)
        for (i, d_i, _), (_, d_next, _) in zip(rows, rows[1:]):
            assert d_next / d_i == pytest.approx(math.cos(0.4 * math.pi) ** 2, abs=1e-12)

    def test_weak_profile_flat(self, weak):
        rows = run_distinguishability_profile(weak)
        values = [d for _, d, _ in rows]
        assert min(values) / max(values) >= 0.88

    def test_zero_coupling_profile(self):
        rows = run_distinguishability_profile(make_config(0.0, 1.0, 6))
        assert all(d == 0.0 for _, d, _ in rows)

    def test_pair_column(self, strong):
        rows = run_distinguishability_profile(strong)
        for i, _, d_ab in rows:
            assert d_ab == pytest.approx(strong.a ** (2 * i), abs=1e-15)


class TestDeltaD:
    def test_conserving_objectives_show_no_change(self, strong):
        for objective in (Objective.PREDICTABILITY, Objective.CONCURRENCE):
            rows = run_delta_d(strong, objective, 4)
            for _, _, dd_total, _ in rows:
                assert abs(dd_total) <= 0.02

    def test_eraser_erases_strong(self, strong):
        rows = run_delta_d(strong, Objective.VISIBILITY, 4)
        n4 = rows[3]
        assert n4[0] == 4
        assert n4[2] <= -0.9

    def test_pair_column_formula(self, strong):
        rows = run_delta_d(strong, Objective.VISIBILITY, 3)
        for n, v, _, dd_pair in rows:
            expected = math.sqrt(max(0.0, 1.0 - min(v, 1.0) ** 2)) - strong.a ** (2 * n)
            assert dd_pair == pytest.approx(expected, abs=1e-12)


class TestTableStates:
    def test_canonical_phase_and_layout(self):
        rows = run_table_states(ns=(1,))
        assert len(rows) == 6
        for row in rows:
            reference = next(c for c in (row.c10, row.c00, row.c01) if abs(c) > 1e-6)
            assert reference.imag == pytest.approx(0.0, abs=1e-9)
            assert reference.real >= 0.0
            norm = abs(row.c00) ** 2 + abs(row.c01) ** 2 + abs(row.c10) ** 2
            assert norm == pytest.approx(1.0, abs=1e-12)

    def test_cells_cover_objectives_and_presets(self):
        rows = run_table_states(ns=(1, 2))
        keys = {(r.objective, r.preset, r.n) for r in rows}
        assert len(keys) == 12


class TestContinuousLimit:
    def test_rows_match_gap_function(self):
        rows = run_continuous_limit_convergence(3.0, 1.0, (64, 128, 256))
        for N, gap in rows:
            assert gap == pytest.approx(continuous_limit_gap(3.0, 1.0, N), abs=0.0)


class TestRunExperiment:
    def test_quantity_vs_n_files(self, tmp_path, strong):
        spec = ExperimentSpec(
            name="quantity-vs-n", cfg=strong, preset="strong",
            objective=Objective.VISIBILITY, n_max=2,
        )
        paths = run_experiment(spec, out_dir=tmp_path)
        assert paths["csv"].name == "strong-visibility.csv"
        header = paths["csv"].read_text().splitlines()[0]
        assert header == "n,V,P,C,reservoir_C,outcome_probability,angles"
        manifest = json.loads(paths["manifest"].read_text())
        assert manifest["experiment"] == "quantity-vs-n"
        assert "seed" not in manifest and "budget" not in manifest
        assert manifest["coupling"]["g"] == 4.0
        assert "wall_time_s" in manifest

    def test_float_round_trip(self, tmp_path, strong):
        spec = ExperimentSpec(name="distinguishability", cfg=strong, preset="strong")
        paths = run_experiment(spec, out_dir=tmp_path)
        lines = paths["csv"].read_text().splitlines()[1:]
        first = lines[0].split(",")
        assert float(first[1]) == math.sin(0.4 * math.pi) ** 2

    def test_missing_cells_serialize_empty(self, tmp_path, strong):
        spec = ExperimentSpec(
            name="uniform-sweep", cfg=strong, preset="strong", n_max=3, theta_steps=12
        )
        paths = run_experiment(spec, out_dir=tmp_path)
        rows = [line.split(",") for line in paths["csv"].read_text().splitlines()[1:]]
        degenerate = [r for r in rows if r[2] == ""]
        assert degenerate, "expected empty cells at theta = pi/2 for n >= 2"

    def test_byte_identical_reruns(self, tmp_path, weak):
        spec = ExperimentSpec(
            name="quantity-vs-n", cfg=weak, preset="weak",
            objective=Objective.CONCURRENCE, n_max=2,
        )
        first = run_experiment(spec, out_dir=tmp_path / "a")
        second = run_experiment(spec, out_dir=tmp_path / "b")
        assert first["csv"].read_bytes() == second["csv"].read_bytes()

    def test_unknown_experiment(self, tmp_path, strong):
        with pytest.raises(DomainError):
            run_experiment(ExperimentSpec(name="bogus", cfg=strong), tmp_path)

    def test_missing_coupling_rejected(self, tmp_path):
        with pytest.raises(DomainError):
            run_experiment(ExperimentSpec(name="quantity-vs-n"), tmp_path)

    def test_experiment_registry(self):
        assert set(EXPERIMENTS) == {
            "quantity-vs-n", "uniform-sweep", "distinguishability",
            "delta-d", "table", "continuous-limit",
        }
