import inspect
import json
import math
import platform
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from complement_opt import (
    ConfigError,
    DomainError,
    Objective,
    complementarity_after,
    experiments,
    gamma_coefficients,
    make_config,
    maximize,
    postselected_state,
    uniform_gamma,
)
from complement_opt.experiments import (
    EXPERIMENTS,
    CurveRecord,
    ExperimentSpec,
    PRESETS,
    TABLE_NS,
    TableStateRow,
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
from helpers import exact_record


class TestPresets:
    def test_named_regimes(self):
        strong = preset_config("strong")
        weak = preset_config("weak")
        assert strong.g == 4.0 and strong.N_total == 20
        assert weak.g == 0.25 and weak.T == pytest.approx(2.0 * math.pi)
        assert set(PRESETS) == {"strong", "weak"}

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_config("medium")


class TestQuantityVsN:
    def test_rows_and_closure(self, strong):
        records = run_quantity_vs_n(strong, Objective.VISIBILITY, 3, reservoir_k=None)
        assert [r.n for r in records] == [1, 2, 3]
        for r in records:
            assert abs(r.V**2 + r.P**2 + r.C**2 - 1.0) <= 1e-10
            assert len(r.angles.split(" ")) == 2 * r.n
            assert 0.0 < r.outcome_probability <= 1.0 + 1e-12

    def test_reservoir_column_default_rate(self, strong):
        records = run_quantity_vs_n(strong, Objective.CONCURRENCE, 3, reservoir_k=None)
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
        records = run_quantity_vs_n(strong, Objective.CONCURRENCE, 6, reservoir_k=None)
        for r in records:
            if r.n >= 4:
                assert abs(r.C - r.reservoir_C) <= 0.1


def _sweep(cfg, n_max, theta_steps):
    """The uniform sweep's rows reshaped: ``ns``, ``thetas``, and V, P, C
    matrices indexed [n-1, theta] (phi = 0)."""
    cells = np.array(list(run_uniform_sweep(cfg, n_max, theta_steps, 0.0)))
    cells = cells.reshape(n_max, theta_steps + 1, 5)
    return SimpleNamespace(
        ns=cells[:, 0, 0].astype(int), thetas=cells[0, :, 1],
        V=cells[..., 2], P=cells[..., 3], C=cells[..., 4],
    )


class TestUniformSweep:
    def test_theta_zero_reproduces_no_eraser_values(self, strong):
        sweep = _sweep(strong, 5, theta_steps=12)
        for i, n in enumerate(sweep.ns):
            a_n = strong.a ** int(n)
            assert sweep.V[i, 0] == pytest.approx(0.0, abs=1e-14)
            assert sweep.C[i, 0] == pytest.approx(2 * a_n / (1 + a_n * a_n), abs=1e-12)

    def test_improbable_cells_are_filled(self, strong):
        sweep = _sweep(strong, 4, theta_steps=12)
        mid = 6  # theta = pi/2 exactly
        assert math.isclose(sweep.thetas[mid], math.pi / 2.0)
        assert not np.isnan(sweep.V).any()
        # every probe measured near |1>: the excitation is found on a probe
        assert sweep.P[:, mid] == pytest.approx(1.0, abs=1e-12)
        assert np.all(sweep.V[:, mid] <= 1e-12)

    def test_improbable_cells_match_exact_oracle(self):
        # at n = 200 the records near theta = pi/2 have probabilities far
        # below 1e-300; the rational oracle computes them without underflow
        cfg = make_config(0.05, 2.0, 200)
        sweep = _sweep(cfg, 200, theta_steps=90)
        for j in (43, 45, 46):  # two steps below pi/2, pi/2, one step above
            v2, p, c2, prob = exact_record(cfg.a, abs(cfg.b), [(sweep.thetas[j], 0.0)] * 200)
            assert prob < 1e-300
            assert sweep.V[-1, j] ** 2 == pytest.approx(v2, abs=1e-12)
            assert sweep.P[-1, j] == pytest.approx(p, abs=1e-12)
            assert sweep.C[-1, j] ** 2 == pytest.approx(c2, abs=1e-12)

    def test_strong_quarter_pi_gives_high_visibility(self, strong):
        sweep = _sweep(strong, 18, theta_steps=12)
        quarter = 3  # theta = pi/4
        assert math.isclose(sweep.thetas[quarter], math.pi / 4.0)
        assert sweep.V[-1, quarter] >= 0.9

    def test_strong_near_pi_over_2_gives_high_predictability(self, strong):
        # the n = 18 records around pi/2 are improbable but recorded, near P = 1
        sweep = _sweep(strong, 18, theta_steps=60)
        assert math.isclose(sweep.thetas[30], math.pi / 2.0)
        assert np.all(sweep.P[-1, 28:33] >= 0.9)  # within two steps of pi/2

    def test_recorded_cells_satisfy_closure(self, strong):
        sweep = _sweep(strong, 6, theta_steps=24)
        total = sweep.V**2 + sweep.P**2 + sweep.C**2
        assert np.max(np.abs(total - 1.0)) <= 1e-10

    @pytest.mark.parametrize("coupling, phi", [
        ("strong", 0.0),
        ("weak", 0.7),
        ("uncoupled", 0.3),  # a = 1: the geometric factor is float(n)
        ("strong", -8.0),  # phi outside [0, 2 pi)
        ("weak", 9.5),
    ])
    def test_every_cell_is_the_public_triple(self, coupling, phi):
        # the sweep evaluates V, P, C inline; they must be complementarity_after's bits
        cfg = COUPLINGS[coupling]
        rows = list(run_uniform_sweep(cfg, cfg.N_total, 24, phi))
        assert len(rows) == cfg.N_total * 25 and rows[-1][1] == math.pi
        for n, theta, *vpc in rows:
            t = complementarity_after(uniform_gamma(cfg, theta, phi, n))
            assert [x.hex() for x in vpc] == [t.V.hex(), t.P.hex(), t.C.hex()], (n, theta)

    def test_weak_theta_pi_sustains_entanglement(self, weak):
        sweep = _sweep(weak, 20, theta_steps=12)
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
        rows = run_table_states()
        assert len(rows) == 18
        for row in rows:
            c00 = complex(row.c00_re, row.c00_im)
            c01 = complex(row.c01_re, row.c01_im)
            c10 = complex(row.c10_re, row.c10_im)
            reference = next(c for c in (c10, c00, c01) if abs(c) > 1e-6)
            assert reference.imag == pytest.approx(0.0, abs=1e-9)
            assert reference.real >= 0.0
            norm = abs(c00) ** 2 + abs(c01) ** 2 + abs(c10) ** 2
            assert norm == pytest.approx(1.0, abs=1e-12)

    def test_canonical_phase_leaves_a_canonical_state_untouched(self):
        # a real, positive reference needs a rotation of exactly 1
        def bits(amps):
            return [(z.real.hex(), z.imag.hex()) for z in amps]

        untouched = 0
        for objective in Objective:
            for preset in PRESETS:
                cfg = preset_config(preset)
                for n in TABLE_NS:
                    basis = maximize(cfg, n, objective).basis
                    state = postselected_state(gamma_coefficients(cfg, basis))
                    amps = (state.c00, state.c01, state.c10)
                    reference = next(c for c in (state.c10, state.c00, state.c01) if abs(c) > 1e-6)
                    if reference.imag == 0.0 and reference.real > 0.0:
                        assert bits(experiments._canonical_phase(*amps)) == bits(amps)
                        untouched += 1
        assert untouched == 13

    def test_cells_cover_objectives_and_presets(self):
        rows = run_table_states()
        keys = {(r.objective, r.preset, r.n) for r in rows}
        assert len(keys) == 18


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

    @pytest.mark.parametrize("name, fields", [
        ("quantity-vs-n", ["preset", "coupling", "objective", "n_max", "reservoir_k"]),
        ("uniform-sweep", ["preset", "coupling", "n_max", "theta_steps", "phi"]),
        ("distinguishability", ["preset", "coupling"]),
        ("delta-d", ["preset", "coupling", "objective", "n_max"]),
        ("table", []),
        ("continuous-limit", ["limit_k", "limit_T", "limit_N"]),
    ])
    def test_manifest_records_only_the_fields_read(self, tmp_path, strong, name, fields):
        spec = ExperimentSpec(
            name=name, cfg=strong, preset="strong", objective=Objective.VISIBILITY,
            n_max=2, theta_steps=4,
        )
        manifest = json.loads(run_experiment(spec, out_dir=tmp_path)["manifest"].read_text())
        assert list(manifest) == ["experiment", *fields, "versions", "wall_time_s", "outputs"]

    def test_manifest_records_the_python_version(self, tmp_path, strong):
        spec = ExperimentSpec(name="distinguishability", cfg=strong, preset="strong")
        manifest = json.loads(run_experiment(spec, out_dir=tmp_path)["manifest"].read_text())
        assert manifest["versions"]["python"] == platform.python_version()

    def test_float_round_trip(self, tmp_path, strong):
        spec = ExperimentSpec(name="distinguishability", cfg=strong, preset="strong")
        paths = run_experiment(spec, out_dir=tmp_path)
        lines = paths["csv"].read_text().splitlines()[1:]
        first = lines[0].split(",")
        assert float(first[1]) == math.sin(0.4 * math.pi) ** 2

    def test_no_cell_is_empty(self, tmp_path, strong):
        spec = ExperimentSpec(
            name="uniform-sweep", cfg=strong, preset="strong", n_max=3, theta_steps=12
        )
        paths = run_experiment(spec, out_dir=tmp_path)
        rows = [line.split(",") for line in paths["csv"].read_text().splitlines()[1:]]
        assert len(rows) == 3 * 13
        # theta = pi/2 with n >= 2 included
        assert all(len(r) == 5 and all(math.isfinite(float(x)) for x in r) for r in rows)

    def test_byte_identical_reruns(self, tmp_path, weak):
        spec = ExperimentSpec(
            name="quantity-vs-n", cfg=weak, preset="weak",
            objective=Objective.CONCURRENCE, n_max=2,
        )
        first = run_experiment(spec, out_dir=tmp_path / "a")
        second = run_experiment(spec, out_dir=tmp_path / "b")
        assert first["csv"].read_bytes() == second["csv"].read_bytes()

    def test_unknown_experiment(self, tmp_path, strong):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentSpec(name="bogus", cfg=strong), tmp_path)

    def test_missing_coupling_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentSpec(name="quantity-vs-n"), tmp_path)

    @pytest.mark.parametrize("name, field, value, error", [
        ("uniform-sweep", "theta_steps", -3, ConfigError),
        ("uniform-sweep", "theta_steps", 0, ConfigError),
        ("continuous-limit", "limit_N", (), ConfigError),
        ("quantity-vs-n", "n_max", -1, ConfigError),
        ("quantity-vs-n", "reservoir_k", -1.0, DomainError),
        ("continuous-limit", "limit_k", -1.0, DomainError),
        ("continuous-limit", "limit_T", -1.0, DomainError),
        # a field the study ignores is checked all the same
        ("distinguishability", "phi", math.nan, DomainError),
        # an int past the largest float, not left to overflow on the way
        pytest.param("continuous-limit", "limit_k", 10**400, DomainError, id="limit_k-10**400"),
        pytest.param("distinguishability", "phi", -10**400, DomainError, id="phi--10**400"),
        # a count that is no integer, not truncated nor left to fail on the way
        ("continuous-limit", "limit_N", (64.7, 128), ConfigError),
        ("continuous-limit", "limit_N", (math.nan,), ConfigError),
        ("delta-d", "n_max", 2.5, ConfigError),
        ("uniform-sweep", "theta_steps", 2.5, ConfigError),
        # a bool is no count, though True == 1
        ("delta-d", "n_max", True, ConfigError),
        ("uniform-sweep", "theta_steps", True, ConfigError),
        ("continuous-limit", "limit_N", (True,), ConfigError),
        # a float field that is no real number, and a limit_N that is no sequence
        ("continuous-limit", "limit_N", 64, ConfigError),
        ("continuous-limit", "limit_k", "3", ConfigError),
        ("continuous-limit", "limit_k", 3 + 0j, ConfigError),
        ("distinguishability", "phi", "0", ConfigError),
        ("quantity-vs-n", "reservoir_k", "1", ConfigError),
        # a numpy integer count, and a real that json cannot write (numpy.float32)
        ("delta-d", "n_max", np.int64(2), ConfigError),
        ("uniform-sweep", "theta_steps", np.int64(3), ConfigError),
        ("continuous-limit", "limit_N", (np.int64(64),), ConfigError),
        ("uniform-sweep", "phi", np.float32(0.5), ConfigError),
        ("continuous-limit", "limit_k", np.float32(2.0), ConfigError),
        # a coupling or objective of the wrong type, not left to fail in the file name
        ("quantity-vs-n", "objective", "visibility", ConfigError),
        ("quantity-vs-n", "cfg", {"g": 1.0}, ConfigError),
        # a preset names one file: a str with no separator or NUL, and not . or ..
        ("distinguishability", "preset", 5, ConfigError),
        ("quantity-vs-n", "preset", "a/b", ConfigError),
        ("quantity-vs-n", "preset", "a\\b", ConfigError),
        ("delta-d", "preset", "../escape", ConfigError),
        ("delta-d", "preset", "a\0b", ConfigError),
        ("uniform-sweep", "preset", "..", ConfigError),
    ])
    def test_bad_field_rejected_before_any_output(
        self, tmp_path, strong, name, field, value, error
    ):
        fields = {"cfg": strong, "preset": "strong", "objective": Objective.VISIBILITY, "n_max": 2}
        spec = ExperimentSpec(name=name, **{**fields, field: value})
        with pytest.raises(error) as exc:
            run_experiment(spec, out_dir=tmp_path)
        # the package's own type, not a bare ValueError raised on the way
        assert type(exc.value) is error
        assert f"field {field!r}" in str(exc.value)
        assert not list(tmp_path.iterdir())

    def test_experiment_registry(self):
        assert set(EXPERIMENTS) == {
            "quantity-vs-n", "uniform-sweep", "distinguishability",
            "delta-d", "table", "continuous-limit",
        }

    def test_registry_states_each_study_once(self):
        # an entry reads and records exactly its study's parameters, which
        # name spec fields; the spec's defaults are the only ones
        for name, entry in EXPERIMENTS.items():
            parameters = inspect.signature(entry.study).parameters
            assert entry.fields == tuple(parameters), name
            assert set(entry.fields) <= set(ExperimentSpec._fields), name
            assert all(p.default is p.empty for p in parameters.values()), name
        assert len({entry.study for entry in EXPERIMENTS.values()}) == 6

    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_every_line_has_a_cell_per_column(self, tmp_path, strong, name):
        spec = ExperimentSpec(
            name=name, cfg=strong, preset="strong", objective=Objective.VISIBILITY,
            n_max=2, theta_steps=4,
        )
        lines = run_experiment(spec, out_dir=tmp_path)["csv"].read_text().splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert rows
        assert all(len(line.split(",")) == len(header) for line in lines[1:])
        if name == "table":
            assert header == list(TableStateRow._fields)
        if name == "quantity-vs-n":
            assert header == list(CurveRecord._fields)
            for row in rows:
                assert len(row["angles"].split(" ")) == 2 * int(row["n"])


#: doubles at the ends of the range and one that needs all 17 digits
EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
    2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, 0.1 + 0.2,
)
CELLS = {
    int: st.integers(-2**63, 2**63),
    float: st.floats() | st.sampled_from(EDGE_FLOATS),
    str: st.text("abz-_ ", min_size=1),
}


@st.composite
def csv_files(draw):
    """(header, rows) with one cell type per column, as the studies yield them."""
    types = draw(st.lists(st.sampled_from(list(CELLS)), min_size=1, max_size=6))
    rows = draw(st.lists(st.tuples(*(CELLS[t] for t in types)), max_size=8))
    return [f"c{i}" for i in range(len(types))], rows


def cell(x) -> str:
    """A CSV cell as the README states it: ints in decimal, floats with 17
    significant digits, strings as they are."""
    if type(x) is int:
        return str(x)
    if type(x) is float:
        return format(x, ".17g")
    return x


COUPLINGS = {
    "strong": preset_config("strong"),
    "weak": preset_config("weak"),
    # a = 1.0: uniform_gamma's float(n) branch
    "uncoupled": make_config(0.0, 1.0, 20),
    # g*dt one ulp below pi/2: a ~ 6e-17
    "near-swap": make_config(math.nextafter(math.pi / 2.0, 0.0), 20.0, 20),
}


class TestCsvFormat:
    @settings(derandomize=True, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(csv_files())
    def test_every_row_is_written_cell_by_cell(self, tmp_path, file):
        header, rows = file
        path = tmp_path / "rows.csv"
        experiments._write_csv(path, header, iter(rows))
        lines = [",".join(header), *(",".join(map(cell, row)) for row in rows)]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_memory_does_not_grow_with_the_rows(self, tmp_path):
        # 50,000 rows are about 4 MB of text; the writer holds one row at a time
        rows = ((float(i), i / 3.0, i * 0.1, -i * 1e-300, math.pi * i) for i in range(50_000))
        path = tmp_path / "rows.csv"
        tracemalloc.start()
        try:
            experiments._write_csv(path, ("a", "b", "c", "d", "e"), rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        with path.open(encoding="utf-8") as handle:
            assert sum(1 for _ in handle) == 50_001

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_a_failed_write_leaves_the_csv_as_it_was(self, tmp_path, error):
        def rows():
            for n in range(3):
                yield n, n / 3.0
            raise error("after 3 rows")

        path = tmp_path / "study" / "stem.csv"
        with pytest.raises(error):
            experiments._write_csv(path, ("n", "x"), rows())
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == []
        experiments._write_csv(path, ("n", "x"), [(7, 0.25)])
        before = path.read_bytes()
        with pytest.raises(error):
            experiments._write_csv(path, ("n", "x"), rows())
        assert path.read_bytes() == before
        assert list(path.parent.iterdir()) == [path]

    def test_a_failed_manifest_write_leaves_the_manifest_as_it_was(
        self, tmp_path, strong, monkeypatch
    ):
        spec = ExperimentSpec(name="distinguishability", cfg=strong, preset="strong")
        paths = run_experiment(spec, out_dir=tmp_path)
        before = paths["manifest"].read_bytes()

        def torn_write(self, data, encoding=None, errors=None, newline=None):
            # truncate the target, write half, then fail as a full disk would
            with open(self, "w", encoding=encoding) as handle:
                handle.write(data[: len(data) // 2])
            raise OSError("disk full")

        monkeypatch.setattr(Path, "write_text", torn_write)
        with pytest.raises(OSError, match="disk full"):
            run_experiment(spec, out_dir=tmp_path)
        monkeypatch.undo()
        assert paths["manifest"].read_bytes() == before
        assert sorted(p.name for p in paths["manifest"].parent.iterdir()) == [
            "manifest.json", "strong.csv",
        ]

    @pytest.mark.parametrize("coupling", sorted(COUPLINGS))
    @pytest.mark.parametrize("name", sorted(EXPERIMENTS))
    def test_each_column_holds_one_type(self, name, coupling):
        # the first row fixes every row's format: a float in an int column would
        # be truncated by %d
        cfg = COUPLINGS[coupling]
        for objective in Objective:
            spec = ExperimentSpec(
                name=name, cfg=cfg, preset=coupling, objective=objective, n_max=cfg.N_total,
            )
            types = {tuple(map(type, row)) for row in EXPERIMENTS[name].rows(spec)}
            assert len(types) == 1, (objective, types)
            # flat rows: the writer knows no other cell type
            assert set().union(*types) <= {int, float, str}, (objective, types)
