import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from complement_opt import ConfigError, Objective, cli, verify
from complement_opt.cli import FIELDS, main
from complement_opt.experiments import EXPERIMENTS, PRESETS
from helpers import package_env


def run_cli(*args):
    return main(list(args))


#: the two sampled checks, at 40 samples
SAMPLED_CHECKS = {
    "closure": lambda: verify._closure_check(40, 7, verify.complementarity_after),
    "projection": lambda: verify._projection_check(40, 7),
}


def _nan_field(field):
    """A fault that sets ``field`` of the patched function's result to NaN."""
    return lambda exact: lambda *args: exact(*args)._replace(**{field: math.nan})


#: check name -> (verify attribute, fault that makes one of its gaps NaN)
NAN_FAULTS = {
    "closure-after-measurement": ("complementarity_after", _nan_field("V")),
    "evolution-dual-route": ("oracle_evolve", _nan_field("amp_b")),
    "postselection-dual-route": (
        "project_oracle", lambda exact: lambda *args: (exact(*args)[0], math.nan)
    ),
    "distinguishability-budget": ("per_qubit_distinguishability", lambda exact: lambda *args: math.nan),
    "small-n-optimizer-reference": (
        "grid_reference_maximum",
        lambda exact: lambda cfg, n: {objective: (math.nan, ()) for objective in Objective},
    ),
}


class TestRunCommand:
    def test_quantity_vs_n_writes_files(self, tmp_path, capsys):
        code = run_cli(
            "run", "--experiment", "quantity-vs-n", "--preset", "strong",
            "--objective", "visibility", "--n-max", "2", "--out", str(tmp_path),
        )
        assert code == 0
        csv = tmp_path / "quantity-vs-n" / "strong-visibility.csv"
        assert csv.exists()
        assert (tmp_path / "quantity-vs-n" / "manifest.json").exists()
        assert str(csv) in capsys.readouterr().out

    def test_zero_coupling_rows_are_bell(self, tmp_path):
        code = run_cli(
            "run", "--experiment", "quantity-vs-n", "--g", "0", "--T", "1",
            "--N", "4", "--objective", "concurrence", "--n-max", "3",
            "--out", str(tmp_path),
        )
        assert code == 0
        csv = tmp_path / "quantity-vs-n" / "custom-concurrence.csv"
        for line in csv.read_text().splitlines()[1:]:
            _, v, p, c = line.split(",")[:4]
            assert float(v) == pytest.approx(0.0, abs=1e-9)
            assert float(p) == pytest.approx(0.0, abs=1e-9)
            assert float(c) == pytest.approx(1.0, abs=1e-9)

    def test_table_experiment(self, tmp_path):
        code = run_cli(
            "run", "--experiment", "table", "--n-max", "1", "--out", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "table" / "table.csv").read_text().splitlines()
        assert lines[0].startswith("objective,preset,n,")
        assert len(lines) == 1 + 18  # six cells at each of n = 1, 2, 10

    @pytest.mark.parametrize("args, csv", [
        (("--experiment", "table", "--preset", "weak", "--objective", "concurrence"),
         "table/table.csv"),
        (("--experiment", "continuous-limit", "--preset", "strong"),
         "continuous-limit/continuous-limit.csv"),
        (("--experiment", "distinguishability", "--preset", "strong", "--objective", "visibility"),
         "distinguishability/strong.csv"),
    ])
    def test_file_named_after_the_fields_the_study_reads(self, tmp_path, args, csv):
        assert run_cli("run", *args, "--out", str(tmp_path)) == 0
        assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.csv")] == [csv]

    def test_determinism_byte_identical(self, tmp_path):
        args = [
            "run", "--experiment", "quantity-vs-n", "--preset", "weak",
            "--objective", "concurrence", "--n-max", "2",
        ]
        assert run_cli(*args, "--out", str(tmp_path / "a")) == 0
        assert run_cli(*args, "--out", str(tmp_path / "b")) == 0
        csv_a = (tmp_path / "a" / "quantity-vs-n" / "weak-concurrence.csv").read_bytes()
        csv_b = (tmp_path / "b" / "quantity-vs-n" / "weak-concurrence.csv").read_bytes()
        assert csv_a == csv_b


class TestConfigFile:
    def test_config_file_with_flag_override(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(
            "# small smoke run\n"
            "experiment = quantity-vs-n\n"
            "preset = weak\n"
            "objective = visibility\n"
            "n_max = 2\n"
            f"out = {tmp_path / 'out'}\n"
        )
        code = run_cli("run", "--config", str(config), "--objective", "concurrence")
        assert code == 0
        assert (tmp_path / "out" / "quantity-vs-n" / "weak-concurrence.csv").exists()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("experiment = table\nbananas = 7\n")
        assert run_cli("run", "--config", str(config)) == 2
        assert "bananas" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert run_cli("run", "--config", str(tmp_path / "nope.cfg")) == 2


class TestValidation:
    def test_missing_objective(self, capsys):
        assert run_cli("run", "--experiment", "quantity-vs-n", "--preset", "strong") == 2
        assert "objective" in capsys.readouterr().err

    def test_unknown_preset(self, capsys):
        code = run_cli(
            "run", "--experiment", "distinguishability", "--preset", "medium"
        )
        assert code == 2
        assert "preset" in capsys.readouterr().err

    def test_partial_explicit_coupling(self, capsys):
        code = run_cli(
            "run", "--experiment", "distinguishability", "--g", "1.0", "--T", "2.0"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'g', 'T', 'N'" in err

    def test_preset_with_explicit_coupling_rejected(self, tmp_path, capsys):
        # neither may silently win, whether the preset comes from a flag or a file
        out = tmp_path / "out"
        coupling = ("--g", "0.1", "--T", "1", "--N", "5")
        code = run_cli(
            "run", "--experiment", "distinguishability", "--preset", "strong",
            *coupling, "--out", str(out),
        )
        assert code == 2
        assert "preset" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text("experiment = distinguishability\npreset = strong\n")
        assert run_cli("run", "--config", str(config), *coupling, "--out", str(out)) == 2
        assert "preset" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_restarts(self, tmp_path, capsys):
        # restarts is neither a run option nor a config key
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--experiment", "table", "--restarts", "3")
        assert exc.value.code == 2
        assert "--restarts" in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text("experiment = table\nrestarts = 3\n")
        assert run_cli("run", "--config", str(config)) == 2
        assert "restarts" in capsys.readouterr().err

    def test_numeric_domain_error_exit_3(self, tmp_path, capsys):
        # g * dt = 4 * (2/2) = 4 > pi/2: rejected by the physics layer
        code = run_cli(
            "run", "--experiment", "distinguishability", "--g", "4", "--T", "2",
            "--N", "2", "--out", str(tmp_path),
        )
        assert code == 3
        assert "numeric domain error" in capsys.readouterr().err

    def test_unrepresentable_optimum_exit_3(self, tmp_path, capsys):
        # g * dt = 1e-13: the best float basis falls short of V* = 1/sqrt(1+s)
        code = run_cli(
            "run", "--experiment", "quantity-vs-n", "--g", "1e-13", "--T", "20",
            "--N", "20", "--objective", "visibility", "--out", str(tmp_path),
        )
        assert code == 3
        assert "closed form" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("g, T", [("0", "inf"), ("nan", "1"), ("inf", "1")])
    def test_non_finite_coupling_exit_3(self, tmp_path, capsys, g, T):
        code = run_cli(
            "run", "--experiment", "distinguishability", "--g", g, "--T", T,
            "--N", "5", "--out", str(tmp_path),
        )
        assert code == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, fields, n_max", [
        pytest.param(
            e, f, n,
            id="-".join([e, *(f"{k}-{v}" for k, v in f.items()), *(["n_max_0"] if n == 0 else [])]),
        )
        for e, f, n in [
            ("uniform-sweep", {"phi": "nan"}, 2),
            ("uniform-sweep", {"phi": "inf"}, 2),
            ("quantity-vs-n", {"reservoir_k": "nan"}, 2),
            ("quantity-vs-n", {"reservoir_k": "-1"}, 2),
            ("quantity-vs-n", {"reservoir_k": "-10000"}, 2),
            ("continuous-limit", {"limit_k": "nan"}, 2),
            ("continuous-limit", {"limit_T": "nan"}, 2),
            ("continuous-limit", {"limit_k": "-3"}, 2),
            ("continuous-limit", {"limit_T": "-1"}, 2),
            # each factor negative, their product kT positive
            ("continuous-limit", {"limit_k": "-3", "limit_T": "-1"}, 2),
            # no rows to compute: the recorded field itself must be rejected
            ("uniform-sweep", {"phi": "nan"}, 0),
            ("uniform-sweep", {"phi": "inf"}, 0),
            ("quantity-vs-n", {"reservoir_k": "nan"}, 0),
            ("quantity-vs-n", {"reservoir_k": "inf"}, 0),
            ("quantity-vs-n", {"reservoir_k": "-1"}, 0),
        ]
    ])
    def test_out_of_domain_scalar_field_exit_3(
        self, tmp_path, capsys, experiment, fields, n_max
    ):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"experiment = {experiment}\npreset = strong\nobjective = concurrence\n"
            f"n_max = {n_max}\n" + "".join(f"{k} = {v}\n" for k, v in fields.items())
        )
        assert run_cli("run", "--config", str(config), "--out", str(tmp_path)) == 3
        err = capsys.readouterr().err
        assert "numeric domain error" in err and "finite" in err
        # neither a CSV nor a manifest
        assert not list((tmp_path / experiment).glob("*"))


def _flag(key):
    return "--" + key.replace("_", "-")


_finite = st.floats(allow_nan=False, allow_infinity=False)
_FIELD_TEXT = {
    "n_max": st.integers(0, 10**6).map(str),
    "out": st.from_regex(r"[A-Za-z0-9_./-]{1,12}", fullmatch=True),
    "theta_steps": st.integers(1, 10**6).map(str),
    "phi": _finite.map(repr),
    "reservoir_k": _finite.map(repr),
    "limit_k": _finite.map(repr),
    "limit_T": _finite.map(repr),
    "limit_N": st.lists(st.integers(1, 10**6), min_size=1, max_size=5).map(
        lambda Ns: ",".join(map(str, Ns))
    ),
}


@st.composite
def _run_fields(draw) -> dict:
    """Text of a valid set of run fields; the optional ones may be left unset."""
    fields = {
        "experiment": draw(st.sampled_from(list(EXPERIMENTS))),
        "objective": draw(st.sampled_from([o.value for o in Objective])),
    }
    if draw(st.booleans()):
        fields["preset"] = draw(st.sampled_from(list(PRESETS)))
    else:
        N = draw(st.integers(1, 50))
        T = draw(st.floats(0.5, 10.0))
        fields.update(g=repr(draw(st.floats(0.0, 1.5)) * N / T), T=repr(T), N=str(N))
    for key, text in _FIELD_TEXT.items():
        if draw(st.booleans()):
            fields[key] = draw(text)
    return fields


def _run_values(*argv):
    return cli._run_values(cli.build_parser().parse_args(["run", *argv]))


_any_float = st.one_of(
    st.sampled_from(["nan", "inf", "-inf", "-1"]), st.floats(-5.0, 5.0).map(repr)
)
#: text of every run field except ``out``, in and out of range; sizes stay small
_ANY_FIELD_TEXT = {
    "n_max": st.integers(-3, 12).map(str),
    "theta_steps": st.integers(-3, 24).map(str),
    "phi": _any_float,
    "reservoir_k": _any_float,
    "limit_k": _any_float,
    "limit_T": _any_float,
    "limit_N": st.lists(st.integers(-3, 20), max_size=3).map(
        lambda Ns: ",".join(map(str, Ns))
    ),
}


@st.composite
def _any_run_fields(draw) -> dict:
    """Text of run fields that parses, whether or not the values are valid."""
    fields = {"experiment": draw(st.sampled_from([*EXPERIMENTS, "bogus"]))}
    if draw(st.booleans()):
        fields["objective"] = draw(st.sampled_from([o.value for o in Objective]))
    coupling = draw(st.sampled_from(["preset", "explicit", "none"]))
    if coupling == "preset":
        fields["preset"] = draw(st.sampled_from(list(PRESETS)))
    elif coupling == "explicit":
        fields.update(g=draw(_any_float), T=draw(_any_float), N=str(draw(st.integers(-3, 20))))
    for key, text in _ANY_FIELD_TEXT.items():
        if draw(st.booleans()):
            fields[key] = draw(text)
    return fields


@settings(max_examples=150, deadline=None)
@given(_any_run_fields())
def test_run_exits_0_2_or_3_and_writes_nothing_on_failure(fields):
    """Any parseable run fields: a clean exit code, never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [f"{_flag(key)}={text}" for key, text in fields.items()]
        code = main(["run", *argv, f"--out={tmp}"])
        written = sorted(p.name for p in Path(tmp).rglob("*"))
    assert code in (0, 2, 3)
    if code == 0:
        assert len(written) == 3 and fields["experiment"] in written and "manifest.json" in written
    else:
        assert written == []  # no CSV, manifest or directory


class TestFieldTable:
    def test_every_field_is_a_flag_and_a_config_key(self, tmp_path, capsys):
        assert len(FIELDS) == 14
        with pytest.raises(SystemExit):
            run_cli("run", "--help")
        help_text = capsys.readouterr().out
        assert all(f"{_flag(key)} " in help_text for key in FIELDS)
        config = tmp_path / "all.cfg"
        config.write_text("".join(f"{key} = 1\n" for key in FIELDS))
        assert set(cli._parse_config_file(config)) == set(FIELDS)

    @settings(max_examples=60, deadline=None)
    @given(_run_fields())
    def test_flags_and_config_file_build_the_same_spec(self, fields):
        from_flags = _run_values(*(f"{_flag(key)}={text}" for key, text in fields.items()))
        with tempfile.TemporaryDirectory() as tmp:
            config = Path(tmp) / "run.cfg"
            config.write_text("".join(f"{key} = {text}\n" for key, text in fields.items()))
            from_file = _run_values("--config", str(config))
        assert from_flags == from_file
        assert cli._spec(from_flags) == cli._spec(from_file)

    def test_option_value_of_two_dashes_is_kept(self):
        # Python 3.11's argparse hands --out=-- to the option as []
        assert _run_values("--out=--", "--experiment=table") == {
            "out": "--", "experiment": "table",
        }


class TestVerifyCommand:
    def test_unset_flags_keep_library_defaults(self, monkeypatch):
        seen = []

        def fake(**kwargs):
            seen.append(kwargs)
            return [verify.CheckResult("fake", True, "")]

        monkeypatch.setattr(cli, "run_verification", fake)
        assert run_cli("verify") == 0
        assert run_cli("verify", "--samples", "3", "--seed", "4", "--perturb") == 0
        assert seen == [{}, {"samples": 3, "seed": 4, "perturb": True}]

    @pytest.mark.parametrize("flag, value", [
        ("--samples", "0"), ("--samples", "-5"), ("--seed", "-1"),
    ])
    def test_out_of_range_flag_exit_2(self, capsys, flag, value):
        # exit 1 is kept for a failed check
        assert run_cli("verify", flag, value) == 2
        out, err = capsys.readouterr()
        assert "configuration error" in err
        assert out == ""

    @pytest.mark.parametrize("kwargs", [
        {"samples": 2.5}, {"samples": "5"}, {"samples": True},
        {"seed": 1.5}, {"seed": "0"}, {"seed": False},
    ])
    def test_mistyped_argument_config_error(self, kwargs):
        # a bool is no count, though True == 1
        name, = kwargs
        with pytest.raises(ConfigError, match=name):
            verify.run_verification(**kwargs)

    def test_verify_passes(self, capsys):
        assert run_cli("verify", "--samples", "40", "--seed", "7") == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_verify_perturbed_fails(self, capsys):
        assert run_cli("verify", "--samples", "40", "--seed", "7", "--perturb") == 1
        out = capsys.readouterr().out
        assert "FAIL" in out

    def test_verify_checks_the_library_closure(self, monkeypatch, capsys):
        true_triple = verify.complementarity_after

        def faulty(gt):
            t = true_triple(gt)
            return t._replace(C=t.C * 1.01)

        monkeypatch.setattr(verify, "complementarity_after", faulty)
        assert run_cli("verify", "--samples", "40", "--seed", "7") == 1
        lines = capsys.readouterr().out.splitlines()
        closure = next(line for line in lines if line.startswith("closure-after-measurement"))
        assert closure.split()[1] == "FAIL"

    def test_optimizer_check_fails_on_a_suboptimal_basis(self, monkeypatch):
        # negative control: theta_1 = 0 for P is the paper's suboptimal state,
        # P = (1-s)/(1+s) ~ 0.982 against P* = 1 at (strong, n = 2)
        exact = verify.maximize

        def theta_zero(cfg, n, objective):
            if objective is not Objective.PREDICTABILITY:
                return exact(cfg, n, objective)
            # theta_1 = 0 is concurrence's optimum
            return exact(cfg, n, Objective.CONCURRENCE)._replace(objective=objective)

        monkeypatch.setattr(verify, "maximize", theta_zero)
        result = verify._optimizer_check()
        assert not result.passed
        assert float(result.detail.rsplit("= ", 1)[1]) > 1e-2

    def test_evolution_check_fails_on_a_scaled_probe_amplitude(self, monkeypatch):
        # negative control: the gap must reach every probe amplitude, the last included
        exact = verify.oracle_evolve

        def scaled(cfg, n):
            state = exact(cfg, n)
            if not n:
                return state
            return state._replace(amp_r=(*state.amp_r[:-1], 1.001 * state.amp_r[-1]))

        monkeypatch.setattr(verify, "oracle_evolve", scaled)
        assert not verify._evolution_check(0).passed

    def test_budget_check_fails_on_a_scaled_probe_share(self, monkeypatch):
        exact = verify.per_qubit_distinguishability
        monkeypatch.setattr(
            verify, "per_qubit_distinguishability", lambda cfg, i: 1.001 * exact(cfg, i)
        )
        assert not verify._budget_check().passed

    @pytest.mark.parametrize("check", SAMPLED_CHECKS)
    def test_sampled_check_evaluates_every_draw(self, monkeypatch, check):
        exact = verify.gamma_coefficients
        calls = []

        def counted(*args):
            calls.append(1)
            return exact(*args)

        monkeypatch.setattr(verify, "gamma_coefficients", counted)
        result = SAMPLED_CHECKS[check]()
        assert result.passed
        assert len(calls) == 40
        # the sample count leads and the statistic ends the detail
        scope, statistic = result.detail.split(", max ")
        assert scope == "40 samples"
        assert float(statistic.rsplit(" = ", 1)[1]) <= 1e-10

    @pytest.mark.parametrize("check", NAN_FAULTS)
    def test_nan_gap_fails(self, monkeypatch, check):
        # negative control: NaN compares false with every bound, so the pass
        # rule must not let it through as a small gap
        patched, fault = NAN_FAULTS[check]
        monkeypatch.setattr(verify, patched, fault(getattr(verify, patched)))
        result = next(r for r in verify.run_verification(samples=20, seed=5) if r.name == check)
        assert not result.passed
        assert result.detail.endswith(" = nan")

    def test_verify_deterministic_report(self, capsys):
        run_cli("verify", "--samples", "40", "--seed", "3")
        first = capsys.readouterr().out
        run_cli("verify", "--samples", "40", "--seed", "3")
        second = capsys.readouterr().out
        assert first == second


def test_console_entry_point_subprocess(tmp_path):
    result = subprocess.run(
        [
            sys.executable, "-m", "complement_opt.cli", "run",
            "--experiment", "continuous-limit", "--out", str(tmp_path),
        ],
        capture_output=True,
        text=True,
        env=package_env(),
    )
    assert result.returncode == 0
    assert (tmp_path / "continuous-limit" / "continuous-limit.csv").exists()
