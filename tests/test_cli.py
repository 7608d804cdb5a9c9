import dataclasses
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from complement_opt import Objective, cli, verify
from complement_opt.cli import FIELDS, main
from complement_opt.experiments import EXPERIMENTS, PRESETS
from helpers import package_env


def run_cli(*args):
    return main(list(args))


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

    @pytest.mark.parametrize("g, T", [("0", "inf"), ("nan", "1"), ("inf", "1")])
    def test_non_finite_coupling_exit_3(self, tmp_path, capsys, g, T):
        code = run_cli(
            "run", "--experiment", "distinguishability", "--g", g, "--T", T,
            "--N", "5", "--out", str(tmp_path),
        )
        assert code == 3
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("experiment, key, value, n_max", [
        pytest.param(e, k, v, n, id=f"{e}-{k}-{v}" + ("-n_max_0" if n == 0 else ""))
        for e, k, v, n in [
            ("uniform-sweep", "phi", "nan", 2),
            ("uniform-sweep", "phi", "inf", 2),
            ("quantity-vs-n", "reservoir_k", "nan", 2),
            ("quantity-vs-n", "reservoir_k", "-1", 2),
            ("quantity-vs-n", "reservoir_k", "-10000", 2),
            ("continuous-limit", "limit_k", "nan", 2),
            ("continuous-limit", "limit_T", "nan", 2),
            # no rows to compute: the recorded field itself must be rejected
            ("uniform-sweep", "phi", "nan", 0),
            ("uniform-sweep", "phi", "inf", 0),
            ("quantity-vs-n", "reservoir_k", "nan", 0),
            ("quantity-vs-n", "reservoir_k", "inf", 0),
            ("quantity-vs-n", "reservoir_k", "-1", 0),
        ]
    ])
    def test_out_of_domain_scalar_field_exit_3(
        self, tmp_path, capsys, experiment, key, value, n_max
    ):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"experiment = {experiment}\npreset = strong\nobjective = concurrence\n"
            f"n_max = {n_max}\n{key} = {value}\n"
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
        cli._validate(from_flags)
        assert cli._spec(from_flags) == cli._spec(from_file)


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
            return dataclasses.replace(t, C=t.C * 1.01)

        monkeypatch.setattr(verify, "complementarity_after", faulty)
        assert run_cli("verify", "--samples", "40", "--seed", "7") == 1
        lines = capsys.readouterr().out.splitlines()
        closure = next(line for line in lines if line.startswith("closure-after-measurement"))
        assert closure.split()[1] == "FAIL"

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
