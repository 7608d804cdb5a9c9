import dataclasses
import subprocess
import sys

import pytest

from complement_opt import verify
from complement_opt.cli import main
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


class TestVerifyCommand:
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
