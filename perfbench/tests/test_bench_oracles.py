"""Checks of the benchmark's own oracles and tracing.

Corrupted or withheld outputs must count as failed items; the one
legitimately empty sweep cell (theta = pi/2 with n >= 2) must not.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import Job  # noqa: E402

from complement_opt import cli  # noqa: E402

COUPLING = {"g": 1.3, "T": 3.1, "N": 12}


def curve_job(objective="visibility", n_max=2) -> Job:
    flags = ("--g", repr(COUPLING["g"]), "--T", repr(COUPLING["T"]), "--N", str(COUPLING["N"]))
    return Job(
        "quantity-vs-n",
        ("run", "--experiment", "quantity-vs-n", *flags, "--objective", objective,
         "--n-max", str(n_max)),
        params={"coupling": COUPLING, "objective": objective, "n_max": n_max},
    )


def sweep_job(n_max=3) -> Job:
    return Job(
        "uniform-sweep",
        ("run", "--experiment", "uniform-sweep", "--preset", "strong", "--n-max", str(n_max)),
        params={"coupling": {"g": 4.0, "T": 2.0 * math.pi, "N": 20}, "n_max": n_max,
                "theta_steps": 60},
    )


def produce(job: Job, tmp_path: Path) -> Path:
    """Run the job through the CLI; return its output directory."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(run.job_argv(job, tmp_path)) == 0
    return tmp_path / "out"


def edit_csv(out_dir: Path, change) -> None:
    """Rewrite the job's CSV after applying ``change(rows)`` to its rows."""
    (path,) = out_dir.rglob("*.csv")
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        header, rows = reader.fieldnames, list(reader)
    change(rows)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def test_package_curve_passes(tmp_path):
    job = curve_job()
    verdict = oracles.check(job, 0, "", produce(job, tmp_path))
    assert (verdict.items, verdict.failed_items, verdict.error) == (2, 0, "")


def test_hand_corrupted_curve_row_fails(tmp_path):
    job = curve_job()
    out = produce(job, tmp_path)

    def corrupt(rows):
        rows[1]["V"] = repr(float(rows[1]["V"]) - 1e-3)

    edit_csv(out, corrupt)
    verdict = oracles.check(job, 0, "", out)
    assert verdict.items == 2
    assert verdict.wrong == 1
    assert verdict.job_failed


def test_consistent_suboptimal_row_counts_as_short(tmp_path):
    job = curve_job(n_max=1)
    out = produce(job, tmp_path)
    c = oracles.Coupling.of(**COUPLING)
    angles = [0.3, 0.0]
    V, P, C, prob = oracles.values_from_angles(c, angles)

    def suboptimal(rows):
        rows[0].update(V=repr(V), P=repr(P), C=repr(C), outcome_probability=repr(prob),
                       angles=" ".join(repr(a) for a in angles))

    edit_csv(out, suboptimal)
    verdict = oracles.check(job, 0, "", out)
    assert (verdict.short, verdict.wrong, verdict.failed_items) == (1, 0, 1)
    assert not verdict.job_failed


def _blank(rows, n: int, theta_index: int, width: int = 61) -> None:
    row = rows[(n - 1) * width + theta_index]
    row["V"] = row["P"] = row["C"] = ""


def test_nan_on_possible_record_fails(tmp_path):
    job = sweep_job()
    out = produce(job, tmp_path)
    edit_csv(out, lambda rows: _blank(rows, n=2, theta_index=10))
    verdict = oracles.check(job, 0, "", out)
    assert verdict.items == 3 * 61
    assert verdict.refused == 1
    assert verdict.failed_items == 1
    assert not verdict.job_failed


def test_nan_at_half_pi_with_two_probes_is_not_failed(tmp_path):
    job = sweep_job()
    out = produce(job, tmp_path)

    def blank_half_pi(rows):
        for n in (2, 3):
            _blank(rows, n=n, theta_index=30)

    edit_csv(out, blank_half_pi)
    verdict = oracles.check(job, 0, "", out)
    assert verdict.failed_items == 0


def test_nan_at_half_pi_with_one_probe_fails(tmp_path):
    job = sweep_job()
    out = produce(job, tmp_path)
    edit_csv(out, lambda rows: _blank(rows, n=1, theta_index=30))
    assert oracles.check(job, 0, "", out).refused == 1


def test_wrong_sweep_value_fails_job(tmp_path):
    job = sweep_job()
    out = produce(job, tmp_path)

    def corrupt(rows):
        rows[5]["P"] = repr(float(rows[5]["P"]) + 1e-6)

    edit_csv(out, corrupt)
    assert oracles.check(job, 0, "", out).job_failed


PASSING_VERIFY = "\n".join(
    f"{name}  PASS  10 samples, max gap = 1.0e-16" for name in oracles.VERIFY_THRESHOLDS
)


def perturb_job() -> Job:
    return Job("verify", ("verify", "--samples", "10", "--seed", "1", "--perturb"),
               params={"samples": 10, "perturb": True}, expect_exit=1)


def test_perturb_job_exiting_zero_fails():
    verdict = oracles.check(perturb_job(), 0, PASSING_VERIFY, Path("unused"))
    assert verdict.job_failed
    assert verdict.failed_items == verdict.items == len(oracles.VERIFY_THRESHOLDS)


def test_perturb_job_detecting_the_fault_passes():
    stdout = PASSING_VERIFY.replace("closure-after-measurement  PASS", "closure-after-measurement  FAIL")
    verdict = oracles.check(perturb_job(), 1, stdout, Path("unused"))
    assert not verdict.job_failed and verdict.failed_items == 0


def test_verify_statistic_above_threshold_fails():
    job = Job("verify", ("verify", "--samples", "10", "--seed", "1"),
              params={"samples": 10, "perturb": False})
    stdout = PASSING_VERIFY.replace("1.0e-16", "1.0e-2", 1)
    assert oracles.check(job, 0, stdout, Path("unused")).wrong == 1


def test_tail_has_ten_jobs_beyond_it():
    latencies = [float(i) for i in range(40)]
    value, percentile = run.tail(latencies)
    assert sum(x > value for x in latencies) == 10
    assert percentile == pytest.approx(75.0)
    assert run.tail([1.0, 3.0, 2.0]) == (3.0, 100.0)


def test_tracer_counts_and_restores(tmp_path):
    import complement_opt.experiments as experiments
    import complement_opt.measurement as measurement

    original = measurement.uniform_gamma
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert experiments.uniform_gamma is not original
        produce(sweep_job(n_max=2), tmp_path)
    finally:
        tracer.uninstall()
    assert measurement.uniform_gamma is original and experiments.uniform_gamma is original
    assert tracer.calls["measurement.uniform_gamma"] == 2 * 61
    assert tracer.calls["optimize.maximize"] == 0
    assert tracer.calls["cli.main"] == 1
    assert tracer.self_s["experiments.run_experiment"] > 0.0
    assert tracer.write_self_s() > 0.0


def test_missing_function_is_reported_absent():
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    plain, traced = run.Tally(), run.Tally()
    names = ["optimize.maximize.calls", "optimize.no_such_function.self_s"]
    values, details = run.per_layer(tracer, plain, traced, names)
    assert values == {"optimize.maximize.calls": 0, "optimize.no_such_function.self_s": 0.0}
    assert details["absent"] == ["optimize.no_such_function"]
