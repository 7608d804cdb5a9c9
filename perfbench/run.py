"""Benchmark of complement-opt: one closed-loop client driving the CLI in-process.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload opt-curves --seed 1 --seconds 25 --trace 0

The jobs of the workload (see ``workloads.py``) are generated from the seed
and run one after another through ``complement_opt.cli.main(argv)`` until
``--seconds`` have passed; the next job starts only when the previous one
has returned.  Every output is checked by the oracles in ``oracles.py``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``; set-up
time is the median over several fresh processes that import the package
and generate the inputs.  End-to-end times are scaled to a nominal machine
speed by a reference kernel timed between jobs (``speed.py``), except on the
workloads in ``workloads.RAW_TIMING``.  ``--trace 1``
runs each job twice, untraced and then with spans around every public
package function (``spans.py``), and reports the per-layer metrics in raw
seconds; ``trace.overhead_s`` is the traced minus the untraced job time.

Human-readable lines and a JSON line of details (machine, workload
properties, tail percentile, item counts) come first; the last line of
standard output is the result object.  The package is imported from
``src/`` of the checkout; without it the benchmark exits with code 2.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import oracles
import spans
import workloads
from speed import SpeedProbe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROCESSES = 9
#: start-up time of the reference process at nominal speed
REFERENCE_PROCESS_S = 0.1
#: passes of the job mix generated by each set-up probe
SETUP_PASSES = 8


def import_cli():
    if not (SRC / "complement_opt" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'complement_opt'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import complement_opt.cli as cli

    if Path(cli.__file__).resolve().parents[1] != SRC.resolve():
        print(f"perfbench: imported {cli.__file__}, not the checkout's package", file=sys.stderr)
        raise SystemExit(2)
    return cli


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def time_to_ready(argv: list[str]) -> float:
    """Seconds from starting a process until it prints ``ready``."""
    start = perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
        line = child.stdout.readline().strip()
        elapsed = perf_counter() - start
        child.wait(timeout=120)
    if line != "ready" or child.returncode != 0:
        raise RuntimeError(f"{argv[1:]} failed: {line!r}, exit {child.returncode}")
    return elapsed


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Raw and scaled seconds from process start until the package is
    imported and the inputs are generated, once per fresh process.

    Each probe follows a reference process, a bare interpreter importing
    numpy; probes are scaled by REFERENCE_PROCESS_S over the median
    reference time, because process start-up drifts with the host in a way
    the in-process kernel does not follow."""
    raw, reference = [], []
    for _ in range(SETUP_PROCESSES):
        reference.append(time_to_ready([sys.executable, "-c", "import numpy; print('ready')"]))
        raw.append(time_to_ready([sys.executable, str(BENCH_DIR / "run.py"), "--setup-probe",
                                  "--workload", workload, "--seed", str(seed)]))
    scale = REFERENCE_PROCESS_S / statistics.median(reference)
    return raw, [t * scale for t in raw]


def setup_probe(workload: str, seed: int) -> None:
    import_cli()
    list(itertools.islice(workloads.passes(workload, seed), SETUP_PASSES))
    print("ready", flush=True)


def job_argv(job: workloads.Job, job_dir: Path) -> list[str]:
    """CLI arguments of a job whose config file and outputs live in
    ``job_dir``; writes the config file."""
    argv = list(job.argv)
    if argv[0] == "run":
        if job.config:
            config = job_dir / "job.cfg"
            with open(config, "w", encoding="utf-8") as handle:
                handle.write(job.config)
            argv += ["--config", str(config)]
        argv += ["--out", str(job_dir / "out")]
    return argv


def execute(cli, job: workloads.Job, job_dir: Path, tracer: spans.Tracer | None):
    """Run one job in-process; return (start, end, verdict, bytes written)."""
    job_dir.mkdir()
    argv = job_argv(job, job_dir)
    out, err = io.StringIO(), io.StringIO()
    if tracer is not None:
        tracer.install()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash fails the job; the loop goes on
        code = None
        err.write(f"{type(exc).__name__}: {exc}")
    finally:
        end = perf_counter()
        if tracer is not None:
            tracer.uninstall()
    verdict = oracles.check(job, code, out.getvalue(), job_dir / "out")
    if verdict.error and err.getvalue():
        verdict.notes.append(err.getvalue().strip()[-300:])
    written = sum(p.stat().st_size for p in (job_dir / "out").rglob("*") if p.is_file())
    shutil.rmtree(job_dir)
    return start, end, verdict, written


class Tally:
    """Job latencies, item counts and workload properties of one run."""

    def __init__(self) -> None:
        self.spans: list[tuple[float, float]] = []
        self.jobs_failed = 0
        self.items = 0
        self.items_failed = 0
        self.sweep_cells = 0
        self.low_probability_cells = 0
        self.bytes_written = 0
        self.probes = 0
        self.failures: list[str] = []

    @property
    def latencies(self) -> list[float]:
        return [end - start for start, end in self.spans]

    def add(self, job, start, end, verdict, written) -> None:
        self.spans.append((start, end))
        self.items += verdict.items
        self.items_failed += verdict.failed_items
        self.sweep_cells += verdict.sweep_cells
        self.low_probability_cells += verdict.low_probability_cells
        self.bytes_written += written
        self.probes += job.params.get("probes", 0)
        if verdict.job_failed:
            self.jobs_failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"{' '.join(job.argv)}: {verdict.error or ''} {verdict.notes}")


def run_loop(cli, workload, seed, seconds, work, probe: SpeedProbe, tracer=None):
    """Closed loop: start passes of the job mix until ``seconds`` have passed,
    sampling the machine speed between jobs.  With a tracer, each job runs
    untraced and then traced, and the two are tallied apart."""
    plain, traced = Tally(), Tally()
    start = perf_counter()
    for number, batch in enumerate(workloads.passes(workload, seed)):
        if number and perf_counter() - start >= seconds:
            break
        for job in batch:
            index = len(plain.spans)
            probe.sample_if_due()
            plain.add(job, *execute(cli, job, work / f"{index}", None))
            if tracer is not None:
                traced.add(job, *execute(cli, job, work / f"{index}-traced", tracer))
    probe.sample_if_due()
    return plain, traced


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) of the highest percentile with at least ten jobs
    beyond it; the maximum when there are fewer than eleven jobs."""
    ordered = sorted(latencies)
    if len(ordered) < 11:
        return ordered[-1], 100.0
    index = len(ordered) - 11
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def end_to_end(plain: Tally, probe: SpeedProbe, setup: tuple[list[float], list[float]], scaled: bool):
    factors = [probe.factor(start, end) if scaled else 1.0 for start, end in plain.spans]
    latencies = [(end - start) * f for (start, end), f in zip(plain.spans, factors)]
    tail_s, tail_pct = tail(latencies)
    raw_tail, _ = tail(plain.latencies)
    values = {
        "setup_s": statistics.median(setup[1]),
        "items_per_s": plain.items / sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": tail_s,
        "ok_ratio": (plain.items - plain.items_failed) / plain.items,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    details = {
        "job_tail_percentile": tail_pct,
        "jobs": len(latencies),
        "raw_s": {
            "setup_s": statistics.median(setup[0]),
            "items_per_s": plain.items / sum(plain.latencies),
            "job_p50_s": statistics.median(plain.latencies),
            "job_tail_s": raw_tail,
        },
        "speed_factor_median": statistics.median(probe.factor(s, e) for s, e in plain.spans),
        "setup_s_samples": setup[1],
    }
    return values, details


def per_layer(tracer: spans.Tracer, plain: Tally, traced: Tally, names) -> tuple[dict, dict]:
    calls, probes = tracer.calls.get("optimize.maximize", 0), tracer.probes
    special = {
        "trace.overhead_s": sum(traced.latencies) - sum(plain.latencies),
        "trace.jobs": len(traced.latencies),
        "trace.job_s": sum(traced.latencies),
        "experiments.write.self_s": tracer.write_self_s(),
        "experiments.bytes_written": traced.bytes_written,
        "optimize.s_per_probe": tracer.self_s.get("optimize.maximize", 0.0) / probes if probes else 0.0,
        "optimize.evaluations": tracer.evaluations,
        "optimize.converged_ratio": tracer.converged / calls if calls else 0.0,
        "measurement.degenerate_raised": tracer.degenerate_raised,
    }
    values, absent = {}, []
    for name in names:
        if name in special:
            values[name] = special[name]
            continue
        head, _, field = name.rpartition(".")
        if head in spans.LAYERS and field == "self_s":
            values[name] = tracer.layer_self_s(head)
        elif field in ("calls", "self_s"):
            if head not in tracer.present:
                absent.append(head)
            values[name] = tracer.calls.get(head, 0) if field == "calls" else tracer.self_s.get(head, 0.0)
        else:
            raise KeyError(f"no rule computes per-layer metric {name!r}")
    return values, {"absent": sorted(set(absent))}


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    load_start = os.getloadavg()
    cli = import_cli()
    specs = metric_specs()
    setup = None if args.trace else measure_setup(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    tracer = spans.Tracer() if args.trace else None
    probe = SpeedProbe()
    try:
        plain, traced = run_loop(cli, args.workload, args.seed, args.seconds, work, probe, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    if args.trace:
        values, details = per_layer(tracer, plain, traced, specs["per_layer"])
        units = specs["per_layer"]
    else:
        values, details = end_to_end(plain, probe, setup, args.workload not in workloads.RAW_TIMING)
        units = specs["end_to_end"]
    tallies = (plain, traced) if args.trace else (plain,)
    attempted = sum(len(t.latencies) for t in tallies)
    failed = sum(t.jobs_failed for t in tallies)
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        items_attempted=plain.items, items_failed=plain.items_failed,
        fail_ratio=plain.items_failed / plain.items,
        probes_optimized=plain.probes, bytes_written=plain.bytes_written,
        sweep_cells=plain.sweep_cells,
        sweep_low_probability_share=(
            plain.low_probability_cells / plain.sweep_cells if plain.sweep_cells else 0.0
        ),
        failures=[f for t in tallies for f in t.failures],
        machine=dict(machine(), loadavg_start=load_start, loadavg_end=os.getloadavg()),
    )
    for name, unit in units.items():
        print(f"{name:<40} {values[name]!r:>24} {unit}")
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
