"""Seeded job streams for the three benchmark workloads.

A job is one call of ``complement_opt.cli.main(argv)``.  Each workload is an
endless generator of passes (lists of jobs): the same workload seed always
yields the same jobs in the same order, and the run loop takes as many
passes as fit in the measured time.  The ``params`` of a job hold everything
the oracles need; the package itself only ever sees ``argv`` (plus
``--config`` and ``--out``, which the runner adds).

Only interfaces that the roadmap keeps are used: ``run`` with
``--experiment/--preset/--g/--T/--N/--objective/--n-max/--out/--config`` and
``verify`` with ``--samples/--seed/--perturb``.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Iterator

OBJECTIVES = ("visibility", "predictability", "concurrence")

#: Presets as documented by the package (g, T, N_total).
PRESETS = {"strong": (4.0, 2.0 * math.pi, 20), "weak": (0.25, 2.0 * math.pi, 20)}

# A workload is a stream of *passes*: lists of jobs whose sizes, objectives
# and experiments come from fixed sets, shuffled anew on every pass.  A run
# always finishes the pass it is in, so every run sees whole copies of the
# same job mix whatever the seed; the seed varies couplings, angles and
# order.  Coupling strengths g*dt are stratified over [0.05, 1.5] per pass.

#: per opt-curves pass: this many n_max = 2 jobs for each objective (one
#: per stratum of g*dt), plus one n_max = 1 and one n_max = 6 job
CURVE_SMALL_PER_OBJECTIVE = 4
#: n_max of the flag sweeps (default 60 theta steps) of one sweep-io pass
SWEEP_N_MAX = (10, 50, 120, 200)
#: (n_max, theta_steps) of the config-file sweeps of one sweep-io pass; the
#: largest is one size class with a copy in every pass, so the tail latency
#: (ten jobs beyond it) falls inside that class
SWEEP_GRIDS = ((10, 12), (50, 30), (120, 60), (200, 90))

#: probes optimized by the table experiment: 3 objectives x 2 presets x n in (1, 2, 10)
TABLE_PROBES = 3 * 2 * (1 + 2 + 10)


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    config: str = ""
    params: dict = field(default_factory=dict)
    expect_exit: int = 0


def _shuffled(rng: random.Random, values) -> list:
    batch = list(values)
    rng.shuffle(batch)
    return batch


def _phases(rng: random.Random, count: int) -> list[float]:
    """``count`` values of g*dt, one from each equal stratum of [0.05, 1.5]."""
    width = 1.45 / count
    return _shuffled(rng, [0.05 + (k + rng.random()) * width for k in range(count)])


def _coupling(rng: random.Random, phase: float, n_low: int, n_high: int) -> dict:
    N = rng.randint(n_low, n_high)
    T = rng.uniform(0.5, 10.0)
    return {"g": phase * N / T, "T": T, "N": N}


def _coupling_flags(c: dict) -> tuple[str, ...]:
    return ("--g", repr(c["g"]), "--T", repr(c["T"]), "--N", str(c["N"]))


def _preset_coupling(name: str) -> dict:
    g, T, N = PRESETS[name]
    return {"g": g, "T": T, "N": N}


def _config_text(values: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in values.items())


def _curve_mix(rng: random.Random, number: int) -> list[tuple[int, str, str, float]]:
    """(n_max, objective, experiment, g*dt) of the jobs of pass ``number``."""
    mix = []
    for objective in OBJECTIVES:
        experiments = _shuffled(rng, ("quantity-vs-n", "delta-d") * (CURVE_SMALL_PER_OBJECTIVE // 2))
        for experiment, phase in zip(experiments, _phases(rng, CURVE_SMALL_PER_OBJECTIVE)):
            mix.append((2, objective, experiment, phase))
    for n_max, shift in ((1, 0), (6, 1)):
        objective = OBJECTIVES[(number + shift) % len(OBJECTIVES)]
        mix.append((n_max, objective, rng.choice(("quantity-vs-n", "delta-d")), _phases(rng, 1)[0]))
    return _shuffled(rng, mix)


def opt_curves(seed: int) -> Iterator[list[Job]]:
    """One table job, then passes of optimized curves on random couplings
    (N <= 20)."""
    rng = random.Random(seed)
    yield [Job("table", ("run", "--experiment", "table"), params={"probes": TABLE_PROBES})]
    for number in itertools.count():
        batch = []
        for n_max, objective, experiment, phase in _curve_mix(rng, number):
            coupling = _coupling(rng, phase, max(n_max, 2), 20)
            argv = (
                "run", "--experiment", experiment, *_coupling_flags(coupling),
                "--objective", objective, "--n-max", str(n_max),
            )
            batch.append(Job(
                experiment, argv,
                params={
                    "coupling": coupling, "objective": objective, "n_max": n_max,
                    "probes": n_max * (n_max + 1) // 2,
                },
            ))
        yield batch


def verify_suite(seed: int) -> Iterator[list[Job]]:
    """One ``verify`` job per pass, with seeded samples and seed; the second
    is the ``--perturb`` negative control, which must exit 1."""
    rng = random.Random(seed)
    index = 0
    while True:
        samples = rng.randint(200, 1000)
        verify_seed = rng.randrange(2**31)
        perturb = index == 1
        argv = ("verify", "--samples", str(samples), "--seed", str(verify_seed))
        if perturb:
            argv += ("--perturb",)
        yield [Job(
            "verify", argv,
            params={"samples": samples, "perturb": perturb},
            expect_exit=1 if perturb else 0,
        )]
        index += 1


def _limit_job(rng: random.Random) -> Job:
    limit = {
        "limit_k": rng.uniform(0.5, 5.0),
        "limit_T": rng.uniform(0.5, 2.0),
        "limit_N": ",".join(
            str(N) for N in sorted(rng.sample(range(16, 4097), rng.randint(3, 10)))
        ),
    }
    return Job(
        "continuous-limit",
        ("run", "--experiment", "continuous-limit"),
        config=_config_text(limit),
        params={"k": limit["limit_k"], "T": limit["limit_T"],
                "N_list": [int(N) for N in limit["limit_N"].split(",")]},
    )


def sweep_io(seed: int) -> Iterator[list[Job]]:
    """Passes of uniform-basis sweeps (by flags, by config file, and on the
    presets) interleaved with distinguishability and continuous-limit jobs.
    Random couplings have N_total from max(n_max, 20) to 300."""
    rng = random.Random(seed)
    while True:
        phases = iter(_phases(rng, 2 * len(SWEEP_N_MAX) + 2))
        batch = []
        for n_max in _shuffled(rng, SWEEP_N_MAX):
            # default theta grid (60 steps) and phi = 0
            coupling = _coupling(rng, next(phases), max(n_max, 20), 300)
            batch.append(Job(
                "uniform-sweep",
                ("run", "--experiment", "uniform-sweep", *_coupling_flags(coupling),
                 "--n-max", str(n_max)),
                params={"coupling": coupling, "n_max": n_max, "theta_steps": None},
            ))
        for n_max, steps in SWEEP_GRIDS:
            grid = {"theta_steps": steps, "phi": rng.uniform(0.0, 2.0 * math.pi), "n_max": n_max}
            coupling = _coupling(rng, next(phases), max(n_max, 20), 300)
            batch.append(Job(
                "uniform-sweep",
                ("run", "--experiment", "uniform-sweep", *_coupling_flags(coupling)),
                config=_config_text(grid),
                params={"coupling": coupling, "n_max": n_max, "theta_steps": steps},
            ))
        for phase in phases:
            coupling = _coupling(rng, phase, 20, 300)
            batch.append(Job(
                "distinguishability",
                ("run", "--experiment", "distinguishability", *_coupling_flags(coupling)),
                params={"coupling": coupling},
            ))
        batch += [_limit_job(rng), _limit_job(rng)]
        # preset sweep on the package's documented grid (20 x 61 cells)
        for preset in sorted(PRESETS):
            batch.append(Job(
                "uniform-sweep",
                ("run", "--experiment", "uniform-sweep", "--preset", preset, "--n-max", "20"),
                params={"coupling": _preset_coupling(preset), "n_max": 20, "theta_steps": 60},
            ))
        yield _shuffled(rng, batch)


WORKLOADS = {
    "opt-curves": opt_curves,
    "verify-suite": verify_suite,
    "sweep-io": sweep_io,
}

#: workloads whose job times are reported raw, not scaled by the reference
#: kernel of speed.py: the kernel follows interpreter-bound work, and scaling
#: verify's long, vectorized jobs by it widened their run-to-run spread
RAW_TIMING = frozenset({"verify-suite"})


def passes(workload: str, seed: int) -> Iterator[list[Job]]:
    return WORKLOADS[workload](seed)
