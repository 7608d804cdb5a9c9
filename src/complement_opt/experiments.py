"""Experiment harness: named studies, CSV emission and run manifests.

Each study produces plain records so callers can post-process or plot as they
like.  ``EXPERIMENTS`` registers every named study with its CSV rows, header
and the :class:`ExperimentSpec` fields it reads; ``run_experiment`` looks a
spec up there and persists one CSV plus a JSON manifest recording exactly
those fields and the versions used.  CSV floats are serialized with 17
significant digits, so identical spec reruns are byte-identical; the manifest
additionally records wall time and is therefore excluded from that guarantee.
"""
from __future__ import annotations

import json
import math
import platform
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import __version__
from .collisions import CouplingConfig, make_config, reservoir_limit_concurrence, continuous_limit_gap
from .errors import DegenerateOutcomeError, DomainError
from .measurement import (
    complementarity_after,
    delta_d_pair,
    delta_d_total,
    gamma_coefficients,
    per_qubit_distinguishability,
    postselected_state,
    uniform_gamma,
)
from .optimize import Objective, curve, maximize, objective_value

PRESETS: dict[str, dict] = {
    "strong": {"g": 4.0, "T": 2.0 * math.pi, "N_total": 20},
    "weak": {"g": 0.25, "T": 2.0 * math.pi, "N_total": 20},
}

DEFAULT_OUT = "results"


def preset_config(name: str) -> CouplingConfig:
    if name not in PRESETS:
        raise DomainError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return make_config(**PRESETS[name])


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one study.

    ``preset`` is a label used for file naming and the manifest; ``cfg`` is
    the coupling actually used.  Each experiment reads only the fields its
    ``EXPERIMENTS`` entry lists and ignores the rest.  These defaults are the
    only ones: the CLI leaves a field it was not given unset.
    """

    name: str
    cfg: CouplingConfig | None = None
    preset: str | None = None
    objective: Objective | None = None
    n_max: int = 20
    theta_steps: int = 60
    phi: float = 0.0
    reservoir_k: float | None = None
    limit_k: float = 3.0
    limit_T: float = 1.0
    limit_N: tuple[int, ...] = (64, 128, 256, 512, 1024, 2048, 4096)


@dataclass(frozen=True)
class CurveRecord:
    """One optimized point of a quantity-vs-n study."""

    n: int
    V: float
    P: float
    C: float
    reservoir_C: float
    outcome_probability: float
    angles: tuple[float, ...]


def run_quantity_vs_n(
    cfg: CouplingConfig,
    objective: Objective,
    n_max: int,
    reservoir_k: float | None = None,
) -> list[CurveRecord]:
    """Optimized complementarity triple for each n, with the many-probe
    exponential-decay concurrence as a companion column.

    The companion maps collision index to elapsed time t_n = n * dt and uses
    rate ``reservoir_k`` (defaults to the coupling's own k = g^2 T / N).
    """
    k = cfg.k if reservoir_k is None else reservoir_k
    if not 0.0 <= k < math.inf:
        raise DomainError(f"reservoir_k must be finite and >= 0, got {k!r}")
    records = []
    for result in curve(cfg, objective, n_max):
        t = result.achieved
        records.append(
            CurveRecord(
                n=result.n,
                V=t.V,
                P=t.P,
                C=t.C,
                reservoir_C=reservoir_limit_concurrence(k, result.n * cfg.dt),
                outcome_probability=result.outcome_probability,
                angles=tuple(
                    float(x) for pair in result.basis.angles for x in pair
                ),
            )
        )
    return records


@dataclass(frozen=True)
class UniformSweepResult:
    """V, P, C on the (n, theta) grid of identical-basis measurements.

    Matrices are indexed [n-1, theta]; impossible post-selections (for
    example theta = pi/2 with n >= 2) are NaN.
    """

    ns: np.ndarray
    thetas: np.ndarray
    phi: float
    V: np.ndarray
    P: np.ndarray
    C: np.ndarray


def run_uniform_sweep(
    cfg: CouplingConfig,
    n_max: int,
    theta_steps: int = 60,
    phi: float = 0.0,
) -> UniformSweepResult:
    """Sweep a shared measurement angle theta over [0, pi] for n = 1..n_max."""
    cfg.check_n(n_max)
    thetas = np.linspace(0.0, math.pi, theta_steps + 1)
    ns = np.arange(1, n_max + 1)
    shape = (n_max, thetas.size)
    V = np.full(shape, np.nan)
    P = np.full(shape, np.nan)
    C = np.full(shape, np.nan)
    for i, n in enumerate(ns):
        for j, theta in enumerate(thetas):
            try:
                t = complementarity_after(uniform_gamma(cfg, theta, phi, int(n)))
            except DegenerateOutcomeError:
                continue
            V[i, j], P[i, j], C[i, j] = t.V, t.P, t.C
    return UniformSweepResult(ns=ns, thetas=thetas, phi=phi, V=V, P=P, C=C)


def run_distinguishability_profile(cfg: CouplingConfig) -> list[tuple[int, float, float]]:
    """(i, information on probe i, pair information a^(2i)) for i = 1..N."""
    return [
        (
            i,
            per_qubit_distinguishability(cfg, i),
            cfg.a ** (2 * i),
        )
        for i in range(1, cfg.N_total + 1)
    ]


def run_delta_d(
    cfg: CouplingConfig,
    objective: Objective,
    n_max: int,
) -> list[tuple[int, float, float, float]]:
    """(n, optimized V, total information change, pair information change)."""
    rows = []
    for result in curve(cfg, objective, n_max):
        v = result.achieved.V
        rows.append((result.n, v, delta_d_total(v), delta_d_pair(cfg, result.n, v)))
    return rows


@dataclass(frozen=True)
class TableStateRow:
    """Post-selected pair state for one (objective, coupling, n) cell."""

    objective: str
    preset: str
    n: int
    c00: complex
    c01: complex
    c10: complex
    achieved: float
    outcome_probability: float


def _canonical_phase(c00: complex, c01: complex, c10: complex) -> tuple[complex, complex, complex]:
    """Fix the global phase: c10 real >= 0, falling back to c00 then c01.

    Amplitudes below 1e-6 are treated as zero when picking the reference, so
    solver dust cannot hijack the phase convention.
    """
    for ref in (c10, c00, c01):
        if abs(ref) > 1e-6:
            rot = np.conj(ref) / abs(ref)
            return c00 * rot, c01 * rot, c10 * rot
    return c00, c01, c10


def run_table_states(
    ns: Sequence[int] = (1, 2, 10),
    presets: Sequence[str] = ("strong", "weak"),
) -> list[TableStateRow]:
    """Optimized post-selected states for every (objective, preset, n) cell,
    phase-canonicalized for comparison."""
    rows = []
    for objective in Objective:
        for preset in presets:
            cfg = preset_config(preset)
            for n in ns:
                result = maximize(cfg, int(n), objective)
                state = postselected_state(
                    gamma_coefficients(cfg, result.basis, int(n))
                )
                c00, c01, c10 = _canonical_phase(state.c00, state.c01, state.c10)
                rows.append(
                    TableStateRow(
                        objective=objective.value,
                        preset=preset,
                        n=int(n),
                        c00=complex(c00),
                        c01=complex(c01),
                        c10=complex(c10),
                        achieved=objective_value(result.achieved, objective),
                        outcome_probability=result.outcome_probability,
                    )
                )
    return rows


def run_continuous_limit_convergence(
    k: float, T: float, N_list: Iterable[int]
) -> list[tuple[int, float]]:
    """(N, |cos^N sqrt(kT/N) - exp(-kT/2)|) along an N schedule."""
    return [(int(N), continuous_limit_gap(k, T, int(N))) for N in N_list]


# ---------------------------------------------------------------------------
# registry and persistence

def _angles_field(angles: Sequence[float]) -> str:
    return " ".join(f"{a:.17g}" for a in angles)


def _curve_rows(spec: ExperimentSpec):
    for r in run_quantity_vs_n(spec.cfg, spec.objective, spec.n_max, spec.reservoir_k):
        yield (r.n, r.V, r.P, r.C, r.reservoir_C, r.outcome_probability, _angles_field(r.angles))


def _sweep_rows(spec: ExperimentSpec):
    sweep = run_uniform_sweep(spec.cfg, spec.n_max, spec.theta_steps, spec.phi)
    for i, n in enumerate(sweep.ns):
        for j, theta in enumerate(sweep.thetas):
            yield (int(n), float(theta), sweep.V[i, j], sweep.P[i, j], sweep.C[i, j])


def _table_rows(spec: ExperimentSpec):
    for r in run_table_states():
        yield (
            r.objective, r.preset, r.n,
            r.c00.real, r.c00.imag, r.c01.real, r.c01.imag, r.c10.real, r.c10.imag,
            r.achieved, r.outcome_probability,
        )


@dataclass(frozen=True)
class Experiment:
    """A named study: its CSV rows and header, and the :class:`ExperimentSpec`
    fields it reads.  Those fields are what its manifest records; a study that
    reads ``cfg`` or ``objective`` cannot run without it."""

    rows: Callable[[ExperimentSpec], Iterable[Sequence]]
    header: tuple[str, ...]
    fields: tuple[str, ...]


_COUPLED = ("preset", "cfg")

EXPERIMENTS: dict[str, Experiment] = {
    "quantity-vs-n": Experiment(
        _curve_rows,
        ("n", "V", "P", "C", "reservoir_C", "outcome_probability", "angles"),
        (*_COUPLED, "objective", "n_max", "reservoir_k"),
    ),
    "uniform-sweep": Experiment(
        _sweep_rows, ("n", "theta", "V", "P", "C"), (*_COUPLED, "n_max", "theta_steps", "phi")
    ),
    "distinguishability": Experiment(
        lambda spec: run_distinguishability_profile(spec.cfg),
        ("i", "d_qa_qi", "d_qa_qb"),
        _COUPLED,
    ),
    "delta-d": Experiment(
        lambda spec: run_delta_d(spec.cfg, spec.objective, spec.n_max),
        ("n", "V", "delta_d_total", "delta_d_pair"),
        (*_COUPLED, "objective", "n_max"),
    ),
    "table": Experiment(
        _table_rows,
        (
            "objective", "preset", "n",
            "c00_re", "c00_im", "c01_re", "c01_im", "c10_re", "c10_im",
            "achieved", "outcome_probability",
        ),
        (),
    ),
    "continuous-limit": Experiment(
        lambda spec: run_continuous_limit_convergence(spec.limit_k, spec.limit_T, spec.limit_N),
        ("N", "gap"),
        ("limit_k", "limit_T", "limit_N"),
    ),
}


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return f"{x:.17g}"
    return str(x)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _file_stem(spec: ExperimentSpec) -> str:
    parts = []
    if spec.preset:
        parts.append(spec.preset)
    if spec.objective is not None:
        parts.append(spec.objective.value)
    return "-".join(parts) if parts else spec.name


def _recorded(spec: ExperimentSpec, fields: Sequence[str]) -> dict:
    """Manifest entries of ``fields``, keyed by field name (``cfg`` as ``coupling``)."""
    record = {}
    for name in fields:
        value = getattr(spec, name)
        if name == "cfg":
            record["coupling"] = {"g": value.g, "T": value.T, "N_total": value.N_total}
        else:
            record[name] = value.value if isinstance(value, Objective) else value
    return record


def run_experiment(
    spec: ExperimentSpec,
    out_dir: Path | str = DEFAULT_OUT,
) -> dict:
    """Execute one named study and persist CSV + manifest.

    Returns {"csv": Path, "manifest": Path}.  Layout is
    ``<out_dir>/<experiment>/<preset>-<objective>.csv`` (components dropped
    when not applicable) with ``manifest.json`` alongside.
    """
    experiment = EXPERIMENTS.get(spec.name)
    if experiment is None:
        raise DomainError(f"unknown experiment {spec.name!r}; choose from {tuple(EXPERIMENTS)}")
    for name in ("cfg", "objective"):
        if name in experiment.fields and getattr(spec, name) is None:
            raise DomainError(f"experiment {spec.name!r} requires field {name!r}")
    recorded = _recorded(spec, experiment.fields)
    for name, value in recorded.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise DomainError(f"field {name!r} must be finite, got {value!r}")
    directory = Path(out_dir) / spec.name
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / f"{_file_stem(spec)}.csv"

    started = time.perf_counter()
    _write_csv(csv_path, experiment.header, experiment.rows(spec))
    wall = time.perf_counter() - started

    manifest = {
        "experiment": spec.name,
        **recorded,
        "versions": {
            "complement_opt": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "wall_time_s": wall,
        "outputs": [csv_path.name],
    }
    manifest_path = directory / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return {"csv": csv_path, "manifest": manifest_path}
