"""Experiment harness: named studies, CSV emission and run manifests.

Each study returns its rows in CSV column order (the uniform sweep yields
them), so callers can post-process or plot them as they like and
``run_experiment`` streams them to disk as they come: the output directory is
created once the first row is computed, and the CSV appears under its name
only after its last row is written.  ``EXPERIMENTS`` registers every
named study with its CSV header; a study's parameters are the
:class:`ExperimentSpec` fields it reads.  ``run_experiment`` looks a spec up
there and persists one CSV plus a JSON manifest recording exactly those
fields, in parameter order, and the versions used.  Every
row is flat: each cell is an int, a float or a str, one type per column, and
a file is written with one %-format built from its first row's cell types.
A float cell has 17 significant digits (``_FLOAT``), so identical spec reruns
are byte-identical.  The manifest additionally records wall time and is
therefore excluded from that guarantee.
"""
from __future__ import annotations

import json
import math
import os
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from . import __version__
from .collisions import (
    CouplingConfig,
    continuous_limit_gap,
    distinguishability_ab,
    make_config,
    reservoir_limit_concurrence,
)
from .errors import ConfigError, check_count, check_real
from .measurement import (
    _complementarity_from_moduli,
    delta_d_pair,
    delta_d_total,
    one_angle_gamma,
    per_qubit_distinguishability,
    postselected_state,
    uniform_gamma,
)
from .optimize import Objective, curve, maximize, objective_value

PRESETS: dict[str, dict] = {
    "strong": {"g": 4.0, "T": 2.0 * math.pi, "N_total": 20},
    "weak": {"g": 0.25, "T": 2.0 * math.pi, "N_total": 20},
}

#: collision counts n tabulated by ``run_table_states``
TABLE_NS = (1, 2, 10)

DEFAULT_OUT = "results"

#: %-format of every float the CSVs hold: 17 significant digits round-trip a double
_FLOAT = "%.17g"


def preset_config(name: str) -> CouplingConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    return make_config(**PRESETS[name])


class ExperimentSpec(NamedTuple):
    """Declarative description of one study.

    ``preset`` is a label used for file naming and the manifest; ``cfg`` is
    the coupling actually used, and a manifest records ``preset`` whenever it
    records ``cfg``.  Each experiment reads only the fields its study names
    as parameters and ignores the rest, but ``run_experiment`` checks every
    field.  These defaults are the only ones: the studies take
    every argument explicitly, and the CLI leaves a field it was not given
    unset.
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


class CurveRecord(NamedTuple):
    """One optimized point of a quantity-vs-n study, in CSV column order.

    ``angles`` is one cell: the basis's 2n angles (theta_1, phi_1, ...,
    theta_n, phi_n), each written with ``_FLOAT``, joined by spaces.  Every
    optimum's basis is ((theta1, 0), (0, 0), ...) and ``_FLOAT % 0.0`` is
    ``0``, so the cell is built from theta1 and n alone (n >= 1)."""

    n: int
    V: float
    P: float
    C: float
    reservoir_C: float
    outcome_probability: float
    angles: str


def run_quantity_vs_n(
    cfg: CouplingConfig, objective: Objective, n_max: int, reservoir_k: float | None
) -> list[CurveRecord]:
    """Optimized complementarity triple for each n, with the many-probe
    exponential-decay concurrence as a companion column.

    The companion maps collision index to elapsed time t_n = n * dt and uses
    rate ``reservoir_k`` (None means the coupling's own k = g^2 T / N).
    """
    k = cfg.k if reservoir_k is None else reservoir_k
    rows = []
    for result in curve(cfg, objective, n_max):
        t = result.achieved
        reservoir_C = reservoir_limit_concurrence(k, result.n * cfg.dt)
        angles = _FLOAT % result.theta1 + " 0" + " 0 0" * (result.n - 1)
        rows.append(
            CurveRecord(result.n, t.V, t.P, t.C, reservoir_C, result.outcome_probability, angles)
        )
    return rows


def run_uniform_sweep(
    cfg: CouplingConfig, n_max: int, theta_steps: int, phi: float
) -> Iterator[tuple[int, float, float, float, float]]:
    """(n, theta, V, P, C) for a shared measurement angle theta on a grid of
    ``theta_steps`` intervals over [0, pi], n = 1..n_max, n-major.

    Every cell is filled, improbable records (theta near pi/2, n >= 2) too.
    A cell is one ``uniform_gamma`` call and the kernel's V, P, C from its
    squared moduli, the expression ``complementarity_after`` evaluates, so the
    same bits.  A generator: ``cfg.check_n(n_max)`` runs at the first row.
    """
    cfg.check_n(n_max)
    # theta_steps equal intervals; the last point is pi exactly, not theta_steps * step
    step = math.pi / theta_steps
    thetas = [i * step for i in range(theta_steps)] + [math.pi]
    for n in range(1, n_max + 1):
        for theta in thetas:
            g1, g2, g3, _ = uniform_gamma(cfg, theta, phi, n)
            v, p, c = _complementarity_from_moduli(abs(g1) ** 2, abs(g2) ** 2, abs(g3) ** 2)
            yield n, theta, v, p, c


def run_distinguishability_profile(cfg: CouplingConfig) -> list[tuple[int, float, float]]:
    """(i, information on probe i, pair information a^(2i)) for i = 1..N."""
    return [
        (i, per_qubit_distinguishability(cfg, i), distinguishability_ab(cfg, i))
        for i in range(1, cfg.N_total + 1)
    ]


def run_delta_d(
    cfg: CouplingConfig, objective: Objective, n_max: int
) -> list[tuple[int, float, float, float]]:
    """(n, optimized V, total information change, pair information change)."""
    rows = []
    for result in curve(cfg, objective, n_max):
        v = result.achieved.V
        rows.append((result.n, v, delta_d_total(v), delta_d_pair(cfg, result.n, v)))
    return rows


class TableStateRow(NamedTuple):
    """Post-selected pair state for one (objective, coupling, n) cell, in CSV
    column order: each amplitude is a real and an imaginary column, so c00 is
    ``complex(c00_re, c00_im)``."""

    objective: str
    preset: str
    n: int
    c00_re: float
    c00_im: float
    c01_re: float
    c01_im: float
    c10_re: float
    c10_im: float
    achieved: float
    outcome_probability: float


def _canonical_phase(c00: complex, c01: complex, c10: complex) -> tuple[complex, complex, complex]:
    """Fix the global phase: c10 real >= 0, or c00 where |c10| <= 1e-6, so
    solver dust cannot hijack the phase convention.  A normalized table state
    has c01 = a^n c10 with 0 < a <= 1, so where |c10| <= 1e-6 the norm sits in
    c00 and c00 is the reference."""
    ref = c10 if abs(c10) > 1e-6 else c00
    rot = ref.conjugate() / abs(ref)
    return c00 * rot, c01 * rot, c10 * rot


def run_table_states() -> list[TableStateRow]:
    """Optimized post-selected states for every (objective, preset, n) cell,
    n in ``TABLE_NS``, phase-canonicalized for comparison."""
    rows = []
    for objective in Objective:
        for preset in PRESETS:
            cfg = preset_config(preset)
            for n in TABLE_NS:
                result = maximize(cfg, n, objective)
                state = postselected_state(one_angle_gamma(cfg, result.theta1, n))
                c00, c01, c10 = _canonical_phase(state.c00, state.c01, state.c10)
                achieved = objective_value(result.achieved, objective)
                rows.append(TableStateRow(
                    objective.value, preset, n,
                    c00.real, c00.imag, c01.real, c01.imag, c10.real, c10.imag,
                    achieved, result.outcome_probability,
                ))
    return rows


def run_continuous_limit_convergence(
    limit_k: float, limit_T: float, limit_N: Iterable[int]
) -> list[tuple[int, float]]:
    """(N, |cos^N sqrt(kT/N) - exp(-kT/2)|) with k = ``limit_k`` and
    T = ``limit_T``, for each N of the schedule ``limit_N``."""
    return [(N, continuous_limit_gap(limit_k, limit_T, N)) for N in limit_N]


# ---------------------------------------------------------------------------
# registry and persistence

class Experiment(NamedTuple):
    """A named study and its CSV header.  The study's parameters are
    :class:`ExperimentSpec` field names: ``rows`` passes it those fields of a
    spec, and they are what its manifest records.  A study that reads ``cfg``
    or ``objective`` cannot run without it."""

    study: Callable[..., Iterable[tuple]]
    header: tuple[str, ...]

    @property
    def fields(self) -> tuple[str, ...]:
        """The study's parameter names, in order."""
        code = self.study.__code__
        return code.co_varnames[:code.co_argcount]

    def rows(self, spec: ExperimentSpec) -> Iterable[tuple]:
        """The study's rows, computed from the fields of ``spec`` it names."""
        return self.study(*[getattr(spec, name) for name in self.fields])


EXPERIMENTS: dict[str, Experiment] = {
    "quantity-vs-n": Experiment(run_quantity_vs_n, CurveRecord._fields),
    "uniform-sweep": Experiment(run_uniform_sweep, ("n", "theta", "V", "P", "C")),
    "distinguishability": Experiment(run_distinguishability_profile, ("i", "d_qa_qi", "d_qa_qb")),
    "delta-d": Experiment(run_delta_d, ("n", "V", "delta_d_total", "delta_d_pair")),
    "table": Experiment(run_table_states, TableStateRow._fields),
    "continuous-limit": Experiment(run_continuous_limit_convergence, ("N", "gap")),
}


#: %-format of a cell by its exact type; a study yields no other type
_CELL_FORMATS = {int: "%d", float: _FLOAT, str: "%s"}


@contextmanager
def _published(path: Path) -> Iterator[Path]:
    """A sibling ``<name>.part`` to write, renamed onto ``path`` when the block
    ends, or deleted, leaving ``path`` as it was, when the block raises."""
    partial = path.with_name(path.name + ".part")
    try:
        yield partial
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[tuple]) -> None:
    """Stream the CSV to disk row by row, in memory independent of its length.

    The directory is created once the first row is computed; rows go to a
    ``_published`` file, so a failure leaves ``path`` as it was.

    Every row is written with one %-format, built from the first row's cell
    types.  Each study yields one type per column, so the first row's types
    are every row's.
    """
    rows = iter(rows)
    first = next(rows, None)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _published(path) as partial, open(partial, "w", encoding="utf-8") as handle:
        handle.write(",".join(header) + "\n")
        if first is not None:
            row_format = ",".join([_CELL_FORMATS[type(x)] for x in first]) + "\n"
            handle.write(row_format % first)
            handle.writelines(map(row_format.__mod__, rows))


def _recorded(spec: ExperimentSpec, fields: Sequence[str]) -> dict:
    """Manifest entries of ``fields``, keyed by field name (``cfg`` as
    ``coupling``, preceded by its label ``preset``)."""
    record = {}
    for name in fields:
        value = getattr(spec, name)
        if name == "cfg":
            record["preset"] = spec.preset
            record["coupling"] = {"g": value.g, "T": value.T, "N_total": value.N_total}
        else:
            record[name] = value.value if isinstance(value, Objective) else value
    return record


def _checked(spec: ExperimentSpec) -> Experiment:
    """The registry entry of ``spec`` once every field of ``spec`` is in range,
    whether or not its study reads the field."""
    experiment = EXPERIMENTS.get(spec.name)
    if experiment is None:
        raise ConfigError(
            f"unknown experiment {spec.name!r}; choose from {', '.join(EXPERIMENTS)}"
        )
    preset = spec.preset
    if preset is not None and (
        not isinstance(preset, str) or preset in (".", "..") or any(c in preset for c in "/\\\0")
    ):
        raise ConfigError(f"field 'preset' takes one path component, got {preset!r}")
    for name, kind in (("cfg", CouplingConfig), ("objective", Objective)):
        value = getattr(spec, name)
        if value is None:
            if name in experiment.fields:
                hint = " (a preset or explicit g, T, N)" if name == "cfg" else ""
                raise ConfigError(f"experiment {spec.name!r} needs field {name!r}{hint}")
        elif not isinstance(value, kind):
            raise ConfigError(f"field {name!r} takes a {kind.__name__}, got {value!r}")
    check_count(spec.n_max, "field 'n_max'", ConfigError)
    check_count(spec.theta_steps, "field 'theta_steps'", ConfigError, 1)
    if not isinstance(spec.limit_N, Sequence) or not spec.limit_N:
        raise ConfigError(f"field 'limit_N' takes a non-empty sequence, got {spec.limit_N!r}")
    for N in spec.limit_N:
        # an N below 1 is left to continuous_limit_gap, a DomainError
        check_count(N, "field 'limit_N'", ConfigError, -math.inf)
    check_real(spec.phi, "field 'phi'")
    for name in ("reservoir_k", "limit_k", "limit_T"):
        value = getattr(spec, name)
        if value is not None:
            check_real(value, f"field {name!r}", 0.0)
    return experiment


def run_experiment(
    spec: ExperimentSpec,
    out_dir: Path | str = DEFAULT_OUT,
) -> dict:
    """Execute one named study and persist CSV + manifest.

    Every field is checked before anything is computed or written: a bad one
    raises :class:`ConfigError` (unknown experiment, missing field, a ``cfg``
    that is no :class:`CouplingConfig` or an ``objective`` no
    :class:`Objective`, a ``preset`` that is no str of one path component, a
    count that fails ``check_count``, a real field that is no int or float, a
    ``limit_N`` that is no sequence) or
    :class:`DomainError` (a non-finite real, a negative rate or time).  The
    errors the studies raise themselves (``n_max`` above ``N`` and the like)
    come with their first row at the latest, before the directory is created.
    The CSV, then the manifest, appears whole or not at all.  Returns
    {"csv": Path, "manifest": Path}.  Layout is
    ``<out_dir>/<experiment>/<preset>-<objective>.csv``, each component
    dropped when the study does not read it, with ``manifest.json`` alongside;
    a study that reads neither writes ``<experiment>.csv``.
    """
    experiment = _checked(spec)
    recorded = _recorded(spec, experiment.fields)
    directory = Path(out_dir) / spec.name
    stem = "-".join(filter(None, (recorded.get("preset"), recorded.get("objective")))) or spec.name
    csv_path = directory / f"{stem}.csv"

    started = time.perf_counter()
    _write_csv(csv_path, experiment.header, experiment.rows(spec))
    wall = time.perf_counter() - started

    manifest = {
        "experiment": spec.name,
        **recorded,
        "versions": {
            "complement_opt": __version__,
            "python": sys.version.split()[0],
        },
        "wall_time_s": wall,
        "outputs": [csv_path.name],
    }
    manifest_path = directory / "manifest.json"
    with _published(manifest_path) as partial:
        partial.write_text(json.dumps(manifest, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    return {"csv": csv_path, "manifest": manifest_path}
