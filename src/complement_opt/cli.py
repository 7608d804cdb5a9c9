"""Command-line front end.

Thin dispatch layer: parses a flat key=value config file and/or flags into a
validated :class:`RunConfig`, hands off to the experiments module, and maps
error classes to exit codes (2 for configuration problems, 3 for numeric
domain errors raised by the physics layer).  No numerics live here.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path

from .errors import (
    DegenerateOutcomeError,
    DomainError,
    NormalizationError,
    RangeError,
)
from .experiments import EXPERIMENTS, PRESETS, ExperimentSpec, preset_config, run_experiment
from .collisions import make_config
from .optimize import Objective
from .verify import run_verification


class ConfigError(ValueError):
    """Invalid run configuration (unknown key, bad value, missing field)."""


_OBJECTIVES = {o.value: o for o in Objective}


@dataclass
class RunConfig:
    """Validated description of one CLI run."""

    experiment: str = ""
    preset: str | None = None
    g: float | None = None
    T: float | None = None
    N: int | None = None
    objective: str | None = None
    n_max: int = 20
    out: str = "results"
    theta_steps: int = 60
    phi: float = 0.0
    reservoir_k: float | None = None
    limit_k: float = 3.0
    limit_T: float = 1.0
    limit_N: str = "64,128,256,512,1024,2048,4096"


_PARSERS = {
    "experiment": str,
    "preset": str,
    "g": float,
    "T": float,
    "N": int,
    "objective": str,
    "n_max": int,
    "out": str,
    "theta_steps": int,
    "phi": float,
    "reservoir_k": float,
    "limit_k": float,
    "limit_T": float,
    "limit_N": str,
}


def _parse_config_file(path: Path) -> dict:
    if not path.exists():
        raise ConfigError(f"config file {path} does not exist")
    values: dict = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _build_run_config(args: argparse.Namespace) -> RunConfig:
    values: dict = {}
    if args.config is not None:
        values.update(_parse_config_file(Path(args.config)))
    for key in _PARSERS:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    cfg = RunConfig(**values)
    _validate(cfg)
    return cfg


def _validate(cfg: RunConfig) -> None:
    if not cfg.experiment:
        raise ConfigError("field 'experiment' is required")
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"field 'experiment': unknown experiment {cfg.experiment!r}; "
            f"choose from {', '.join(EXPERIMENTS)}"
        )
    if cfg.preset is not None and cfg.preset not in PRESETS:
        raise ConfigError(
            f"field 'preset': unknown preset {cfg.preset!r}; choose from {sorted(PRESETS)}"
        )
    explicit = [cfg.g is not None, cfg.T is not None, cfg.N is not None]
    if any(explicit) and not all(explicit):
        raise ConfigError("fields 'g', 'T', 'N' must be given together")
    needs_cfg = cfg.experiment in (
        "quantity-vs-n", "uniform-sweep", "distinguishability", "delta-d"
    )
    if needs_cfg and cfg.preset is None and not all(explicit):
        raise ConfigError(
            f"experiment {cfg.experiment!r} needs field 'preset' or explicit 'g', 'T', 'N'"
        )
    if cfg.objective is not None and cfg.objective not in _OBJECTIVES:
        raise ConfigError(
            f"field 'objective': unknown objective {cfg.objective!r}; "
            f"choose from {sorted(_OBJECTIVES)}"
        )
    if cfg.experiment in ("quantity-vs-n", "delta-d") and cfg.objective is None:
        raise ConfigError(f"experiment {cfg.experiment!r} needs field 'objective'")
    if cfg.n_max < 0:
        raise ConfigError(f"field 'n_max' must be >= 0, got {cfg.n_max}")
    if cfg.theta_steps < 1:
        raise ConfigError(f"field 'theta_steps' must be >= 1, got {cfg.theta_steps}")
    try:
        parsed = [int(x) for x in cfg.limit_N.split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"field 'limit_N': {exc}") from exc
    if not parsed:
        raise ConfigError("field 'limit_N' must list at least one N")


def _to_spec(cfg: RunConfig) -> ExperimentSpec:
    coupling = None
    preset_label = cfg.preset
    if cfg.preset is not None:
        coupling = preset_config(cfg.preset)
    elif cfg.g is not None:
        coupling = make_config(cfg.g, cfg.T, cfg.N)
        preset_label = "custom"
    objective = _OBJECTIVES[cfg.objective] if cfg.objective else None
    return ExperimentSpec(
        name=cfg.experiment,
        cfg=coupling,
        preset=preset_label,
        objective=objective,
        n_max=cfg.n_max,
        theta_steps=cfg.theta_steps,
        phi=cfg.phi,
        reservoir_k=cfg.reservoir_k,
        limit_k=cfg.limit_k,
        limit_T=cfg.limit_T,
        limit_N=tuple(int(x) for x in cfg.limit_N.split(",") if x.strip()),
    )


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        run_cfg = _build_run_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    try:
        spec = _to_spec(run_cfg)
        paths = run_experiment(spec, out_dir=run_cfg.out)
    except (DomainError, RangeError, NormalizationError, DegenerateOutcomeError) as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {paths['csv']}")
    print(f"wrote {paths['manifest']}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification(
        samples=args.samples, seed=args.seed, perturb=args.perturb
    )
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="complement-opt",
        description=(
            "Collision-model entanglement studies: optimize probe measurement "
            "bases and tabulate complementarity quantities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one experiment and write CSV + manifest")
    run.add_argument("--config", help="flat key=value config file; flags override it")
    run.add_argument("--experiment", choices=EXPERIMENTS)
    run.add_argument("--preset", help="named coupling: strong or weak")
    run.add_argument("--g", type=float, help="coupling strength")
    run.add_argument("--T", type=float, help="total interaction time")
    run.add_argument("--N", type=int, help="number of probe qubits")
    run.add_argument("--objective", help="visibility, predictability or concurrence")
    run.add_argument("--n-max", dest="n_max", type=int)
    run.add_argument("--out", help="output directory (default: results)")
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser("verify", help="run the built-in invariant suite")
    verify.add_argument("--samples", type=int, default=500)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument(
        "--perturb",
        action="store_true",
        help="inject a sign fault into the closure check (negative control)",
    )
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
