"""Command-line front end.

Thin dispatch layer: ``FIELDS`` defines every ``run`` field once, and both the
flags and the keys of a flat key=value config file are generated from it.
The CLI only turns text into objects (an :class:`ExperimentSpec`, or the
arguments of ``run_verification``); the library checks every value.  ``main``
maps the library's error types to exit codes, once for both subcommands: 2 for
:class:`ConfigError`, 3 for the numeric domain errors.  No numerics live here.
"""
from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .errors import ConfigError, DomainError, NormalizationError, RangeError
from .experiments import (
    DEFAULT_OUT,
    EXPERIMENTS,
    PRESETS,
    ExperimentSpec,
    preset_config,
    run_experiment,
)
from .collisions import make_config
from .optimize import Objective
from .verify import run_verification


_OBJECTIVES = {o.value: o for o in Objective}


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(",") if x.strip())


#: run field -> (parser of its text, help).  Each field is both a flag
#: (underscores become dashes) and a config-file key; defaults live on
#: ExperimentSpec, and a field left unset keeps that default.
FIELDS = {
    "experiment": (str, f"study to run: {', '.join(EXPERIMENTS)}"),
    "preset": (str, f"named coupling: {' or '.join(PRESETS)}"),
    "g": (float, "coupling strength"),
    "T": (float, "total interaction time"),
    "N": (int, "number of probe qubits"),
    "objective": (str, f"quantity to maximize: {', '.join(_OBJECTIVES)}"),
    "n_max": (int, "largest collision count n"),
    "out": (str, f"output directory (default: {DEFAULT_OUT})"),
    "theta_steps": (int, "intervals of the shared-basis theta grid over [0, pi]"),
    "phi": (float, "azimuth of the shared basis"),
    "reservoir_k": (float, "decay rate of the reservoir column (default: g^2 T / N)"),
    "limit_k": (float, "rate k of the exp(-kT/2) limit"),
    "limit_T": (float, "time T of the exp(-kT/2) limit"),
    "limit_N": (_int_list, "comma-separated N schedule approaching that limit"),
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
        if key not in FIELDS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = FIELDS[key][0](value.strip())
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _run_values(args: argparse.Namespace) -> dict:
    """The set fields: the config file's, overridden by the flags given."""
    values = _parse_config_file(Path(args.config)) if args.config is not None else {}
    values.update(
        (key, getattr(args, key)) for key in FIELDS if getattr(args, key) is not None
    )
    return values


def _spec(values: dict) -> ExperimentSpec:
    """The ExperimentSpec of the run fields (``out`` is not part of it); the
    library checks the values when the spec runs."""
    fields = {key: value for key, value in values.items() if key != "out"}
    coupling = [fields.pop(key, None) for key in ("g", "T", "N")]
    if None in coupling and coupling != [None, None, None]:
        raise ConfigError("fields 'g', 'T', 'N' must be given together")
    if fields.get("preset") is not None and coupling != [None, None, None]:
        raise ConfigError("give either field 'preset' or fields 'g', 'T', 'N', not both")
    if fields.get("preset") is not None:
        fields["cfg"] = preset_config(fields["preset"])
    elif None not in coupling:
        fields["cfg"] = make_config(*coupling)
        fields["preset"] = "custom"
    if "objective" in fields:
        if fields["objective"] not in _OBJECTIVES:
            raise ConfigError(
                f"field 'objective': unknown objective {fields['objective']!r}; "
                f"choose from {sorted(_OBJECTIVES)}"
            )
        fields["objective"] = _OBJECTIVES[fields["objective"]]
    return ExperimentSpec(name=fields.pop("experiment", ""), **fields)


def _cmd_run(args: argparse.Namespace) -> int:
    values = _run_values(args)
    paths = run_experiment(_spec(values), out_dir=values.get("out", DEFAULT_OUT))
    print(f"wrote {paths['csv']}")
    print(f"wrote {paths['manifest']}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # flags left out are absent from args, so run_verification's defaults apply
    results = run_verification(
        **{key: getattr(args, key) for key in ("samples", "seed", "perturb") if key in args}
    )
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
    return 0 if all(r.passed for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Keeps an option value ``--`` (``--out=--``), which Python 3.11 turns into ``[]``."""

    def _get_values(self, action, arg_strings):
        if action.option_strings and arg_strings == ["--"]:
            return self._get_value(action, "--")
        return super()._get_values(action, arg_strings)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared: building it costs
    more than a small run, so callers must not modify it."""
    parser = _Parser(
        prog="complement-opt",
        description=(
            "Collision-model entanglement studies: optimize probe measurement "
            "bases and tabulate complementarity quantities."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one experiment and write CSV + manifest")
    run.add_argument("--config", help="flat key=value config file; flags override it")
    for key, (parse, text) in FIELDS.items():
        run.add_argument(f"--{key.replace('_', '-')}", dest=key, type=parse, help=text)
    run.set_defaults(func=_cmd_run)

    verify = sub.add_parser(
        "verify", help="run the built-in invariant suite", argument_default=argparse.SUPPRESS
    )
    verify.add_argument("--samples", type=int, help="random cases per sampled check")
    verify.add_argument("--seed", type=int, help="seed of the random cases")
    verify.add_argument(
        "--perturb",
        action="store_true",
        help="inject a sign fault into the closure check (negative control)",
    )
    verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, RangeError, NormalizationError) as exc:
        print(f"numeric domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
