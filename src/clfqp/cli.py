"""Command-line interface: run benchmark suites, list registries, export
built-in robot spec files.

Exit codes: 0 success, 2 when any episode failed to converge, 1 internal
error, 64 usage error, 65 validation error.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import experiments, robots
from .controllers import CONTROLLER_NAMES
from .robots import ParseError, RobotSpecFile, ValidationError, builtin_registry, resolve_spec
from .sim import SIM_DEFAULTS, SimConfig

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_FAILED_CONVERGENCE = 2
EXIT_USAGE = 64
EXIT_VALIDATION = 65

SIM_KEYS = {key: type(default) for key, default in SIM_DEFAULTS.items()}
GAIN_KEYS = dict.fromkeys(robots.GAIN_DEFAULTS, float)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="clfqp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run a benchmark suite or single episode")
    runp.add_argument("--robot", required=True, help="built-in robot name or spec file path")
    runp.add_argument("--controller", required=True,
                      help=f"one of {', '.join(CONTROLLER_NAMES)}")
    runp.add_argument("--experiment", required=True,
                      choices=("setpoint", "tracking", "single"))
    runp.add_argument("--theta", type=float, default=None,
                      help="set-point angle in units of pi (single experiment)")
    runp.add_argument("--omega", type=float, default=None,
                      help="tracking rate in units of pi rad/s (single experiment)")
    runp.add_argument("--out", default="out", help="output directory")
    runp.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                      help="override sim.* or gains.* values, e.g. sim.dt_physics=5e-4")

    listp = sub.add_parser("list", help="list robots, controllers, or gains")
    listp.add_argument("what", choices=("robots", "controllers", "gains"))
    listp.add_argument("--robot", default=None)

    exp = sub.add_parser("export-spec", help="dump a built-in robot spec file")
    exp.add_argument("--robot", required=True)
    exp.add_argument("--out", default=None, help="output path (default <robot>.yaml)")
    return parser


def _parse_overrides(pairs) -> tuple[dict, dict]:
    sim_over, gain_over = {}, {}
    namespaces = {"sim": (SIM_KEYS, sim_over), "gains": (GAIN_KEYS, gain_over)}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValidationError(f"override {pair!r} is not KEY=VALUE")
        ns, _, name = key.partition(".")
        types, target = namespaces.get(ns, ({}, None))
        if name not in types:
            raise ValidationError(f"unknown override key {key!r}")
        try:
            target[name] = types[name](value)
        except ValueError as exc:
            raise ValidationError(f"override {key}: {exc}") from exc
    try:
        SimConfig(**sim_over)
    except ValueError as exc:
        # SimConfig's messages begin with the field they reject.
        keys = ", ".join(f"sim.{name}" for name in sim_over if str(exc).startswith(name))
        raise ValidationError(f"override {keys}: {exc}") from exc
    return sim_over, gain_over


def _apply_gain_overrides(spec: RobotSpecFile, controller: str, overrides: dict) -> RobotSpecFile:
    if not overrides:
        return spec
    data = dict(spec.data)
    gains = {k: dict(v) for k, v in (data.get("gains") or {}).items()}
    row = gains.setdefault(controller, {})
    row.update(overrides)
    data["gains"] = gains
    return dataclasses.replace(spec, data=data)


def _param_tag(kind: str, value: float) -> str:
    return f"{kind}{value / np.pi:g}pi"


def cmd_run(args) -> int:
    sim_over, gain_over = _parse_overrides(args.set)
    if args.controller not in CONTROLLER_NAMES:
        raise ValidationError(
            f"unknown controller {args.controller!r}; choose from {CONTROLLER_NAMES}")
    if args.experiment == "single":
        if (args.theta is None) == (args.omega is None):
            raise ValidationError("single experiment needs exactly one of --theta/--omega")
        kind = "theta" if args.theta is not None else "omega"
        params = ((args.theta if kind == "theta" else args.omega) * np.pi,)
    else:
        kind = "theta" if args.experiment == "setpoint" else "omega"
        params = experiments.THETA_GRID if kind == "theta" else experiments.OMEGA_GRID
    spec = _apply_gain_overrides(resolve_spec(args.robot), args.controller, gain_over)
    suite = experiments.setpoint_suite if kind == "theta" else experiments.tracking_suite
    summary, trajs = suite(spec, args.controller, params, sim_overrides=sim_over)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_paths = []
    for value, traj in zip(params, trajs):
        traj.metadata.update({f"override_{k}": v for k, v in sim_over.items()})
        traj.metadata.update({f"override_gains_{k}": v for k, v in gain_over.items()})
        name = f"{summary.robot}_{args.controller}_{args.experiment}_{_param_tag(kind, value)}.csv"
        path = out / name
        experiments.export_trajectory_csv(traj, path)
        csv_paths.append(path)
    summary_path = out / f"{summary.robot}_{args.controller}_{args.experiment}_summary.txt"
    experiments.export_summary([summary], summary_path)
    experiments.write_gnuplot_script(
        csv_paths, out / f"{summary.robot}_{args.controller}_{args.experiment}_plot.gp",
        title=f"{summary.robot} / {args.controller} / {args.experiment}")

    print(_table([summary]))
    print(f"wrote {len(csv_paths)} trajectory files and {summary_path}")
    return EXIT_FAILED_CONVERGENCE if summary.any_failed else EXIT_OK


def _table(summaries) -> str:
    rows = [("Robot", "Controller", "Experiment", "Result")]
    for s in summaries:
        rows.append((s.robot, s.controller, s.experiment, s.cell_text()))
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = []
    for i, r in enumerate(rows):
        lines.append("  ".join(c.ljust(widths[j]) for j, c in enumerate(r)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def cmd_list(args) -> int:
    if args.what == "robots":
        for name in sorted(builtin_registry()):
            print(name)
    elif args.what == "controllers":
        for name in CONTROLLER_NAMES:
            print(name)
    else:
        if not args.robot:
            raise ValidationError("list gains requires --robot")
        _, gains = resolve_spec(args.robot).load()
        for ctrl in CONTROLLER_NAMES:
            values = dataclasses.asdict(gains[ctrl]).items()
            print(f"{ctrl}: " + " ".join(f"{key}={value:g}" for key, value in values))
    return EXIT_OK


def cmd_export_spec(args) -> int:
    spec = resolve_spec(args.robot)
    out = Path(args.out) if args.out else Path(f"{spec.name}.yaml")
    out.write_text(spec.text, encoding="utf-8")
    print(f"wrote {out}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "list":
            return cmd_list(args)
        return cmd_export_spec(args)
    except (ParseError, ValidationError, KeyError) as exc:
        # str() of a KeyError is the repr of its message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"validation error: {message}", file=sys.stderr)
        return EXIT_VALIDATION
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
