"""Command line front door: list experiments, run one from a config file.

Exit codes: 0 when every enabled check passes (and for ``-h``/``--help`` and
``--version``), 2 when a check fails (a check the run's data cannot decide
fails, and prints as ``n/a``), 1 on usage, config, path or numerical-setup
errors.  Usage errors that argparse reports (an unknown option, a missing
``--config``, a ``--seed`` that is not an integer) exit 1, not argparse's
own 2, so 2 always means a failed check.  Artifacts
(``<experiment>.csv`` and ``summary.json``) land in the ``--out`` directory
and are deterministic for a fixed config.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    # the parser and its run subparser, built once per process; --override defaults to None, so
    # no list carries over between calls.  main checks --config after parsing (the usage still
    # shows it required), because argparse reports a missing required option before unknown ones
    parser = argparse.ArgumentParser(
        prog="kernel-lab",
        description="Numerical experiments on semiclassical Bergman, spectral and heat kernels.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    listing = commands.add_parser("list", help="List the available experiments.")
    listing.add_argument("--json", action="store_true", help="Emit a machine readable listing.")
    usage = "%(prog)s [-h] --config PATH [--out DIR] [--override SECTION.KEY=VALUE] [--seed N] [--json]"
    run = commands.add_parser("run", help="Run one experiment and write its artifacts.", usage=usage)
    run.add_argument("--config", metavar="PATH", help="Experiment config (INI); required.")
    run.add_argument("--out", default=".", metavar="DIR", help="Directory for the artifacts.")
    run.add_argument(
        "--override", action="append", metavar="SECTION.KEY=VALUE",
        help="Override a config value (repeatable).",
    )
    run.add_argument("--seed", type=int, metavar="N", help="Shorthand for --override run.seed=N.")
    run.add_argument("--json", action="store_true", help="Print the summary JSON to stdout.")
    return parser, run


def _list(as_json: bool) -> int:
    from .experiments import list_experiments

    pairs = list_experiments()
    if as_json:
        payload = {"experiments": [{"name": n, "description": d} for n, d in pairs]}
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        width = max(len(n) for n, _ in pairs)
        for name, description in pairs:
            print(f"{name:<{width}}  {description}")
    return 0


def _check_out_dir(out_dir: str) -> None:
    """Refuse an ``--out`` that cannot become a directory, before anything runs."""
    head = os.path.abspath(out_dir)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not os.path.isdir(head):
        raise NotADirectoryError(f"--out {out_dir}: {head} is not a directory")


def _run(args: argparse.Namespace) -> int:
    from .config import load_config
    from .experiments import run_experiment
    from .output import write_csv, write_json

    overrides = args.override or []
    if args.seed is not None:
        overrides = [*overrides, f"run.seed={args.seed}"]
    # ConfigError and GramConditioningError are ValueErrors
    try:
        _check_out_dir(args.out)
        cfg = load_config(args.config, overrides)
        result = run_experiment(cfg)
        os.makedirs(args.out, exist_ok=True)
        csv_path = os.path.join(args.out, f"{result.name}.csv")
        write_csv(csv_path, list(result.columns), result.rows)
        summary = {
            "tool": "kernel-lab",
            "version": __version__,
            "experiment": result.name,
            "config": cfg.echo(),
            "checks": [c.as_dict() for c in result.checks],
            "passed": result.passed,
            "notes": list(result.notes),
            "rows": len(result.rows),
            "csv": os.path.basename(csv_path),
        }
        write_json(os.path.join(args.out, "summary.json"), summary)
    except (ValueError, OSError) as err:
        print(f"Error: {err}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for c in result.checks:
            status = "PASS" if c.passed else "FAIL"
            value = "n/a" if c.value is None else f"{c.value:.6g}"
            print(f"{status} {c.name}: {value} {c.comparator} {c.tolerance:g}")
        for note in result.notes:
            print(f"note: {note}")
        verdict = "PASS" if result.passed else "FAIL"
        print(f"{verdict} {result.name} -> {csv_path}")
    return 0 if result.passed else 2


def main(argv=None) -> int:
    """Run ``kernel-lab`` on ``argv`` (default ``sys.argv[1:]``); returns the exit code."""
    parser, run = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "run" and args.config is None:
            run.error("the following arguments are required: --config")
    except SystemExit as stop:
        # help and --version stop with 0, argparse's usage errors with 2
        return 0 if stop.code == 0 else 1
    return _list(args.json) if args.command == "list" else _run(args)


if __name__ == "__main__":
    raise SystemExit(main())
