"""Command line front door: list experiments, run one from a config file.

Exit codes: 0 when every enabled check passes, 2 when a check fails, 1 on
usage, config or numerical-setup errors.  Artifacts (``<experiment>.csv`` and
``summary.json``) land in the ``--out`` directory and are deterministic for
a fixed config.
"""

from __future__ import annotations

import json
import os

import click

from . import __version__


@click.group(name="kernel-lab", context_settings={"help_option_names": ["-h", "--help"]})
@click.version_option(version=__version__, prog_name="kernel-lab")
def cli() -> None:
    """Numerical experiments on semiclassical Bergman, spectral and heat kernels."""


@cli.command("list")
@click.option("--json", "as_json", is_flag=True, help="Emit a machine readable listing.")
def list_command(as_json: bool) -> int:
    """List the available experiments."""
    from .experiments import list_experiments

    pairs = list_experiments()
    if as_json:
        payload = {
            "experiments": [{"name": n, "description": d} for n, d in pairs]
        }
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    else:
        width = max(len(n) for n, _ in pairs)
        for name, description in pairs:
            click.echo(f"{name:<{width}}  {description}")
    return 0


@cli.command("run")
@click.option(
    "--config",
    "config_path",
    required=True,
    type=click.Path(dir_okay=False),
    help="Experiment config file (INI).",
)
@click.option(
    "--out",
    "out_dir",
    default=".",
    type=click.Path(file_okay=False),
    help="Directory for the CSV table and summary.json.",
)
@click.option(
    "--override",
    "overrides",
    multiple=True,
    metavar="SECTION.KEY=VALUE",
    help="Override a config value (repeatable).",
)
@click.option("--seed", type=int, default=None, help="Shorthand for --override run.seed=N.")
@click.option("--json", "as_json", is_flag=True, help="Print the summary JSON to stdout.")
def run_command(config_path, out_dir, overrides, seed, as_json) -> int:
    """Run one experiment and write its artifacts."""
    from .config import load_config
    from .experiments import run_experiment
    from .galerkin import GramConditioningError
    from .output import write_csv, write_json

    if seed is not None:
        overrides = (*overrides, f"run.seed={seed}")
    try:
        cfg = load_config(config_path, overrides)
        result = run_experiment(cfg)
    except GramConditioningError as err:
        raise click.ClickException(f"numerical failure: {err}")
    except ValueError as err:
        raise click.ClickException(str(err))

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, f"{result.name}.csv")
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
    write_json(os.path.join(out_dir, "summary.json"), summary)

    if as_json:
        click.echo(json.dumps(summary, indent=2, sort_keys=True))
    else:
        for c in result.checks:
            status = "PASS" if c.passed else "FAIL"
            click.echo(
                f"{status} {c.name}: {c.value:.6g} {c.comparator} {c.tolerance:g}"
            )
        for note in result.notes:
            click.echo(f"note: {note}")
        verdict = "PASS" if result.passed else "FAIL"
        click.echo(f"{verdict} {result.name} -> {csv_path}")
    return 0 if result.passed else 2


def main(argv=None) -> int:
    """Entry point mapping click control flow onto the documented exit codes."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.ClickException as err:
        err.show()
        return 1
    except click.Abort:
        click.echo("Aborted.", err=True)
        return 1
    return rv if isinstance(rv, int) else 0


if __name__ == "__main__":
    raise SystemExit(main())
