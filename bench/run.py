"""Benchmark of kernel-lab: workloads, end-to-end metrics and a per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload cli-solve --seed 0 --seconds 50 --trace 0

Workloads (defined, with the reason for each, in ``bench/workloads.py``):

* ``cli-solve``: ``kernel-lab run`` on converge-cubic, converge-quadratic,
  gap-cubic, heat-quadratic and vanish-mismatched, in-process through
  ``kernel_lab.cli.main``.  Dense Galerkin builds dominate.
* ``cli-oracle``: ``kernel-lab run`` on model, torus-flat and torus-wavy.
  Closed-form model oracles dominate; no Galerkin solve runs.
* ``api-sweep``: the Python API on a 15x15 grid of radius 1.5: a vanishing
  sweep over thresholds, the heat-route comparison and the Hodge residual.
  It is not listed in ``BENCHMARK.json``, so no change is gated on it: its
  passes take about 11 s and a run needs three, and with 50-s runs a third
  gated workload would take the whole benchmark (4 + 22 runs per workload)
  past an hour on a 2-vCPU host.  Its rescaled ``wall_s`` is as steady as
  the others' (6% interquartile range over median, five seeds of 50 s
  there).  Run it by hand, mostly for its trace: it is the only workload
  that reaches the Hodge residual, and 10 of its 23 builds repeat an
  earlier system.

Each workload runs in its own fresh interpreter with ``KERNEL_LAB_THREADS=1``
as a closed loop with one caller.  The seed goes to the package as
``--seed`` (CLI workloads) and as the Hodge sample seed (``api-sweep``).

With ``--trace 0`` the last line of standard output reports the end-to-end
metrics declared in ``BENCHMARK.json``:

* ``wall_s``: median wall time of one pass over the workload's items,
  imports excluded, each pass rescaled to the speed of a quiet machine by a
  probe of the same kind of work timed between its items (see
  ``bench/worker.py``; the unscaled median is ``raw_wall_s`` in
  ``result.json``).  Over ten 50-s runs on a shared 2-vCPU host, the
  interquartile range of the unscaled median was 25% (cli-oracle) and 12%
  (cli-solve) of its median, and that of the rescaled one 6% and 5%;
* ``setup_s``: median, over several fresh interpreters, of the time to
  import ``kernel_lab``, ``kernel_lab.cli`` and ``kernel_lab.experiments``,
  each rescaled the same way by the scalar probe run in that interpreter
  right after the imports (the seconds of both, per interpreter, are
  ``setup_samples_s`` in ``result.json``);
* ``peak_rss_mb``: peak resident memory of the workload's process;
* ``pass_share``: items that passed every check divided by items attempted,
  i.e. 1 - fail_share, reported this way round so that the metric is never
  0 (``attempted`` and ``failed`` in the same line give the base).

An item fails when it raises, exits non-zero, fails a check, or produces
output that differs by one byte from its output in the first pass.  With
``--trace 1`` the line reports the declared per-layer metrics of two traced passes
instead (see ``bench/tracing.py``), and the benchmark tests itself: the two
traced passes must give identical counts and the spans' self times must
cover each traced pass to within 10%.

Everything a run measures, with the machine it ran on, is also written to
``.bench_out/<workload>-seed<seed>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

sys.path.insert(0, BENCH)
from workloads import PROBE_QUIET_S, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 9
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import kernel_lab, kernel_lab.cli, kernel_lab.experiments\n"
    "took = time.perf_counter() - t\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from workloads import scalar_probe\n"
    "t = time.perf_counter()\n"
    "scalar_probe()\n"
    "print(took, time.perf_counter() - t)\n"
)
# Every run must end within 180 s; leave room to report.
RUN_BUDGET_S = 170.0


def worker_env() -> dict[str, str]:
    """Environment of every interpreter the benchmark starts.

    Inherited BLAS thread caps are dropped so that the package's own
    KERNEL_LAB_THREADS handling sets them, as it does for a user.
    """
    env = {
        k: v
        for k, v in os.environ.items()
        if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
    }
    env["KERNEL_LAB_THREADS"] = "1"
    env["PYTHONPATH"] = SRC
    return env


def import_seconds(env: dict[str, str], timeout: float) -> tuple[float, float]:
    """(import seconds, scalar probe seconds) in one fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, BENCH],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=True,
    )
    took, probe = done.stdout.split()
    return float(took), float(probe)


def missing_inputs(workload: str) -> list[str]:
    needed = [os.path.join(SRC, "kernel_lab", "__init__.py")]
    if workload.startswith("cli-"):
        needed.append(os.path.join(ROOT, "configs"))
    return [p for p in needed if not os.path.exists(p)]


def main() -> int:
    parser = argparse.ArgumentParser(description="kernel-lab benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    missing = missing_inputs(args.workload)
    if missing:
        print(f"benchmark inputs missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    out_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    env = worker_env()

    def remaining() -> float:
        return RUN_BUDGET_S - (time.perf_counter() - started)

    try:
        setup = [] if args.trace else [import_seconds(env, remaining()) for _ in range(SETUP_SAMPLES)]
        command = [
            sys.executable,
            os.path.join(BENCH, "worker.py"),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--out", out_dir,
        ]
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, timeout=remaining())
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_BUDGET_S:.0f} s", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as err:
        print(f"import probe failed:\n{err.stderr}", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"workload process exited with {done.returncode}", file=sys.stderr)
        return 1
    with open(os.path.join(out_dir, "worker.json"), encoding="utf-8") as fh:
        worker = json.load(fh)
    shutil.rmtree(os.path.join(out_dir, "items"), ignore_errors=True)

    if args.trace:
        values = worker["layers"]
    else:
        values = {
            "wall_s": worker["wall_s"],
            "setup_s": statistics.median(took * PROBE_QUIET_S / probe for took, probe in setup),
            "peak_rss_mb": worker["peak_rss_mb"],
            "pass_share": (worker["attempted"] - worker["failed"]) / worker["attempted"],
        }
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    if worker["self_test_error"]:
        print(f"benchmark self-test failed: {worker['self_test_error']}", file=sys.stderr)
    line = {
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    record = dict(worker, setup_samples_s=setup, result=line)
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps({"machine": worker["machine"]}, sort_keys=True))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
