"""Run one workload in this process and write what it measured as JSON.

Started by ``bench/run.py`` in a fresh interpreter with
``KERNEL_LAB_THREADS=1`` in its environment, so the package caps the BLAS
pools at one thread before numpy loads.  Untraced passes run until
``--seconds`` would be exceeded, and at least three, so that every item's
output is compared with the first pass and the median is taken over three
or more passes.  With ``--trace 1`` two traced passes follow; their spans
stay in memory until the end and are then written to ``spans.jsonl.gz``
in ``--out``.

The host is shared, and how fast it runs the same code drifts by up to a
half over minutes, which no run length averages away.  So the untraced
passes time the workload's machine probe (``bench/workloads.py``) before
every item and once after the last pass.  A pass's slowdown is the mean of
the probe times around its items (those before each item and the one after
its last) over the probe's quiet-machine time, and the pass's adjusted
time is its wall time divided by that slowdown.  ``wall_s`` is the median
adjusted pass time: seconds at the quiet machine's speed.  The median raw
pass time is kept as ``raw_wall_s``, and every probe time as
``probe_times_s``.  The probes run in this process, so a change to how the
package sizes the BLAS thread pool moves the dense probe as well; judge
such a change on ``raw_wall_s``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

THREAD_VARS = (
    "KERNEL_LAB_THREADS",
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
MIN_PASSES = 3
TRACED_PASSES = 2
# The self times of all spans must cover the traced pass to this share.
COVERAGE_TOLERANCE = 0.10


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def run_pass(items, reference: dict[str, bytes], machine_probe=None) -> tuple[list[float], int, list[float]]:
    """One pass over the items.

    Returns the wall seconds of each item, the number of failed items, and
    the times of ``machine_probe``, run before each item when given.
    """
    times = []
    probes = []
    failed = 0
    for item in items:
        if machine_probe is not None:
            probes.append(timed(machine_probe))
        start = time.perf_counter()
        try:
            produced = item.run()
        except Exception:  # an item that raises is a failed item, never fatal
            traceback.print_exc(file=sys.stderr)
            produced = None
        if produced is None:
            failed += 1
        elif reference.setdefault(item.name, produced) != produced:
            print(f"{item.name}: output differs from the first pass", file=sys.stderr)
            failed += 1
        times.append(time.perf_counter() - start)
    return times, failed, probes


def machine_record(workload: str, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def traced_passes(items, reference: dict[str, bytes], workload: str, out_dir: str) -> tuple[dict, int, str | None]:
    """Traced passes: (per-layer metrics, failed items, self-test error or None)."""
    import tracing

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    failed = 0
    try:
        for _ in range(TRACED_PASSES):
            times, bad, _ = run_pass(items, reference)
            tracer.end_pass(sum(times))
            failed += bad
    finally:
        uninstall()

    per_pass = [tracing.layer_metrics(record) for record in tracer.passes]
    error = None
    counts = [record["counts"] for record in tracer.passes]
    if any(c != counts[0] for c in counts):
        error = f"counts differ between traced passes: {counts}"
    for i, record in enumerate(tracer.passes):
        covered = tracing.accounted_time(record)
        if abs(covered - record["wall"]) > COVERAGE_TOLERANCE * record["wall"]:
            error = f"traced pass {i}: spans cover {covered:.3f} s of {record['wall']:.3f} s"
    # Counts are equal across passes (checked above), so their median is exact.
    metrics = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    metrics["trace.wall_s"] = statistics.median(r["wall"] for r in tracer.passes)

    with gzip.open(os.path.join(out_dir, "spans.jsonl.gz"), "wt", compresslevel=1) as fh:
        offset = 0
        for number, record in enumerate(tracer.passes):
            for name, start, end, parent, _ in record["spans"]:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent + offset if parent >= 0 else None,
                            "workload": workload,
                            "pass": number,
                        }
                    )
                    + "\n"
                )
            offset += len(record["spans"])
    return metrics, failed, error


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    os.environ.setdefault("KERNEL_LAB_THREADS", "1")
    sys.path.insert(0, SRC)
    import kernel_lab

    if not os.path.abspath(kernel_lab.__file__).startswith(SRC + os.sep):
        print(f"kernel_lab imported from {kernel_lab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import PROBE_QUIET_S, WORKLOADS

    workload = WORKLOADS[args.workload]
    items_dir = os.path.join(args.out, "items")
    items = workload.make_items(ROOT, args.seed, items_dir)
    reference: dict[str, bytes] = {}

    item_times: list[list[float]] = []
    probe_times: list[list[float]] = []
    failed = 0
    start = time.perf_counter()
    while True:
        times, bad, probes = run_pass(items, reference, workload.probe)
        item_times.append(times)
        probe_times.append(probes)
        failed += bad
        elapsed = time.perf_counter() - start
        if len(item_times) >= MIN_PASSES and elapsed + sum(times) + sum(probes) > args.seconds:
            break
    closing_probe = timed(workload.probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passes = len(item_times)

    adjusted = []
    for i, times in enumerate(item_times):
        after = probe_times[i + 1][0] if i + 1 < passes else closing_probe
        slowdown = statistics.mean(probe_times[i] + [after]) / PROBE_QUIET_S
        adjusted.append(sum(times) / slowdown)

    result = {
        "machine": machine_record(args.workload, args.seed),
        "why": workload.why,
        "predicted_unchanged": list(workload.unchanged),
        "item_times_s": {item.name: [t[i] for t in item_times] for i, item in enumerate(items)},
        "probe_times_s": probe_times + [[closing_probe]],
        "raw_wall_s": statistics.median(sum(times) for times in item_times),
        "wall_s": statistics.median(adjusted),
        "peak_rss_mb": peak_rss_mb,
        "self_test_error": None,
    }
    if args.trace:
        layers, bad, error = traced_passes(items, reference, args.workload, args.out)
        failed += bad
        passes += TRACED_PASSES
        layers["trace.overhead_s"] = layers["trace.wall_s"] - result["raw_wall_s"]
        result["layers"] = layers
        result["self_test_error"] = error
    result["attempted"] = passes * len(items)
    result["failed"] = failed
    result["correct"] = failed == 0 and result["self_test_error"] is None

    with open(os.path.join(args.out, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
