"""The three benchmark workloads, their items and their correctness checks.

A workload is a fixed list of items run one after another by a single
caller (a closed loop with one client; nothing runs concurrently).  One run
of every item is a pass.  An item returns the bytes it produced; the pass
loop compares them with the same item's bytes from the first pass, so any
nondeterminism counts as a failure.  An item fails by raising.

Each workload records why it was chosen and which layers a change should
leave alone on it: a change aimed at one of those layers is predicted to
move nothing here, which makes the workload the control for that change.

Each workload also names a machine probe: fixed work of the same kind as
what dominates the workload (scalar numpy calls on tiny arrays, or dense
BLAS/LAPACK), written here and sharing no code with the package.  The pass
loop times it before every item to measure how fast the shared host runs
that kind of work at the moment (see ``bench/worker.py``).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Callable


class CheckFailed(Exception):
    """An item ran but its output failed a check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Item:
    name: str
    run: Callable[[], bytes]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unchanged: tuple[str, ...]
    make_items: Callable[[str, int, str], list[Item]]
    probe: Callable[[], object]


def _floats(values) -> str:
    return ",".join(float(v).hex() for v in values)


# ---------------------------------------------------------------------------
# Machine probes.  Their inputs are fixed, so their work never changes.

# Seconds each probe takes on a quiet machine: the fastest tenth of 40 runs on
# a 2-vCPU Xeon 2.1 GHz KVM guest (Python 3.11.7, numpy 2.4.6, OpenBLAS
# 0.3.31, one BLAS thread); both probes are sized to take about this long.
PROBE_QUIET_S = 0.11


def scalar_probe() -> complex:
    """10,000 closed-form evaluations on 2-vectors, one numpy call at a time."""
    import numpy as np

    lam = np.array([1.0, 0.5])
    first = np.arange(2) < 1
    total = 0j
    for i in range(10000):
        z = np.array([complex(math.cos(i), math.sin(0.5 * i)), complex(0.1 * i % 1.0, 0.3)])
        mono = np.prod(np.where(first, np.conj(z), z) ** np.asarray((i % 3, 1)))
        total += complex(math.sqrt(float(np.prod(lam))) * mono * np.exp(-(lam * np.abs(z) ** 2).sum()))
    return total


def dense_probe() -> float:
    """Eight Gram products of a 1936 x 400 matrix, each with a dense eigensolve."""
    import numpy as np
    import scipy.linalg

    basis = np.random.default_rng(0).standard_normal((1936, 400))
    low = 0.0
    for _ in range(8):
        low += scipy.linalg.eigh(basis.T @ basis, eigvals_only=True)[0]
    return low


# ---------------------------------------------------------------------------
# CLI workloads: `kernel-lab run` called in-process through kernel_lab.cli.main


def _cli_item(root: str, config: str, seed: int, out_dir: str) -> Item:
    # The CLI imports these on first use; load them now so that no pass pays
    # for imports (setup_s measures them).
    import kernel_lab.cli
    import kernel_lab.config  # noqa: F401
    import kernel_lab.experiments  # noqa: F401
    import kernel_lab.output  # noqa: F401

    config_path = os.path.join(root, "configs", f"{config}.ini")
    item_dir = os.path.join(out_dir, config)
    os.makedirs(item_dir, exist_ok=True)
    argv = ["run", "--config", config_path, "--out", item_dir, "--seed", str(seed)]

    def run() -> bytes:
        for name in os.listdir(item_dir):
            os.unlink(os.path.join(item_dir, name))
        code = kernel_lab.cli.main(argv)
        _require(code == 0, f"{config}: exit code {code}")
        with open(os.path.join(item_dir, "summary.json"), "rb") as fh:
            summary = fh.read()
        parsed = json.loads(summary)
        _require(parsed.get("passed") is True, f"{config}: summary.json reports passed != true")
        with open(os.path.join(item_dir, parsed["csv"]), "rb") as fh:
            table = fh.read()
        return summary + b"\0" + table

    return Item(config, run)


def _cli_items(configs: tuple[str, ...]) -> Callable[[str, int, str], list[Item]]:
    def make(root: str, seed: int, out_dir: str) -> list[Item]:
        return [_cli_item(root, c, seed, out_dir) for c in configs]

    return make


# ---------------------------------------------------------------------------
# api-sweep: the Python API swept the way a researcher scans thresholds


def _api_sweep_items(root: str, seed: int, out_dir: str) -> list[Item]:
    import numpy as np

    from kernel_lab import (
        CkRule,
        ModelSpectrum,
        WeightFamily,
        WeightPolynomial,
        kernel_grid,
        real_term,
    )

    grid = kernel_grid(15, 1.5)
    quadratic = WeightPolynomial.quadratic([1.0])
    cubic = WeightFamily(base=quadratic + real_term(1, (3,), (0,), 0.25), ck=CkRule(4.0))
    plain = WeightFamily(base=quadratic, ck=CkRule(4.0))

    # Looked up at call time so that a traced pass sees the wrapped functions.
    import kernel_lab.galerkin as galerkin
    import kernel_lab.scaling as scaling

    def vanish() -> bytes:
        ks = tuple(k for k in range(1, 8) if cubic.c_value(k) >= 16.0)
        reports = [
            scaling.vanishing_convergence(cubic, ks=ks, degree=30, d=float(d), grid=grid, q=1)
            for d in (1, 2)
        ]
        control = scaling.vanishing_convergence(
            cubic, ks=ks[:2], degree=30, d=1.0, grid=grid, q=0
        )
        for d, rep in zip((1, 2), reports):
            _require(rep.ks == ks, f"vanish d={d}: ks {rep.ks} != {ks}")
            _require(rep.ranks == (0,) * len(ks), f"vanish d={d}: ranks {rep.ranks} not all 0")
            _require(max(rep.errors) <= 1e-8, f"vanish d={d}: kernel sup {max(rep.errors):.3e} > 1e-8")
        _require(all(r >= 1 for r in control.ranks), f"vanish control: ranks {control.ranks} < 1")
        return repr(
            [(r.ranks, _floats(r.errors)) for r in reports + [control]]
        ).encode()

    def heat() -> bytes:
        ts = (1.0, 2.0, 4.0, 8.0)
        model = scaling.heat_route_comparison(ModelSpectrum((1.0,)), ts=ts, degree=24, grid=grid)
        family = scaling.heat_route_comparison(plain, ks=(1, 2, 3, 4, 5), ts=ts, degree=24, grid=grid)
        diffs = model.diffs[0]
        gap, slope = model.gaps[0], model.slopes[0]
        _require(bool(np.all(np.diff(diffs) < 0)), f"heat: diffs {diffs} not decreasing")
        _require(
            slope is not None and abs(slope + gap) <= 0.1 * gap,
            f"heat: slope {slope} not within 10% of -gap {-gap}",
        )
        spread = max(family.spread_per_t)
        _require(spread <= 1e-8, f"heat: k-spread {spread:.3e} > 1e-8")
        return repr(
            [_floats(r.diffs.ravel()) + _floats(r.gaps) for r in (model, family)]
        ).encode()

    def hodge() -> bytes:
        sys0 = galerkin.build_system(quadratic, q=0, degree=16)
        sys1 = galerkin.build_system(quadratic, q=1, degree=16)
        sys0_plus = galerkin.build_system(quadratic, q=0, degree=17)
        r0 = galerkin.hodge_residual(None, sys0, sys1, samples=20, seed=seed)
        r1 = galerkin.hodge_residual(sys0_plus, sys1, None, samples=20, seed=seed)
        _require(max(r0, r1) <= 1e-6, f"hodge: residual {max(r0, r1):.3e} > 1e-6")
        return _floats((r0, r1)).encode()

    return [Item("vanish", vanish), Item("heat", heat), Item("hodge", hodge)]


# ---------------------------------------------------------------------------

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cli-solve",
            why=(
                "kernel-lab run on five solve configs: 26 dense Galerkin builds (N = "
                "325/496/561 on 1,936 nodes) are ~98% of the time and each system is "
                "queried once on a 3x3 grid"
            ),
            unchanged=("model", "torus", "galerkin.kernel_eval", "galerkin.hodge"),
            make_items=_cli_items(
                (
                    "converge-cubic",
                    "converge-quadratic",
                    "gap-cubic",
                    "heat-quadratic",
                    "vanish-mismatched",
                )
            ),
            probe=dense_probe,
        ),
        Workload(
            name="cli-oracle",
            why=(
                "kernel-lab run on model, torus-flat and torus-wavy: closed-form model "
                "oracles (~160k scalar Python calls) are ~92% of the time and no Galerkin "
                "solve runs"
            ),
            unchanged=("galerkin", "scaling", "weights"),
            make_items=_cli_items(("model", "torus-flat", "torus-wavy")),
            probe=scalar_probe,
        ),
        Workload(
            name="api-sweep",
            why=(
                "Python API sweep on a 15x15 grid: 23 Galerkin builds of which 10 repeat "
                "an earlier system bit for bit, heavy grid queries, and the only Hodge "
                "run"
            ),
            unchanged=("torus", "config", "output", "cli", "experiments"),
            make_items=_api_sweep_items,
            probe=dense_probe,
        ),
    )
}
