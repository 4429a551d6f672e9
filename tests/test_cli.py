"""Command line behavior: listing, runs, artifacts, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from kernel_lab import experiments, torus
from kernel_lab.config import EXPERIMENTS, load_config
from kernel_lab.cli import main

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

MODEL_INI = """\
[run]
experiment = model
seed = 11

[model]
spectra = 4
max_n = 2
max_order = 3
lambdas = 1
degrees = 8, 16
grid_points = 3
"""


@pytest.fixture
def model_config(tmp_path):
    path = tmp_path / "model.ini"
    path.write_text(MODEL_INI)
    return str(path)


def test_list(capsys):
    assert main(["list"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    names = tuple(line.split()[0] for line in lines)
    assert names == EXPERIMENTS
    assert names == tuple(sorted(names))


def test_list_json(capsys):
    assert main(["list", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [e["name"] for e in payload["experiments"]] == list(EXPERIMENTS)
    assert all(e["description"] for e in payload["experiments"])


def test_run_model(model_config, tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["run", "--config", model_config, "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "PASS model" in text
    assert (out / "model.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["experiment"] == "model"
    assert summary["csv"] == "model.csv"
    assert summary["config"]["run"] == {"experiment": "model", "seed": 11}
    assert summary["rows"] == len((out / "model.csv").read_text().splitlines()) - 1
    assert sorted(summary) == [
        "checks", "config", "csv", "experiment", "notes", "passed",
        "rows", "tool", "version",
    ]


@pytest.mark.parametrize(
    "config, override",
    [
        ("model", None),
        # the solve configs, cut to two k, cover the reused and leading-block systems
        ("gap-cubic", "gap.ks=1,2"),
        ("heat-quadratic", "heat.ks=1,2"),
        ("vanish-mismatched", "vanish.ks=1,2"),
        # the torus configs cover the batched theta tabulation
        ("torus-flat", None),
        ("torus-wavy", None),
    ],
    ids=[
        "model", "gap-cubic", "heat-quadratic", "vanish-mismatched",
        "torus-flat", "torus-wavy",
    ],
)
def test_reruns_are_byte_identical(config, override, model_config, tmp_path):
    path = model_config if config == "model" else str(CONFIGS / f"{config}.ini")
    extra = ["--override", override] if override else []
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["run", "--config", path, "--out", str(out1), *extra]) == 0
    assert main(["run", "--config", path, "--out", str(out2), *extra]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    assert "summary.json" in names and len(names) == 2
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("config", ["torus-flat", "torus-wavy"])
def test_torus_run_samples_curvature_once(config, tmp_path, monkeypatch):
    calls = []
    sample = torus.curvature_field

    def counted(*args, **kwargs):
        calls.append(args)
        return sample(*args, **kwargs)

    # every binding of the function, as the benchmark's tracer rebinds it
    monkeypatch.setattr(torus, "curvature_field", counted)
    monkeypatch.setattr(experiments, "curvature_field", counted, raising=False)
    assert main(["run", "--config", str(CONFIGS / f"{config}.ini"), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1


COLD_RUN = """\
import sys
import kernel_lab, kernel_lab.cli, kernel_lab.experiments
configs, out, names, hodge = sys.argv[1:]
for name in names.split(","):
    argv = ["run", "--config", f"{configs}/{name}.ini", "--out", f"{out}/{name}"]
    assert kernel_lab.cli.main(argv) == 0, name
if int(hodge):
    from kernel_lab import WeightPolynomial, build_system, hodge_residual
    unit = WeightPolynomial.quadratic([1.0])
    s0, s1 = (build_system(unit, q=q, degree=8) for q in (0, 1))
    assert hodge_residual(None, s0, s1) <= 1e-6
print([m for m in ("scipy.linalg", "scipy.sparse") if m in sys.modules])
"""


def _cold_run_scipy_modules(tmp_path, names, hodge=0) -> str:
    env = dict(os.environ, PYTHONPATH=str(CONFIGS.parent / "src"))
    done = subprocess.run(
        [sys.executable, "-c", COLD_RUN, str(CONFIGS), str(tmp_path), ",".join(names), str(hodge)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def test_model_and_torus_runs_never_load_scipy(tmp_path):
    # scipy.linalg alone is about half of a cold start; only Galerkin solves need it
    assert _cold_run_scipy_modules(tmp_path, ("model", "torus-flat", "torus-wavy")) == "[]"


def test_solve_runs_never_load_scipy_sparse(tmp_path):
    # the exact path assembles its Laplacians with numpy; scipy.linalg solves them
    names = (
        "converge-cubic", "converge-quadratic", "gap-cubic", "heat-quadratic", "vanish-mismatched"
    )
    assert _cold_run_scipy_modules(tmp_path, names, hodge=1) == "['scipy.linalg']"


def test_seed_flag_overrides_config(model_config, tmp_path):
    out = tmp_path / "r2"
    assert main(
        ["run", "--config", model_config, "--out", str(out), "--seed", "99"]
    ) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["run"]["seed"] == 99


def test_seed_flag_wins_over_seed_override(model_config, tmp_path):
    out = tmp_path / "r3"
    args = ["run", "--config", model_config, "--out", str(out)]
    assert main(args + ["--override", "run.seed=7", "--seed", "99"]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["run"]["seed"] == 99


def test_json_flag_prints_summary(model_config, tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(
        ["run", "--config", model_config, "--out", str(out), "--json"]
    ) == 0
    printed = json.loads(capsys.readouterr().out)
    on_disk = json.loads((out / "summary.json").read_text())
    assert printed == on_disk


def test_missing_config_is_usage_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "not found" in capsys.readouterr().err


def test_unknown_key_is_usage_error(model_config, tmp_path, capsys):
    code = main(
        [
            "run", "--config", model_config, "--out", str(tmp_path / "o"),
            "--override", "model.spectre=4",
        ]
    )
    assert code == 1
    assert "model.spectre" in capsys.readouterr().err


def test_negative_seed_is_usage_error(model_config, tmp_path, capsys):
    code = main(
        ["run", "--config", model_config, "--out", str(tmp_path / "o"),
         "--seed", "-3"]
    )
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["run", "--frobnicate"]) == 1


def test_failed_check_exits_two(model_config, tmp_path, capsys):
    out = tmp_path / "artifacts"
    code = main(
        [
            "run", "--config", model_config, "--out", str(out),
            "--override", "model.orthonormality_tolerance=1e-30",
        ]
    )
    assert code == 2
    text = capsys.readouterr().out
    assert "FAIL" in text
    # artifacts are still written so the failure can be inspected
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is False
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert any(c["name"] == "orthonormality" for c in failed)


def test_readme_gap_override_runs(tmp_path):
    # the degree override shown in README, cut to one k to stay fast
    config = CONFIGS / "gap-cubic.ini"
    out = tmp_path / "gap"
    code = main(
        [
            "run", "--config", str(config), "--out", str(out),
            "--override", "gap.degree_fine=36", "--override", "run.seed=7",
            "--override", "gap.ks=1",
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["config"]["gap"]["degree_fine"] == 36


def test_gap_reaches_degree_64(tmp_path):
    # the exact assembly and eigenvalue-only solves make D = 64 a few seconds per k
    out = tmp_path / "gap64"
    code = main(
        [
            "run", "--config", str(CONFIGS / "gap-cubic.ini"), "--out", str(out),
            "--override", "gap.degree_fine=64", "--override", "gap.ks=1",
        ]
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["config"]["gap"]["degree_fine"] == 64


def test_readme_config_example_parses(tmp_path):
    readme = (CONFIGS.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    cfg = load_config(str(path))
    assert cfg.experiment == "converge"
    assert cfg.family().perturbations


@pytest.mark.parametrize(
    "config, override",
    [
        ("gap-cubic", "gap.quad_order=30"),
        ("gap-cubic", "gap.degree_coarse=40"),
        ("vanish-mismatched", "vanish.quad_order=20"),
        ("vanish-mismatched", "vanish.ks=3,3"),
        ("converge-cubic", "converge.ks=2,1"),
        ("vanish-mismatched", "vanish.q=2"),
        ("gap-cubic", "gap.q=2"),
        ("gap-cubic", "family.dimension=2"),
        ("gap-cubic", "family.base=1,0;0,0;1"),
        ("gap-cubic", "family.base=1;1;1\\n1;0;0.5"),
        ("gap-cubic", "family.base=2;1;0.5"),
        ("torus-flat", "torus.gram_grid=64"),
        ("torus-flat", "torus.psi=9;0;0.3"),
        ("torus-flat", "torus.ks=0,1"),
    ],
)
def test_invalid_truncation_is_usage_error(config, override, tmp_path, capsys):
    out = tmp_path / "o"
    code = main(
        ["run", "--config", str(CONFIGS / f"{config}.ini"), "--out", str(out),
         "--override", override]
    )
    assert code == 1
    assert override.split("=")[0] in capsys.readouterr().err
    assert not out.exists()
