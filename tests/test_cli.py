"""Command line behavior: listing, runs, artifacts, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kernel_lab import (
    GramConditioningError,
    ModelSpectrum,
    eval_model_bergman,
    experiments,
    galerkin,
    model_kernel_from_basis,
    scaling,
    torus,
)
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
"""


def _strict(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


def read_summary(directory):
    """The run's summary.json, parsed by a reader that refuses NaN and Infinity."""
    return json.loads((Path(directory) / "summary.json").read_text(), parse_constant=_strict)


@pytest.fixture(autouse=True)
def summaries_are_strict_json(tmp_path):
    # every summary a test here writes must load in a strict parser, not just Python's
    yield
    for path in tmp_path.rglob("summary.json"):
        read_summary(path.parent)


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
    summary = read_summary(out)
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
    from kernel_lab import WeightPolynomial, build_system, hodge_residual, real_term
    unit = WeightPolynomial.quadratic([1.0])
    s0, s1 = (build_system(unit, q=q, degree=8) for q in (0, 1))
    assert hodge_residual(None, s0, s1) <= 1e-6
    build_system(unit + real_term(1, (3,), (0,), 0.25), q=1, degree=8)
print([m for m in ("numpy.random", "scipy.linalg", "scipy.sparse") if m in sys.modules])
"""

NUMPY_ONLY = (
    "model", "torus-flat", "torus-wavy", "converge-cubic", "converge-quadratic", "gap-cubic",
    "heat-quadratic", "vanish-mismatched",
)
SOLVES = (
    "converge-cubic", "converge-quadratic", "gap-cubic", "heat-quadratic", "vanish-mismatched"
)


def _cold_run_modules(tmp_path, names, hodge=0) -> str:
    """The watched modules that one fresh process loaded while running `names`."""
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


def test_numpy_only_runs_never_load_scipy(tmp_path):
    # scipy.linalg alone is about half of a cold start; only the class eigensolves
    # of full non-model Galerkin builds need it. converge and gap make no full
    # build, and heat and vanish build model weights, whose diagonal Laplacians
    # are read with no solve. numpy.random adds about 6 MB resident, and the
    # model experiment draws its spectra from the stdlib generator instead
    assert _cold_run_modules(tmp_path, NUMPY_ONLY) == "[]"


def test_solve_runs_never_load_scipy_sparse(tmp_path):
    # the exact path assembles its Laplacians with numpy; scipy.linalg solves those
    # of non-model weights (here the gap-cubic weight at D = 8), and importing it
    # loads numpy.random, which the Hodge residual draws from
    assert _cold_run_modules(tmp_path, SOLVES, hodge=1) == "['numpy.random', 'scipy.linalg']"


def test_shipped_runs_load_numpy_random_only_through_scipy():
    # the shipped configs load neither; a non-model full build loads numpy.random
    # only because its class eigensolves import scipy.linalg, which imports it itself
    assert {path.stem for path in CONFIGS.glob("*.ini")} == set(NUMPY_ONLY + SOLVES)
    probe = "import sys, scipy.linalg; print('numpy.random' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert done.stdout.strip() == "True", done.stderr


def test_seed_flag_overrides_config(model_config, tmp_path):
    out = tmp_path / "r2"
    assert main(
        ["run", "--config", model_config, "--out", str(out), "--seed", "99"]
    ) == 0
    summary = read_summary(out)
    assert summary["config"]["run"]["seed"] == 99


def test_seed_flag_wins_over_seed_override(model_config, tmp_path):
    out = tmp_path / "r3"
    args = ["run", "--config", model_config, "--out", str(out)]
    assert main(args + ["--override", "run.seed=7", "--seed", "99"]) == 0
    summary = read_summary(out)
    assert summary["config"]["run"]["seed"] == 99


def test_overrides_do_not_carry_over_between_calls(model_config, tmp_path):
    # the parser is built once per process, and main may run many times in one
    args = ["run", "--config", model_config, "--out", str(tmp_path / "o")]
    assert main(args + ["--override", "model.spectra=3", "--seed", "5"]) == 0
    assert main(args) == 0
    config = read_summary(tmp_path / "o")["config"]
    assert (config["model"]["spectra"], config["run"]["seed"]) == (4, 11)


def test_json_flag_prints_summary(model_config, tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(
        ["run", "--config", model_config, "--out", str(out), "--json"]
    ) == 0
    printed = json.loads(capsys.readouterr().out, parse_constant=_strict)
    on_disk = read_summary(out)
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


@pytest.mark.parametrize(
    "argv, printed",
    [
        (["--version"], "kernel-lab, version 0.1.0\n"),
        (["-h"], "usage: kernel-lab "),
        (["run", "-h"], "usage: kernel-lab run "),
    ],
    ids=["version", "help", "run-help"],
)
def test_help_and_version_exit_zero(argv, printed, capsys):
    assert main(argv) == 0
    assert capsys.readouterr().out.lower().startswith(printed)


@pytest.mark.parametrize(
    "argv, named",
    [
        (["run", "--frobnicate"], "--frobnicate"),
        (["run", "--config", str(CONFIGS / "model.ini"), "--frobnicate"], "--frobnicate"),
        ([], "COMMAND"),
        (["run"], "--config"),
        (["run", "--config", str(CONFIGS / "model.ini"), "--seed", "x"], "--seed"),
    ],
    ids=["unknown-flag", "unknown-flag-with-config", "no-command", "run-without-config", "seed-not-int"],
)
def test_argument_errors_exit_one(argv, named, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err.lower()
    assert named in err


def test_run_help_shows_config_required(capsys):
    assert main(["run", "-h"]) == 0
    out = capsys.readouterr().out
    assert " --config PATH " in out.splitlines()[0]
    assert "[--config" not in out


@pytest.mark.parametrize("case", ["config-is-directory", "out-is-file", "out-under-file"])
def test_path_errors_exit_one_before_the_run(case, model_config, tmp_path, monkeypatch, capsys):
    def never(cfg):
        pytest.fail("the experiment ran")

    monkeypatch.setattr(experiments, "run_experiment", never)
    blocker = tmp_path / "file"
    blocker.write_text("")
    config, out, named = {
        "config-is-directory": (str(CONFIGS), str(tmp_path / "o"), str(CONFIGS)),
        "out-is-file": (model_config, str(blocker), str(blocker)),
        "out-under-file": (model_config, str(blocker / "sub"), str(blocker / "sub")),
    }[case]
    assert main(["run", "--config", config, "--out", out]) == 1
    assert named in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "model.ini"]
    assert blocker.read_text() == ""


def test_failed_check_exits_two(model_config, tmp_path, capsys):
    # stopped at degree 8 the expansion has not converged: it reads about
    # 7.6e-5 against its fixed 1e-6 bound
    out = tmp_path / "artifacts"
    code = main(
        ["run", "--config", model_config, "--out", str(out), "--override", "model.degrees=8"]
    )
    assert code == 2
    text = capsys.readouterr().out
    assert "FAIL expansion" in text
    # artifacts are still written so the failure can be inspected
    summary = read_summary(out)
    assert summary["passed"] is False
    failed = [c for c in summary["checks"] if not c["passed"]]
    assert [c["name"] for c in failed] == ["expansion"]
    assert failed[0]["tolerance"] == 1e-6 and failed[0]["value"] > 1e-6


@pytest.mark.parametrize("overrides", [(), ("model.degrees=0, 5, 41",)], ids=["shipped", "0-5-41"])
def test_model_expansion_rows_read_the_reference_expansion(overrides):
    # each degree's row comes from the leading rows of one basis table, bit for bit
    # the truncated expansion model_kernel_from_basis returns at that degree
    cfg = load_config(str(CONFIGS / "model.ini"), overrides)
    spec = ModelSpectrum((1.0,))
    pts = scaling.kernel_grid(5, 1.0)
    closed = eval_model_bergman(spec, 0, pts, pts)
    rows = [r for r in experiments.run_experiment(cfg).rows if r[0] == "expansion"]
    assert [r[1] for r in rows] == [f"degree={d}" for d in cfg.values["model"]["degrees"]]
    for degree, (_, _, value) in zip(cfg.values["model"]["degrees"], rows):
        reference = model_kernel_from_basis(spec, 0, degree, pts, pts)
        assert value == np.abs(reference - closed).max()


def test_model_oracles_at_extreme_curvature(tmp_path):
    # far from lambda = 1, z^a and its norm leave the float range in opposite directions;
    # at 1e300 the rule's weights at lambda itself would be subnormal, so the check
    # integrates at unit curvature
    cases = [("model.lambdas=1e-100, 1, 1e100",), ("model.lambdas=1e300", "model.max_order=12")]
    for i, overrides in enumerate(cases):
        out = tmp_path / f"extreme{i}"
        argv = ["run", "--config", str(CONFIGS / "model.ini"), "--out", str(out)]
        for item in overrides:
            argv += ["--override", item]
        assert main(argv) == 0
        (check,) = [c for c in read_summary(out)["checks"] if c["name"] == "orthonormality"]
        assert check["value"] <= 1e-14


def test_gap_builds_once_per_distinct_level_weight(tmp_path, monkeypatch):
    # a model family scales to one weight at every k, whatever its C_k rule
    weights = []
    gaps = experiments.leading_block_gaps

    def counted(weight, *args):
        weights.append(weight)
        return gaps(weight, *args)

    monkeypatch.setattr(experiments, "leading_block_gaps", counted)
    out = tmp_path / "gap"
    argv = ["run", "--config", str(CONFIGS / "gap-cubic.ini"), "--out", str(out)]
    argv += ["--override", "family.base=1;1;0.7", "--override", "family.ck_rule=3^k"]
    assert main(argv) == 0
    summary = read_summary(out)
    assert len(weights) == 1
    assert summary["rows"] == len(summary["config"]["gap"]["ks"]) == 7


@pytest.mark.parametrize(
    "config, overrides, undecided",
    [
        ("converge-cubic", ("converge.ks=3",), "errors_strictly_decreasing"),
        ("heat-quadratic", ("heat.ks=3",), "k_stability"),
        ("heat-quadratic", ("heat.ts=1",), "slope_matches_gap"),
    ],
    ids=["converge-one-k", "heat-one-k", "heat-one-t"],
)
def test_undecidable_check_fails_as_null(config, overrides, undecided, tmp_path, capsys):
    # one k cannot show a decrease, a linearity or a spread over k, and one t
    # cannot fit a decay rate: the check fails instead of passing vacuously
    out = tmp_path / "o"
    argv = ["run", "--config", str(CONFIGS / f"{config}.ini"), "--out", str(out)]
    for item in overrides:
        argv += ["--override", item]
    assert main(argv) == 2
    assert f"FAIL {undecided}: n/a " in capsys.readouterr().out
    summary = read_summary(out)
    (check,) = [c for c in summary["checks"] if c["name"] == undecided]
    assert check["value"] is None and check["passed"] is False
    assert summary["passed"] is False


def test_gap_decides_one_k(tmp_path):
    # each level's gap is compared with its own limit 2 lambda_k, so one k is enough
    out = tmp_path / "o"
    argv = ["run", "--config", str(CONFIGS / "gap-cubic.ini"), "--out", str(out)]
    assert main([*argv, "--override", "gap.ks=3"]) == 0
    checks = {c["name"]: c for c in read_summary(out)["checks"]}
    assert checks["gap_linearity"]["value"] <= 1e-12 and checks["gap_linearity"]["passed"]


def test_converge_with_no_solved_k_fails(tmp_path, monkeypatch, capsys):
    # every k refused by the Gram guard leaves no errors and no k for the route check
    def refuse(*args):
        raise GramConditioningError("forced")

    monkeypatch.setattr(scaling, "_holomorphic", refuse)
    out = tmp_path / "o"
    argv = ["run", "--config", str(CONFIGS / "converge-quadratic.ini"), "--out", str(out)]
    assert main([*argv, "--override", "converge.ks=1, 2"]) == 2
    checks = read_summary(out)["checks"]
    assert [c["name"] for c in checks] == ["max_error", "route_equivalence"]
    assert all(c["value"] is None for c in checks)
    assert "note: k=1: forced" in capsys.readouterr().out


def test_worst_keeps_a_nan():
    # the built-in max and min drop a NaN that is not their first argument
    for values in ([0.0, math.nan], [math.nan, 0.0], [1.0, math.inf], [0.0, None], []):
        assert experiments._worst(values) is None
        assert experiments._worst(values, min) is None
    assert experiments._worst([1, 3, 2]) == 3.0 and experiments._worst([1, 3, 2], min) == 1.0
    assert experiments.Check("c", None, 1.0, "<=").passed is False


def test_readme_gap_override_runs(tmp_path):
    # the degree override shown in README, cut to two k (the fewest linearity can test)
    config = CONFIGS / "gap-cubic.ini"
    out = tmp_path / "gap"
    code = main(
        [
            "run", "--config", str(config), "--out", str(out),
            "--override", "gap.degree=36", "--override", "run.seed=7",
            "--override", "gap.ks=1, 2",
        ]
    )
    assert code == 0
    summary = read_summary(out)
    assert summary["passed"] is True
    assert summary["config"]["gap"]["degree"] == 36


def test_gap_reaches_degree_64(tmp_path):
    # the exact assembly and eigenvalue-only solves make D = 64 a fraction of a second per k
    out = tmp_path / "gap64"
    code = main(
        [
            "run", "--config", str(CONFIGS / "gap-cubic.ini"), "--out", str(out),
            "--override", "gap.degree=64", "--override", "gap.ks=1, 2",
        ]
    )
    assert code == 0
    summary = read_summary(out)
    assert summary["passed"] is True
    assert summary["config"]["gap"]["degree"] == 64


def test_converge_reaches_degree_48(tmp_path):
    # the Gram's quadrature order follows the degree, so no second override is needed
    out = tmp_path / "converge48"
    argv = ["run", "--config", str(CONFIGS / "converge-cubic.ini"), "--out", str(out)]
    assert main([*argv, "--override", "converge.degree=48"]) == 0
    summary = read_summary(out)
    assert summary["passed"] is True and len(summary["checks"]) == 3
    assert summary["config"]["converge"]["degree"] == 48


def test_gram_order_rule_decides_no_converge_check(tmp_path, monkeypatch):
    # D + 30 (order 60 at D = 30) in place of D + 14 moves the k = 1..3 errors
    # by up to 3e-3 relative, but neither a pass flag nor the slope beyond 1e-5
    argv = ["run", "--config", str(CONFIGS / "converge-cubic.ini"), "--out"]
    assert main([*argv, str(tmp_path / "44")]) == 0
    scaling._holomorphic.cache_clear()
    monkeypatch.setattr(galerkin, "_gram_order", lambda degree: degree + 30)
    code = main([*argv, str(tmp_path / "60")])
    scaling._holomorphic.cache_clear()  # no order-60 Gram outlives the patch
    assert code == 0
    base, fine = (read_summary(tmp_path / order) for order in ("44", "60"))
    assert [(c["name"], c["passed"]) for c in fine["checks"]] == [
        (c["name"], c["passed"]) for c in base["checks"]
    ]
    slope_44, slope_60 = (
        next(c["value"] for c in s["checks"] if c["name"] == "slope_within_band")
        for s in (base, fine)
    )
    assert abs(slope_60 - slope_44) < 1e-5
    # the patch took hold: the k = 1 error moved
    rows = [(tmp_path / order / "converge.csv").read_text().splitlines()[1] for order in ("44", "60")]
    assert rows[0] != rows[1]


def test_readme_config_example_parses(tmp_path):
    readme = (CONFIGS.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    path = tmp_path / "readme.ini"
    path.write_text(block)
    cfg = load_config(str(path))
    assert cfg.experiment == "converge"
    assert cfg.family().perturbations
    # its rate is gamma - 1 = -0.333, the pert1 term's, not the cubic's -1/2
    out = tmp_path / "o"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 0
    (band,) = [c for c in read_summary(out)["checks"] if c["name"] == "slope_within_band"]
    assert band["value"] <= 1e-3


@pytest.mark.parametrize(
    "config, override",
    [
        ("gap-cubic", "gap.quad_order=30"),
        ("vanish-mismatched", "vanish.quad_order=20"),
        # converge's Gram order and blend exponent are constants, not keys
        ("converge-cubic", "converge.epsilon=0.1"),
        ("converge-quadratic", "converge.quad_order=44"),
        # checks own their bounds: no key loosens one
        ("model", "model.orthonormality_tolerance=1e-30"),
        ("gap-cubic", "gap.linearity_tolerance=1"),
        ("torus-flat", "torus.margin_floor=0"),
        ("vanish-mismatched", "vanish.ks=3,3"),
        # a repeated level would pass the checks that need two levels
        ("gap-cubic", "gap.ks=3,3"),
        ("heat-quadratic", "heat.ks=1,1"),
        ("torus-flat", "torus.ks=2,2"),
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
        ("torus-flat", "torus.ks=-1, -2"),
        # every family sweep's levels k are positive too
        ("converge-cubic", "converge.ks=-2, -1, 0"),
        ("vanish-mismatched", "vanish.ks=-3, 1"),
        ("gap-cubic", "gap.ks=0, -1"),
        ("heat-quadratic", "heat.ks=0, 1"),
        ("torus-flat", "torus.psi=0;0;0.3"),
        ("torus-flat", "torus.degree=0"),
        ("torus-flat", "torus.tau_im=0"),
        ("model", "model.lambdas=0, 1"),
        ("model", "model.degrees=-1"),
        ("model", "model.degrees=40, 8"),
        ("heat-quadratic", "heat.ts=4, 2"),
        ("heat-quadratic", "heat.ts=0, 1"),
        # checks own their targets: these keys are gone, refused as unknown
        ("gap-cubic", "gap.degree_coarse=40"),
        ("converge-cubic", "converge.max_error=inf"),
        ("converge-cubic", "converge.slope_target=nan"),
        # every float the config reads must be finite
        ("vanish-mismatched", "vanish.d=inf"),
        ("heat-quadratic", "heat.ts=1, nan"),
        ("model", "model.lambdas=nan"),
        ("torus-flat", "torus.tau_re=nan"),
        ("torus-flat", "torus.psi=1;0;inf"),
        ("gap-cubic", "family.base=1;1;1\\n3;0;inf"),
        pytest.param(
            "gap-cubic", "family.ck_rule=" + "9" * 400 + "^k", id="gap-cubic-family.ck_rule=huge^k"
        ),
        # the Bergman kernel's model limit needs a positive |z|^2 coefficient
        ("converge-quadratic", "family.base=1;1;-1.0"),
        # the last override names the key; the ones before it pair pert1 up
        pytest.param(
            "gap-cubic", ("family.pert1=1;1;1", "family.pert1_gamma=1.5"),
            id="gap-cubic-family.pert1_gamma=1.5",
        ),
        pytest.param(
            "gap-cubic", ("family.pert1_gamma=0.5", "family.pert1=1;1;0;0.5"),
            id="gap-cubic-family.pert1=1;1;0;0.5",
        ),
    ],
)
def test_invalid_truncation_is_usage_error(config, override, tmp_path, capsys):
    overrides = (override,) if isinstance(override, str) else override
    out = tmp_path / "o"
    argv = ["run", "--config", str(CONFIGS / f"{config}.ini"), "--out", str(out)]
    for item in overrides:
        argv += ["--override", item]
    code = main(argv)
    assert code == 1
    assert overrides[-1].split("=")[0] + ":" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, key",
    [
        ("converge-cubic", "converge.grid_points"),
        ("converge-cubic", "converge.grid_radius"),
        ("vanish-mismatched", "vanish.grid_points"),
        ("vanish-mismatched", "vanish.grid_radius"),
        ("vanish-mismatched", "vanish.min_ck"),
        ("heat-quadratic", "heat.grid_points"),
        ("heat-quadratic", "heat.grid_radius"),
        ("model", "model.grid_points"),
        ("model", "model.grid_radius"),
        ("torus-flat", "torus.grid_n"),
        ("torus-flat", "torus.gram_grid"),
        ("torus-flat", "torus.trace_grid"),
    ],
)
def test_checks_own_their_grids(config, key, tmp_path, capsys):
    # where a check looks is part of what it claims: no key moves its grid or its levels
    out = tmp_path / "o"
    argv = ["run", "--config", str(CONFIGS / f"{config}.ini"), "--out", str(out)]
    assert main(argv + ["--override", f"{key}=4"]) == 1
    assert f"{key}: unknown key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "config, override",
    [
        ("converge-cubic", "converge.slope_target=-0.5"),
        ("converge-quadratic", "converge.max_error=1"),
        ("gap-cubic", "gap.degree_coarse=24"),
        ("gap-cubic", "gap.degree_fine=32"),
    ],
)
def test_checks_own_their_targets(config, override, tmp_path, capsys):
    # converge's rate comes from the family and gap's coarse degree from its degree
    out = tmp_path / "o"
    argv = ["run", "--config", str(CONFIGS / f"{config}.ini"), "--out", str(out)]
    assert main(argv + ["--override", override]) == 1
    assert f"{override.split('=')[0]}: unknown key" in capsys.readouterr().err
    assert not out.exists()


def test_converge_quartic_meets_its_own_rate(tmp_path):
    # 0.1 |z|^4 decays as C_k^(1 - 2): the rate -1 it derives, where -0.5 missed by 0.49
    out = tmp_path / "o"
    argv = ["run", "--config", str(CONFIGS / "converge-cubic.ini"), "--out", str(out)]
    assert main([*argv, "--override", "family.base=1;1;1.0\\n2;2;0.1"]) == 0
    checks = {c["name"]: c["value"] for c in read_summary(out)["checks"]}
    assert list(checks) == ["errors_strictly_decreasing", "slope_within_band", "route_equivalence"]
    assert checks["slope_within_band"] <= 0.05


def test_gap_of_a_sequence_meets_each_level_limit(tmp_path):
    # L_k with lambda_k = 1 + C_k^(-1/2): each level is a model whose gap is 2 lambda_k,
    # so the scaled gaps fall toward 2 and still match their own limits
    out = tmp_path / "o"
    argv = ["run", "--config", str(CONFIGS / "gap-cubic.ini"), "--out", str(out)]
    for item in ("family.base=1;1;1.0", "family.pert1=1;1;1.0", "family.pert1_gamma=0.5"):
        argv += ["--override", item]
    assert main(argv) == 0
    checks = {c["name"]: c["value"] for c in read_summary(out)["checks"]}
    assert checks["gap_linearity"] <= 1e-12


@pytest.mark.parametrize(
    "base, step, refused, accepted",
    [("1;1;1.0\\n3;0;0.25", 3, (1,), (2, 3, 4)), ("1;1;1.0\\n2;2;0.1", 0, (1, 2, 3, 4), (5, 6))],
    ids=["cubic", "radial"],
)
def test_gap_degree_refines_every_charge_class(base, step, refused, accepted, tmp_path, capsys):
    # a class with no state between 3D/4 and D has one block at both truncations,
    # so gap_stability would read 0 for it without measuring anything
    config, family = str(CONFIGS / "gap-cubic.ini"), f"family.base={base}"
    for degree in refused:
        out = tmp_path / f"refused{degree}"
        argv = ["run", "--config", config, "--out", str(out), "--override", family]
        assert main([*argv, "--override", f"gap.degree={degree}"]) == 1
        assert "gap.degree: a charge class" in capsys.readouterr().err
        assert not out.exists()
    for degree in accepted:
        cfg = load_config(config, (family, f"gap.degree={degree}"))
        assert cfg.family().charge_step == step and cfg.values["gap"]["degree"] == degree


def test_gap_degree_3_still_measures_instability(tmp_path):
    # the smallest gap-cubic degree that refines every class is too coarse to be stable
    out = tmp_path / "o"
    argv = ["run", "--config", str(CONFIGS / "gap-cubic.ini"), "--out", str(out)]
    assert main([*argv, "--override", "gap.degree=3"]) == 2
    checks = {c["name"]: c["value"] for c in read_summary(out)["checks"]}
    assert checks["gap_stability"] == pytest.approx(0.0274, abs=1e-4)


@pytest.mark.parametrize("value", ["0", "1", ""])
def test_gap_reads_the_mismatched_degree_only(value, tmp_path, capsys):
    # in 1 - q0 no kernel exists and the bottom of the spectrum is the gap, so no key picks q
    out = tmp_path / "o"
    argv = ["run", "--config", str(CONFIGS / "gap-cubic.ini"), "--out", str(out)]
    assert main(argv + ["--override", f"gap.q={value}"]) == 1
    assert "gap.q: unknown key" in capsys.readouterr().err
    assert not out.exists()
