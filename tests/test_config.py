"""Config parsing: typed schemas, defaults, overrides, strict key checking."""

import json

import pytest

from kernel_lab import config
from kernel_lab.config import ConfigError, load_config, sections_for
from kernel_lab.weights import WeightPolynomial, real_term


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL_CONVERGE = """\
[run]
experiment = converge

[family]
base = 1;1;1
"""

MINIMAL_TORUS = """\
[run]
experiment = torus-audit
"""


def test_defaults_materialized(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL_CONVERGE))
    assert cfg.experiment == "converge"
    assert cfg.seed == 0
    sec = cfg.values["converge"]
    assert sec["ks"] == (1, 2, 3, 4, 5, 6, 7)
    assert sec["degree"] == 30
    # the rate and the error bound are the family's, not keys
    assert "slope_target" not in sec and "max_error" not in sec
    fam = cfg.values["family"]
    assert "dimension" not in fam
    assert fam["ck_rule"] == 4.0
    assert fam["perturbations"] == ()


def test_torus_defaults(tmp_path):
    cfg = load_config(write(tmp_path, MINIMAL_TORUS))
    sec = cfg.values["torus"]
    assert sec["tau_re"] == 0.0 and sec["tau_im"] == 1.0
    assert sec["degree"] == 1
    assert sec["psi"] == ()
    assert sec["theta_max_k"] == 6
    bundle = cfg.bundle()
    assert bundle.tau == 1j and bundle.degree == 1


def test_missing_file():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/exp.ini")


def test_unreadable_path(tmp_path, monkeypatch):
    with pytest.raises(ConfigError, match="cannot be read: .*Is a directory"):
        load_config(str(tmp_path))
    path = write(tmp_path, MINIMAL_CONVERGE)

    def denied(file, *args, **kwargs):
        raise PermissionError(13, "Permission denied", file)

    # permission bits do not stop a superuser, so the refusal is simulated
    monkeypatch.setattr(config, "open", denied, raising=False)
    with pytest.raises(ConfigError, match="cannot be read: .*Permission denied"):
        load_config(path)


def test_required_keys(tmp_path):
    with pytest.raises(ConfigError, match=r"run\.experiment: required key missing"):
        load_config(write(tmp_path, "[run]\nseed = 1\n"))
    with pytest.raises(ConfigError, match=r"family\.base: required key missing"):
        load_config(write(tmp_path, "[run]\nexperiment = converge\n[family]\n"))
    with pytest.raises(ConfigError, match="family: missing section"):
        load_config(write(tmp_path, "[run]\nexperiment = gap\n"))


def test_unknown_key_and_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match=r"converge\.degreee: unknown key"):
        load_config(write(tmp_path, MINIMAL_CONVERGE + "[converge]\ndegreee = 30\n"))
    with pytest.raises(ConfigError, match="torus: section not used"):
        load_config(write(tmp_path, MINIMAL_CONVERGE + "[torus]\ndegree = 1\n"))
    with pytest.raises(ConfigError, match="expected one of"):
        load_config(write(tmp_path, "[run]\nexperiment = frobnicate\n"))
    # the decreasing check and the theta lattice radius are worked out, not set
    with pytest.raises(ConfigError, match=r"converge\.require_decreasing: unknown key"):
        load_config(write(tmp_path, MINIMAL_CONVERGE + "[converge]\nrequire_decreasing = yes\n"))
    torus = "[run]\nexperiment = torus-audit\n[torus]\nlattice_radius = 3\n"
    with pytest.raises(ConfigError, match=r"torus\.lattice_radius: unknown key"):
        load_config(write(tmp_path, torus))


@pytest.mark.parametrize("rule", ["1^k", "0.5^k", "4*k", "k^4", "four^k"])
def test_ck_rule_rejections(tmp_path, rule):
    body = f"[run]\nexperiment = converge\n[family]\nbase = 1;1;1\nck_rule = {rule}\n"
    with pytest.raises(ConfigError, match=r"family\.ck_rule"):
        load_config(write(tmp_path, body))


def test_ck_rule_parses(tmp_path):
    body = "[run]\nexperiment = converge\n[family]\nbase = 1;1;1\nck_rule = 2.5^k\n"
    cfg = load_config(write(tmp_path, body))
    assert cfg.values["family"]["ck_rule"] == 2.5
    assert cfg.family().c_value(2) == pytest.approx(6.25)


def test_terms_build_polynomial(tmp_path):
    body = (
        "[run]\nexperiment = converge\n[family]\nbase =\n    1;1;1\n    3;0;0.25\n"
    )
    cfg = load_config(write(tmp_path, body))
    fam = cfg.family()
    expected = WeightPolynomial.quadratic([1.0]) + real_term(1, (3,), (0,), 0.25)
    assert fam.base == expected


def test_terms_imaginary_amplitude(tmp_path):
    body = "[run]\nexperiment = converge\n[family]\nbase =\n    1;1;1\n    2;1;0;0.5\n"
    cfg = load_config(write(tmp_path, body))
    expected = WeightPolynomial.quadratic([1.0]) + real_term(1, (2,), (1,), 0.5j)
    assert cfg.family().base == expected


def test_terms_rejections(tmp_path):
    for bad in ("1;1", "1;1;x", "-1;0;1", "1;0;1;2;3"):
        body = f"[run]\nexperiment = converge\n[family]\nbase = {bad}\n"
        with pytest.raises(ConfigError, match=r"family\.base"):
            load_config(write(tmp_path, body))


def test_term_dimension_mismatch(tmp_path):
    body = "[run]\nexperiment = converge\n[family]\nbase = 1,0;0,0;1\n"
    with pytest.raises(ConfigError, match=r"family\.base: .*dimension"):
        load_config(write(tmp_path, body))
    body = (
        "[run]\nexperiment = converge\n[family]\nbase = 1;1;1\n"
        "pert1 = 1;1,0;1\npert1_gamma = 0.5\n"
    )
    with pytest.raises(ConfigError, match=r"family\.pert1: .*dimension"):
        load_config(write(tmp_path, body))


def test_perturbation_keys(tmp_path):
    body = (
        "[run]\nexperiment = converge\n[family]\nbase = 1;1;1\n"
        "pert1 = 1;1;1\npert1_gamma = 0.667\n"
    )
    cfg = load_config(write(tmp_path, body))
    (pert,) = cfg.family().perturbations
    assert pert.gamma == pytest.approx(0.667)
    assert pert.shape == WeightPolynomial.quadratic([1.0])


def test_perturbation_pairing_enforced(tmp_path):
    body = "[run]\nexperiment = converge\n[family]\nbase = 1;1;1\npert1 = 1;1;1\n"
    with pytest.raises(ConfigError, match=r"family\.pert1: needs both"):
        load_config(write(tmp_path, body))
    body = "[run]\nexperiment = converge\n[family]\nbase = 1;1;1\npert2_gamma = 0.5\n"
    with pytest.raises(ConfigError, match=r"family\.pert2: needs both"):
        load_config(write(tmp_path, body))


def test_psi_modes_parse(tmp_path):
    body = MINIMAL_TORUS + "[torus]\npsi = 1;0;0.3\n"
    cfg = load_config(write(tmp_path, body))
    assert cfg.values["torus"]["psi"] == ((1, 0, 0.3),)
    assert cfg.bundle().psi_modes == ((1, 0, 0.3),)


def test_psi_modes_rejections(tmp_path):
    with pytest.raises(ConfigError, match=r"torus\.psi"):
        load_config(write(tmp_path, MINIMAL_TORUS + "[torus]\npsi = 1;0\n"))
    # the bundle is built at parse: its (0, 0) and duplicate mode rules name the key
    for psi in ("0;0;0.3", "1;0;0.3\n    1;0;0.2", "1;0;0\n    1;0;0.3"):
        with pytest.raises(ConfigError, match=r"torus\.psi: (psi must have zero mean|duplicate)"):
            load_config(write(tmp_path, MINIMAL_TORUS + f"[torus]\npsi =\n    {psi}\n"))


def test_psi_resolved_by_the_grids_in_use(tmp_path):
    # the theta Gram grid has 48 points per axis, the Morse grid 64
    path = write(tmp_path, MINIMAL_TORUS + "[torus]\npsi = 7;0;0.1\n")
    with pytest.raises(ConfigError, match=r"torus\.psi: grid with 48 points .* need >= 56"):
        load_config(path)
    cfg = load_config(path, overrides=("torus.theta_max_k=0",))
    assert cfg.bundle().top_frequency == 7


def test_overrides(tmp_path):
    path = write(tmp_path, MINIMAL_CONVERGE)
    cfg = load_config(
        path,
        overrides=(
            "converge.degree=18",
            "run.seed=7",
            "family.base=1;1;2\\n3;0;0.25",
        ),
    )
    assert cfg.values["converge"]["degree"] == 18
    assert cfg.seed == 7
    assert len(cfg.values["family"]["base"]) == 2
    assert cfg.values["family"]["base"][0][2] == 2.0 + 0.0j


def test_override_syntax_errors(tmp_path):
    path = write(tmp_path, MINIMAL_CONVERGE)
    for bad in ("converge.degree", "degree=18", ".=x", "converge.=18"):
        with pytest.raises(ConfigError, match="override"):
            load_config(path, overrides=(bad,))
    with pytest.raises(ConfigError, match=r"converge\.degree"):
        load_config(path, overrides=("converge.degree=-4",))


BOUND_KEYS = {
    "model": ("prefactor_tolerance", "orthonormality_tolerance", "expansion_tolerance"),
    "converge": ("slope_tolerance", "route_tolerance"),
    "vanish": ("kernel_tolerance",),
    "gap": ("stability_tolerance", "linearity_tolerance"),
    "heat": ("slope_tolerance", "spread_tolerance"),
    "torus": ("morse3_tolerance", "equality_tolerance", "trace_tolerance", "margin_floor"),
}


def test_value_rejections(tmp_path):
    # converge's Gram order and blend exponent are constants: their old keys
    # are refused as unknown, whatever the value
    cases = [
        ("run.seed=-1", r"run\.seed"),
        ("converge.quad_order=0", r"converge\.quad_order: unknown key"),
        ("converge.epsilon=abc", r"converge\.epsilon: unknown key"),
    ]
    path = write(tmp_path, MINIMAL_CONVERGE)
    for override, pattern in cases:
        with pytest.raises(ConfigError, match=pattern):
            load_config(path, overrides=(override,))
    # checks own their bounds: no key sets one, whatever the value
    own_section = {"model": "[run]\nexperiment = model\n", "torus": MINIMAL_TORUS}
    for section, keys in BOUND_KEYS.items():
        if section in own_section:
            path = write(tmp_path, own_section[section])
        else:
            path = _family_config(tmp_path, section)
        for key in keys:
            with pytest.raises(ConfigError, match=rf"^{section}\.{key}: unknown key$"):
                load_config(path, overrides=(f"{section}.{key}=1",))


def test_sections_for():
    assert sections_for("model") == ("run", "model")
    assert sections_for("torus-audit") == ("run", "torus")
    assert sections_for("gap") == ("run", "family", "gap")
    assert sections_for("converge") == ("run", "family", "converge")


def test_echo_is_json_clean(tmp_path):
    body = (
        "[run]\nexperiment = converge\nseed = 3\n"
        "[family]\nbase =\n    1;1;1\n    2;1;0;0.5\npert1 = 1;1;1\npert1_gamma = 0.5\n"
    )
    cfg = load_config(write(tmp_path, body))
    echoed = cfg.echo()
    text = json.dumps(echoed, sort_keys=True)
    assert json.loads(text) == echoed
    assert echoed["run"] == {"experiment": "converge", "seed": 3}
    assert echoed["family"]["base"] == [
        [[1], [1], {"re": 1.0, "im": 0.0}],
        [[2], [1], {"re": 0.0, "im": 0.5}],
    ]


def test_gap_section_schema(tmp_path):
    body = "[run]\nexperiment = gap\n[family]\nbase = 1;1;1\n"
    cfg = load_config(write(tmp_path, body))
    sec = cfg.values["gap"]
    # one truncation degree D; the coarse one, 3D/4, is the runner's
    assert sec["degree"] == 32
    assert "degree_coarse" not in sec and "degree_fine" not in sec
    # the gap is read in the mismatched degree 1 - q0 only
    assert "q" not in sec


def _family_config(tmp_path, experiment):
    return write(tmp_path, f"[run]\nexperiment = {experiment}\n[family]\nbase = 1;1;1\n")


@pytest.mark.parametrize(
    "experiment, override",
    [
        ("converge", "converge.quad_order=30"),
        ("vanish", "vanish.quad_order=20"),
        ("heat", "heat.quad_order=24"),
        ("vanish", "vanish.epsilon=0.1"),
        ("heat", "heat.epsilon=0.1"),
        ("gap", "gap.quad_order=32"),
        ("gap", "gap.degree_coarse=33"),
        ("converge", "converge.ks=2,1"),
        ("vanish", "vanish.ks=3,3"),
        ("vanish", "vanish.q=2"),
        ("gap", "gap.q=2"),
    ],
)
def test_truncation_rules(tmp_path, experiment, override):
    key = override.split("=")[0]
    with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
        load_config(_family_config(tmp_path, experiment), overrides=(override,))
