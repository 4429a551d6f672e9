"""Experiment configuration files: INI sections with typed, defaulted keys.

A config names one experiment in ``[run]`` and parameterizes it in a typed
section of the same shape for every run: unknown sections or keys are
rejected with their full key path, defaults are materialized at parse time so
the echoed configuration in ``summary.json`` reproduces the run exactly.

Weight families live in ``[family]``: ``ck_rule`` (``BASE^k``), a ``base``
polynomial given as term lines ``alpha;beta;re[;im]`` (one per line, each
line adds c z^alpha zbar^beta plus its Hermitian mirror; the base must be
gauge-normal with a nonzero ``1;1;lambda`` line), and optional
perturbations ``pertN`` (same term syntax) with exponents ``pertN_gamma``.
Torus bundles live in ``[torus]`` with psi modes as ``m1;m2;amplitude``
lines.
"""

from __future__ import annotations

import configparser
import os
import re
from dataclasses import dataclass
from typing import Callable, Mapping

from .torus import TorusBundle
from .weights import CkRule, Perturbation, WeightFamily, WeightPolynomial, normalize_gauge, real_term

EXPERIMENTS = ("converge", "gap", "heat", "model", "torus-audit", "vanish")


class ConfigError(ValueError):
    """Invalid configuration; the message starts with the offending key path."""


def _int(text: str) -> int:
    return int(text.strip())


def _positive_int(text: str) -> int:
    v = _int(text)
    if v <= 0:
        raise ValueError("must be a positive integer")
    return v


def _nonneg_int(text: str) -> int:
    v = _int(text)
    if v < 0:
        raise ValueError("must be a nonnegative integer")
    return v


def _float(text: str) -> float:
    return float(text.strip())


def _positive_float(text: str) -> float:
    v = _float(text)
    if not v > 0:
        raise ValueError("must be positive")
    return v


def _epsilon(text: str) -> float:
    v = _float(text)
    if not 0.0 < v < 1.0 / 6.0:  # the blend radius C_k^epsilon (weights.ExtendedWeight)
        raise ValueError("must lie in (0, 1/6)")
    return v


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _ints(text: str) -> tuple[int, ...]:
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if not parts:
        raise ValueError("empty list")
    return tuple(int(p) for p in parts)


def _increasing_ints(text: str) -> tuple[int, ...]:
    v = _ints(text)
    if any(b <= a for a, b in zip(v, v[1:])):
        raise ValueError(f"must be strictly increasing, got {', '.join(map(str, v))}")
    return v


def _form_degree(text: str) -> int:
    v = _int(text)
    if v not in (0, 1):
        raise ValueError(f"must be 0 or 1, got {v}")
    return v


def _floats(text: str) -> tuple[float, ...]:
    parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
    if not parts:
        raise ValueError("empty list")
    return tuple(float(p) for p in parts)


def _ck_rule(text: str) -> float:
    m = re.fullmatch(r"\s*([0-9]+(?:\.[0-9]+)?)\s*\^\s*k\s*", text)
    if not m:
        raise ValueError(f"expected the form BASE^k (e.g. 4^k), got {text!r}")
    base = float(m.group(1))
    if base <= 1.0:
        raise ValueError("rule base must exceed 1")
    return base


def _choice(options: tuple[str, ...]) -> Callable[[str], str]:
    def parse(text: str) -> str:
        t = text.strip()
        if t not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {t!r}")
        return t

    return parse


def _optional(parser: Callable[[str], object]) -> Callable[[str], object]:
    def parse(text: str) -> object:
        return None if not text.strip() else parser(text)

    return parse


def _index_tuple(text: str) -> tuple[int, ...]:
    idx = tuple(int(p) for p in text.split(","))
    if any(a < 0 for a in idx):
        raise ValueError("multi-index entries must be nonnegative")
    return idx


def _terms(text: str) -> tuple[tuple[tuple[int, ...], tuple[int, ...], complex], ...]:
    """Weight term lines alpha;beta;re[;im], one Hermitian pair per line.

    Families live on C, so each multi-index is a single integer.
    """
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(";")]
        if len(fields) not in (3, 4):
            raise ValueError(f"term line needs alpha;beta;re[;im], got {line!r}")
        alpha = _index_tuple(fields[0])
        beta = _index_tuple(fields[1])
        if len(alpha) != 1 or len(beta) != 1:
            raise ValueError(f"term z^{alpha} zbar^{beta} does not match dimension 1")
        amp = complex(float(fields[2]), float(fields[3]) if len(fields) == 4 else 0.0)
        out.append((alpha, beta, amp))
    if not out:
        raise ValueError("needs at least one term line")
    return tuple(out)


def _psi_modes(text: str) -> tuple[tuple[int, int, float], ...]:
    """Torus psi mode lines m1;m2;amplitude."""
    out = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split(";")]
        if len(fields) != 3:
            raise ValueError(f"psi line needs m1;m2;amplitude, got {line!r}")
        out.append((int(fields[0]), int(fields[1]), float(fields[2])))
    return tuple(out)


@dataclass(frozen=True)
class _Key:
    parse: Callable[[str], object]
    default: str | None  # None marks a required key


_EPS_DEFAULT = repr(1.0 / 7.0)

_GRID_KEYS = {
    "grid_points": _Key(_positive_int, "3"),
    "grid_radius": _Key(_positive_float, "1.5"),
}

_SCHEMAS: dict[str, dict[str, _Key]] = {
    "run": {
        "experiment": _Key(_choice(EXPERIMENTS), None),
        "seed": _Key(_nonneg_int, "0"),
    },
    "family": {
        "ck_rule": _Key(_ck_rule, "4^k"),
        "base": _Key(_terms, None),
    },
    "model": {
        "spectra": _Key(_positive_int, "20"),
        "max_n": _Key(_positive_int, "3"),
        "max_order": _Key(_positive_int, "6"),
        "lambdas": _Key(_floats, "0.5, 1, 3"),
        "degrees": _Key(_ints, "8, 16, 24, 32, 40"),
        "grid_points": _Key(_positive_int, "5"),
        "grid_radius": _Key(_positive_float, "1.0"),
        "prefactor_tolerance": _Key(_positive_float, "1e-12"),
        "orthonormality_tolerance": _Key(_positive_float, "1e-8"),
        "expansion_tolerance": _Key(_positive_float, "1e-6"),
    },
    "converge": {
        "ks": _Key(_increasing_ints, "1, 2, 3, 4, 5, 6, 7"),
        "degree": _Key(_positive_int, "30"),
        "quad_order": _Key(_positive_int, "44"),
        "epsilon": _Key(_epsilon, _EPS_DEFAULT),
        "slope_target": _Key(_optional(_float), ""),
        "slope_tolerance": _Key(_positive_float, "0.2"),
        "max_error": _Key(_optional(_positive_float), ""),
        "require_decreasing": _Key(_optional(_bool), ""),
        "route_tolerance": _Key(_positive_float, "1e-8"),
        **_GRID_KEYS,
    },
    "vanish": {
        "ks": _Key(_increasing_ints, "1, 2, 3, 4, 5, 6, 7"),
        "degree": _Key(_positive_int, "30"),
        "quad_order": _Key(_positive_int, "44"),
        "epsilon": _Key(_epsilon, _EPS_DEFAULT),
        "d": _Key(_positive_float, "1"),
        "q": _Key(_optional(_form_degree), ""),
        "min_ck": _Key(_positive_float, "16"),
        "kernel_tolerance": _Key(_positive_float, "1e-8"),
        **_GRID_KEYS,
    },
    "gap": {
        "ks": _Key(_ints, "1, 2, 3, 4, 5, 6, 7"),
        "degree_coarse": _Key(_positive_int, "24"),
        "degree_fine": _Key(_positive_int, "32"),
        "q": _Key(_optional(_form_degree), ""),
        "stability_tolerance": _Key(_positive_float, "0.02"),
        "linearity_tolerance": _Key(_positive_float, "0.05"),
    },
    "heat": {
        "ks": _Key(_ints, "1, 2, 3, 4, 5"),
        "ts": _Key(_floats, "1, 2, 4, 8"),
        "degree": _Key(_positive_int, "24"),
        "quad_order": _Key(_positive_int, "44"),
        "epsilon": _Key(_epsilon, _EPS_DEFAULT),
        "slope_tolerance": _Key(_positive_float, "0.1"),
        "spread_tolerance": _Key(_positive_float, "1e-8"),
        **_GRID_KEYS,
    },
    "torus": {
        "tau_re": _Key(_float, "0"),
        "tau_im": _Key(_positive_float, "1"),
        "degree": _Key(_int, "1"),
        "psi": _Key(_psi_modes, ""),
        "ks": _Key(_ints, "1, 2, 3, 4, 5, 6, 7, 8, 9, 10"),
        "grid_n": _Key(_positive_int, "64"),
        "theta_max_k": _Key(_nonneg_int, "6"),
        "gram_grid": _Key(_positive_int, "48"),
        "trace_grid": _Key(_positive_int, "64"),
        "lattice_radius": _Key(_optional(_positive_int), ""),
        "morse3_tolerance": _Key(_positive_float, "1e-9"),
        "equality_tolerance": _Key(_positive_float, "1e-9"),
        "margin_floor": _Key(_positive_float, "0.1"),
        "trace_tolerance": _Key(_positive_float, "1e-6"),
    },
}


def sections_for(experiment: str) -> tuple[str, ...]:
    if experiment == "model":
        return ("run", "model")
    if experiment == "torus-audit":
        return ("run", "torus")
    return ("run", "family", experiment)


def _parse_section(section: str, raw: Mapping[str, str]) -> dict[str, object]:
    schema = _SCHEMAS[section]
    extra = dict(raw)
    out: dict[str, object] = {}
    for key, spec in schema.items():
        if key in extra:
            text = extra.pop(key)
        elif spec.default is None:
            raise ConfigError(f"{section}.{key}: required key missing")
        else:
            text = spec.default
        try:
            out[key] = spec.parse(text)
        except ValueError as err:
            raise ConfigError(f"{section}.{key}: {err}") from None

    if section == "family":
        shapes: dict[int, object] = {}
        gammas: dict[int, float] = {}
        for key in sorted(extra):
            m = re.fullmatch(r"pert([0-9]+)(_gamma)?", key)
            if not m:
                raise ConfigError(f"{section}.{key}: unknown key")
            idx = int(m.group(1))
            try:
                if m.group(2):
                    gammas[idx] = float(extra[key])
                else:
                    shapes[idx] = _terms(extra[key])
            except ValueError as err:
                raise ConfigError(f"{section}.{key}: {err}") from None
        if set(shapes) != set(gammas):
            odd = sorted(set(shapes) ^ set(gammas))[0]
            raise ConfigError(
                f"family.pert{odd}: needs both pert{odd} and pert{odd}_gamma"
            )
        out["perturbations"] = tuple(
            (shapes[i], gammas[i]) for i in sorted(shapes)
        )
        _check_base(out["base"])
    elif extra:
        key = sorted(extra)[0]
        raise ConfigError(f"{section}.{key}: unknown key")
    _check_truncation(section, out)
    return out


def _check_base(terms) -> None:
    """A family base must be gauge-normal and carry a nonzero |z|^2 term.

    Gauge terms (constant, linear or pure second order) change no curvature
    but do not decay under the scaling, so the scaled weights never reach
    their quadratic model; without a |z|^2 term there is no model.
    """
    try:
        base = _poly_from_terms(terms)
    except ValueError as err:
        raise ConfigError(f"family.base: {err}") from None
    gauge = ", ".join(f"{a};{b}" for a, b in sorted(normalize_gauge(base)[1].coeffs))
    if gauge:
        raise ConfigError(
            f"family.base: gauge terms {gauge} (constant, linear or pure second order) not allowed"
        )
    if (1, 1) not in base.coeffs:
        raise ConfigError("family.base: needs a nonzero 1;1;lambda term (the quadratic model)")


def _check_truncation(section: str, values: Mapping[str, object]) -> None:
    """Degree and quadrature-order rules of the Galerkin sections.

    An order-m rule integrates the Gram matrix of degree D only when m > D,
    and the gap experiment solves its coarse degree as a leading block of the
    fine one (exactly, with no quadrature).
    """
    if section == "gap" and values["degree_coarse"] > values["degree_fine"]:
        raise ConfigError(
            f"gap.degree_coarse: must not exceed degree_fine"
            f" ({values['degree_fine']}), got {values['degree_coarse']}"
        )
    if section in ("converge", "vanish", "heat") and values["quad_order"] <= values["degree"]:
        raise ConfigError(
            f"{section}.quad_order: must exceed degree ({values['degree']}),"
            f" got {values['quad_order']}"
        )
    if section == "torus":
        _check_torus(values)


def _check_torus(values: Mapping[str, object]) -> None:
    """Level and grid rules of the torus audit and its theta trace check.

    Every level k needs k * degree != 0; the trace check integrates on a grid
    other than its Gram grid, and each grid in use resolves psi with at least
    8 points per period of its top frequency.
    """
    if 0 in values["ks"]:
        raise ConfigError("torus.ks: levels must be nonzero (k * degree = 0 at k = 0)")
    grids = ["grid_n"]
    if any(0 < k <= values["theta_max_k"] and k * values["degree"] > 0 for k in values["ks"]):
        if values["gram_grid"] == values["trace_grid"]:
            raise ConfigError(
                f"torus.gram_grid: must differ from trace_grid ({values['trace_grid']})"
            )
        grids += ["gram_grid", "trace_grid"]
    top = max(
        (max(abs(m1), abs(m2)) for m1, m2, amp in values["psi"] if amp != 0.0), default=1
    )
    coarse = [f"{key}={values[key]}" for key in grids if values[key] < 8 * top]
    if coarse:
        raise ConfigError(
            f"torus.psi: top frequency {top} needs grids of >= {8 * top} points"
            f" per axis, got {', '.join(coarse)}"
        )


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


@dataclass(frozen=True)
class ParsedConfig:
    """A fully materialized experiment configuration."""

    experiment: str
    seed: int
    values: dict[str, dict[str, object]]

    def echo(self) -> dict:
        body = {
            section: {key: _jsonable(v) for key, v in keys.items()}
            for section, keys in self.values.items()
        }
        body["run"] = {"experiment": self.experiment, "seed": self.seed}
        return body

    def family(self) -> WeightFamily:
        sec = self.values["family"]
        try:
            base = _poly_from_terms(sec["base"])
            perturbations = tuple(
                Perturbation(_poly_from_terms(terms), gamma)
                for terms, gamma in sec["perturbations"]
            )
            return WeightFamily(
                base=base,
                ck=CkRule(sec["ck_rule"]),
                perturbations=perturbations,
            )
        except ValueError as err:
            raise ConfigError(f"family: {err}") from None

    def bundle(self) -> TorusBundle:
        sec = self.values["torus"]
        try:
            return TorusBundle(
                tau=complex(sec["tau_re"], sec["tau_im"]),
                degree=sec["degree"],
                psi_modes=sec["psi"],
            )
        except ValueError as err:
            raise ConfigError(f"torus: {err}") from None


def _poly_from_terms(terms) -> WeightPolynomial:
    """The terms summed into a weight on C; families are one-dimensional."""
    total = WeightPolynomial()
    for alpha, beta, amp in terms:
        total = total + real_term(1, alpha, beta, amp)
    return total


def _apply_overrides(parser: configparser.ConfigParser, overrides) -> None:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r}: expected section.key=value")
        path, value = item.split("=", 1)
        if "." not in path:
            raise ConfigError(f"override {item!r}: expected section.key=value")
        section, key = path.split(".", 1)
        section, key = section.strip(), key.strip()
        if not section or not key:
            raise ConfigError(f"override {item!r}: expected section.key=value")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.replace("\\n", "\n"))


def load_config(path: str, overrides=()) -> ParsedConfig:
    """Parse, override and validate a config file into typed values."""
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"config file does not parse: {err}") from None
    _apply_overrides(parser, overrides)

    if not parser.has_section("run"):
        raise ConfigError("run: missing section")
    run = _parse_section("run", parser["run"])
    experiment = run["experiment"]

    allowed = sections_for(experiment)
    for section in parser.sections():
        if section not in allowed:
            raise ConfigError(
                f"{section}: section not used by experiment {experiment!r}"
            )
    values = {}
    for section in allowed:
        if section == "run":
            continue
        raw = parser[section] if parser.has_section(section) else {}
        if section == "family" and not parser.has_section(section):
            raise ConfigError("family: missing section (defines the weight family)")
        values[section] = _parse_section(section, raw)
    return ParsedConfig(experiment=experiment, seed=run["seed"], values=values)
