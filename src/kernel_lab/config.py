"""Experiment configuration files: INI sections with typed, defaulted keys.

A config names one experiment in ``[run]`` and parameterizes it in a typed
section of the same shape for every run: unknown sections or keys are
rejected with their full key path, defaults are materialized at parse time so
the echoed configuration in ``summary.json`` reproduces the run exactly.

Weight families live in ``[family]``: ``ck_rule`` (``BASE^k``), a ``base``
polynomial given as term lines ``alpha;beta;re[;im]`` (one per line, each
line adds c z^alpha zbar^beta plus its Hermitian mirror), and optional
perturbations ``pertN`` (same term syntax) with exponents ``pertN_gamma``.
Torus bundles live in ``[torus]`` with psi modes as ``m1;m2;amplitude``
lines.  The family or bundle is built while the config is parsed, so the
rules its types enforce reject a config with the offending key path.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from .model import ModelSpectrum
from .scaling import _check_bergman
from .torus import TorusBundle, _check_level, _check_resolution, _theta_levels
from .weights import CkRule, Perturbation, WeightFamily, WeightPolynomial, _check_epsilon, real_term

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
    v = float(text.strip())
    if not math.isfinite(v):
        raise ValueError(f"must be a finite number, got {text.strip()}")
    return v


def _positive_float(text: str) -> float:
    v = _float(text)
    if not v > 0:
        raise ValueError("must be positive")
    return v


def _epsilon(text: str) -> float:
    return _check_epsilon(_float(text))


def _list(item: Callable[[str], object]) -> Callable[[str], tuple]:
    def parse(text: str) -> tuple:
        parts = [p for p in re.split(r"[,\s]+", text.strip()) if p]
        if not parts:
            raise ValueError("empty list")
        return tuple(item(p) for p in parts)

    return parse


def _increasing(item: Callable[[str], object]) -> Callable[[str], tuple]:
    def parse(text: str) -> tuple:
        v = _list(item)(text)
        if any(b <= a for a, b in zip(v, v[1:])):
            raise ValueError(f"must be strictly increasing, got {', '.join(map(str, v))}")
        return v

    return parse


def _form_degree(text: str) -> int:
    v = _int(text)
    if v not in (0, 1):
        raise ValueError(f"must be 0 or 1, got {v}")
    return v


def _ck_rule(text: str) -> float:
    m = re.fullmatch(r"\s*([0-9]+(?:\.[0-9]+)?)\s*\^\s*k\s*", text)
    if not m:
        raise ValueError(f"expected the form BASE^k (e.g. 4^k), got {text!r}")
    return _float(m.group(1))


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


def _lines(text: str, form: str, sizes: tuple[int, ...]) -> list[list[str]]:
    """The ;-separated fields of each nonblank line, which must read ``form``."""
    out = []
    for line in filter(None, map(str.strip, text.splitlines())):
        fields = [f.strip() for f in line.split(";")]
        if len(fields) not in sizes:
            raise ValueError(f"line needs {form}, got {line!r}")
        out.append(fields)
    return out


def _terms(text: str) -> tuple[tuple[tuple[int, ...], tuple[int, ...], complex], ...]:
    """Weight term lines alpha;beta;re[;im], one Hermitian pair per line."""
    out = tuple(
        (
            tuple(map(int, f[0].split(","))),
            tuple(map(int, f[1].split(","))),
            complex(_float(f[2]), _float(f[3]) if len(f) == 4 else 0.0),
        )
        for f in _lines(text, "alpha;beta;re[;im]", (3, 4))
    )
    if not out:
        raise ValueError("needs at least one term line")
    return out


def _psi_modes(text: str) -> tuple[tuple[int, int, float], ...]:
    """Torus psi mode lines m1;m2;amplitude."""
    return tuple(
        (int(m1), int(m2), _float(amp)) for m1, m2, amp in _lines(text, "m1;m2;amplitude", (3,))
    )


@dataclass(frozen=True)
class _Key:
    parse: Callable[[str], object]
    default: str | None  # None marks a required key


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
        "lambdas": _Key(_list(_float), "0.5, 1, 3"),
        "degrees": _Key(_increasing(_nonneg_int), "8, 16, 24, 32, 40"),
        "grid_points": _Key(_positive_int, "5"),
        "grid_radius": _Key(_positive_float, "1.0"),
        "prefactor_tolerance": _Key(_positive_float, "1e-12"),
        "orthonormality_tolerance": _Key(_positive_float, "1e-8"),
        "expansion_tolerance": _Key(_positive_float, "1e-6"),
    },
    "converge": {
        "ks": _Key(_increasing(int), "1, 2, 3, 4, 5, 6, 7"),
        "degree": _Key(_positive_int, "30"),
        "quad_order": _Key(_positive_int, "44"),
        "epsilon": _Key(_epsilon, repr(1.0 / 7.0)),
        "slope_target": _Key(_optional(_float), ""),
        "slope_tolerance": _Key(_positive_float, "0.2"),
        "max_error": _Key(_optional(_positive_float), ""),
        "route_tolerance": _Key(_positive_float, "1e-8"),
        **_GRID_KEYS,
    },
    "vanish": {
        "ks": _Key(_increasing(int), "1, 2, 3, 4, 5, 6, 7"),
        "degree": _Key(_positive_int, "30"),
        "d": _Key(_positive_float, "1"),
        "q": _Key(_optional(_form_degree), ""),
        "min_ck": _Key(_positive_float, "16"),
        "kernel_tolerance": _Key(_positive_float, "1e-8"),
        **_GRID_KEYS,
    },
    "gap": {
        "ks": _Key(_list(int), "1, 2, 3, 4, 5, 6, 7"),
        "degree_coarse": _Key(_positive_int, "24"),
        "degree_fine": _Key(_positive_int, "32"),
        "q": _Key(_optional(_form_degree), ""),
        "stability_tolerance": _Key(_positive_float, "0.02"),
        "linearity_tolerance": _Key(_positive_float, "0.05"),
    },
    "heat": {
        "ks": _Key(_list(int), "1, 2, 3, 4, 5"),
        "ts": _Key(_increasing(_positive_float), "1, 2, 4, 8"),
        "degree": _Key(_positive_int, "24"),
        "slope_tolerance": _Key(_positive_float, "0.1"),
        "spread_tolerance": _Key(_positive_float, "1e-8"),
        **_GRID_KEYS,
    },
    "torus": {
        "tau_re": _Key(_float, "0"),
        "tau_im": _Key(_float, "1"),
        "degree": _Key(_int, "1"),
        "psi": _Key(_psi_modes, ""),
        "ks": _Key(_list(int), "1, 2, 3, 4, 5, 6, 7, 8, 9, 10"),
        "grid_n": _Key(_positive_int, "64"),
        "theta_max_k": _Key(_nonneg_int, "6"),
        "gram_grid": _Key(_positive_int, "48"),
        "trace_grid": _Key(_positive_int, "64"),
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


def _keyed(key: str, make: Callable, *args, **kwargs):
    """make(*args, **kwargs), with a ValueError re-raised as a ConfigError naming ``key``."""
    try:
        return make(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{key}: {err}") from None


_PERT = re.compile(r"pert([0-9]+)(_gamma)?")


def _parse_section(
    section: str, raw: Mapping[str, str]
) -> tuple[dict[str, object], WeightFamily | TorusBundle | None]:
    """The section's typed values, and the family or bundle it defines (else None)."""
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
        out[key] = _keyed(f"{section}.{key}", spec.parse, text)
    unknown = sorted(k for k in extra if section != "family" or not _PERT.fullmatch(k))
    if unknown:
        raise ConfigError(f"{section}.{unknown[0]}: unknown key")
    for k in out.get("ks", ()):
        _keyed(f"{section}.ks", _check_level, k)

    if section == "family":
        return out, _family(out, extra)
    if section == "torus":
        bundle = _bundle(out)
        _check_torus(out, bundle)
        return out, bundle
    if section == "model":
        for lam in out["lambdas"]:
            _keyed("model.lambdas", ModelSpectrum, (lam,))
    _check_truncation(section, out)
    return out, None


def _family(values: dict[str, object], perts: Mapping[str, str]) -> WeightFamily:
    """The weight family; records the (terms, gamma) pairs as ``values["perturbations"]``."""
    keys: dict[int, dict[bool, str]] = {}
    for key in perts:
        m = _PERT.fullmatch(key)
        keys.setdefault(int(m.group(1)), {})[bool(m.group(2))] = key
    pairs, perturbations = [], []
    for i in sorted(keys):
        if len(keys[i]) != 2:
            raise ConfigError(f"family.pert{i}: needs both pert{i} and pert{i}_gamma")
        shape_key, gamma_key = keys[i][False], keys[i][True]
        terms = _keyed(f"family.{shape_key}", _terms, perts[shape_key])
        gamma = _keyed(f"family.{gamma_key}", _float, perts[gamma_key])
        shape = _keyed(f"family.{shape_key}", _poly_from_terms, terms)
        perturbations.append(_keyed(f"family.{gamma_key}", Perturbation, shape, gamma))
        pairs.append((terms, gamma))
    values["perturbations"] = tuple(pairs)
    return _keyed(
        "family.base",
        WeightFamily,
        base=_keyed("family.base", _poly_from_terms, values["base"]),
        ck=_keyed("family.ck_rule", CkRule, values["ck_rule"]),
        perturbations=tuple(perturbations),
    )


def _poly_from_terms(terms) -> WeightPolynomial:
    """The terms summed into a weight on C; families are one-dimensional."""
    total = WeightPolynomial()
    for alpha, beta, amp in terms:
        total = total + real_term(1, alpha, beta, amp)
    return total


def _bundle(values: Mapping[str, object]) -> TorusBundle:
    """The torus bundle, built up one key at a time so that each rule names its key."""
    bundle = _keyed("torus.tau_im", TorusBundle, complex(values["tau_re"], values["tau_im"]), 1)
    bundle = _keyed("torus.degree", replace, bundle, degree=values["degree"])
    return _keyed("torus.psi", replace, bundle, psi_modes=values["psi"])


def _check_truncation(section: str, values: Mapping[str, object]) -> None:
    """Degree and quadrature-order rules of the Galerkin sections.

    converge's order-m rule integrates its holomorphic Gram of degree D only
    when m > D, and the gap experiment solves its coarse degree as a leading
    block of the fine one.
    """
    if section == "gap" and values["degree_coarse"] > values["degree_fine"]:
        raise ConfigError(
            f"gap.degree_coarse: must not exceed degree_fine"
            f" ({values['degree_fine']}), got {values['degree_coarse']}"
        )
    if section == "converge" and values["quad_order"] <= values["degree"]:
        raise ConfigError(
            f"{section}.quad_order: must exceed degree ({values['degree']}),"
            f" got {values['quad_order']}"
        )


def _check_torus(values: Mapping[str, object], bundle: TorusBundle) -> None:
    """Grid rules of the torus audit and its theta trace check.

    The trace check integrates on a grid other than its Gram grid, and each
    grid in use must resolve psi.
    """
    grids = ["grid_n"]
    if _theta_levels(bundle, values["ks"], values["theta_max_k"]):
        if values["gram_grid"] == values["trace_grid"]:
            raise ConfigError(
                f"torus.gram_grid: must differ from trace_grid ({values['trace_grid']})"
            )
        grids += ["gram_grid", "trace_grid"]
    for key in grids:
        _keyed("torus.psi", _check_resolution, bundle, values[key])


def _jsonable(value):
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return value


@dataclass(frozen=True)
class ParsedConfig:
    """A fully materialized experiment configuration and the family or bundle it defines."""

    experiment: str
    seed: int
    values: dict[str, dict[str, object]]
    _built: WeightFamily | TorusBundle | None = None

    def echo(self) -> dict:
        body = {
            section: {key: _jsonable(v) for key, v in keys.items()}
            for section, keys in self.values.items()
        }
        body["run"] = {"experiment": self.experiment, "seed": self.seed}
        return body

    def family(self) -> WeightFamily:
        """The weight family built when the config was parsed."""
        return self._built

    def bundle(self) -> TorusBundle:
        """The torus bundle built when the config was parsed."""
        return self._built


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
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except OSError as err:
        raise ConfigError(f"config file cannot be read: {err}") from None
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"config file does not parse: {err}") from None
    _apply_overrides(parser, overrides)

    if not parser.has_section("run"):
        raise ConfigError("run: missing section")
    run, _ = _parse_section("run", parser["run"])
    experiment = run["experiment"]

    allowed = sections_for(experiment)
    for section in parser.sections():
        if section not in allowed:
            raise ConfigError(
                f"{section}: section not used by experiment {experiment!r}"
            )
    values, built = {}, None
    for section in allowed:
        if section == "run":
            continue
        raw = parser[section] if parser.has_section(section) else {}
        if section == "family" and not parser.has_section(section):
            raise ConfigError("family: missing section (defines the weight family)")
        values[section], section_built = _parse_section(section, raw)
        built = built or section_built
    if experiment == "converge":
        _keyed("family.base", _check_bergman, built)
    return ParsedConfig(experiment, run["seed"], values, built)
