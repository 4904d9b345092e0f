"""Run configuration: JSON ingestion, validation, exact defaults."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Union

from .equivalence import FAMILIES
from .serialization import INTEGER_TEXT, rational_from_text

SUITE_NAMES = ("algebra", "chaos", "gaussian", "poisson", "moyal", "equivalence")

# The default suite list omits "equivalence": the default truncation
# (N=6, R=4) leaves no degree window for the transform checks, which need
# N - 2R >= 0.  configs/equivalence.json ships a working combination.
DEFAULT_SUITES = ("algebra", "chaos", "gaussian", "poisson", "moyal")


# A frequency key of an alpha_spec table is its canonical integer text, as
# `config_echo` writes it, so two keys never name one frequency.
_FREQUENCY_KEY = re.compile(INTEGER_TEXT)


class ConfigError(ValueError):
    """Invalid configuration; message carries the offending field path."""


def parse_rational(text, where: str) -> Fraction:
    """An int, or text `serialization.rational_from_text` reads once stripped of whitespace."""
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        try:
            return rational_from_text(text.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise ConfigError(f"{where}: expected a rational like \"3/4\", got {text!r:.60}")


@dataclass(frozen=True)
class McConfig:
    """Stochastic-layer knobs: sample counts, seed, spectral cutoff, grids."""

    n_samples: int = 20000
    seed: int = 42
    K_mc: int = 64
    n_grid: int = 4096


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; the exact layer reads d, K, N, R, weight_c."""

    d: int = 2
    K: int = 3
    N: int = 6
    R: int = 4
    weight_c: Fraction = Fraction(1)
    alpha_spec: Union[str, dict[int, Fraction]] = "ksq"
    mc: McConfig = field(default_factory=McConfig)
    suites: tuple = DEFAULT_SUITES


def _expect_int(doc: dict, key: str, default: int, where: str, minimum: int) -> int:
    value = doc.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{where}.{key}: must be >= {minimum}, got {value}")
    return value


def parse_config(doc: dict, where: str = "config") -> RunConfig:
    """Validate a parsed JSON object; unknown keys are rejected with their path."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(doc).__name__}")
    known = {"d", "K", "N", "R", "weight_c", "alpha_spec", "mc", "suites"}
    for key in doc:
        if key not in known:
            raise ConfigError(f"{where}.{key}: unknown field")
    default = RunConfig()       # a missing field takes its dataclass default
    d = _expect_int(doc, "d", default.d, where, 1)
    K = _expect_int(doc, "K", default.K, where, 1)
    N = _expect_int(doc, "N", default.N, where, 2)
    R = _expect_int(doc, "R", default.R, where, 1)
    weight_c = (parse_rational(doc["weight_c"], f"{where}.weight_c") if "weight_c" in doc
                else default.weight_c)
    if weight_c <= 0:
        raise ConfigError(f"{where}.weight_c: must be positive, got {weight_c}")

    alpha_spec = doc.get("alpha_spec", default.alpha_spec)
    if isinstance(alpha_spec, str):
        if alpha_spec not in FAMILIES:
            raise ConfigError(f"{where}.alpha_spec: unknown family {alpha_spec!r}; "
                              f"known families: {', '.join(FAMILIES)}")
    elif isinstance(alpha_spec, dict):
        table = {}
        for k_txt, v in alpha_spec.items():
            if not (isinstance(k_txt, str) and _FREQUENCY_KEY.fullmatch(k_txt)):
                raise ConfigError(f"{where}.alpha_spec: frequency key {k_txt!r:.40} is not "
                                  f"canonical integer text like \"-2\"")
            k = int(k_txt)
            if abs(k) > K:
                raise ConfigError(f"{where}.alpha_spec: frequency {k} outside cutoff K={K}")
            table[k] = parse_rational(v, f"{where}.alpha_spec[{k}]")
        alpha_spec = table
    else:
        raise ConfigError(f"{where}.alpha_spec: expected a family name or a table")

    mc_doc = doc.get("mc", {})
    if not isinstance(mc_doc, dict):
        raise ConfigError(f"{where}.mc: expected an object")
    for key in mc_doc:
        if key not in {"n_samples", "seed", "K_mc", "n_grid"}:
            raise ConfigError(f"{where}.mc.{key}: unknown field")
    mc = McConfig(
        n_samples=_expect_int(mc_doc, "n_samples", default.mc.n_samples, f"{where}.mc", 100),
        seed=_expect_int(mc_doc, "seed", default.mc.seed, f"{where}.mc", 0),
        K_mc=_expect_int(mc_doc, "K_mc", default.mc.K_mc, f"{where}.mc", 1),
        n_grid=_expect_int(mc_doc, "n_grid", default.mc.n_grid, f"{where}.mc", 2),
    )
    if mc.seed >= 1 << 64:
        raise ConfigError(f"{where}.mc.seed: must fit in 64 bits")

    suites = doc.get("suites", list(default.suites))
    if not isinstance(suites, list) or not all(isinstance(s, str) for s in suites):
        raise ConfigError(f"{where}.suites: expected a list of suite names")
    for s in suites:
        if s not in SUITE_NAMES:
            raise ConfigError(f"{where}.suites: unknown suite {s!r}; "
                              f"known: {', '.join(SUITE_NAMES)}")

    cfg = RunConfig(d=d, K=K, N=N, R=R, weight_c=weight_c, alpha_spec=alpha_spec,
                    mc=mc, suites=tuple(suites))
    check_suite_requirements(cfg, where)
    return cfg


def check_suite_requirements(cfg: RunConfig, where: str) -> None:
    """Reject a suite the config cannot run.

    The equivalence suite needs a nonnegative degree window N - 2R.  The
    chaos suite pairs and evaluates modes up to frequency K on fields
    sampled up to K_mc, so it needs K <= mc.K_mc, and a grid on which the
    trapezoid rule pairs them exactly, mc.n_grid > K_mc + K.
    """
    if "equivalence" in cfg.suites and cfg.N - 2 * cfg.R < 0:
        raise ConfigError(f"{where}: equivalence suite needs N - 2R >= 0, "
                          f"got N={cfg.N}, R={cfg.R} (window {cfg.N - 2 * cfg.R})")
    if "chaos" in cfg.suites and cfg.K > cfg.mc.K_mc:
        raise ConfigError(f"{where}.mc.K_mc: chaos suite needs K_mc >= K={cfg.K}, "
                          f"got {cfg.mc.K_mc}")
    if "chaos" in cfg.suites and cfg.mc.n_grid <= cfg.mc.K_mc + cfg.K:
        raise ConfigError(f"{where}.mc.n_grid: chaos suite needs n_grid > K_mc + K = "
                          f"{cfg.mc.K_mc + cfg.K}, got {cfg.mc.n_grid}")


def load_config(path: Union[str, Path]) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return parse_config(doc, where=str(path))


def _unique_keys(pairs: list) -> dict:
    # `json.loads` alone keeps the last of two equal keys without a word.
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"key {key!r:.40} given twice in one object")
        out[key] = value
    return out


def config_echo(cfg: RunConfig) -> dict:
    """Plain-JSON rendering of a config for embedding in reports."""
    return {
        "d": cfg.d, "K": cfg.K, "N": cfg.N, "R": cfg.R,
        "weight_c": f"{cfg.weight_c.numerator}/{cfg.weight_c.denominator}",
        "alpha_spec": cfg.alpha_spec if isinstance(cfg.alpha_spec, str)
        else {str(k): f"{v.numerator}/{v.denominator}" for k, v in sorted(cfg.alpha_spec.items())},
        "mc": {"n_samples": cfg.mc.n_samples, "seed": cfg.mc.seed, "K_mc": cfg.mc.K_mc,
               "n_grid": cfg.mc.n_grid},
        "suites": list(cfg.suites),
    }
