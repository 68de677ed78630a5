"""Flat, line-oriented scenario configs.

A config is a sequence of blocks; each block starts with ``[<kind> <name>]``
and holds ``key = value`` lines.  ``#`` starts a comment.  Example::

    [holmstedt tail-pair]
    case = limiting00
    q0 = 1
    b0 = log(0,-2)
    q1 = 2
    b1 = log(0,-2)
    profile = min1
    grid = 1e-6,1e6,13
    out = tail-pair.csv

Every block also takes ``out``, ``grid`` and ``seed``; :data:`KINDS` lists
each scenario kind with the keys it takes, and any other key is an error.
All parameters are validated while loading, before any computation starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

from .holmstedt import CASE_KINDS, HolmstedtCase
from .norms import SpaceSpec
from .profiles import KProfile, parse_profile, realize_rearrangement
from .quadrature import GridSpec, SCAN_GRID
from .reiteration import LKSpec, ReiterationSpec
from .weighted_ineq import HARDY_CASES, InequalitySpec
from .weights import WeightExpr, WeightSyntaxError, parse_weight

__all__ = ["Scenario", "ConfigError", "load_config", "parse_grid",
           "parse_function", "Const", "ExpDecay", "KINDS"]


class Kind(NamedTuple):
    help: str
    required: tuple[str, ...]
    optional: tuple[str, ...] = ()


#: every scenario kind, with its one-line help and the keys of its block
KINDS = {
    "sv-check": Kind("classify a weight expression", ("weight", "q"),
                     ("expect_sv0q", "expect_sv1q")),
    "norm": Kind("the quasi-norm of one profile in one space",
                 ("profile", "theta", "q", "b")),
    "holmstedt": Kind("equivalence scan for one case",
                      ("case", "q0", "b0", "q1", "b1", "profile"),
                      ("theta", "theta0", "theta1", "max_variation")),
    "negative-demo": Kind("equal-theta incompatibility table",
                          ("theta", "q0", "q1", "b0", "b1")),
    "reiterate": Kind("reiteration identity check",
                      ("side", "theta", "q", "b", "q0", "b0", "q1", "b1"),
                      ("profiles", "max_variation")),
    "lk-check": Kind("limiting Lorentz-Karamata identification", ("q", "b"),
                     ("rearrangements", "count")),
    "hardy-check": Kind("constructed-weight Hardy inequality sampling",
                        ("case", "alpha", "w", "phi"), ("samples", "max_ratio")),
    "constants": Kind("best constants of the base inequality",
                      ("p", "q", "v", "w", "which"), ("expect", "tol")),
}
SCENARIO_KINDS = tuple(KINDS)


class ConfigError(ValueError):
    """Config parse/validation error with a line anchor."""

    def __init__(self, message: str, line: int, column: Optional[int] = None):
        at = f"line {line}" + (f", column {column}" if column is not None else "")
        super().__init__(f"{message} ({at})")
        self.line = line
        self.column = column


@dataclass
class Scenario:
    kind: str
    name: str
    params: dict
    line: int
    out: Optional[str] = None
    grid: GridSpec = SCAN_GRID
    seed: Optional[int] = None
    key_lines: dict = field(default_factory=dict)


def parse_grid(text: str) -> GridSpec:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError("grid must be tmin,tmax,points_per_decade")
    return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))


@dataclass(frozen=True)
class Const:
    """The constant function c, with its exact integral."""

    c: float

    def __call__(self, t: float) -> float:
        return self.c

    def integral(self, lo: float, hi: float) -> float:
        """int_lo^hi c du; +inf over an infinite range when c > 0."""
        if self.c == 0.0:
            return 0.0
        return self.c * (hi - lo)


@dataclass(frozen=True)
class ExpDecay:
    """exp(-rate*t), with its exact integral."""

    rate: float

    def __call__(self, t: float) -> float:
        return math.exp(-self.rate * t)

    def integral(self, lo: float, hi: float) -> float:
        """int_lo^hi exp(-rate*u) du; +inf over an infinite range when
        rate <= 0, and when the value overflows."""
        r = self.rate
        if r == 0.0:
            return hi - lo
        if hi == math.inf and r < 0.0:
            return math.inf
        try:
            return math.exp(-r * lo) * -math.expm1(-r * (hi - lo)) / r
        except OverflowError:
            return math.inf


def parse_function(text: str) -> Callable[[float], float]:
    """Positive functions for the Hardy checks: ``const(c)``,
    ``expdecay(rate)`` for exp(-rate*t), or any weight expression.  Each
    result integrates exactly (see ``weighted_ineq._integral``)."""
    s = text.strip()
    if s.startswith("const(") and s.endswith(")"):
        return Const(float(s[6:-1]))
    if s.startswith("expdecay(") and s.endswith(")"):
        return ExpDecay(float(s[9:-1]))
    return parse_weight(s)


def _parse_scalar(value: str, line: int, key: str) -> float:
    v = value.strip().lower()
    if v in ("inf", "+inf", "infinity"):
        return math.inf
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key} must be a number", line) from None


def _parse_int(value: str, line: int, key: str, least: int) -> int:
    """An integral, finite value of at least ``least``."""
    v = _parse_scalar(value, line, key)
    if not (math.isfinite(v) and v == int(v) and v >= least):
        raise ConfigError(f"{key} must be an integer >= {least}", line)
    return int(v)


def _validate(s: Scenario) -> None:
    """Type-check and pre-build every parameter the runner will need."""
    line = s.line
    p = s.params

    def anchor(key: str) -> int:
        return s.key_lines.get(key, line)

    kind = KINDS[s.kind]
    for key in p:
        if key not in kind.required and key not in kind.optional:
            raise ConfigError(f"{s.kind} scenario has unknown key {key!r}",
                              anchor(key))
    for key in kind.required:
        if key not in p:
            raise ConfigError(f"{s.kind} scenario needs key {key!r}", line)

    def weight(key: str) -> WeightExpr:
        try:
            return parse_weight(p[key])
        except WeightSyntaxError as exc:
            raise ConfigError(f"bad weight in {key!r}: {exc}", anchor(key),
                              getattr(exc, "pos", None)) from None

    def built(key: str, build: Callable[[str], object]) -> object:
        """``build(p[key])``, an error anchored at the key's line."""
        try:
            return build(p[key])
        except (ValueError, TypeError) as exc:
            raise ConfigError(str(exc), anchor(key)) from None

    def scalar(key: str, default: Optional[float] = None) -> Optional[float]:
        if key not in p:
            return default
        return _parse_scalar(p[key], anchor(key), key)

    def integer(key: str, least: int, default: Optional[int] = None
                ) -> Optional[int]:
        if key not in p:
            return default
        return _parse_int(p[key], anchor(key), key, least)

    try:
        if s.kind == "sv-check":
            p["_weight"] = weight("weight")
            p["_q"] = scalar("q")
            for key in [k for k in ("expect_sv0q", "expect_sv1q") if k in p]:
                want = p[key].strip().lower()
                if want not in ("true", "false"):
                    raise ConfigError(f"{key} must be true or false",
                                      anchor(key))
                p["_" + key] = want == "true"
        elif s.kind == "norm":
            p["_profile"] = built("profile", parse_profile)
            p["_space"] = SpaceSpec(scalar("theta"), scalar("q"), weight("b"))
        elif s.kind == "holmstedt":
            if p["case"] not in CASE_KINDS:
                raise ConfigError(f"unknown case {p['case']!r}", anchor("case"))
            p["_case"] = HolmstedtCase(
                p["case"], scalar("q0"), scalar("q1"), weight("b0"),
                weight("b1"), theta=scalar("theta"),
                theta0=scalar("theta0"), theta1=scalar("theta1"))
            p["_profile"] = built("profile", parse_profile)
            p["_max_variation"] = scalar("max_variation", 1e3)
        elif s.kind == "negative-demo":
            p["_theta"] = scalar("theta")
            p["_q0"], p["_q1"] = scalar("q0"), scalar("q1")
            if p["_q0"] == p["_q1"]:
                raise ValueError("negative-demo needs q0 != q1")
            p["_b0"], p["_b1"] = weight("b0"), weight("b1")
        elif s.kind == "reiterate":
            p["_spec"] = ReiterationSpec(
                side=integer("side", 0), theta=scalar("theta"), q=scalar("q"),
                b=weight("b"), q0=scalar("q0"), b0=weight("b0"),
                q1=scalar("q1"), b1=weight("b1"))
            p["_max_variation"] = scalar("max_variation", 1e3)
            if "profiles" in p:
                p["_profiles"] = _load_profiles(p["profiles"], anchor("profiles"))
        elif s.kind == "lk-check":
            p["_q"] = scalar("q")
            p["_b"] = weight("b")
            LKSpec(math.inf, p["_q"], p["_b"])  # validates q and b
            if "rearrangements" in p:
                profs = _load_profiles(p["rearrangements"], anchor("rearrangements"))
                p["_suite"] = [realize_rearrangement(prof) for prof in profs]
            p["_count"] = integer("count", 1, 10)
        elif s.kind == "hardy-check":
            if p["case"] not in HARDY_CASES:
                raise ConfigError(f"unknown hardy case {p['case']!r}", anchor("case"))
            p["_alpha"] = scalar("alpha")
            p["_w"] = built("w", parse_function)
            p["_phi"] = built("phi", parse_function)
            p["_samples"] = integer("samples", 1, 50)
            p["_max_ratio"] = scalar("max_ratio", 10.0)
        elif s.kind == "constants":
            p["_spec"] = InequalitySpec(p=scalar("p"), q=scalar("q"),
                                        v=weight("v"), w=weight("w"))
            if p["which"] not in ("A1", "A2", "A3", "A4"):
                raise ConfigError("which must be one of A1..A4", anchor("which"))
            p["_expect"] = scalar("expect")
            p["_tol"] = scalar("tol", 1e-3)
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc), line) from None


def _load_profiles(path: str, line: int) -> list[KProfile]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as exc:
        raise ConfigError(f"cannot read profiles file: {exc}", line) from None
    profiles = []
    for i, ln in enumerate(lines, 1):
        if not ln or ln.startswith("#"):
            continue
        try:
            profiles.append(parse_profile(ln))
        except ValueError as exc:
            raise ConfigError(f"{path}:{i}: {exc}", line) from None
    if not profiles:
        raise ConfigError(f"profiles file {path} is empty", line)
    return profiles


def load_config(path: str) -> list[Scenario]:
    """Parse and validate a scenario config; raises ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    scenarios: list[Scenario] = []
    current: Optional[Scenario] = None
    seen: set[str] = set()
    for lineno, rawline in enumerate(raw, 1):
        text = rawline.split("#", 1)[0].rstrip("\n").strip()
        if not text:
            continue
        if text.startswith("["):
            if not text.endswith("]"):
                raise ConfigError("unterminated block header", lineno)
            header = text[1:-1].split()
            if len(header) != 2:
                raise ConfigError("block header must be [<kind> <name>]", lineno)
            kind, name = header
            if kind not in SCENARIO_KINDS:
                raise ConfigError(f"unknown scenario kind {kind!r}", lineno)
            if name in seen:
                raise ConfigError(f"duplicate scenario name {name!r}", lineno)
            seen.add(name)
            current = Scenario(kind=kind, name=name, params={}, line=lineno)
            scenarios.append(current)
            continue
        if current is None:
            raise ConfigError("key outside of a scenario block", lineno)
        if "=" not in text:
            raise ConfigError("expected key = value",
                              lineno, len(rawline) - len(rawline.lstrip()) + 1)
        key, value = (part.strip() for part in text.split("=", 1))
        if not key:
            raise ConfigError("empty key", lineno)
        if key == "out":
            current.out = value
        elif key == "grid":
            try:
                current.grid = parse_grid(value)
            except ValueError as exc:
                raise ConfigError(str(exc), lineno) from None
        elif key == "seed":
            current.seed = _parse_int(value, lineno, "seed", 0)
        else:
            current.params[key] = value
            current.key_lines[key] = lineno
    for s in scenarios:
        _validate(s)
    return scenarios
