"""Run configuration for the command-line tools."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .partition import McConfig
from .quadrature import QuadratureConfig
from .regulator import Regulator, regulator_from_dict
from .spectrum import Spectrum, _number, spectrum_from_dict

__all__ = ["MAX_ORDER", "ConfigError", "GridSpec", "RunConfig"]

# Highest series/moment order a run may request, from the config or
# the ``diagrams --order`` flag.
MAX_ORDER = 30


class ConfigError(Exception):
    """The run configuration is malformed or inconsistent."""


@dataclass(frozen=True)
class GridSpec:
    """A min/max/count triple; values are linear or log spaced."""

    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError("grid count must be at least 1")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ConfigError("grid endpoints must be finite")
        if self.hi < self.lo:
            raise ConfigError("grid max must not be below min")

    @classmethod
    def from_dict(cls, d, name: str) -> "GridSpec":
        try:
            lo, hi, count = float(d["min"]), float(d["max"]), d["count"]
        except (TypeError, KeyError) as e:
            raise ConfigError(f"grid {name!r} needs min/max/count: {e}") from None
        if isinstance(count, bool) or not isinstance(count, int):
            raise ConfigError(f"grid {name!r} count must be an integer, not {count!r}")
        return cls(lo, hi, count)

    def linear(self) -> list[float]:
        if self.count == 1:
            return [self.lo]
        step = (self.hi - self.lo) / (self.count - 1)
        return [self.lo + i * step for i in range(self.count)]

    def geometric(self) -> list[float]:
        if self.lo <= 0:
            raise ConfigError("geometric grid needs positive endpoints")
        if self.count == 1:
            return [self.lo]
        ratio = (self.hi / self.lo) ** (1.0 / (self.count - 1))
        return [self.lo * ratio**i for i in range(self.count)]

    def geometric_ints(self) -> list[int]:
        vals = sorted({max(1, round(v)) for v in self.geometric()})
        return vals


_DEFAULTS = {
    "spectrum": {"family": "power_law", "c": 1.0, "p": 1.0},
    "regulator": {"kind": "sharp_cutoff", "a": 1.0},
    "theta": 0.0,
    "lambda": 1.0,
    "s": 1.0,
    "order": 6,
    "tol": 1e-8,
    "s_grid": {"min": 0.0, "max": 4.0, "count": 17},
    "lambda_grid": {"min": 1e3, "max": 1e5, "count": 3},
    "n_grid": {"min": 10, "max": 1000, "count": 3},
    "theta_grid": {"min": 0.0, "max": 1.0, "count": 3},
    "quadrature": {},
    "mc": {},
    "out": "out",
    "format": "csv",
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs, parseable from a JSON file."""

    spectrum: Spectrum
    regulator: Regulator
    theta: float
    lam: float
    s: float
    order: int
    tol: float
    s_grid: GridSpec
    lambda_grid: GridSpec
    n_grid: GridSpec
    theta_grid: GridSpec
    quadrature: QuadratureConfig
    mc: McConfig
    out: str
    fmt: str

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        unknown = set(raw) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        d = dict(_DEFAULTS)
        d.update(raw)
        try:
            spec = spectrum_from_dict(d["spectrum"])
            reg = regulator_from_dict(d["regulator"])
        except ValueError as e:
            raise ConfigError(str(e)) from None
        try:
            quad = QuadratureConfig(**d["quadrature"])
            mc = McConfig(**d["mc"])
        except (TypeError, ValueError) as e:
            raise ConfigError(f"bad quadrature/mc settings: {e}") from None
        theta, lam, s, tol = (_number(d[k], k) for k in ("theta", "lambda", "s", "tol"))
        if not all(math.isfinite(v) for v in (theta, lam, s, tol)):
            raise ConfigError("theta, lambda, s and tol must be finite")
        if tol <= 0:
            raise ConfigError("tol must be positive")
        if lam <= 0:
            raise ConfigError("lambda must be positive")
        if d["format"] not in ("csv", "json"):
            raise ConfigError("format must be 'csv' or 'json'")
        if not isinstance(d["out"], str):
            raise ConfigError(f"out must be a directory name, not {d['out']!r}")
        order = d["order"]
        if isinstance(order, bool) or not (isinstance(order, int) and 0 <= order <= MAX_ORDER):
            raise ConfigError(f"order must be an integer in [0, {MAX_ORDER}]")
        return cls(
            spectrum=spec,
            regulator=reg,
            theta=theta,
            lam=lam,
            s=s,
            order=d["order"],
            tol=tol,
            s_grid=GridSpec.from_dict(d["s_grid"], "s_grid"),
            lambda_grid=GridSpec.from_dict(d["lambda_grid"], "lambda_grid"),
            n_grid=GridSpec.from_dict(d["n_grid"], "n_grid"),
            theta_grid=GridSpec.from_dict(d["theta_grid"], "theta_grid"),
            quadrature=quad,
            mc=mc,
            out=d["out"],
            fmt=str(d["format"]),
        )

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config parse error: {e}") from None
        return cls.from_dict(raw)
