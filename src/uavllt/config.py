"""Scenario configuration for batch simulation runs.

Configs live in flat ``key=value`` text files (one pair per line, ``#``
comments allowed) so they stay trivial to parse and diff. Keys match the
:class:`ScenarioConfig` field names exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .mobility import Arena, SmoothTurnConfig


class ConfigError(ValueError):
    """Malformed or inconsistent scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    x_min: float = 0.0
    x_max: float = 5000.0
    y_min: float = 0.0
    y_max: float = 5000.0
    buffer_width: float = 500.0
    uav_count: int = 20
    speed_min: float = 20.0
    speed_max: float = 60.0
    radius_min: float = 100.0
    radius_max: float = 1000.0
    wait_min: float = 5.0
    wait_max: float = 30.0
    transmission_range: float = 1000.0
    hello_interval: float = 1.0
    duration: float = 600.0
    seed: int = 1
    horizon: float = 3600.0
    oracle_dt: float = 1e-3

    def __post_init__(self):
        if self.uav_count < 2:
            raise ConfigError(f"uav_count must be >= 2, got {self.uav_count}")
        # An infinite duration never ends a run, and NaN slips past the
        # "<= 0" checks below: a NaN range or Hello interval yields no links.
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
        for name in ("transmission_range", "hello_interval", "duration", "horizon",
                     "oracle_dt"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        for lo, hi, name in ((self.speed_min, self.speed_max, "speed"),
                             (self.radius_min, self.radius_max, "radius"),
                             (self.wait_min, self.wait_max, "wait")):
            if not (0.0 < lo <= hi):
                raise ConfigError(f"{name} range [{lo}, {hi}] must be positive and ordered")
        try:
            self.arena()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def arena(self) -> Arena:
        return Arena(self.x_min, self.x_max, self.y_min, self.y_max, self.buffer_width)

    def smooth_turn(self) -> SmoothTurnConfig:
        return SmoothTurnConfig(
            radius_min=self.radius_min, radius_max=self.radius_max,
            speed_min=self.speed_min, speed_max=self.speed_max,
            wait_min=self.wait_min, wait_max=self.wait_max,
        )


_FIELD_TYPES = {f.name: f.type for f in fields(ScenarioConfig)}
_INT_FIELDS = {"uav_count", "seed"}


def load_config(path) -> ScenarioConfig:
    """Parse a flat key=value scenario file."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.rstrip()!r}")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                values[key] = int(text) if key in _INT_FIELDS else float(text)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key}: {text!r}") from exc
    try:
        return ScenarioConfig(**values)
    except ConfigError:
        raise
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


def write_config(path, config: ScenarioConfig) -> None:
    with open(path, "w") as fh:
        for f in fields(ScenarioConfig):
            fh.write(f"{f.name} = {getattr(config, f.name)}\n")
