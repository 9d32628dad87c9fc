"""Simulation configuration: schema, JSON loading, dotted overrides.

Every knob of the experiment setup lives here with the defaults used by
the evaluation protocol (1 s long intervals, 50 ms short intervals,
beta = 0.01, 10 flows on a 4x6 tile grid, 5 ms bottleneck propagation).
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any

from .baselines import parse_policy
from .traffic import MAX_CHUNK_BYTES, TraceParams
from .video import US_PER_S
from .wire import MAX_MS


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


# accepted value types per field annotation; bool is never a number here
_FIELD_TYPES = {
    "float": (int, float),
    "int": int,
    "bool": bool,
    "str": str,
    "tuple[str, ...]": tuple,
}


def _check_type(field: dataclasses.Field, value: Any) -> None:
    want = _FIELD_TYPES[field.type]
    if not isinstance(value, want) or (isinstance(value, bool) and want is not bool):
        raise ConfigError(f"{field.name}: expected {field.type}, got {value!r}")
    if field.type == "float":
        try:
            finite = math.isfinite(value)
        except OverflowError:   # an int too large for a float
            finite = False
        if not finite:
            raise ConfigError(f"{field.name}: must be finite, got {value!r}")


@dataclass(frozen=True)
class SimConfig:
    # link / topology
    bottleneck_mbps: float = 25.0
    propagation_ms: float = 5.0        # bottleneck -> client
    server_delay_ms: float = 10.0      # server -> bottleneck, base
    ack_delay_ms: float = 15.0         # client -> server feedback path
    regime: str = "stable"             # "stable" | "unstable"
    jitter_mean_ms: float = 15.0       # exponential extra server->bottleneck delay

    # workload
    n_flows: int = 10
    bitrate_mbps_min: float = 1.9
    bitrate_mbps_max: float = 4.7
    video_s: float = 30.0
    fps: float = 30.0
    chunk_s: float = 1.0
    tile_rows: int = 4
    tile_cols: int = 6
    gop_size: int = 6
    i_frame_ratio: float = 3.0
    gamma_shape: float = 4.0
    request_lead_chunks: int = 2
    walk_decay: float = 0.5
    uniform_attention: bool = False
    importance_counts_self: bool = False
    trace_files: tuple[str, ...] = ()

    # scheduler
    policy: str = "proposed"
    delta_s: float = 1.0
    sti_s: float = 0.05
    beta: float = 0.01
    epsilon: float = 0.1
    ewma_alpha: float = 0.125
    d_min_ms: float = 1.0
    prior_external_ms: float = 20.0
    proactive_drop: bool = True

    seed: int = 1

    @property
    def link_bps(self) -> float:
        return self.bottleneck_mbps * 1e6

    def bitrates_bps(self) -> list[float]:
        if self.n_flows == 1:
            return [self.bitrate_mbps_min * 1e6]
        lo, hi = self.bitrate_mbps_min, self.bitrate_mbps_max
        step = (hi - lo) / (self.n_flows - 1)
        return [(lo + i * step) * 1e6 for i in range(self.n_flows)]

    def trace_params(self, flow: int) -> TraceParams:
        return TraceParams(
            flow=flow,
            bitrate_bps=self.bitrates_bps()[flow],
            video_s=self.video_s,
            fps=self.fps,
            chunk_s=self.chunk_s,
            tile_rows=self.tile_rows,
            tile_cols=self.tile_cols,
            gop_size=self.gop_size,
            i_frame_ratio=self.i_frame_ratio,
            gamma_shape=self.gamma_shape,
            request_lead_chunks=self.request_lead_chunks,
            uplink_ms=self.propagation_ms + self.server_delay_ms,
            walk_decay=self.walk_decay,
            uniform_attention=self.uniform_attention,
            importance_counts_self=self.importance_counts_self,
        )

    def validate(self) -> None:
        for f in fields(self):
            _check_type(f, getattr(self, f.name))
        if self.bottleneck_mbps <= 0:
            raise ConfigError("bottleneck_mbps: must be positive")
        if self.n_flows < 0:
            raise ConfigError("n_flows: must be nonnegative")
        if self.seed < 0:
            raise ConfigError("seed: must be nonnegative")
        if self.regime not in ("stable", "unstable"):
            raise ConfigError(f"regime: unknown value '{self.regime}'")
        if self.jitter_mean_ms < 0:
            raise ConfigError("jitter_mean_ms: must be nonnegative")
        if self.propagation_ms < 0 or self.server_delay_ms < 0 or self.ack_delay_ms < 0:
            raise ConfigError("propagation_ms/server_delay_ms/ack_delay_ms: must be nonnegative")
        if self.server_delay_ms + self.propagation_ms + self.ack_delay_ms > MAX_MS:
            raise ConfigError(f"server_delay_ms/propagation_ms/ack_delay_ms: the path "
                              f"delay exceeds the wire's {MAX_MS} ms RTT field")
        if self.jitter_mean_ms > MAX_MS:
            raise ConfigError(f"jitter_mean_ms: exceeds the wire's {MAX_MS} ms RTT field")
        if self.bitrate_mbps_min <= 0 or self.bitrate_mbps_max < self.bitrate_mbps_min:
            raise ConfigError("bitrate_mbps_min/max: need 0 < min <= max")
        if self.delta_s <= 0 or self.sti_s <= 0:
            raise ConfigError("delta_s/sti_s: must be positive")
        # the simulator runs on a whole-microsecond clock
        for name in ("delta_s", "sti_s"):
            if round(getattr(self, name) * US_PER_S) < 1:
                raise ConfigError(f"{name}: shorter than 1 us")
        if self.delta_s < self.sti_s:
            raise ConfigError("sti_s: short interval exceeds the long interval")
        if not 0 <= self.epsilon:
            raise ConfigError("epsilon: must be nonnegative")
        if not 0 < self.ewma_alpha <= 1:
            raise ConfigError("ewma_alpha: must lie in (0, 1]")
        if self.d_min_ms <= 0:
            raise ConfigError("d_min_ms: must be positive")
        if self.beta < 0:
            raise ConfigError("beta: must be nonnegative")
        try:
            parse_policy(self.policy)
        except ValueError as exc:
            raise ConfigError(f"policy: {exc}") from exc
        if self.trace_files and len(self.trace_files) != self.n_flows:
            raise ConfigError(
                f"trace_files: got {len(self.trace_files)} paths for {self.n_flows} flows"
            )
        for path in self.trace_files:
            if not Path(path).is_file():
                raise ConfigError(f"trace_files: no such file '{path}'")
        if self.n_flows:
            try:
                self.trace_params(0).validate()
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
            # flow 0 has the least bitrate; the last flow may have the most
            if not self.bitrate_mbps_max * 1e6 * self.chunk_s / 8.0 <= MAX_CHUNK_BYTES:
                raise ConfigError(
                    f"bitrate_mbps_max: a chunk would hold more than {MAX_CHUNK_BYTES:g} bytes"
                )

    @classmethod
    def from_dict(cls, data: dict[str, Any], source: str = "config") -> "SimConfig":
        known = {f.name: f for f in fields(cls)}
        kwargs: dict[str, Any] = {}
        for key, value in data.items():
            if key not in known:
                raise ConfigError(f"{source}: unknown field '{key}'")
            if key == "trace_files":
                if not isinstance(value, (list, tuple)):
                    raise ConfigError(f"{source}: trace_files must be a list")
                value = tuple(str(v) for v in value)
            kwargs[key] = value
        try:
            cfg = cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"{source}: {exc}") from exc
        return cfg


def load_config(path: str | Path) -> SimConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p}: invalid JSON ({exc})")
    if not isinstance(data, dict):
        raise ConfigError(f"{p}: top level must be an object")
    return SimConfig.from_dict(data, source=str(p))


def _coerce(field: dataclasses.Field, raw: str) -> Any:
    if field.type == "bool":
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{field.name}: expected a boolean, got '{raw}'")
    if field.type == "int":
        return int(raw)
    if field.type == "float":
        return float(raw)
    if field.name == "trace_files":
        return tuple(s for s in raw.split(";") if s)
    return raw


def apply_overrides(cfg: SimConfig, overrides: list[str]) -> SimConfig:
    """Apply ``key=value`` overrides on top of a loaded config."""
    known = {f.name: f for f in fields(SimConfig)}
    updates: dict[str, Any] = {}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override '{item}' is not key=value")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in known:
            raise ConfigError(f"override: unknown field '{key}'")
        try:
            updates[key] = _coerce(known[key], raw.strip())
        except ValueError as exc:
            raise ConfigError(f"override {key}: {exc}") from exc
    return dataclasses.replace(cfg, **updates)
