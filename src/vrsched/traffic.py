"""Synthetic tiled-VR workload generator.

Stands in for a recorded head-movement dataset plus viewport predictor: a
smooth random walk moves a center of attention over the tile grid, tiles
get viewing probability decaying with distance to it, and each chunk ships
one GoP for each of the most-likely-viewed tiles. Frame sizes follow a
Gamma distribution calibrated so the flow offers its configured bitrate,
with I-frames a configurable multiple of the others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .video import (
    FlowTrace,
    FrameId,
    FrameMeta,
    chunk_deadline,
    frame_deadline,
    importance,
    two_layer_gop,
)
from .wire import MAX_CHUNK, MAX_GOP_POS, MAX_TILE

_SIZE_STREAM = 0
_WALK_STREAM = 1


@dataclass(frozen=True)
class TraceParams:
    flow: int = 0
    bitrate_bps: float = 2.5e6
    video_s: float = 30.0
    fps: float = 30.0
    chunk_s: float = 1.0
    tile_rows: int = 4
    tile_cols: int = 6
    gop_size: int = 6
    i_frame_ratio: float = 3.0
    gamma_shape: float = 4.0
    request_lead_chunks: int = 2
    uplink_ms: float = 15.0
    walk_decay: float = 0.5
    uniform_attention: bool = False
    importance_counts_self: bool = False

    @property
    def n_chunks(self) -> int:
        return int(round(self.video_s / self.chunk_s))

    @property
    def frames_per_chunk(self) -> int:
        return int(round(self.fps * self.chunk_s))

    @property
    def gops_per_chunk(self) -> int:
        return self.frames_per_chunk // self.gop_size

    def validate(self) -> None:
        """Raise ValueError, its message led by the offending field names.

        Chunk, tile and GoP position ids must fit the wire's fields. The
        quotients are bounded before ``n_chunks`` and ``frames_per_chunk``
        round them: an infinite one cannot be rounded, and a huge one would
        build a trace until memory runs out.
        """
        if self.bitrate_bps <= 0:
            raise ValueError(f"bitrate_bps: must be positive, got {self.bitrate_bps}")
        if self.chunk_s <= 0:
            raise ValueError(f"chunk_s: must be positive, got {self.chunk_s}")
        if not self.video_s / self.chunk_s <= MAX_CHUNK:
            raise ValueError(f"video_s/chunk_s: more than {MAX_CHUNK} chunks")
        if self.n_chunks < 1:
            raise ValueError("video_s/chunk_s: video shorter than one chunk")
        if not self.fps * self.chunk_s <= MAX_TILE * MAX_GOP_POS:
            raise ValueError(f"fps/chunk_s: more than {MAX_TILE * MAX_GOP_POS} frames per chunk")
        if self.frames_per_chunk < 1:
            raise ValueError("fps/chunk_s: chunk shorter than one frame interval")
        if self.tile_rows < 1 or self.tile_cols < 1:
            raise ValueError("tile_rows/tile_cols: must be positive")
        if self.tile_rows * self.tile_cols > MAX_TILE:
            raise ValueError(f"tile_rows/tile_cols: more than {MAX_TILE} tiles")
        if self.gop_size > MAX_GOP_POS:
            raise ValueError(f"gop_size: {self.gop_size} is more than {MAX_GOP_POS} frames")
        try:
            two_layer_gop(self.gop_size)
        except ValueError as exc:
            raise ValueError(f"gop_size: {exc}") from exc
        if self.gop_size > self.frames_per_chunk or self.frames_per_chunk % self.gop_size:
            raise ValueError(
                f"gop_size/fps/chunk_s: gop size {self.gop_size} does not fit the "
                f"{self.frames_per_chunk}-frame chunk"
            )
        if self.gops_per_chunk > self.tile_rows * self.tile_cols:
            raise ValueError("tile_rows/tile_cols: more GoPs per chunk than tiles in the grid")
        if self.request_lead_chunks < 1:
            raise ValueError("request_lead_chunks: must be at least one chunk")
        if not 0.0 < self.walk_decay < 1.0:
            raise ValueError(f"walk_decay: {self.walk_decay} outside (0, 1)")
        if self.i_frame_ratio < 1.0:
            raise ValueError("i_frame_ratio: I-frames cannot be smaller than the others")
        if self.gamma_shape <= 0:
            raise ValueError("gamma_shape: must be positive")


# Frame sizes are drawn as floats and stored as int64; a chunk of at most
# this many bytes keeps every draw far inside that range.
MAX_CHUNK_BYTES = 1e12


def gamma_frame_sizes(
    rng: np.random.Generator, mean_bytes: float | np.ndarray, shape: float, n: int
) -> np.ndarray:
    """Gamma-distributed frame sizes with the given mean, floored at 1 byte.

    ``mean_bytes`` may be an array of ``n`` per-frame means.
    """
    draws = rng.gamma(shape, mean_bytes / shape, size=n)
    return np.maximum(1, np.rint(draws)).astype(np.int64)


def viewing_probability_walk(
    n_chunks: int,
    rows: int,
    cols: int,
    rng: np.random.Generator,
    decay: float = 0.5,
    uniform: bool = False,
) -> list[dict[int, float]]:
    """Per-chunk tile viewing probabilities from a center-of-attention walk.

    The center moves at most one tile per chunk; columns wrap (the panorama
    is periodic in longitude) while rows clamp at the poles. A tile's
    probability is ``decay ** distance`` to the center, so the center tile
    gets 1.0 and everything stays strictly positive. Uniform mode gives all
    tiles probability 1.
    """
    probs: list[dict[int, float]] = []
    if uniform:
        flat = {r * cols + c + 1: 1.0 for r in range(rows) for c in range(cols)}
        return [dict(flat) for _ in range(n_chunks)]
    row = int(rng.integers(rows))
    col = int(rng.integers(cols))
    half_cols = cols / 2.0
    for _ in range(n_chunks):
        chunk_probs: dict[int, float] = {}
        for r in range(rows):
            for c in range(cols):
                dc = abs(c - col)
                if dc > half_cols:
                    dc = cols - dc
                dist = math.hypot(r - row, dc)
                chunk_probs[r * cols + c + 1] = decay ** dist
        probs.append(chunk_probs)
        row = min(rows - 1, max(0, row + int(rng.integers(-1, 2))))
        col = (col + int(rng.integers(-1, 2))) % cols
    return probs


def generate_trace(params: TraceParams, seed: int) -> FlowTrace:
    """Produce one flow's full send schedule.

    The client issues one request per chunk duration (chunk c at
    ``(c-1) * chunk_s``) and the server paces the chunk's frames uniformly
    over the following chunk duration. Playback of chunk c starts ``lead``
    chunk durations after its request, so at steady state a chunk's
    deadline is ``lead`` whole chunk durations and each frame's deadline
    shrinks by its send offset.
    """
    params.validate()
    size_rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(params.flow, _SIZE_STREAM))
    )
    walk_rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(params.flow, _WALK_STREAM))
    )

    gop = two_layer_gop(params.gop_size)
    probs = viewing_probability_walk(
        params.n_chunks, params.tile_rows, params.tile_cols, walk_rng,
        params.walk_decay, params.uniform_attention,
    )

    n_frames = params.frames_per_chunk
    gops = params.gops_per_chunk
    # Calibrate the non-I frame mean so the chunk total matches the bitrate.
    chunk_bytes = params.bitrate_bps * params.chunk_s / 8.0
    unit = chunk_bytes / (gops * (params.i_frame_ratio + params.gop_size - 1))

    chunk_ms = params.chunk_s * 1000.0
    frame_gap_ms = chunk_ms / n_frames
    lead = params.request_lead_chunks

    # one draw for the whole trace: the same generator gives the same
    # values in the same order as one draw per GoP
    means = np.full(params.gop_size, unit)
    means[0] *= params.i_frame_ratio
    n_gops = params.n_chunks * gops
    sizes = gamma_frame_sizes(
        size_rng, np.tile(means, n_gops), params.gamma_shape, n_gops * params.gop_size
    ).tolist()

    frames: list[FrameMeta] = []
    for c in range(1, params.n_chunks + 1):
        # during pre-roll the countdown runs as if playback had begun, so
        # the first chunks get the same lead as the steady state
        if c > lead:
            ddl_chunk = chunk_deadline(c, c - lead, params.chunk_s)
        else:
            ddl_chunk = chunk_deadline(lead, 0, params.chunk_s)
        t_request = (c - 1) * chunk_ms
        t_first = t_request + params.uplink_ms
        tile_order = sorted(probs[c - 1], key=lambda m: (-probs[c - 1][m], m))
        j = 0
        for g in range(gops):
            tile = tile_order[g]
            p = probs[c - 1][tile]
            for k in range(1, params.gop_size + 1):
                t_send = t_first + j * frame_gap_ms
                frames.append(
                    FrameMeta(
                        id=FrameId(c, tile, k),
                        size=sizes[len(frames)],
                        gamma=importance(p, k, gop, params.importance_counts_self),
                        deadline_ms=frame_deadline(ddl_chunk, t_send, t_first),
                        send_time_ms=t_send,
                    )
                )
                j += 1

    return FlowTrace(
        flow=params.flow,
        frames=tuple(frames),
        viewing_prob=MappingProxyType(
            {c + 1: MappingProxyType(probs[c]) for c in range(params.n_chunks)}
        ),
    )


# The traces of one seed, keyed by (params, seed); see cached_trace.
_TRACE_CACHE: dict[tuple[TraceParams, int], FlowTrace] = {}


def cached_trace(params: TraceParams, seed: int) -> FlowTrace:
    """:func:`generate_trace` through a cache that holds one seed's traces.

    A trace depends only on ``(params, seed)``, so runs of one seed that
    differ in policy, link or regime share their traces, which are
    immutable. The cache is emptied before a trace of another seed is
    made, so two seeds' traces are never held at once.
    """
    key = (params, seed)
    trace = _TRACE_CACHE.get(key)
    if trace is None:
        if _TRACE_CACHE and next(iter(_TRACE_CACHE))[1] != seed:
            _TRACE_CACHE.clear()
        trace = _TRACE_CACHE[key] = generate_trace(params, seed)
    return trace
