"""Synthetic tiled-VR workload generator.

Stands in for a recorded head-movement dataset plus viewport predictor: a
smooth random walk moves a center of attention over the tile grid, tiles
get viewing probability decaying with distance to it, and each chunk ships
one GoP for each of the most-likely-viewed tiles. Frame sizes follow a
Gamma distribution calibrated so the flow offers its configured bitrate,
with I-frames a configurable multiple of the others.

A trace is built as numpy columns, one per frame field, over every frame
at once: the walk's probabilities for every chunk and tile, each chunk's
tiles in order of probability, and each frame's size, send instant,
deadline, importance and id. Each float column is computed with the same
operations in the same order as the scalar formulas in :mod:`vrsched.video`
apply to one frame, so every value has the same bits; the scalar random
draws stay scalar, since array draws would use the stream differently.
:meth:`TraceParams.validate` bounds the inputs, and the frame objects are
made last, by one C-level ``map`` of the frame constructor over the
columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType

import numpy as np

from .video import FlowTrace, FrameId, FrameMeta, chunk_deadline, two_layer_gop
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

    @property
    def unit_bytes(self) -> float:
        """The mean size of a non-I frame, calibrated so a chunk offers the bitrate."""
        chunk_bytes = self.bitrate_bps * self.chunk_s / 8.0
        return chunk_bytes / (self.gops_per_chunk * (self.i_frame_ratio + self.gop_size - 1))

    def validate(self) -> None:
        """Raise ValueError, its message led by the offending field names.

        Chunk, tile and GoP position ids must fit the wire's fields. The
        quotients are bounded before ``n_chunks`` and ``frames_per_chunk``
        round them: an infinite one cannot be rounded, and a huge one would
        build a trace until memory runs out. The float fields the frames are
        computed from must be finite, and a chunk and the Gamma scale of the
        largest frame mean at most ``MAX_CHUNK_BYTES``, so every frame size is
        a positive int64 and every send time and deadline finite, which the
        frame constructor does not check.
        """
        for name in ("bitrate_bps", "i_frame_ratio", "gamma_shape", "uplink_ms"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name}: must be finite, got {getattr(self, name)}")
        if self.bitrate_bps <= 0:
            raise ValueError(f"bitrate_bps: must be positive, got {self.bitrate_bps}")
        if self.chunk_s <= 0:
            raise ValueError(f"chunk_s: must be positive, got {self.chunk_s}")
        if self.uplink_ms < 0:
            raise ValueError(f"uplink_ms: must be nonnegative, got {self.uplink_ms}")
        if not self.video_s / self.chunk_s <= MAX_CHUNK:
            raise ValueError(f"video_s/chunk_s: more than {MAX_CHUNK} chunks")
        if self.n_chunks < 1:
            raise ValueError("video_s/chunk_s: video shorter than one chunk")
        if not self.bitrate_bps * self.chunk_s / 8.0 <= MAX_CHUNK_BYTES:
            raise ValueError(f"bitrate_bps/chunk_s: a chunk would hold more than "
                             f"{MAX_CHUNK_BYTES:g} bytes")
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
        # the I-frame mean is the largest; a tiny shape makes its scale huge
        if not self.unit_bytes * self.i_frame_ratio / self.gamma_shape <= MAX_CHUNK_BYTES:
            raise ValueError(f"gamma_shape: {self.gamma_shape!r} gives I-frame sizes a "
                             f"Gamma scale over {MAX_CHUNK_BYTES:g} bytes")


# Frame sizes are drawn as floats and stored as int64; a chunk and a Gamma
# scale of at most this many bytes keep every draw far inside that range.
MAX_CHUNK_BYTES = 1e12


def gamma_frame_sizes(
    rng: np.random.Generator, mean_bytes: float | np.ndarray, shape: float, n: int
) -> np.ndarray:
    """Gamma-distributed frame sizes with the given mean, floored at 1 byte.

    ``mean_bytes`` may be an array of ``n`` per-frame means.
    """
    draws = rng.gamma(shape, mean_bytes / shape, size=n)
    return np.maximum(1, np.rint(draws)).astype(np.int64)


def _walk_probs(
    n_chunks: int, rows: int, cols: int, rng: np.random.Generator, decay: float, uniform: bool
) -> np.ndarray:
    """The walk's probabilities as an ``(n_chunks, rows * cols)`` array; column m-1 is tile m.

    The center is drawn with scalar ``rng.integers`` calls, two after each
    chunk: array draws would use the stream differently. A tile's
    probability is read from a table indexed by its row distance and its
    wrapped column distance to the center, filled with the scalar
    ``decay ** math.hypot(dr, dc)``, since ``np.hypot`` and ``np.power`` may
    differ from them in the last bit.
    """
    if uniform:
        return np.ones((n_chunks, rows * cols))
    row = int(rng.integers(rows))
    col = int(rng.integers(cols))
    centers = []
    for _ in range(n_chunks):
        centers.append((row, col))
        row = min(rows - 1, max(0, row + int(rng.integers(-1, 2))))
        col = (col + int(rng.integers(-1, 2))) % cols
    center_row, center_col = np.array(centers).T
    table = np.array([[decay ** math.hypot(dr, dc) for dc in range(cols // 2 + 1)]
                      for dr in range(rows)])
    tile_row, tile_col = np.divmod(np.arange(rows * cols), cols)
    dr = np.abs(tile_row - center_row[:, None])
    dc = np.abs(tile_col - center_col[:, None])
    dc = np.where(dc > cols / 2.0, cols - dc, dc)
    return table[dr, dc]


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
    return _tile_dicts(_walk_probs(n_chunks, rows, cols, rng, decay, uniform))


def _tile_dicts(probs: np.ndarray) -> list[dict[int, float]]:
    """Each row of ``probs`` as a ``{tile: p}`` dict; column m-1 is tile m."""
    tiles = range(1, probs.shape[1] + 1)
    return [dict(zip(tiles, chunk)) for chunk in probs.tolist()]


def generate_trace(params: TraceParams, seed: int) -> FlowTrace:
    """Produce one flow's full send schedule.

    The client issues one request per chunk duration (chunk c at
    ``(c-1) * chunk_s``) and the server paces the chunk's frames uniformly
    over the following chunk duration. Playback of chunk c starts ``lead``
    chunk durations after its request, so at steady state a chunk's
    deadline is ``lead`` whole chunk durations and each frame's deadline
    shrinks by its send offset.

    Every field is computed for all frames at once, as a numpy column in
    (chunk, GoP, position) order: frame j of a chunk is sent at
    ``t_first + j * gap`` with deadline ``ddl_chunk - (send - t_first)``,
    and frame k of a GoP on a tile of probability p has importance
    ``p * n_k / gop_size``. Each column takes the same IEEE operations, in
    the same order, as :func:`~vrsched.video.frame_deadline` and
    :func:`~vrsched.video.importance` take on one frame, so every value
    has the bits those functions give. The frames are made from the
    columns last, by one ``map`` of the :class:`~vrsched.video.FrameMeta`
    constructor, which checks each frame as a direct call does.
    """
    params.validate()
    size_rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(params.flow, _SIZE_STREAM))
    )
    walk_rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(params.flow, _WALK_STREAM))
    )

    gop = two_layer_gop(params.gop_size)
    n_chunks = params.n_chunks
    probs = _walk_probs(
        n_chunks, params.tile_rows, params.tile_cols, walk_rng,
        params.walk_decay, params.uniform_attention,
    )

    n_frames = params.frames_per_chunk
    gops = params.gops_per_chunk

    chunk_ms = params.chunk_s * 1000.0
    frame_gap_ms = chunk_ms / n_frames
    # the same for every chunk: during pre-roll the countdown runs as if
    # playback had begun, so the first chunks get the steady-state lead
    ddl_chunk = chunk_deadline(params.request_lead_chunks, 0, params.chunk_s)

    # one draw for the whole trace: the same generator gives the same
    # values in the same order as one draw per GoP
    means = np.full(params.gop_size, params.unit_bytes)
    means[0] *= params.i_frame_ratio
    n_gops = n_chunks * gops
    sizes = gamma_frame_sizes(
        size_rng, np.tile(means, n_gops), params.gamma_shape, n_gops * params.gop_size
    )

    # each chunk's GoPs go to its most likely tiles, ties to the lower id:
    # a stable sort on -p keeps equal tiles in id order
    tiles = np.argsort(-probs, axis=1, kind="stable")[:, :gops]
    tile_p = np.take_along_axis(probs, tiles, axis=1)
    # the frames of a GoP that die with frame k, itself too if it counts
    lost = np.array([gop.dependents[k] for k in range(1, params.gop_size + 1)])
    lost += params.importance_counts_self
    gamma = tile_p[:, :, None] * lost / params.gop_size

    # chunk c is requested at (c - 1) * chunk_ms and its first frame sent uplink_ms later
    t_first = np.arange(n_chunks) * chunk_ms + params.uplink_ms
    send = t_first[:, None] + np.arange(n_frames) * frame_gap_ms
    deadline = ddl_chunk - (send - t_first[:, None])

    ids = zip(
        np.arange(1, n_chunks + 1).repeat(n_frames).tolist(),
        (tiles + 1).repeat(params.gop_size, axis=1).ravel().tolist(),
        np.tile(np.arange(1, params.gop_size + 1), n_gops).tolist(),
    )
    # tuple.__new__ is what FrameId(c, m, k) calls, minus its Python-level frame
    frames = tuple(map(
        FrameMeta, map(tuple.__new__, repeat(FrameId), ids), sizes.tolist(),
        gamma.ravel().tolist(), deadline.ravel().tolist(), send.ravel().tolist(),
    ))

    return FlowTrace(
        flow=params.flow,
        frames=frames,
        viewing_prob=MappingProxyType({
            c: MappingProxyType(chunk) for c, chunk in enumerate(_tile_dicts(probs), start=1)
        }),
    )


# The traces of one seed, keyed by (params, seed); see cached_trace.
_TRACE_CACHE: dict[tuple[TraceParams, int], FlowTrace] = {}


def clear_caches() -> None:
    """Forget the cached traces."""
    _TRACE_CACHE.clear()


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
            clear_caches()
        trace = _TRACE_CACHE[key] = generate_trace(params, seed)
    return trace
