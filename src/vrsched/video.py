"""Domain model for tiled VR video flows.

A flow is a sequence of chunks; each chunk carries a handful of tile GoPs;
each GoP is a short run of frames with decode dependencies rooted at its
I-frame. Frame importance combines the tile's viewing probability with the
share of the GoP that dies with the frame.

Interfaces use milliseconds for times and deadlines; the simulator converts
to integer microseconds internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

from .wire import MAX_CHUNK, MAX_GOP_POS, MAX_TILE

US_PER_MS = 1000
US_PER_S = 1_000_000


class FrameId(NamedTuple):
    """Frame identity: chunk, tile, position in GoP encoding order (all 1-based).

    A NamedTuple, so hashing, equality and (c, m, k) ordering run in C.
    """

    c: int
    m: int
    k: int


@dataclass(frozen=True)
class GopStructure:
    """Decode-dependency summary of one GoP.

    ``dependents[k]`` counts the other frames that become undecodable when
    frame ``k`` is lost (the frame itself excluded). The I-frame at k=1
    carries everything else: dependents[1] == gop_size - 1.
    """

    gop_size: int
    dependents: Mapping[int, int]

    def __post_init__(self) -> None:
        if self.gop_size < 1:
            raise ValueError(f"gop_size must be >= 1, got {self.gop_size}")
        if set(self.dependents) != set(range(1, self.gop_size + 1)):
            raise ValueError("dependents must cover exactly positions 1..gop_size")
        for k, n in self.dependents.items():
            if not 0 <= n <= self.gop_size - 1:
                raise ValueError(f"dependents[{k}]={n} outside 0..{self.gop_size - 1}")
        if self.dependents[1] != self.gop_size - 1:
            raise ValueError("I-frame (k=1) must carry gop_size-1 dependents")


def two_layer_gop(gop_size: int) -> GopStructure:
    """Build the default two-temporal-sub-layer GoP.

    The base layer (encoded first) is an I-frame followed by a P chain; the
    top layer is non-reference B-frames predicted from adjacent base frames.
    Losing base frame i kills the rest of its chain plus every top-layer
    frame referencing the dead part; top-layer frames carry nothing.
    """
    if gop_size < 2 or gop_size % 2:
        raise ValueError(f"two-layer GoP needs an even size >= 2, got {gop_size}")
    half = gop_size // 2
    deps = {1: gop_size - 1}
    for i in range(2, half + 1):
        deps[i] = 2 * (half - i) + 2
    for i in range(half + 1, gop_size + 1):
        deps[i] = 0
    return GopStructure(gop_size, deps)


def importance(p: float, k: int, gop: GopStructure, count_self: bool = False) -> float:
    """Importance of frame ``k``: viewing probability times the dependency share.

    ``count_self`` additionally counts the frame itself as lost content,
    which gives leaf frames a nonzero score. Off by default.
    """
    if not 1 <= k <= gop.gop_size:
        raise ValueError(f"frame position {k} outside 1..{gop.gop_size}")
    n = gop.dependents[k] + (1 if count_self else 0)
    return p * n / gop.gop_size


def chunk_deadline(c: int, watching: int, chunk_s: float) -> float:
    """Milliseconds until chunk ``c`` starts playing, requested during chunk ``watching``."""
    if c <= watching:
        raise ValueError(f"chunk {c} is not ahead of playback position {watching}")
    return chunk_s * 1000.0 * (c - watching)


def frame_deadline(ddl_chunk_ms: float, t_send_ms: float, t_first_send_ms: float) -> float:
    """Per-frame deadline: the chunk deadline shrunk by the in-chunk send offset.

    May go negative for very late sends; callers treat that as already expired.
    """
    if t_send_ms < t_first_send_ms:
        raise ValueError("frame sent before the first frame of its chunk")
    return ddl_chunk_ms - (t_send_ms - t_first_send_ms)


@dataclass(frozen=True)
class FrameMeta:
    """Immutable description of one frame as the server emits it."""

    id: FrameId
    size: int                     # bytes
    gamma: float                  # importance in [0, 1]
    deadline_ms: float            # remaining lifetime at send time
    send_time_ms: float           # server send instant, flow-relative

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"frame size must be positive, got {self.size}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"importance {self.gamma} outside [0, 1]")


@dataclass(frozen=True)
class FlowTrace:
    """One flow's complete send schedule plus its per-chunk tile probabilities.

    ``viewing_prob[c][m]`` is the viewing probability of tile m in chunk c.
    It is generator-side metadata and is not part of the trace file format.
    A trace is shared by every run of its seed, so nothing in it can be
    changed: ``viewing_prob`` is read-only at both levels.
    """

    flow: int
    frames: tuple[FrameMeta, ...]
    viewing_prob: Mapping[int, Mapping[int, float]] = field(
        default_factory=lambda: MappingProxyType({})
    )


TRACE_HEADER = "flow,c,m,k,size_bytes,gamma,ddl_ms,send_time_ms"


def write_trace(trace: FlowTrace, path: str | Path) -> None:
    """Write a trace as the newline-delimited frame record file."""
    lines = [TRACE_HEADER]
    for f in trace.frames:
        lines.append(
            f"{trace.flow},{f.id.c},{f.id.m},{f.id.k},{f.size},"
            f"{f.gamma!r},{f.deadline_ms!r},{f.send_time_ms!r}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def read_trace(path: str | Path) -> FlowTrace:
    """Read a trace file written by :func:`write_trace`.

    Frames must be in send order: send times finite, nonnegative and
    nondecreasing, deadlines finite, no frame id repeated, and every id
    within the wire's chunk, tile and GoP position fields.
    """
    text = Path(path).read_text().strip().splitlines()
    if not text or text[0] != TRACE_HEADER:
        raise ValueError(f"{path}: missing trace header '{TRACE_HEADER}'")
    flow: Optional[int] = None
    frames: list[FrameMeta] = []
    seen: set[FrameId] = set()
    last_send = 0.0
    for ln, line in enumerate(text[1:], start=2):
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"{path}:{ln}: expected 8 fields, got {len(parts)}")
        try:
            fid, c, m, k, size = (int(x) for x in parts[:5])
            gamma, ddl, send = (float(x) for x in parts[5:])
            frame = FrameMeta(FrameId(c, m, k), size, gamma, ddl, send)
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from exc
        if flow is None:
            flow = fid
        elif fid != flow:
            raise ValueError(f"{path}:{ln}: mixed flow ids {flow} and {fid}")
        if not (0 <= c <= MAX_CHUNK and 0 <= m <= MAX_TILE and 0 <= k <= MAX_GOP_POS):
            raise ValueError(f"{path}:{ln}: frame ({c},{m},{k}) outside the wire's ranges "
                             f"0..{MAX_CHUNK}, 0..{MAX_TILE}, 0..{MAX_GOP_POS}")
        if not (math.isfinite(ddl) and math.isfinite(send)):
            raise ValueError(f"{path}:{ln}: ddl_ms and send_time_ms must be finite")
        if send < last_send:
            raise ValueError(f"{path}:{ln}: send_time_ms {send!r} < {last_send!r}; "
                             "send times must be nonnegative and nondecreasing")
        if frame.id in seen:
            raise ValueError(f"{path}:{ln}: frame ({c},{m},{k}) repeated")
        seen.add(frame.id)
        last_send = send
        frames.append(frame)
    return FlowTrace(flow=flow if flow is not None else 0, frames=tuple(frames))
