"""Deadline-aware two-timescale bandwidth scheduling for VR video flows.

A discrete-event simulator of multiple tiled-VR flows sharing one
bottleneck link, plus the reusable scheduling pieces: queuing-delay-bound
tracking, frame-importance ordering, Kingman-based long-timescale
allocation, greedy short-timescale scheduling, and frame-level DWRR and
EDF forwarders, with RR/EDF baselines and ablation variants.
"""

from .allocation import (
    ArrivalServiceStats,
    FlowLtInput,
    LtDecision,
    allocate_lt,
    kingman_delay,
    max_target_delay,
    rate_for_target_delay,
)
from .baselines import SchedulerPolicy, parse_policy, rr_allocate
from .config import ConfigError, SimConfig, apply_overrides, load_config
from .delay import EwmaStat, FlowDelayState
from .forwarder import DwrrForwarder, EdfForwarder
from .frame_queue import FrameQueue, QueuedFrame, forward_prefix, tolerable_time
from .scheduling import FlowStInput, StDecision, classify, compensate, schedule_st, utility
from .sim import RunResult, Simulation, run
from .traffic import TraceParams, generate_trace, viewing_probability_walk
from .video import (
    FlowTrace,
    FrameId,
    FrameMeta,
    GopStructure,
    chunk_deadline,
    frame_deadline,
    importance,
    read_trace,
    two_layer_gop,
    write_trace,
)
from .wire import MetadataOption, WireError, decode, encode

__version__ = "0.1.0"
