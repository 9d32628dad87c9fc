#!/usr/bin/env python3
"""vrsched benchmark: host time, set-up, memory and schedule quality.

    python3 perfbench/run.py --workload paper-mix --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-check

Run from the root of a checkout; the simulator is imported from its
``src/``. The load is a closed loop: one process runs one simulation at a
time through ``vrsched.sim.run``. ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` also runs untraced passes (for the tracing
overhead) and then traced passes that give the per-layer metrics. Every
simulation is checked; the last line of standard output is one JSON
object with the result. ``--self-check`` runs each workload once at a tiny
size, traced and untraced, and fails when a metric is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from layertrace import LAYERS, LayerTracer
from workloads import WORKLOADS, termination_bound

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# A single simulation that runs longer than this on the host is stopped and
# counted as failed, so that a stalled run cannot hang the benchmark.
SIM_HOST_LIMIT_S = 60

# The host is shared: how fast it runs Python drifts by 10-40% within
# seconds, the same for the simulator and for any other Python code. A fixed
# kernel is timed before and after every simulation, and each simulation's
# timings are scaled to the host speed at which the kernel takes this long.
REFERENCE_KERNEL_S = 7.0e-3

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "frames_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
# Printed with the end-to-end metrics but left out of the result line.
# Schedule quality varies too much from seed to seed to hold a bound (see
# README.md); failed_frac is 0 when all is well, so ok_frac carries it.
REPORTED_ONLY = {
    "proposed.quality_loss": "sum",
    "proposed.miss_rate": "ratio",
    "failed_frac": "ratio",
}


def import_vrsched():
    """Import vrsched from this checkout's ``src/`` and nowhere else."""
    pkg = SRC / "vrsched"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source at {pkg}")
    sys.path.insert(0, str(SRC))
    import vrsched
    import vrsched.sim

    if Path(vrsched.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"perfbench: imported vrsched from {vrsched.__file__}, not {pkg}")
    return vrsched


def per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.share"] = "ratio"
    units.update({
        "traffic.distinct_ratio": "ratio",
        "frame_queue.resort_frames": "count",
        "frame_queue.expired_ratio": "ratio",
        "frame_queue.depth_max": "frames",
        "forwarder.idle_ratio": "ratio",
        "forwarder.drop_ratio": "ratio",
        "delay.mark_match_ratio": "ratio",
        "allocation.scaled_ratio": "ratio",
        "scheduling.surplus_ratio": "ratio",
        "sim.self_us_per_frame": "us",
        "sim.intervals": "count",
        "tracing.overhead_ratio": "ratio",
    })
    return units


# -- host fingerprint -------------------------------------------------------

def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def host_fingerprint(seed: int) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src = hashlib.sha256()
    for path in sorted((SRC / "vrsched").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "vrsched_commit": _git_commit(),
        "vrsched_src_sha256": src.hexdigest()[:16],
    }


# -- host speed -------------------------------------------------------------

def _kernel() -> int:
    """Fixed pure-Python work: a keyed sort and dictionary updates."""
    rng = random.Random(1)
    pairs = [(rng.random(), i) for i in range(6000)]
    sums: dict[int, float] = {}
    acc = 0
    for _ in range(2):
        pairs.sort(key=lambda t: -t[0])
        for v, i in pairs:
            sums[i % 997] = sums.get(i % 997, 0.0) + v
            acc += i & 7
    return acc


def host_speed_s(reps: int = 5) -> float:
    """Median seconds of the reference kernel: the host's speed right now."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- one pass ---------------------------------------------------------------

class SetupClock:
    """Times ``Simulation`` construction: trace generation and runtime set-up."""

    def __init__(self, sim_module):
        self.cls = sim_module.Simulation
        self.orig = self.cls.__init__
        self.seconds = 0.0
        clock, orig, owner = time.perf_counter, self.orig, self

        def timed_init(sim, *args, **kwargs):
            t0 = clock()
            try:
                orig(sim, *args, **kwargs)
            finally:
                owner.seconds += clock() - t0

        self.cls.__init__ = timed_init

    def remove(self) -> None:
        self.cls.__init__ = self.orig


class HostTimeout(Exception):
    pass


def _on_alarm(_signum, _frame):
    raise HostTimeout(f"simulation ran over {SIM_HOST_LIMIT_S} s of host time")


@dataclass
class PassResult:
    seed: int
    wall_s: float = 0.0
    setup_s: float = 0.0
    # The same timings at reference host speed (see REFERENCE_KERNEL_S).
    scaled_wall_s: float = 0.0
    scaled_setup_s: float = 0.0
    kernel_s: list = field(default_factory=list)
    frames: int = 0
    intervals: int = 0
    digest: str = ""
    sims: int = 0
    failures: list = field(default_factory=list)
    timed_out: bool = False
    proposed: dict = field(default_factory=dict)


def check(cfg, res) -> list[str]:
    """Correctness of one finished simulation; empty when it passes."""
    problems = []
    for flow, c in res.flow_counters.items():
        if not c["generated"] == c["arrived"] == c["forwarded"] + c["dropped"]:
            problems.append(f"flow {flow} does not conserve frames: {c}")
    if res.budget_violations:
        problems.append(f"{res.budget_violations} budget violations")
    bound = termination_bound(cfg)
    if res.summary["intervals"] > bound:
        problems.append(f"ran {res.summary['intervals']} intervals, bound {bound}")
    return problems


def run_pass(vrsched, workload, seed: int, clock: SetupClock, tiny: bool) -> PassResult:
    out = PassResult(seed=seed)
    digests = hashlib.sha256()
    kernel_s = host_speed_s()
    for cfg in workload.configs(seed, tiny=tiny):
        out.sims += 1
        clock.seconds = 0.0
        signal.alarm(SIM_HOST_LIMIT_S)
        t0 = time.perf_counter()
        try:
            res = vrsched.sim.run(cfg)
        except HostTimeout as exc:
            out.failures.append(f"{cfg.policy}: {exc}")
            out.timed_out = True
            return out
        except Exception:
            out.failures.append(f"{cfg.policy}: raised\n{traceback.format_exc()}")
            continue
        finally:
            elapsed = time.perf_counter() - t0
            signal.alarm(0)
        # The speed over the simulation: the mean of the kernel just before and
        # just after it. The one after is also the one before the next.
        kernel_after_s = host_speed_s()
        scale = 2 * REFERENCE_KERNEL_S / (kernel_s + kernel_after_s)
        out.kernel_s.append(kernel_s)
        kernel_s = kernel_after_s
        out.wall_s += elapsed
        out.setup_s += clock.seconds
        out.scaled_wall_s += elapsed * scale
        out.scaled_setup_s += clock.seconds * scale
        out.failures += [f"{cfg.policy}: {p}" for p in check(cfg, res)]
        out.frames += sum(c["generated"] for c in res.flow_counters.values())
        out.intervals += res.summary["intervals"]
        digests.update(hashlib.sha256((res.summary_csv() + res.metrics_csv()).encode()).digest())
        if cfg.policy == "proposed":
            out.proposed = {
                "quality_loss": res.summary["total_quality_loss"],
                "miss_rate": res.summary["avg_drop_rate"],
            }
    out.digest = digests.hexdigest()[:16]
    return out


# -- a run ------------------------------------------------------------------

@dataclass
class Run:
    """Every pass of one invocation, and the first digest seen per seed."""

    passes: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    failed: int = 0
    attempted: int = 0

    def add(self, p: PassResult, label: str) -> None:
        self.passes.append(p)
        self.attempted += p.sims
        failed_sims = {f.split(":", 1)[0] for f in p.failures}
        first = self.digests.setdefault(p.seed, p.digest)
        if not p.failures and p.digest != first:
            failed_sims.add("digest")
            p.failures.append(f"digest {p.digest} differs from the first pass on this seed, {first}")
        self.failed += min(len(failed_sims), p.sims)
        print(f"pass {label} seed={p.seed} wall_s={p.wall_s!r} setup_s={p.setup_s!r} "
              f"scaled_wall_s={p.scaled_wall_s!r} "
              f"frames={p.frames} intervals={p.intervals} digest={p.digest}")
        for f in p.failures:
            print(f"  FAILED {f}", file=sys.stderr)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def measure(vrsched, workload, seed: int, seconds: float, traced: bool, tiny: bool) -> dict:
    """Run the workload for ``seconds``.

    Returns the simulations attempted and failed, and a report of
    {metric: (value, unit)}: end-to-end when untraced, per-layer when traced.
    """
    panel = workload.panel_seeds(seed)[: 2 if tiny else None]
    clock = SetupClock(vrsched.sim)
    run = Run()
    start = time.perf_counter()
    untraced_s = seconds / 3 if traced else seconds
    # The panel, plus one repeat for the digest check, is the least a run does.
    min_passes = 1 if traced else len(panel) + 1
    j = 0
    try:
        while j < min_passes or time.perf_counter() - start < untraced_s:
            gc.collect()
            p = run_pass(vrsched, workload, panel[j % len(panel)], clock, tiny)
            run.add(p, str(j + 1))
            j += 1
            if p.timed_out:
                break
        untraced = list(run.passes)
        layer_passes = []
        if traced and not run.passes[-1].timed_out:
            tracer = LayerTracer()
            tracer.install()
            try:
                k = 0
                while k < 1 or time.perf_counter() - start < seconds:
                    gc.collect()
                    tracer.reset()
                    p = run_pass(vrsched, workload, panel[k % len(panel)], clock, tiny)
                    layer_passes.append((p, tracer.layer_totals(), _counter_ratios(tracer),
                                         tracer.top_functions()))
                    run.add(p, f"traced-{k + 1}")
                    k += 1
                    if p.timed_out:
                        break
            finally:
                tracer.remove()
    finally:
        clock.remove()

    report = {"failed_frac": (run.failed / run.attempted, "ratio")}
    ok = [p for p in untraced if not p.failures]
    if traced:
        report.update(_layer_report(layer_passes, untraced))
    else:
        report.update(_end_to_end_report(ok, untraced[: len(panel)]))
    report["ok_frac"] = (1.0 - run.failed / run.attempted, "ratio")
    return {"report": report, "attempted": run.attempted, "failed": run.failed}


def _end_to_end_report(ok: list[PassResult], panel_passes: list[PassResult]) -> dict:
    if not ok:
        return {}
    kernel = [k for p in ok for k in p.kernel_s]
    q1, med, q3 = quartiles(kernel)
    print(f"reference kernel median={med!r} q1={q1!r} q3={q3!r} s over {len(kernel)} "
          f"simulations; each simulation's timings scaled to {REFERENCE_KERNEL_S!r} s")
    out = {}
    for name, raw, scaled in (
        ("wall_s", [p.wall_s for p in ok], [p.scaled_wall_s for p in ok]),
        ("setup_s", [p.setup_s for p in ok], [p.scaled_setup_s for p in ok]),
        ("frames_per_s", [p.frames / (p.wall_s - p.setup_s) for p in ok],
         [p.frames / (p.scaled_wall_s - p.scaled_setup_s) for p in ok]),
    ):
        q1, med, q3 = quartiles(raw)
        print(f"{name} unscaled median={med!r} q1={q1!r} q3={q3!r} n={len(raw)}")
        out[name] = (statistics.median(scaled), END_TO_END[name])
    out["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    quality = [p.proposed for p in panel_passes if p.proposed]
    if len(quality) == len(panel_passes):
        print("proposed per panel seed: " + " ".join(
            f"{p.seed}:loss={p.proposed['quality_loss']!r},miss={p.proposed['miss_rate']!r}"
            for p in panel_passes))
        out["proposed.quality_loss"] = (statistics.fmean(q["quality_loss"] for q in quality), "sum")
        out["proposed.miss_rate"] = (statistics.fmean(q["miss_rate"] for q in quality), "ratio")
    return out


def _counter_ratios(tracer) -> dict[str, tuple[float, str]]:
    """The per-layer ratios of one traced pass, each with its base printed."""
    c = tracer.counters

    def ratio(num, den):
        return num / den if den else 0.0

    return {
        "traffic.distinct_ratio": (ratio(len(c.trace_keys), c.trace_calls),
                                   f"{len(c.trace_keys)}/{c.trace_calls} distinct traces"),
        "frame_queue.resort_frames": (float(c.resort_frames), "frames re-sorted"),
        "frame_queue.expired_ratio": (ratio(c.sweep_expired, c.sweep_scanned),
                                      f"{c.sweep_expired}/{c.sweep_scanned} swept frames expired"),
        "frame_queue.depth_max": (float(c.depth_max), "frames"),
        "forwarder.idle_ratio": (ratio(c.fwd_idle, c.fwd_calls),
                                 f"{c.fwd_idle}/{c.fwd_calls} next_action calls idle"),
        "forwarder.drop_ratio": (ratio(c.fwd_drops, c.fwd_calls - c.fwd_idle),
                                 f"{c.fwd_drops}/{c.fwd_calls - c.fwd_idle} actions drops"),
        "delay.mark_match_ratio": (ratio(c.mark_matched, c.mark_calls),
                                   f"{c.mark_matched}/{c.mark_calls} RTT marks matched"),
        "allocation.scaled_ratio": (ratio(c.lt_scaled, c.lt_calls),
                                    f"{c.lt_scaled}/{c.lt_calls} allocations scaled back"),
        "scheduling.surplus_ratio": (ratio(c.st_surplus, c.st_calls),
                                     f"{c.st_surplus}/{c.st_calls} ticks granted a surplus"),
    }


def _layer_report(layer_passes: list, untraced: list[PassResult]) -> dict:
    if not layer_passes:
        return {}
    units = per_layer_units()
    samples: dict[str, list[float]] = {}
    for p, totals, ratios, _ in layer_passes:
        total_self = sum(s for s, _ in totals.values()) or 1.0
        for layer, (self_s, calls) in totals.items():
            samples.setdefault(f"{layer}.self_s", []).append(self_s)
            samples.setdefault(f"{layer}.calls", []).append(float(calls))
            samples.setdefault(f"{layer}.share", []).append(self_s / total_self)
        for name, (value, _) in ratios.items():
            samples.setdefault(name, []).append(value)
        samples.setdefault("sim.self_us_per_frame", []).append(
            totals["sim"][0] / max(p.frames, 1) * 1e6)
        samples.setdefault("sim.intervals", []).append(float(p.intervals))
    out = {name: (statistics.median(v), units[name]) for name, v in samples.items()}
    traced_wall = statistics.median(p.wall_s for p, *_ in layer_passes)
    plain_wall = statistics.median(p.wall_s for p in untraced)
    out["tracing.overhead_ratio"] = (traced_wall / plain_wall, "ratio")

    print(f"per layer, median of {len(layer_passes)} traced passes: self time, calls, share")
    for layer in sorted(LAYERS, key=lambda name: -out[name + ".self_s"][0]):
        print(f"  {layer:12s} {out[layer + '.self_s'][0]:9.4f} s "
              f"{int(out[layer + '.calls'][0]):10d} calls  {out[layer + '.share'][0]:6.1%}")
    first, _, ratios, top = layer_passes[0]
    print(f"traced pass 1 (seed {first.seed}): ratios with their bases")
    for name, (value, base) in ratios.items():
        print(f"  {name} = {value!r} ({base})")
    print("  top functions by self time:")
    for key, self_s, calls in top:
        print(f"    {key:48s} {self_s:9.4f} s {calls:10d} calls")
    return out


# -- entry points -----------------------------------------------------------

def bench(args) -> int:
    vrsched = import_vrsched()
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    print("host " + json.dumps(host_fingerprint(args.seed)))
    print(f"workload {workload.name}: {len(workload.policies)} simulations per pass, "
          f"panel of {workload.panel} seeds drawn from --seed {args.seed}")
    out = measure(vrsched, workload, args.seed, args.seconds, bool(args.trace), tiny=False)
    report = out["report"]
    wanted = per_layer_units() if args.trace else END_TO_END
    if not args.trace:
        for name in (*END_TO_END, *REPORTED_ONLY):
            if name in report:
                value, unit = report[name]
                print(f"{name} = {value!r} {unit}")
    metrics = {name: {"value": report[name][0], "unit": report[name][1]}
               for name in wanted if name in report}
    print(json.dumps({
        "correct": out["failed"] == 0 and len(metrics) == len(wanted),
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }))
    return 0


def self_check() -> int:
    """Each workload once at a tiny size, untraced and traced: every metric present."""
    vrsched = import_vrsched()
    expected = [(False, {**END_TO_END, **REPORTED_ONLY}), (True, per_layer_units())]
    problems = []
    spec_path = ROOT / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
            problems.append("BENCHMARK.json workloads differ from the harness")
        for key, units in (("end_to_end", END_TO_END), ("per_layer", per_layer_units())):
            listed = {m["name"]: m["unit"] for m in spec[key]}
            if listed != units:
                problems.append(f"BENCHMARK.json {key} differs from the harness: "
                                f"{sorted(set(listed.items()) ^ set(units.items()))}")
    for workload in WORKLOADS.values():
        for traced, units in expected:
            out = measure(vrsched, workload, 1, 0.0, traced, tiny=True)
            for name, unit in units.items():
                got = out["report"].get(name)
                if got is None or not got[1]:
                    problems.append(f"{workload.name} trace={int(traced)}: {name} missing")
                elif got[1] != unit:
                    problems.append(f"{workload.name} trace={int(traced)}: {name} unit {got[1]}")
            if out["failed"]:
                problems.append(f"{workload.name} trace={int(traced)}: {out['failed']} failed")
    for p in problems:
        print("SELF-CHECK " + p, file=sys.stderr)
    print("self-check " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds < 0:
        parser.error("--seconds must be nonnegative")
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.self_check:
        return self_check()
    if not args.workload:
        parser.error("--workload is required unless --self-check is given")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
