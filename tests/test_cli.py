import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vrsched.cli import aggregate, main, sweep_grid, sweep_grids
from vrsched.config import SimConfig, apply_overrides, load_config, ConfigError
from vrsched.video import TRACE_HEADER

REPRODUCE = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_results.py"
TINY = dict(n_flows=2, bitrate_mbps_min=2.0, bitrate_mbps_max=3.0,
            video_s=4.0, bottleneck_mbps=6.0)


def write_config(tmp_path, **extra) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**TINY, **extra}))
    return path


class TestConfig:
    def test_load_and_validate(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        cfg.validate()
        assert cfg.n_flows == 2

    def test_unknown_field_names_itself(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"bottleneck_mbpss": 25}))
        with pytest.raises(ConfigError, match="bottleneck_mbpss"):
            load_config(path)

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("no/such/config.json")

    def test_missing_trace_file_names_path(self, tmp_path):
        cfg = SimConfig(n_flows=1, trace_files=("missing_trace.csv",))
        with pytest.raises(ConfigError, match="missing_trace.csv"):
            cfg.validate()

    def test_overrides_are_typed(self):
        cfg = apply_overrides(SimConfig(), ["bottleneck_mbps=30", "n_flows=4",
                                            "uniform_attention=true"])
        assert cfg.bottleneck_mbps == 30.0
        assert cfg.n_flows == 4
        assert cfg.uniform_attention is True

    def test_bad_override_rejected(self):
        with pytest.raises(ConfigError):
            apply_overrides(SimConfig(), ["nonsense=1"])
        with pytest.raises(ConfigError):
            apply_overrides(SimConfig(), ["bottleneck_mbps"])

    def test_epsilon_bounds(self):
        with pytest.raises(ConfigError):
            SimConfig(epsilon=-0.1).validate()

    def test_regime_checked(self):
        with pytest.raises(ConfigError, match="regime"):
            SimConfig(regime="wobbly").validate()


class TestRunCommand:
    def test_happy_path_writes_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["run", "--config", str(cfg), "--seed", "3",
                     "--out", str(out), "--log-decisions"])
        assert code == 0
        assert (out / "metrics.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "lt_decisions.csv").exists()
        assert "loss=" in capsys.readouterr().out

    def test_missing_trace_file_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n_flows=1, trace_files=["missing_trace.csv"])
        code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "missing_trace.csv" in capsys.readouterr().err

    def test_override_reaches_summary(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        main(["run", "--config", str(cfg), "--out", str(out),
              "--override", "bottleneck_mbps=7.5"])
        summary = (out / "summary.csv").read_text().splitlines()
        idx = summary[0].split(",").index("bottleneck_mbps")
        assert summary[1].split(",")[idx] == "7.5"

    def test_trace_driven_run(self, tmp_path):
        trace = tmp_path / "flow0.csv"
        cfg = write_config(tmp_path, n_flows=1)
        assert main(["gen-trace", "--config", str(cfg), "--flow", "0",
                     "--out", str(trace)]) == 0
        cfg2 = write_config(tmp_path, n_flows=1, trace_files=[str(trace)])
        assert main(["run", "--config", str(cfg2),
                     "--out", str(tmp_path / "out2")]) == 0


# trace files with one bad record each, written into the test's directory
BAD_TRACES = {
    "bad.csv": "0,1,1,1,abc,0.5,1000.0,0.0\n",
    "nan_ddl.csv": "0,1,1,1,100,0.5,nan,0.0\n",
    "inf_send.csv": "0,1,1,1,100,0.5,1000.0,inf\n",
    "negative_send.csv": "0,1,1,1,100,0.5,1000.0,-5.0\n",
    "decreasing_send.csv": "0,1,1,1,100,0.5,1000.0,10.0\n0,1,1,2,100,0.5,1000.0,5.0\n",
    "repeated_id.csv": "0,1,1,1,100,0.5,1000.0,0.0\n0,1,1,1,100,0.5,990.0,10.0\n",
    "chunk_70000.csv": "0,70000,1,1,100,0.5,1000.0,0.0\n",
    "tile_256.csv": "0,1,256,1,100,0.5,1000.0,0.0\n",
    "gop_pos_256.csv": "0,1,1,256,100,0.5,1000.0,0.0\n",
}


def _trace_case(name: str, line: int):
    return ({"n_flows": 1, "trace_files": [name]}, ["run"], {},
            f"trace_files: {name}:{line}")


class TestBadInput:
    @pytest.mark.parametrize("extra,args,env,field", [
        ({}, ["run", "--override", "bottleneck_mbps=inf"], {}, "bottleneck_mbps"),
        ({}, ["run", "--override", "bottleneck_mbps=nan"], {}, "bottleneck_mbps"),
        ({}, ["run", "--override", "policy=fifo"], {}, "policy"),
        ({"bottleneck_mbps": "25"}, ["run"], {}, "bottleneck_mbps"),
        ({"n_flows": 2.5}, ["run"], {}, "n_flows"),
        ({"n_flows": 1, "trace_files": ["bad.csv"]}, ["run"], {}, "trace_files"),
        ({}, ["sweep", "--bandwidths", "x"], {}, "bandwidths"),
        ({}, ["sweep", "--seeds", "1,a"], {}, "seeds"),
        ({}, ["sweep"], {"VRSCHED_WORKERS": "abc"}, "VRSCHED_WORKERS"),
        ({}, ["run", "--seed", "-1"], {}, "seed"),
        ({}, ["run", "--override", "gop_size=3"], {}, "gop_size"),
        ({}, ["run", "--override", "chunk_s=0"], {}, "chunk_s"),
        ({}, ["run", "--override", "sti_s=1e-9"], {}, "sti_s"),
        ({"sti_s": 1e-9}, ["run", "--override", "delta_s=1e-9"], {}, "delta_s"),
        ({}, ["run", "--override", "fps=1e-9"], {}, "fps/chunk_s"),
        ({}, ["run", "--override", "tile_rows=-1", "--override", "tile_cols=-6"], {},
         "tile_rows/tile_cols"),
        _trace_case("nan_ddl.csv", 2),
        _trace_case("inf_send.csv", 2),
        _trace_case("negative_send.csv", 2),
        _trace_case("decreasing_send.csv", 3),
        _trace_case("repeated_id.csv", 3),
        ({}, ["run", "--override", "video_s=1e308"], {}, "video_s/chunk_s"),
        ({}, ["run", "--override", "video_s=70000"], {}, "video_s/chunk_s"),
        ({}, ["run", "--override", "tile_rows=16", "--override", "tile_cols=16"], {},
         "tile_rows/tile_cols"),
        ({}, ["run", "--override", "gop_size=256", "--override", "fps=256"], {}, "gop_size"),
        _trace_case("chunk_70000.csv", 2),
        _trace_case("tile_256.csv", 2),
        _trace_case("gop_pos_256.csv", 2),
        ({}, ["run", "--override", "bitrate_mbps_max=1e300"], {}, "bitrate_mbps_max"),
        ({}, ["run", "--override", "policy=single-ts-x-5"], {}, "policy"),
        ({}, ["run", "--override", "policy=single-ts-+5"], {}, "policy"),
        ({}, ["run", "--override", "policy=single-ts-1e-9"], {}, "policy"),
        ({}, ["run", "--override", "server_delay_ms=1e17"], {},
         "server_delay_ms/propagation_ms/ack_delay_ms"),
        ({}, ["run", "--override", "propagation_ms=1e300"], {},
         "server_delay_ms/propagation_ms/ack_delay_ms"),
        ({}, ["run", "--override", "jitter_mean_ms=1e300", "--override", "regime=unstable"],
         {}, "jitter_mean_ms"),
        ({}, ["sweep", "--workers", "0"], {}, "workers"),
        ({}, ["sweep", "--workers", "-1"], {}, "workers"),
        ({}, ["sweep"], {"VRSCHED_WORKERS": "0"}, "VRSCHED_WORKERS"),
        ({}, ["sweep", "--seeds", ","], {}, "seeds"),
        ({}, ["sweep", "--bandwidths", ","], {}, "bandwidths"),
        ({}, ["sweep", "--policies", ","], {}, "policies"),
        ({}, ["sweep", "--seeds", "1,1"], {}, "seeds"),
        ({}, ["sweep", "--bandwidths", "10,10.0"], {}, "bandwidths"),
        ({}, ["sweep", "--policies", "rr,proposed,rr"], {}, "policies"),
    ], ids=["inf", "nan", "unknown-policy", "string-for-float", "float-for-int",
            "malformed-trace-file", "bad-bandwidth", "bad-seed-list", "bad-workers-env",
            "negative-seed", "odd-gop-size", "zero-chunk", "sub-us-short-interval",
            "sub-us-long-interval", "chunk-shorter-than-a-frame", "negative-tile-grid",
            "nan-deadline", "infinite-send-time", "negative-send-time",
            "decreasing-send-time", "repeated-frame-id", "huge-video", "video-past-chunk-65535",
            "256-tiles", "gop-of-256", "trace-chunk-70000", "trace-tile-256",
            "trace-gop-position-256", "huge-bitrate", "single-ts-junk-before-period",
            "single-ts-signed-period", "single-ts-float-period", "huge-server-delay",
            "huge-propagation", "huge-jitter", "zero-workers", "negative-workers",
            "zero-workers-env", "empty-seed-list", "empty-bandwidth-list",
            "empty-policy-list", "repeated-seed", "repeated-bandwidth", "repeated-policy"])
    def test_exits_2_and_names_the_field(self, tmp_path, capsys, monkeypatch,
                                         extra, args, env, field):
        monkeypatch.chdir(tmp_path)
        for name, records in BAD_TRACES.items():
            (tmp_path / name).write_text(TRACE_HEADER + "\n" + records)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        cfg = write_config(tmp_path, **extra)
        argv = [args[0], "--config", str(cfg), "--out", str(tmp_path / "o"), *args[1:]]
        assert main(argv) == 2
        assert f"config error: {field}:" in capsys.readouterr().err

    @pytest.mark.parametrize("args,env,field", [
        (["--seeds", "1"], {"VRSCHED_WORKERS": "abc"}, "VRSCHED_WORKERS"),
        (["--seeds", "1"], {"VRSCHED_WORKERS": "0"}, "VRSCHED_WORKERS"),
        (["--seeds", "1", "--workers", "0"], {}, "workers"),
        (["--seeds", ","], {}, "seeds"),
        (["--seeds", "1,a"], {}, "seeds"),
        (["--seeds", "2,1,2"], {}, "seeds"),
    ], ids=["bad-workers-env", "zero-workers-env", "zero-workers", "empty-seed-list",
            "bad-seed-list", "repeated-seed"])
    def test_reproduce_script_exits_2_and_names_the_field(self, tmp_path, args, env, field):
        proc = subprocess.run(
            [sys.executable, str(REPRODUCE), "--out", str(tmp_path / "r"), *args],
            env={**os.environ, **env}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert f"error: {field}:" in proc.stderr
        assert not (tmp_path / "r").exists()

    def test_gen_trace_rejects_a_flow_outside_the_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["gen-trace", "--config", str(cfg), "--flow", "2",
                     "--out", str(tmp_path / "t.csv")]) == 2
        assert "config error: flow:" in capsys.readouterr().err


class TestSweep:
    def test_grid_rows_and_aggregate(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "sweep"
        code = main(["sweep", "--config", str(cfg), "--bandwidths", "5,6",
                     "--policies", "proposed,rr", "--seeds", "1,2",
                     "--out", str(out)])
        assert code == 0
        sweep_rows = (out / "sweep.csv").read_text().strip().splitlines()
        assert len(sweep_rows) == 1 + 2 * 2 * 2
        agg_rows = (out / "aggregate.csv").read_text().strip().splitlines()
        assert len(agg_rows) == 1 + 2 * 2

    def test_aggregate_recomputable_from_cells(self):
        cfg = SimConfig(**TINY)
        results = sweep_grid(cfg, [5.0], ["proposed"], [1, 2, 3])
        agg = aggregate(results)[0]
        losses = [r["total_quality_loss"] for r in results]
        mean = sum(losses) / len(losses)
        var = sum((x - mean) ** 2 for x in losses) / len(losses)
        assert agg["mean_total_quality_loss"] == pytest.approx(mean)
        assert agg["std_total_quality_loss"] == pytest.approx(var ** 0.5)
        assert agg["n_seeds"] == 3

    def test_single_cell_sweep_matches_run(self):
        from vrsched.sim import run as run_sim
        cfg = SimConfig(**TINY)
        cell = sweep_grid(cfg, [6.0], ["proposed"], [4])[0]
        import dataclasses
        direct = run_sim(dataclasses.replace(cfg, bottleneck_mbps=6.0,
                                             policy="proposed", seed=4)).summary
        for key in ("total_quality_loss", "per_flow_loss_std", "avg_drop_rate"):
            assert cell[key] == direct[key]

    def test_two_workers_match_one(self):
        cfg = SimConfig(**{**TINY, "video_s": 2.0})
        grid = ([5.0, 6.0], ["proposed", "rr"], [1, 2])
        assert sweep_grid(cfg, *grid, workers=2) == sweep_grid(cfg, *grid, workers=1)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grids_run_together_match_each_grid_alone(self, workers):
        cfg = SimConfig(**{**TINY, "video_s": 2.0})
        no_drop = apply_overrides(cfg, ["proactive_drop=false"])
        grids = [(cfg, [5.0, 6.0], ["proposed", "rr"]), (no_drop, [6.0], ["edf"])]
        assert (sweep_grids(grids, [1, 2], workers)
                == [sweep_grid(c, b, p, [1, 2]) for c, b, p in grids])

    def test_ablation_preset_policy_set(self, tmp_path):
        cfg = write_config(tmp_path, video_s=2.0)
        out = tmp_path / "ab"
        code = main(["sweep", "--config", str(cfg), "--bandwidths", "6",
                     "--preset", "ablation", "--seeds", "1", "--out", str(out)])
        assert code == 0
        rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
        policies = {row.split(",")[1] for row in rows}
        assert policies == {"proposed", "no-order", "single-ts-1000",
                            "single-ts-500", "single-ts-50"}


class TestGenTrace:
    def test_writes_readable_trace(self, tmp_path):
        out = tmp_path / "t.csv"
        assert main(["gen-trace", "--out", str(out), "--flow", "1"]) == 0
        from vrsched.video import read_trace
        trace = read_trace(out)
        assert trace.flow == 1
        assert len(trace.frames) == 900
