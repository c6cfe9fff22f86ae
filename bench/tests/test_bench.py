"""Fast checks of the benchmark itself: python -m pytest bench/tests -q"""

from __future__ import annotations

import json

import signal
import time

import pytest

import hostspeed
import run
import workloads as wl

SMALL = {
    "henon-d4": ["--system", "henon", "--q=-2,-2:2,2", "--depth", "4"],
    "saddle-d4": [*wl.SADDLE, "--depth", "4"],
}


def traced(flags: list[str], tmp_path):
    cfg = wl.parse_config(flags)
    system, schedule = wl.system_of(cfg)
    levels = wl.run_library(cfg, system, schedule)
    spans = wl.Spans()
    kept, counts = wl.traced_run(cfg, system, schedule, spans)
    assert wl.run_cli(flags, tmp_path) == 0
    return cfg, levels, kept, wl.layer_metrics(spans, counts, 1.0, 1.0, 1.0, wl.artifact_bytes(tmp_path))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_loop_matches_run_subdivision(name: str, tmp_path) -> None:
    cfg, levels, kept, _ = traced(SMALL[name], tmp_path)
    assert kept == [res.kept for res, _ in levels]
    assert wl.same_kept(wl.cli_kept(tmp_path), wl.library_kept(levels, cfg.q.dim))


def test_metric_names_match_benchmark_json(tmp_path) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    *_, layers = traced(SMALL["saddle-d4"], tmp_path)
    assert list(layers) == [m["name"] for m in spec["per_layer"]]
    result = {"run_s": 1.0, "setup_s": 0.1, "peak_rss_mb": 50.0, "kept_boxes": 7}
    e2e = run.e2e_metrics([result], [0.1], attempted=1)
    assert list(e2e) == [m["name"] for m in spec["end_to_end"]]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)


def test_radius_over_drift_uses_corners() -> None:
    # the depth-0 saddle centre is the origin, where the field vanishes
    cfg = wl.parse_config([*wl.SADDLE, "--depth", "0"])
    system, schedule = wl.system_of(cfg)
    _, counts = wl.traced_run(cfg, system, schedule, wl.Spans())
    assert 0.0 < counts["radius_over_drift"] < float("inf")


def test_timed_probes_during_the_call_and_restores_the_handler() -> None:
    before = signal.getsignal(signal.SIGALRM)
    speed = hostspeed.HostSpeed()
    with speed:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(speed.samples) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    out, wall, scale = hostspeed.timed(lambda: 42)
    assert out == 42 and wall >= 0.0 and scale > 0.0
