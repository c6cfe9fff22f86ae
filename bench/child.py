"""One run of a benchmark workload, in a fresh process.

    python bench/child.py {setup,run,trace} WORKLOAD SEED WORKDIR MEM_CAP_MB

Writes WORKDIR/result.json and, for `run` and `trace`, WORKDIR/kept.npz
(kept flat indices per depth, for the caller's correctness gate). Set-up
time runs from the first statement of this file to a built system: the
imports of numpy and the package, the CLI's config parsing and
make_builtin. `run` times the workload's one call; `trace` times the
untraced library call, the traced loop and the CLI on the same
configuration, one after another. Every reported time is rescaled to the
reference host of bench/hostspeed.py, by probes taken right after set-up
and during each timed call; `setup_wall_s` and `run_wall_s` are the raw
wall times. The address space is capped at MEM_CAP_MB, so a run that
outgrows it fails instead of swapping.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main(mode: str, name: str, seed: int, workdir: Path, cap_mb: int) -> int:
    cap = cap_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    import numpy as np

    import hostspeed
    import workloads as wl

    w = wl.WORKLOADS[name]
    argv = w.argv(seed)
    cfg = wl.parse_config(argv)
    system, schedule = wl.system_of(cfg)
    setup_wall = time.perf_counter() - T0
    for _ in range(5):  # warm the probe up
        hostspeed.probe()
    result: dict = {
        "setup_wall_s": setup_wall,
        "setup_s": setup_wall * hostspeed.HostSpeed().window().scale(),
    }
    kept: dict = {}
    dim = cfg.q.dim

    if mode == "run":
        if w.via_cli:
            status, wall, scale = hostspeed.timed(lambda: wl.run_cli(argv, workdir / "cli"))
        else:
            levels, wall, scale = hostspeed.timed(lambda: wl.run_library(cfg, system, schedule))
        result["run_wall_s"] = wall
        result["run_s"] = wall * scale
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if w.via_cli:
            result["cli_exit"] = status
            kept = wl.cli_kept(workdir / "cli")
            result["violations"] = wl.cli_violations(workdir / "cli")
        else:
            kept = wl.library_kept(levels, dim)
            result["violations"] = wl.violations_of(levels)
        result["kept_boxes"] = int(kept[max(kept)].size)

    elif mode == "trace":
        levels, wall, scale = hostspeed.timed(lambda: wl.run_library(cfg, system, schedule))
        library_s = wall * scale
        spans = wl.Spans()
        (traced_kept, counts), wall, spans.scale = hostspeed.timed(
            lambda: wl.traced_run(cfg, system, schedule, spans))
        traced_s = wall * spans.scale
        status, wall, scale = hostspeed.timed(lambda: wl.run_cli(argv, workdir / "cli"))
        cli_s = wall * scale
        kept = wl.library_kept(levels, dim)
        result["violations"] = (
            wl.violations_of(levels) + counts["violations"] + wl.cli_violations(workdir / "cli")
        )
        result["traced_matches"] = traced_kept == [res.kept for res, _ in levels]
        result["cli_exit"] = status
        result["cli_matches"] = status == 0 and wl.same_kept(wl.cli_kept(workdir / "cli"), kept)
        result["layers"] = wl.layer_metrics(
            spans, counts, library_s, traced_s, cli_s, wl.artifact_bytes(workdir / "cli")
        )

    np.savez(workdir / "kept.npz", **{f"d{d}": flats for d, flats in kept.items()})
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    mode, name, seed, workdir, cap_mb = sys.argv[1:]
    sys.exit(main(mode, name, int(seed), Path(workdir), int(cap_mb)))
