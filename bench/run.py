"""Benchmark of boxattractor: one workload, many fresh child processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Run from the repository root. The driver process starts one child at a
time (closed loop, one client) until S seconds of measurement have passed,
then prints one JSON line: the end-to-end metrics with --trace 0, the
per-layer metrics of the traced pass with --trace 1. Each reported value
is the median over the runs of this invocation; times are rescaled to a
reference host by bench/hostspeed.py. Every run passes a
correctness gate outside its timed region, or counts as failed. Metric
names and units come from BENCHMARK.json; bench/README.md explains them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MEM_CAP_MB = 4096  # address-space cap of each child
DEADLINE_S = 170.0  # the whole invocation ends within 180 s
SETUP_PROBES = 5  # set-up-only children, besides the set-up of every run
SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def log(msg: str) -> None:
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


class Children:
    """Starts child runs one after another, each in its own work directory."""

    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))

    def run(self, mode: str) -> tuple[dict, dict] | None:
        """(result, kept flats per depth), or None when the child failed."""
        import numpy as np

        self.count += 1
        workdir = WORK / f"{mode}-{self.count}"
        workdir.mkdir(parents=True)
        cmd = [sys.executable, str(BENCH / "child.py"), mode, self.workload, str(self.seed),
               str(workdir), str(MEM_CAP_MB)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=ROOT, capture_output=True, text=True,
                                  timeout=max(self.deadline - time.monotonic(), 1.0))
            if proc.returncode != 0:
                log(f"{mode} child exited with {proc.returncode}: {proc.stderr[-2000:]}")
                return None
            result = json.loads((workdir / "result.json").read_text())
            with np.load(workdir / "kept.npz") as npz:
                kept = {int(k[1:]): npz[k] for k in npz.files}
            return result, kept
        except subprocess.TimeoutExpired:
            log(f"{mode} child killed at the deadline")
            return None
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def gate(result: dict, kept: dict, cfg, reference, expected: dict | None) -> list[str]:
    """Why a run's output is wrong; empty when it is right."""
    import numpy as np

    from boxattractor.geometry import CoverLevel
    from workloads import same_kept

    problems = []
    if sorted(kept) != list(range(cfg.depth + 1)):
        problems.append(f"kept levels {sorted(kept)} instead of 0..{cfg.depth}")
    for depth, flats in sorted(kept.items()):
        missed = int(np.sum(~CoverLevel(cfg.q, depth, flats).contains_points(reference)))
        if missed:
            problems.append(f"depth {depth} misses {missed} reference points")
    if result["violations"]:
        problems.append(f"{result['violations']} containment violations")
    if result.get("cli_exit", 0) != 0:
        problems.append(f"CLI exited with {result['cli_exit']}")
    if expected is not None and not same_kept(kept, expected):
        problems.append("CLI kept sets differ from run_subdivision's")
    if result.get("traced_matches") is False:
        problems.append("traced loop kept sets differ from run_subdivision's")
    if result.get("cli_matches") is False:
        problems.append("CLI kept sets differ from run_subdivision's")
    return problems


def e2e_metrics(runs: list[dict], setups: list[float], attempted: int) -> dict[str, float]:
    """End-to-end metrics from the results of the runs that passed."""
    return {
        "run_s": median([r["run_s"] for r in runs]),
        "setup_s": median(setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in runs]),
        "kept_boxes": median([r["kept_boxes"] for r in runs]),
        "ok_frac": len(runs) / attempted,
    }


def layer_metrics(runs: list[dict]) -> dict[str, float]:
    return {name: median([r["layers"][name] for r in runs]) for name in runs[0]["layers"]}


def report_self_times(layers: dict[str, float]) -> None:
    from workloads import SELF_TIMES

    ranked = sorted(SELF_TIMES.items(), key=lambda kv: -layers[kv[1]])
    log("self time by layer, largest first:")
    for span, metric in ranked:
        log(f"  {span:<24} {layers[metric]:10.4f} s  ({metric})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.monotonic()
    deadline = start + DEADLINE_S

    if not (SRC / "boxattractor" / "__init__.py").is_file():
        log(f"no package source under {SRC}; run from a checkout of the repository")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for var in SINGLE_THREAD:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH)]
    from boxattractor.oracle import reference_attractor_points
    from workloads import WORKLOADS, library_kept, parse_config, run_library, system_of

    if args.workload not in WORKLOADS:
        log(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        return 2
    w = WORKLOADS[args.workload]
    cfg = parse_config(w.argv(args.seed))
    system, schedule = system_of(cfg)
    reference = reference_attractor_points(system, cfg.q, w.ref_resolution, w.ref_horizon).points
    if reference.size == 0:
        log("empty reference attractor cloud; the containment gate would be vacuous")
        return 2
    expected = None
    if w.via_cli and not args.trace:
        expected = library_kept(run_library(cfg, system, schedule), cfg.q.dim)

    shutil.rmtree(WORK, ignore_errors=True)
    children = Children(w.name, args.seed, deadline)
    mode = "trace" if args.trace else "run"
    setups = []
    try:
        if not args.trace:
            # the first child fills the byte-code caches; its set-up is not counted
            for i in range(SETUP_PROBES + 1):
                out = children.run("setup")
                if out is None:
                    log("set-up child failed")
                    return 1
                if i:
                    setups.append(out[0]["setup_s"])
        measure_start = time.monotonic()
        ok: list[dict] = []
        attempted = 0
        last = 0.0
        while attempted == 0 or time.monotonic() - measure_start < args.seconds:
            if attempted and deadline - time.monotonic() < 1.5 * last:
                log("stopping early: another run would pass the deadline")
                break
            t = time.monotonic()
            out = children.run(mode)
            last = time.monotonic() - t
            attempted += 1
            if out is None:
                continue
            result, kept = out
            problems = gate(result, kept, cfg, reference, expected)
            if problems:
                log(f"run {attempted} failed its correctness gate: {'; '.join(problems)}")
                continue
            ok.append(result)
            setups.append(result["setup_s"])
            log(f"run {attempted} passed: " + ", ".join(
                f"{k}={v:.6g}" for k, v in result.items() if isinstance(v, float)))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if not ok:
        log(f"all {attempted} runs failed")
        return 1
    if args.trace:
        metrics = layer_metrics(ok)
        report_self_times(metrics)
    else:
        metrics = e2e_metrics(ok, setups, attempted)
    log(f"{len(ok)} of {attempted} runs passed in {time.monotonic() - start:.1f} s")
    print(json.dumps({
        "correct": len(ok) == attempted,
        "attempted": attempted,
        "failed": attempted - len(ok),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
