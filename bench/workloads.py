"""Workloads of the boxattractor benchmark and the code that runs each once.

Every workload is the flag list of one `boxattractor run` command line. The
library workloads hand the configuration that command line parses to straight
to `run_subdivision`; the CLI workload runs `cli.main` itself. The traced loop
drives the same level loop through the package's public calls and times each
call from outside, so no layer needs instrumenting.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from boxattractor import cli
from boxattractor.attractor import prune, run_subdivision
from boxattractor.geometry import CoverLevel, box_corners, refine_cover
from boxattractor.integrator import euler_backward
from boxattractor.systems import ContinuousSystemSpec, eval_field_batch, eval_inverse_batch
from boxattractor.transition import (
    build_transition_continuous,
    build_transition_discrete,
    check_containment_condition,
    measure_overapprox_gap,
)


@dataclass(frozen=True)
class Workload:
    name: str
    flags: tuple[str, ...]  # `boxattractor run` flags, without output paths
    via_cli: bool  # the timed call is cli.main instead of run_subdivision
    seeded: bool  # the benchmark seed becomes the diagnostic sampling seed
    # reference_attractor_points cloud every kept level must contain; the
    # henon horizon is short because its inverse expels grid points fast
    ref_resolution: float
    ref_horizon: float | None

    def argv(self, seed: int) -> list[str]:
        return [*self.flags, "--seed", str(seed)] if self.seeded else list(self.flags)


SADDLE = ("--system", "saddle2d", "--q=-1,-1:1,1", "--h0", "0.2", "--h-decay", "0.5")

WORKLOADS = {
    w.name: w
    for w in (
        # global Lipschitz ball: thousands of edges per box, prune-bound
        Workload("henon-d8", ("--system", "henon", "--q=-2,-2:2,2", "--depth", "8"),
                 via_cli=False, seeded=False, ref_resolution=0.01, ref_horizon=4),
        # 65,536 boxes with few edges each: per-point lookup and artifact writes
        Workload("saddle-d8-cli", (*SADDLE, "--depth", "8"),
                 via_cli=True, seeded=False, ref_resolution=0.02, ref_horizon=None),
        # per-box containment check dominates; lookup and prune nearly idle
        Workload("saddle-d6-diag", (*SADDLE, "--depth", "6", "--diagnostics", "--samples", "50"),
                 via_cli=False, seeded=True, ref_resolution=0.02, ref_horizon=None),
    )
}


def parse_config(argv: list[str]) -> cli.RunConfig:
    """The CLI's own config parsing: flags to a validated RunConfig."""
    return cli._load_config(cli.build_parser().parse_args(["run", *argv]))


def system_of(cfg: cli.RunConfig):
    system = cfg.build_system()
    schedule = cfg.schedule() if isinstance(system, ContinuousSystemSpec) else None
    return system, schedule


def run_library(cfg: cli.RunConfig, system, schedule) -> list:
    return run_subdivision(
        system, cfg.q, max_depth=cfg.depth, M=cfg.M, euler=schedule,
        diagnostics=cfg.diagnostics, samples=cfg.samples, seed=cfg.seed, threads=1,
    )


def run_cli(argv: list[str], outdir: Path) -> int:
    return cli.main([
        "run", *argv, "--threads", "1",
        "--out", str(outdir / "boxes.jsonl"),
        "--stats", str(outdir / "stats.json"),
        "--checkpoint-dir", str(outdir / "ckpt"),
    ])


def library_kept(levels: list, dim: int) -> dict[int, np.ndarray]:
    """Kept flat indices per depth of a run_subdivision result."""
    return {
        rep.depth: np.array([k.flat(dim) for k in res.kept], dtype=np.int64)
        for res, rep in levels
    }


def cli_kept(outdir: Path) -> dict[int, np.ndarray]:
    """Kept flat indices per depth, read back from the CLI's boxes JSONL."""
    out: dict[int, list[int]] = {}
    with open(outdir / "boxes.jsonl", encoding="utf-8") as fp:
        for line in fp:
            rec = json.loads(line)
            out.setdefault(rec["depth"], []).append(rec["index"])
    return {d: np.array(v, dtype=np.int64) for d, v in out.items()}


def cli_violations(outdir: Path) -> int:
    """Containment violations the CLI's stats file records over all levels."""
    stats = json.loads((outdir / "stats.json").read_text(encoding="utf-8"))
    return sum(rec["gaps"]["containment_violations"] for rec in stats if rec["gaps"] is not None)


def artifact_bytes(outdir: Path) -> int:
    return sum(p.stat().st_size for p in outdir.rglob("*") if p.is_file())


def same_kept(a: dict[int, np.ndarray], b: dict[int, np.ndarray]) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(np.sort(a[d]), np.sort(b[d])) for d in a)


def violations_of(levels: list) -> int:
    return sum(len(rep.gaps.containment_violations) for _, rep in levels if rep.gaps is not None)


class Spans:
    """Spans around calls into the package, held in memory until the end.

    Totals are wall times times `scale`, the factor to the reference host.
    """

    def __init__(self) -> None:
        self.records: list[tuple[str, int, float, float]] = []  # name, depth, start, end
        self.scale = 1.0

    @contextmanager
    def span(self, name: str, depth: int):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.records.append((name, depth, t0, time.perf_counter()))

    def total(self, name: str) -> float:
        return self.scale * sum(end - start for n, _, start, end in self.records if n == name)


def _centers(level: CoverLevel, M: int) -> np.ndarray:
    """Sample centres of every active cell, as the transition builders place them."""
    d = level.dim
    idx = (np.arange(M**d)[:, None] // M ** np.arange(d)[None, :]) % M
    w = (level.box_his - level.box_los) / M
    return (level.box_los[:, None, :] + (idx[None, :, :] + 0.5) * w[:, None, :]).reshape(-1, d)


def radius_over_drift(level: CoverLevel, tmap, system, params) -> float:
    """Enclosure radius over the largest one-step drift on the level's cell corners.

    Flows: r / (h * max|g|). Maps: r / max|f^{-1}(c) - c|. Corners, not
    centres, because a centre can sit on a fixed point (the saddle's depth-0
    centre is the origin, where g = 0).
    """
    corners = box_corners(level.box_los, level.box_his).reshape(-1, level.dim)
    if params is not None:
        drift = params.h * float(np.max(np.abs(eval_field_batch(system, corners))))
    else:
        drift = float(np.max(np.abs(eval_inverse_batch(system, corners) - corners)))
    return tmap.meta.radius / drift


def traced_run(cfg: cli.RunConfig, system, schedule, spans: Spans) -> tuple[list[tuple], dict]:
    """The subdivision loop driven through public calls, each one in a span.

    Returns the kept keys per level, which must equal run_subdivision's, and
    the counters and ratios of the run. Ratios describe the deepest level.
    Without diagnostics in the workload, the diagnostic calls run on the
    depth-0 level only, so their layer is still timed but adds nearly nothing.
    """
    dim = cfg.q.dim
    counts = {"image_points": 0, "edges": 0, "csr_bytes": 0, "prune_rounds": 0,
              "samples": 0, "violations": 0}
    kept_levels: list[tuple] = []
    level = CoverLevel.full(cfg.q, 0)
    for n in range(cfg.depth + 1):
        params = schedule.params_at(n) if schedule is not None else None
        with spans.span("geometry.bounds", n):
            level.box_los, level.box_his
        with spans.span("geometry.keys", n):
            active = level.active
        with spans.span("transition.map", n):
            if params is not None:
                tmap = build_transition_continuous(level, system, M=cfg.M, params=params, threads=1)
            else:
                tmap = build_transition_discrete(level, system, M=cfg.M, threads=1)
        centers = _centers(level, cfg.M)
        with spans.span("systems.image", n):
            if params is not None:
                euler_backward(system, centers, params)
            else:
                eval_inverse_batch(system, centers)
        with spans.span("attractor.prune", n):
            result = prune(active, tmap)
        if cfg.diagnostics or n == 0:
            with spans.span("diagnostics.gap", n):
                measure_overapprox_gap(tmap, system, cfg.samples)
            with spans.span("diagnostics.containment", n):
                rep = check_containment_condition(tmap, system, cfg.samples, cfg.seed)
            counts["samples"] += cfg.samples * level.size
            counts["violations"] += len(rep.containment_violations)
        counts["image_points"] += centers.shape[0]
        counts["edges"] += tmap.edge_count
        counts["csr_bytes"] = max(counts["csr_bytes"], tmap.indptr.nbytes + tmap.targets.nbytes)
        counts["prune_rounds"] += result.rounds
        kept_levels.append(result.kept)
        last = (level, tmap, result, params)
        if not result.kept:
            break
        if n < cfg.depth:
            with spans.span("geometry.keys", n):
                kept_flats = np.array([k.flat(dim) for k in result.kept], dtype=np.int64)
            with spans.span("geometry.refine", n):
                level = refine_cover(level, kept_flats)

    level, tmap, result, params = last
    sources = np.repeat(np.arange(level.size), np.diff(tmap.indptr))
    selfloop = np.zeros(level.size, dtype=bool)
    selfloop[sources[tmap.targets == sources]] = True
    counts["edges_per_box"] = tmap.edge_count / level.size
    counts["kept_frac"] = len(result.kept) / level.size
    counts["selfloop_frac"] = float(np.mean(selfloop))
    counts["radius_over_drift"] = radius_over_drift(level, tmap, system, params)
    return kept_levels, counts


def layer_metrics(spans: Spans, counts: dict, library_s: float, traced_s: float,
                  cli_s: float, cli_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    library_s and cli_s time run_subdivision and cli.main on the same
    configuration, untraced; traced_s is the traced loop's total.
    """
    map_s = spans.total("transition.map")
    image_s = spans.total("systems.image")
    return {
        "transition.map_s": map_s,
        "transition.lookup_s": map_s - image_s,
        "systems.image_s": image_s,
        "systems.image_points": counts["image_points"],
        "attractor.prune_s": spans.total("attractor.prune"),
        "attractor.prune_rounds": counts["prune_rounds"],
        "transition.edges": counts["edges"],
        "transition.edges_per_box": counts["edges_per_box"],
        "transition.csr_mb": counts["csr_bytes"] / 2**20,
        "geometry.keys_s": spans.total("geometry.keys"),
        "geometry.refine_s": spans.total("geometry.refine"),
        "geometry.bounds_s": spans.total("geometry.bounds"),
        "attractor.kept_frac": counts["kept_frac"],
        "attractor.selfloop_frac": counts["selfloop_frac"],
        "integrator.radius_over_drift": counts["radius_over_drift"],
        "diagnostics.containment_s": spans.total("diagnostics.containment"),
        "diagnostics.gap_s": spans.total("diagnostics.gap"),
        "diagnostics.samples": counts["samples"],
        "diagnostics.violations": counts["violations"],
        "cli.overhead_s": cli_s - library_s,
        "cli.artifact_bytes": cli_bytes,
        "trace.overhead_s": traced_s - library_s,
    }


# self time of each layer: its metric, with the map's image evaluation
# counted as a child of transition.map
SELF_TIMES = {
    "transition.map": "transition.lookup_s",
    "systems.image": "systems.image_s",
    "attractor.prune": "attractor.prune_s",
    "geometry.keys": "geometry.keys_s",
    "geometry.refine": "geometry.refine_s",
    "geometry.bounds": "geometry.bounds_s",
    "diagnostics.containment": "diagnostics.containment_s",
    "diagnostics.gap": "diagnostics.gap_s",
}
