"""Command-line interface: run orchestration, artifact output, verification.

Subcommands:
  run          subdivision run; writes kept boxes (JSONL), stats (JSON),
               and one checkpoint per level
  check        replay verification of run artifacts (containment, gaps,
               or sandwich mode); emits a machine-readable verdict
  prune-graph  standalone pruning of a user-supplied graph
  oracle       reference attractor point cloud as CSV

Progress and timings go to stderr; data artifacts only to files (and the
check verdict to stdout), so machine output stays clean and byte-stable.
Box records and checkpoints are the bytes of json.dumps with sorted keys,
built chunk by chunk as byte matrices: one row per record, whose columns
are the constant JSON fragments, the reprs of the level boundaries and the
decimal digits of the indices.

Exit codes, which main alone maps from exceptions for every subcommand:
0 success, 1 failed verdict or aborted evaluation, 2 configuration or file
error, 3 box-budget overflow, 130 interrupt; a run keeps its finished levels.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import os
import re
import resource
import sys as _sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attractor import (
    DEFAULT_BOX_BUDGET,
    BoxBudgetError,
    LevelReport,
    PruneResult,
    check_run_settings,
    prune,
    run_global,
    run_subdivision,
)
from .geometry import Box, CoverLevel, refine_cover
from .integrator import EulerSchedule
from .oracle import export_points_csv, reference_attractor_points, verify_sandwich
from .systems import (
    BUILTIN_NAMES,
    ContinuousSystemSpec,
    EvaluationError,
    make_builtin,
)
from .transition import build_transition, check_containment_condition, measure_overapprox_gap

_BOX_CHUNK = 4096  # kept cells per chunk of the boxes records


class ConfigError(ValueError):
    pass


def parse_q(text: str) -> Box:
    """Parse "lo1,lo2,...:hi1,hi2,..." into a box."""
    try:
        lo_txt, hi_txt = text.split(":")
        lo = [float(v) for v in lo_txt.split(",")]
        hi = [float(v) for v in hi_txt.split(",")]
        return Box(lo, hi)
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"cannot parse Q from {text!r}: {exc}") from None


@dataclass
class RunConfig:
    system: str
    q: Box
    depth: int = 6
    M: int = 1
    N: int = 1
    h0: float | None = None
    alpha: float = 0.5
    seed: int = 0
    threads: int = 1
    box_budget: int = DEFAULT_BOX_BUDGET
    diagnostics: bool = False
    samples: int = 100
    params: dict = field(default_factory=dict)
    out: str = "boxes.jsonl"
    stats: str = "stats.json"
    checkpoint_dir: str | None = None
    resume: str | None = None

    def semantic_dict(self) -> dict:
        """The fields that determine run output (not paths or budgets)."""
        return {
            "system": self.system,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "q_lo": self.q.lo.tolist(),
            "q_hi": self.q.hi.tolist(),
            "M": self.M,
            "N": self.N,
            "h0": self.h0,
            "alpha": self.alpha,
            "seed": self.seed,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.semantic_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def build_system(self):
        try:
            return make_builtin(self.system, self.q, **self.params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None

    def schedule(self) -> EulerSchedule | None:
        if self.h0 is None:
            return None
        try:
            return EulerSchedule(h0=self.h0, alpha=self.alpha, substeps=self.N)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from None

    def system_and_schedule(self):
        """The system and, for a flow, its Euler schedule (None for a map)."""
        system = self.build_system()
        return system, self.schedule() if isinstance(system, ContinuousSystemSpec) else None

    def validate(self, for_run: bool = True, resume_depth: int | None = None) -> None:
        """Refuse, as ConfigError, settings of the wrong type or that
        check_run_settings refuses; a run or check of a flow needs --h0."""
        kinds = dict.fromkeys(("depth", "M", "N", "seed", "threads", "box_budget", "samples"), (int,))
        kinds.update(h0=(int, float, type(None)), alpha=(int, float), diagnostics=(bool,), out=(str,), stats=(str,))
        kinds.update(checkpoint_dir=(str, type(None)))
        for name, kind in kinds.items():  # exact types: a JSON true or false is a bool, never a number
            if type(getattr(self, name)) not in kind:
                raise ConfigError(f"{name} has the wrong type: {getattr(self, name)!r}")
        if self.N < 1 or self.threads < 1:
            raise ConfigError("N and threads must be positive")
        system = self.build_system()
        h0 = None
        if for_run and isinstance(system, ContinuousSystemSpec):
            if self.h0 is None:
                raise ConfigError(f"system {self.system!r} is continuous: --h0 is required")
            h0 = self.schedule().h0
        try:
            check_run_settings(system, self.q, self.depth, self.M, self.samples, self.seed, self.box_budget,
                               h0=h0, resume_depth=resume_depth)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON config file; flags override its entries")
    p.add_argument("--system", choices=BUILTIN_NAMES)
    p.add_argument("--q", help='study box as "lo1,lo2,...:hi1,hi2,..."')
    p.add_argument("--depth", type=int, help="maximum subdivision depth")
    p.add_argument("--samples-per-axis", type=int, dest="M", help="sample centers per axis (M)")
    p.add_argument("--euler-substeps", type=int, dest="N", help="Euler substeps per macro step (N)")
    p.add_argument("--h0", type=float, help="initial macro step for flows")
    p.add_argument("--h-decay", type=float, dest="alpha", help="step decay exponent alpha in (0,1)")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int, help="accepted and ignored; runs are single-threaded")
    p.add_argument("--box-budget", type=int, dest="box_budget",
                   help="most cells of one level, at most 2^31 - 1; a run whose next level would exceed it exits 3")
    p.add_argument("--diagnostics", action="store_true", default=None)
    p.add_argument("--samples", type=int, help="diagnostic samples per box")
    p.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                   help="system parameter, e.g. henon.a=1.4 or a=1.4; a prefix must name --system (repeatable)")
    p.add_argument("--out", help="kept-box JSONL path")
    p.add_argument("--stats", help="stats JSON path")
    p.add_argument("--checkpoint-dir", dest="checkpoint_dir", help="directory for per-level checkpoints")


def _load_config(args: argparse.Namespace, for_run: bool = True) -> RunConfig:
    data: dict = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fp:
                data = json.load(fp)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
    if not isinstance(data, dict) or not isinstance(data.get("params", {}), dict):
        raise ConfigError("a config file holds a JSON object, with params as an object")
    merged = dict(data)
    fields = [f.name for f in dataclasses.fields(RunConfig)]
    for key in fields:  # flags override the file; --param is merged into params below
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if "system" not in merged:
        raise ConfigError("--system is required")
    params = dict(data.get("params", {}))
    for item in getattr(args, "param", []) or []:
        if "=" not in item:
            raise ConfigError(f"--param expects KEY=VALUE, got {item!r}")
        key, val = item.split("=", 1)
        prefix, _, key = key.rpartition(".")
        if prefix and prefix != merged["system"]:
            raise ConfigError(f"--param {item!r} names system {prefix!r}, not {merged['system']!r}")
        try:
            params[key] = float(val)
        except ValueError:
            params[key] = val
    merged["params"] = params
    if "q" not in merged:
        raise ConfigError("--q is required")
    q = merged["q"]
    try:
        merged["q"] = parse_q(q) if isinstance(q, str) else Box(q["lo"], q["hi"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read Q from {q!r}: {exc!r}") from None
    unknown = set(merged) - set(fields)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        cfg = RunConfig(**merged)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None
    cfg.validate(for_run=for_run)
    return cfg


def _checkpoint_path(cfg: RunConfig, depth: int) -> Path:
    base = Path(cfg.checkpoint_dir) if cfg.checkpoint_dir else Path(cfg.out).parent
    return base / f"checkpoint_d{depth}.json"


def _log(msg: str) -> None:
    print(msg, file=_sys.stderr, flush=True)


def _write_atomic(path: Path, text: str) -> None:
    """Replace `path` by `text` through a temporary file in the same
    directory, so an interrupted write never leaves a truncated file."""
    tmp = path.with_name(f".{path.name}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fp:
            fp.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError):  # name the path the caller gave, not the temporary file
            raise OSError(exc.errno, exc.strerror, str(path)) from None
        raise


def _digits(values: np.ndarray) -> np.ndarray:
    """The decimal digits of nonnegative integers as an (m, w) uint8 matrix,
    one number a row, right-aligned, with NUL bytes before its first digit."""
    v = values.astype(np.int64)
    width = len(str(int(v.max())))
    out = np.empty((v.size, width), dtype=np.uint8)
    out[:, -1] = v % 10 + 48
    for j in range(width - 2, -1, -1):
        v //= 10
        out[:, j] = (v % 10 + 48) * (v > 0)
    return out


def _rows_bytes(columns: list, m: int) -> bytes:
    """The bytes of m rows, each the concatenation of `columns`: a bytes
    constant is the same in every row, an (m, w) uint8 matrix gives each row
    its own w bytes. NUL bytes, which no field holds, are dropped."""
    parts = [np.broadcast_to(np.frombuffer(c, dtype=np.uint8), (m, len(c))) if isinstance(c, bytes) else c
             for c in columns]
    buf = np.concatenate(parts, axis=1)
    return buf[buf != 0].tobytes()


def _chunks(rows: np.ndarray) -> list[np.ndarray]:
    """The rows of the kept cells' flat indices or coordinates in chunks of
    _BOX_CHUNK, so the byte matrices stay near 1 MiB whatever the level's
    size."""
    return [rows[c0 : c0 + _BOX_CHUNK] for c0 in range(0, len(rows), _BOX_CHUNK)]


def _checkpoint_text(level: CoverLevel, kept: np.ndarray, cfg_hash: str) -> str:
    """The checkpoint of the kept flat indices of a level's depth, as the
    bytes json.dumps(sort_keys=True, separators=(",", ":")) writes: the
    config_hash and depth come from json.dumps, the indices are joined from
    digit columns chunk by chunk."""
    head = json.dumps({"config_hash": cfg_hash, "depth": level.depth}, sort_keys=True, separators=(",", ":"))
    body = b"".join(_rows_bytes([_digits(f), b","], f.size) for f in _chunks(kept))
    return f'{head[:-1]},"kept":[{body[:-1].decode()}]}}\n'


def _read_checkpoint(path: Path, cfg_hash: str, root: Box) -> CoverLevel:
    """The kept cells of a checkpoint written for `cfg_hash`, as a level; the
    file must be the text that _checkpoint_text writes for them."""
    try:
        text = Path(path).read_bytes().decode("utf-8")
        ck = json.loads(text)
        level = CoverLevel(root, int(ck["depth"]), np.asarray(ck["kept"], dtype=np.int64))  # rejects values out of range
        if text != _checkpoint_text(level, level.flats, ck["config_hash"]):
            raise ValueError("not the text of a checkpoint")
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot read checkpoint {path}: {exc!r}") from None
    if ck["config_hash"] != cfg_hash:
        raise ConfigError(f"config hash mismatch in {path.name}")
    return level


# -- run -------------------------------------------------------------------------


def cmd_run(cfg: RunConfig) -> int:
    system, schedule = cfg.system_and_schedule()
    cfg_hash = cfg.config_hash()
    start = _read_checkpoint(Path(cfg.resume), cfg_hash, cfg.q) if cfg.resume else None
    if start:
        cfg.validate(resume_depth=start.depth)  # before any file is written
    committed, records = _earlier_levels(cfg, start) if start else (0, [])
    out_path = Path(cfg.out)
    for base in (out_path.parent, Path(cfg.stats).parent, _checkpoint_path(cfg, 0).parent):
        base.mkdir(parents=True, exist_ok=True)

    boxes_fp = open(out_path, "r+b" if committed else "wb")
    boxes_fp.seek(committed)  # the end of the last level whose checkpoint is written
    boxes_fp.truncate()

    def write_stats() -> None:
        _write_atomic(Path(cfg.stats), json.dumps(records, indent=2, sort_keys=True) + "\n")

    write_stats()  # the records of the kept levels, as the boxes file now ends

    def on_level(level: CoverLevel, result: PruneResult, report: LevelReport) -> None:
        nonlocal committed
        # boxes, checkpoint, then the stats record: a level is committed once
        # its checkpoint is written, and its record follows at once
        boxes_fp.writelines(_box_lines(level, result.kept_flats))
        boxes_fp.flush()
        _write_atomic(_checkpoint_path(cfg, level.depth), _checkpoint_text(level, result.kept_flats, cfg_hash))
        committed = boxes_fp.tell()
        records.append(report.to_json_dict())
        write_stats()
        # a flow's cell keeps its self-loop while the drift h|g| of one of its
        # sample centres stays within r plus that centre's distance to the
        # face the drift crosses, at most rho (1 - 1/(2M)): the cells with |g|
        # above thr lose it, and thr = (r + rho/2)/h at M = 1
        thr = f" thr={(report.r + report.rho * (1 - 0.5 / cfg.M)) / report.h:.6g}" if schedule else ""
        _log(
            f"[run] depth={report.depth} rho={report.rho:.6g} h={report.h:.6g} r={report.r:.6g}{thr} "
            f"boxes_in={report.boxes_in} kept={report.boxes_kept} edges={report.edges} "
            f"rounds={report.rounds} selfloop={report.selfloop_frac:.4f} "
            f"rss_mb={resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.1f} "
            f"map_ms={report.map_ms:.1f} prune_ms={report.prune_ms:.1f}"
            + (f" diag_ms={report.diag_ms:.1f}" if cfg.diagnostics else "")
        )
        if report.boxes_kept == 0:
            _log(f"[run] attractor region empty at depth {report.depth}")

    try:
        run_subdivision(
            system,
            cfg.q,
            max_depth=cfg.depth,
            M=cfg.M,
            euler=schedule,
            diagnostics=cfg.diagnostics,
            samples=cfg.samples,
            seed=cfg.seed,
            box_budget=cfg.box_budget,
            resume=(start.depth, start.flats) if start else None,
            on_level=on_level,
        )
    finally:
        # a level interrupted before its checkpoint was written is dropped
        boxes_fp.truncate(committed)
        boxes_fp.close()
    return 0


def _box_lines(level: CoverLevel, kept: np.ndarray):
    """The boxes JSONL records of the kept flat indices, chunk by chunk, as
    the bytes json.dumps(sort_keys=True, separators=(",", ":")) writes.
    json writes floats with float.__repr__, so the repr of each boundary the
    cells touch is made once per level, as a NUL-padded row of bytes. Each
    chunk is one byte matrix, a record a row (see _rows_bytes): the constant
    fragments, each axis's upper and lower boundary rows and the index
    digits."""
    # the kept cells' coordinates are rows of the level's own, which the map
    # build has already decoded; the boundaries they touch are marked at once
    coords = level.coords[level.locate(kept)]
    touched = [np.zeros(b.size, dtype=bool) for b in level.boundaries]
    for k, t in enumerate(touched):
        t[coords[:, k]] = t[coords[:, k] + 1] = True
    # each touched boundary's repr, at its rank among the touched ones
    reprs = [np.array([repr(x).encode() for x in b[t].tolist()], dtype="S") for b, t in zip(level.boundaries, touched)]
    reprs = [r.view(np.uint8).reshape(r.size, r.itemsize) for r in reprs]
    ranks = [np.cumsum(t) - 1 for t in touched]
    head = b'{"depth":%d,"hi":[' % level.depth
    for f, c in zip(_chunks(kept), _chunks(coords)):
        # upper (e = 1) and lower (e = 0) corner reprs, axis by axis, with "," between them
        hi, lo = ([s for k in range(level.dim) for s in (b",", reprs[k].take(ranks[k][c[:, k] + e], axis=0))][1:]
                  for e in (1, 0))
        yield _rows_bytes([head, *hi, b'],"index":', _digits(f), b',"lo":[', *lo, b"]}\n"], f.size)


def _earlier_levels(cfg: RunConfig, start: CoverLevel) -> tuple[int, list[dict]]:
    """What a run resumed from the checkpoint level `start` keeps of the
    files at --out and --stats: the byte length of the boxes of depths 0 to
    start's, and the stats records of those depths. The run's checkpoints of
    the depths before start's, with start, are the record of those levels:
    the boxes file must begin with the bytes _box_lines writes for them, and
    the stats records of those depths must be their (depth, boxes_kept),
    with no depth missing. Nothing past those bytes is read."""
    if not Path(cfg.out).exists():
        return 0, []
    chain = [*(_read_checkpoint(_checkpoint_path(cfg, d), cfg.config_hash(), cfg.q) for d in range(start.depth)), start]
    with open(cfg.out, "rb") as fp:
        if [level.depth for level in chain] != list(range(start.depth + 1)) or not _reads_levels(fp, chain):
            raise ConfigError(f"{cfg.out} does not begin with the levels of the checkpoints up to depth {start.depth}")
        committed = fp.tell()
    try:
        stats = json.loads(Path(cfg.stats).read_text(encoding="utf-8"))
        records = [r for r in stats if r["depth"] <= start.depth]
        kept = [(r["depth"], r["boxes_kept"]) for r in records]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot extend the earlier run's stats: {exc!r}") from None
    if kept != [(level.depth, level.flats.size) for level in chain]:
        raise ConfigError(f"the stats of {cfg.stats} are not those of the checkpoints up to depth {start.depth}")
    return committed, records


def _reads_levels(fp, levels: list[CoverLevel]) -> bool:
    """Whether `fp` reads on with the bytes _box_lines writes for `levels`,
    compared chunk by chunk, so no second copy of the file is held."""
    return all(fp.read(len(chunk)) == chunk for level in levels for chunk in _box_lines(level, level.flats))


# -- check -----------------------------------------------------------------------


def _load_checkpoints(cfg: RunConfig) -> dict[int, CoverLevel]:
    base = _checkpoint_path(cfg, 0).parent
    cfg_hash = cfg.config_hash()
    out: dict[int, CoverLevel] = {}
    for path in sorted(base.glob("checkpoint_d*.json")):
        level = _read_checkpoint(path, cfg_hash, cfg.q)
        out[level.depth] = level
    if not out:
        raise ConfigError(f"no checkpoints found under {base}")
    return out


def _replay_levels(cfg: RunConfig, checkpoints: dict[int, CoverLevel]):
    """Rebuild (level, transition map, kept) for each checkpointed depth that
    is 0 or whose parent depth is checkpointed too."""
    system, schedule = cfg.system_and_schedule()
    for depth, kept in sorted(checkpoints.items()):
        if depth == 0:
            level = CoverLevel.full(cfg.q, 0)
        elif depth - 1 in checkpoints:
            level = refine_cover(checkpoints[depth - 1], checkpoints[depth - 1].flats)
        else:
            continue
        tmap = build_transition(level, system, cfg.M, schedule.params_at(depth) if schedule else None)
        yield level, tmap, kept, system


def cmd_check(cfg: RunConfig, mode: str, max_global_depth: int = 6,
              resolution: float = 0.02, horizon: float | None = None,
              verdict_path: str | None = None) -> int:
    if max_global_depth < 0:
        raise ConfigError("--max-global-depth must be nonnegative")
    checkpoints = _load_checkpoints(cfg)
    verdict: dict = {"mode": mode, "config_hash": cfg.config_hash(), "levels": []}
    ok = True

    if mode == "containment":
        for level, tmap, kept, system in _replay_levels(cfg, checkpoints):
            consistent = np.array_equal(prune(level.flats, tmap).kept_flats, kept.flats)
            rep = check_containment_condition(tmap, system, samples=cfg.samples, seed=cfg.seed)
            entry = {
                "depth": level.depth,
                "violations": len(rep.containment_violations),
                "witnesses": [list(map(float, p)) for _, p in rep.containment_violations[:5]],
                "kept_matches_checkpoint": bool(consistent),
            }
            verdict["levels"].append(entry)
            ok &= consistent and not rep.containment_violations
    elif mode == "gaps":
        seq: list[tuple[int, float]] = []
        for level, tmap, _, system in _replay_levels(cfg, checkpoints):
            rep = measure_overapprox_gap(tmap, system, samples=cfg.samples)
            gap = rep.overapprox_gap if tmap.meta.kind == "discrete" else rep.neighbor_gap + rep.defect_gap
            verdict["levels"].append({"depth": level.depth, **rep.to_json_dict()})
            seq.append((level.depth, gap))
        # coarse levels are degenerate (a single cell maps into itself), so
        # monotonicity is judged from depth 2 on, with a 5% allowance for the
        # sampled suprema
        tail = [g for d, g in seq if d >= 2]
        non_increasing = all(b <= a * 1.05 + 1e-12 for a, b in zip(tail, tail[1:]))
        verdict["non_increasing_from_depth_2"] = non_increasing
        ok &= non_increasing
    elif mode == "sandwich":
        system, schedule = cfg.system_and_schedule()
        boxes = _read_boxes(cfg.out, cfg.q)
        reference = _reference(system, cfg.q, resolution, horizon)
        # the boxes file is tied to the run's configuration through the
        # checkpoints, which carry its hash: each depth of the file or of the
        # checkpoints, from 0 up to max_global_depth, must hold exactly the
        # cells of that depth's checkpoint, and an empty checkpoint matches
        # no records
        for depth in sorted(d for d in {*boxes, *checkpoints} if d <= max_global_depth):
            if depth not in boxes and checkpoints[depth].size:  # a level whose records are missing
                verdict["levels"].append({"depth": depth, "kept_matches_checkpoint": False})
                ok = False
                continue
            level = boxes[depth] if depth in boxes else checkpoints[depth]
            euler = schedule.params_at(depth) if schedule else None
            g_result, _ = run_global(
                system, cfg.q, depth, M=cfg.M, euler=euler, box_budget=cfg.box_budget,
            )
            v = verify_sandwich(level, g_result.kept_flats, reference)
            matches = depth in checkpoints and np.array_equal(level.flats, checkpoints[depth].flats)
            verdict["levels"].append({"depth": depth, **v.to_json_dict(), "kept_matches_checkpoint": matches})
            ok &= v.passed and matches
    else:
        raise ConfigError(f"unknown check mode {mode!r}")
    if not verdict["levels"]:  # a verdict that checked nothing does not pass
        _log(f"[check] no level to check in {mode} mode")
        ok = False

    verdict["pass"] = bool(ok)
    text = json.dumps(verdict, indent=2, sort_keys=True) + "\n"
    if verdict_path:
        _write_atomic(Path(verdict_path), text)
    else:
        _sys.stdout.write(text)
    return 0 if ok else 1


def _read_boxes(path: str, root: Box) -> dict[int, CoverLevel]:
    """The levels of a boxes file over `root`, by depth. Only each record's
    depth and index are read; the file must be the bytes _box_lines writes
    for those levels in ascending depth."""
    try:
        data = Path(path).read_bytes()
        found = re.findall(rb'^\{"depth":(\d+),"hi":\[[^\]\n]*\],"index":(\d+),', data, re.MULTILINE)
        depths, flats = np.array(found, dtype="S").reshape(-1, 2).astype(np.int64).T
        starts = np.flatnonzero(np.diff(depths, prepend=-1)).tolist()
        levels = {int(depths[a]): CoverLevel(root, int(depths[a]), flats[a:b])  # rejects values out of range
                  for a, b in zip(starts, starts[1:] + [depths.size])}
        fp = io.BytesIO(data)  # shares the bytes of data until written
        if not _reads_levels(fp, [levels[d] for d in sorted(levels)]) or fp.read(1):
            raise ValueError("the file holds other bytes than run writes for its records")
        return levels
    except (OSError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot read boxes file: {exc}") from None


# -- prune-graph -------------------------------------------------------------------


def _graph_edges(raw) -> dict[int, list[int]]:
    """The successor lists of a prune-graph input: an object whose keys are
    integers in plain decimal and whose values are lists of JSON integers."""
    if not isinstance(raw, dict):
        raise TypeError("edges must be an object")
    edges = {}
    for key, targets in raw.items():
        node = int(key)
        if str(node) != key:
            raise ValueError(f"node {key!r} is not a plain decimal integer")
        if not isinstance(targets, list) or any(type(t) is not int for t in targets):
            raise TypeError(f"successors of node {key} must be a list of integers")
        edges[node] = targets
    return edges


def cmd_prune_graph(input_path: str | None, output_path: str | None) -> int:
    try:
        if input_path and input_path != "-":
            with open(input_path, "r", encoding="utf-8") as fp:
                data = json.load(fp)
        else:
            data = json.load(_sys.stdin)
        edges = _graph_edges(data["edges"])
    except (KeyError, ValueError, TypeError) as exc:  # a JSONDecodeError is a ValueError
        raise ConfigError(f"[prune-graph] malformed input: {exc}") from None
    result = prune(edges.keys(), edges)
    text = json.dumps({"kept": [int(k) for k in result.kept]}, sort_keys=True) + "\n"
    if output_path and output_path != "-":
        _write_atomic(Path(output_path), text)
    else:
        _sys.stdout.write(text)
    return 0


# -- oracle ------------------------------------------------------------------------


def _reference(system, q: Box, resolution: float, horizon: float | None):
    try:
        return reference_attractor_points(system, q, resolution=resolution, horizon=horizon)
    except ValueError as exc:  # a bad --resolution or --horizon
        raise ConfigError(str(exc)) from None


def cmd_oracle(cfg: RunConfig, resolution: float, horizon: float | None, out: str) -> int:
    system = cfg.build_system()
    ref = _reference(system, cfg.q, resolution, horizon)
    export_points_csv(ref, out)
    _log(f"[oracle] kept {len(ref.points)} points at resolution {resolution}")
    return 0


# -- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="boxattractor",
                                     description="Outer approximations of global relative attractors")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the subdivision scheme")
    _add_config_flags(p_run)
    p_run.add_argument("--resume", help="checkpoint file to restart from")

    p_check = sub.add_parser("check", help="verify run artifacts")
    _add_config_flags(p_check)
    p_check.add_argument("--mode", choices=("containment", "gaps", "sandwich"), required=True)
    p_check.add_argument("--max-global-depth", type=int, default=6)
    p_check.add_argument("--resolution", type=float, default=0.02)
    p_check.add_argument("--horizon", type=float, default=None)
    p_check.add_argument("--verdict", help="write the verdict JSON here instead of stdout")

    p_graph = sub.add_parser("prune-graph", help="prune a user-supplied graph")
    p_graph.add_argument("--input", help="graph JSON file ('-' for stdin)")
    p_graph.add_argument("--output", help="kept-set JSON file ('-' for stdout)")

    p_oracle = sub.add_parser("oracle", help="reference attractor point cloud")
    _add_config_flags(p_oracle)
    p_oracle.add_argument("--resolution", type=float, default=0.02)
    p_oracle.add_argument("--horizon", type=float, default=None)
    p_oracle.add_argument("--oracle-out", default="oracle.csv", help="CSV output path")

    return parser


def _join_q_flag(argv: list[str]) -> list[str]:
    # box corners start with '-', which argparse would read as an option
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--q" and i + 1 < len(argv):
            out.append(f"--q={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_join_q_flag(list(_sys.argv[1:] if argv is None else argv)))
    kept_note = "; finished levels are kept" if args.command == "run" else ""
    try:
        if args.command == "run":
            return cmd_run(_load_config(args))
        if args.command == "check":
            return cmd_check(_load_config(args), args.mode, args.max_global_depth, args.resolution, args.horizon,
                             args.verdict)
        if args.command == "prune-graph":
            return cmd_prune_graph(args.input, args.output)
        return cmd_oracle(_load_config(args, for_run=False), args.resolution, args.horizon, args.oracle_out)
    except (ConfigError, OSError) as exc:
        _log(f"error: {exc}")
        return 2
    except EvaluationError as exc:
        _log(f"error: {exc}{kept_note}")
        return 1
    except BoxBudgetError as exc:
        _log(f"error: box budget exceeded: {exc}{kept_note}")
        return 3
    except KeyboardInterrupt:
        _log(f"[{args.command}] interrupted{kept_note}")
        return 130


if __name__ == "__main__":
    raise SystemExit(main())
