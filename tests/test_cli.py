from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import boxattractor.cli as cli
from boxattractor.cli import ConfigError, main, parse_q
from boxattractor.geometry import Box, BoxKey, CoverLevel
from boxattractor.oracle import reference_attractor_points
from boxattractor.systems import make_builtin
from boxattractor.transition import build_transition_discrete


def run_args(tmp: Path, **over) -> list[str]:
    args = {
        "--system": "halving1d",
        "--q": "-1:1",
        "--depth": "6",
        "--samples-per-axis": "1",
        "--out": str(tmp / "boxes.jsonl"),
        "--stats": str(tmp / "stats.json"),
        "--checkpoint-dir": str(tmp / "ckpt"),
    }
    args.update(over)
    out = ["run"]
    for k, v in args.items():
        if v is None:
            out.append(k)
        else:
            out.extend([k, v])
    return out


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def test_parse_q() -> None:
    assert parse_q("-1:1") == Box([-1.0], [1.0])
    assert parse_q("-1,-2:1,2") == Box([-1.0, -2.0], [1.0, 2.0])
    with pytest.raises(ConfigError):
        parse_q("1,2")
    with pytest.raises(ConfigError):
        parse_q("2:1")


def test_run_halving_final_boxes_near_zero(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "8"})) == 0
    records = read_jsonl(tmp_path / "boxes.jsonl")
    rho8 = 2.0 * 2.0**-8
    final = [r for r in records if r["depth"] == 8]
    assert final
    for rec in final:
        assert max(abs(rec["lo"][0]), abs(rec["hi"][0])) <= 8 * rho8
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert [s["depth"] for s in stats] == list(range(9))
    assert all(s["boxes_kept"] <= s["boxes_in"] for s in stats)
    # timings never enter the stats artifact
    assert all("map_ms" not in s for s in stats)


def test_prune_trace_goes_to_stderr_not_stats(tmp_path: Path, capsys) -> None:
    # prune rounds, the self-loop fraction and the peak RSS join the [run]
    # line, while the stats records keep exactly their keys, so the artifact
    # stays byte-stable
    argv = run_args(tmp_path, **{"--system": "henon", "--q": "-2,-2:2,2", "--depth": "4"})
    assert main(argv) == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    keys = ["boxes_in", "boxes_kept", "depth", "edges", "gaps", "h", "r", "rho"]
    assert [sorted(s) for s in stats] == [keys] * 5
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("[run] depth=")]
    assert len(lines) == 5
    assert all(" rounds=" in line and " selfloop=" in line for line in lines)
    assert "rounds=0 selfloop=1.0000" in lines[0]  # the root box maps onto itself
    # the peak RSS so far, which never falls from one level to the next
    rss = [float(re.search(r" rss_mb=([0-9.]+) ", line).group(1)) for line in lines]
    assert rss[0] > 0 and rss == sorted(rss)
    assert not any("rss" in key for s in stats for key in s)
    assert not any(" diag_ms=" in line for line in lines)
    # with diagnostics on, their time per level joins the line and stays out of the stats
    assert main(argv + ["--diagnostics", "--samples", "5"]) == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert [sorted(s) for s in stats] == [keys] * 5
    assert all(s["gaps"] is not None for s in stats)
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("[run] depth=")]
    assert len(lines) == 5
    assert all(re.search(r" prune_ms=[0-9.]+ diag_ms=[0-9.]+$", line) for line in lines)


@pytest.mark.parametrize("M", [1, 2])
def test_run_line_shows_the_flow_threshold(tmp_path: Path, capsys, M: int) -> None:
    # thr = (r + rho (1 - 1/(2M)))/h, (r + rho/2)/h at M = 1, on a flow's
    # [run] line only; the stats records gain no key
    flow = {"--system": "saddle2d", "--q": "-1,-1:1,1", "--h0": "0.2", "--depth": "3", "--samples-per-axis": str(M)}
    assert main(run_args(tmp_path, **flow)) == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    keys = ["boxes_in", "boxes_kept", "depth", "edges", "gaps", "h", "r", "rho"]
    assert [sorted(s) for s in stats] == [keys] * 4
    lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("[run] depth=")]
    thr = [float(re.search(r" thr=(\S+) ", line).group(1)) for line in lines]
    want = [(s["r"] + s["rho"] * (1 - 0.5 / M)) / s["h"] for s in stats]
    assert thr == [float(f"{t:.6g}") for t in want]
    if M == 1:
        assert thr == [float(f"{(s['r'] + s['rho'] / 2) / s['h']:.6g}") for s in stats]
    assert main(run_args(tmp_path, **{"--system": "henon", "--q": "-2,-2:2,2", "--depth": "2"})) == 0
    assert not any(" thr=" in line for line in capsys.readouterr().err.splitlines())


def test_run_diagnostics_lands_in_stats(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "4", "--diagnostics": None})) == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    for s in stats:
        assert s["gaps"] is not None
        assert s["gaps"]["containment_violations"] == 0
        assert s["gaps"]["overapprox_gap"] >= 0.0


def test_run_depth0_single_record(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "0"})) == 0
    records = read_jsonl(tmp_path / "boxes.jsonl")
    assert len(records) == 1
    assert records[0] == {"depth": 0, "index": 0, "lo": [-1.0], "hi": [1.0]}


def test_run_continuous_r_strictly_decreasing(tmp_path: Path) -> None:
    rc = main(run_args(
        tmp_path,
        **{
            "--system": "saddle2d",
            "--q": "-1,-1:1,1",
            "--depth": "4",
            "--h0": "0.2",
            "--h-decay": "0.5",
            "--euler-substeps": "1",
        },
    ))
    assert rc == 0
    stats = json.loads((tmp_path / "stats.json").read_text())
    rs = [s["r"] for s in stats]
    assert all(b < a for a, b in zip(rs, rs[1:]))


def test_config_errors_exit_2(tmp_path: Path) -> None:
    assert main(["run", "--system", "halving1d"]) == 2  # --q missing
    assert main(run_args(tmp_path, **{"--q": "bogus"})) == 2
    # continuous without h0
    assert main(run_args(tmp_path, **{"--system": "cubic1d", "--q": "-1.5:1.5"})) == 2
    # margin violation at load time
    assert main(run_args(
        tmp_path, **{"--system": "cubic1d", "--q": "-1.9:1.9", "--h0": "0.1"}
    )) == 2
    # no diagnostic samples would make the containment check pass vacuously
    assert main(run_args(tmp_path, **{"--depth": "2"})) == 0
    for samples in ("0", "-3"):
        assert main(run_args(tmp_path, **{"--depth": "2", "--diagnostics": None, "--samples": samples})) == 2
        base = run_args(tmp_path, **{"--depth": "2", "--samples": samples})[1:]
        assert main(["check", "--mode", "containment", *base]) == 2


def test_budget_overflow_exit_3(tmp_path: Path) -> None:
    rc = main(run_args(tmp_path, **{"--system": "linmap2d", "--q": "-1,-1:1,1",
                                    "--depth": "9", "--box-budget": "200"}))
    assert rc == 3
    # partial levels flushed
    records = read_jsonl(tmp_path / "boxes.jsonl")
    assert {r["depth"] for r in records} == {0, 1, 2, 3, 4}


def test_box_budget_above_the_level_limit_exit_2(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "2", "--box-budget": "2147483648"})) == 2
    assert not (tmp_path / "ckpt").exists()
    assert main(run_args(tmp_path, **{"--depth": "2", "--box-budget": "2147483647"})) == 0


@pytest.mark.parametrize("q, depth, ok", [("-1:1", 62, True), ("-1:1", 63, False),
                                          ("-1,-1:1,1", 31, True), ("-1,-1:1,1", 32, False)])
def test_depth_beyond_64_bit_flat_indices_is_a_config_error(tmp_path: Path, q: str, depth: int, ok: bool) -> None:
    # checked on the configuration, before any level runs; none is run here
    args = cli.build_parser().parse_args(cli._join_q_flag(run_args(tmp_path, **{"--q": q, "--depth": str(depth)})))
    if ok:
        assert cli._load_config(args).depth == depth
    else:
        with pytest.raises(ConfigError, match="depth"):
            cli._load_config(args)


def test_run_that_ends_on_an_empty_level(tmp_path: Path, capsys) -> None:
    # halving1d on [0.5, 1] keeps one cell at depth 0 and none at depth 1
    args = run_args(tmp_path, **{"--q": "0.5:1"})
    assert main(args) == 0
    assert "[run] attractor region empty at depth 1" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == ["checkpoint_d0.json", "checkpoint_d1.json"]
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert [(s["depth"], s["boxes_kept"]) for s in stats] == [(0, 1), (1, 0)]
    assert [r["depth"] for r in read_jsonl(tmp_path / "boxes.jsonl")] == [0]
    for mode in ("sandwich", "containment", "gaps"):
        assert main(["check", "--mode", mode, *args[1:]]) == 0


def test_radius_that_is_not_finite_exit_1(tmp_path: Path) -> None:
    # a=1e308 overflows henon's Lipschitz constant, so the depth-0 radius is
    # NaN: the run aborts and writes no level, where it used to prune the
    # whole cover and report an empty attractor with exit 0
    flags = {"--system": "henon", "--q": "-2,-2:2,2", "--param": "a=1e308", "--depth": "3"}
    args = run_args(tmp_path, **flags)
    assert main(args) == 1
    assert not any((tmp_path / "ckpt").iterdir())
    assert (tmp_path / "boxes.jsonl").read_bytes() == b""
    assert json.loads((tmp_path / "stats.json").read_text()) == []
    # check replays the map of a level written for this configuration
    cfg = cli._load_config(cli.build_parser().parse_args(cli._join_q_flag(args)))
    level = CoverLevel.full(cfg.q, 0)
    (tmp_path / "ckpt" / "checkpoint_d0.json").write_text(cli._checkpoint_text(level, level.flats, cfg.config_hash()))
    assert main(["check", "--mode", "containment", *args[1:]]) == 1


def test_sandwich_above_the_full_grid_cap_exit_3(tmp_path: Path) -> None:
    # the depth-13 global cover has 2^26 cells: within --box-budget but above
    # the full-grid cap, so the sandwich stops with exit 3, not a traceback
    args = run_args(tmp_path, **{"--system": "linmap2d", "--q": "-1,-1:1,1", "--depth": "13"})
    assert main(args) == 0
    boxes = tmp_path / "boxes.jsonl"
    boxes.write_text("".join(l for l in boxes.read_text().splitlines(keepends=True) if l.startswith('{"depth":13,')))
    check = ["check", "--mode", "sandwich", *args[1:], "--box-budget", "100000000", "--max-global-depth", "13"]
    assert main(check) == 3


def test_interrupt_exits_130_with_flush(tmp_path: Path, monkeypatch) -> None:
    real = cli.run_subdivision

    def interrupting(*args, **kwargs):
        kwargs2 = dict(kwargs)
        inner_cb = kwargs2.pop("on_level")
        calls = {"n": 0}

        def cb(level, res, rep):
            inner_cb(level, res, rep)
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt

        return real(*args, **kwargs2, on_level=cb)

    monkeypatch.setattr(cli, "run_subdivision", interrupting)
    rc = main(run_args(tmp_path, **{"--depth": "8"}))
    assert rc == 130
    records = read_jsonl(tmp_path / "boxes.jsonl")
    assert {r["depth"] for r in records} == {0, 1, 2}
    stats = json.loads((tmp_path / "stats.json").read_text())
    assert [s["depth"] for s in stats] == [0, 1, 2]


def test_resume_reproduces_tail(tmp_path: Path) -> None:
    full_dir = tmp_path / "full"
    full_dir.mkdir()
    assert main(run_args(full_dir, **{"--depth": "7"})) == 0
    full = read_jsonl(full_dir / "boxes.jsonl")

    resumed_dir = tmp_path / "resumed"
    resumed_dir.mkdir()
    rc = main(run_args(
        resumed_dir,
        **{"--depth": "7", "--resume": str(full_dir / "ckpt" / "checkpoint_d4.json")},
    ))
    assert rc == 0
    resumed = read_jsonl(resumed_dir / "boxes.jsonl")
    assert resumed == [r for r in full if r["depth"] > 4]


def test_resume_into_same_files_matches_fresh_run(tmp_path: Path) -> None:
    fresh_dir = tmp_path / "fresh"
    fresh_dir.mkdir()
    assert main(run_args(fresh_dir, **{"--depth": "5"})) == 0

    assert main(run_args(tmp_path, **{"--depth": "3"})) == 0
    resume = str(tmp_path / "ckpt" / "checkpoint_d3.json")
    assert main(run_args(tmp_path, **{"--depth": "5", "--resume": resume})) == 0
    for name in ("boxes.jsonl", "stats.json", *(f"ckpt/checkpoint_d{d}.json" for d in range(6))):
        assert (tmp_path / name).read_bytes() == (fresh_dir / name).read_bytes(), name


@pytest.mark.parametrize("cut", [-20, -3], ids=["before-index", "after-index"])
def test_resume_over_a_cut_last_line_matches_fresh_run(tmp_path: Path, cut: int) -> None:
    # a run killed while it writes depth 4 leaves a cut line after the
    # records of depth 3, its last checkpoint; resuming there never reads it
    fresh_dir = tmp_path / "fresh"
    fresh_dir.mkdir()
    assert main(run_args(fresh_dir, **{"--depth": "5"})) == 0
    first, second = [line for line in (fresh_dir / "boxes.jsonl").read_bytes().splitlines(keepends=True)
                     if line.startswith(b'{"depth":4,')][:2]

    assert main(run_args(tmp_path, **{"--depth": "3"})) == 0
    boxes = tmp_path / "boxes.jsonl"
    boxes.write_bytes(boxes.read_bytes() + first + second[:cut])
    resume = str(tmp_path / "ckpt" / "checkpoint_d3.json")
    assert main(run_args(tmp_path, **{"--depth": "5", "--resume": resume})) == 0
    for name in ("boxes.jsonl", "stats.json", *(f"ckpt/checkpoint_d{d}.json" for d in range(6))):
        assert (tmp_path / name).read_bytes() == (fresh_dir / name).read_bytes(), name


def test_resume_into_foreign_boxes_exit_2(tmp_path: Path) -> None:
    # the boxes file of a run with henon.a=1.0 holds other depth-2 cells
    # than the resume checkpoint, so the run must not keep its levels
    henon = {"--system": "henon", "--q": "-2,-2:2,2", "--depth": "3"}
    other = tmp_path / "other"
    other.mkdir()
    assert main(run_args(tmp_path, **henon, **{"--param": "henon.a=1.0"})) == 0
    assert main(run_args(other, **henon)) == 0
    ckpt = other / "ckpt" / "checkpoint_d2.json"
    kept = [json.loads(p.read_text())["kept"] for p in (ckpt, tmp_path / "ckpt" / "checkpoint_d2.json")]
    assert kept[0] != kept[1]
    foreign = (tmp_path / "boxes.jsonl").read_bytes()
    argv = run_args(tmp_path, **{**henon, "--depth": "4", "--checkpoint-dir": str(other / "ckpt"), "--resume": str(ckpt)})
    assert main(argv) == 2
    assert (tmp_path / "boxes.jsonl").read_bytes() == foreign


def files_of(run_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()}


def test_resume_over_a_foreign_shallower_level_exit_2(tmp_path: Path) -> None:
    # with henon.b=0.2 the depth-3 cells equal the default run's, the
    # depth-2 ones do not: the run's checkpoints up to depth 2 tell them apart
    henon = {"--system": "henon", "--q": "-2,-2:2,2"}
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(run_args(a, **henon, **{"--depth": "3", "--param": "henon.b=0.2"})) == 0
    assert main(run_args(b, **henon, **{"--depth": "4"})) == 0
    kept = {d: [json.loads((r / "ckpt" / f"checkpoint_d{d}.json").read_text())["kept"] for r in (a, b)]
            for d in (2, 3)}
    assert kept[2][0] != kept[2][1] and kept[3][0] == kept[3][1]
    before = files_of(a)
    resume = str(b / "ckpt" / "checkpoint_d3.json")
    argv = run_args(a, **henon, **{"--depth": "5", "--checkpoint-dir": str(b / "ckpt"), "--resume": resume})
    assert main(argv) == 2
    assert files_of(a) == before


def test_resume_over_a_missing_level_exit_2(tmp_path: Path) -> None:
    # the boxes of a run to depth 2 lack the resume checkpoint's depth 3
    henon = {"--system": "henon", "--q": "-2,-2:2,2"}
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(run_args(a, **henon, **{"--depth": "2"})) == 0
    assert main(run_args(b, **henon, **{"--depth": "4"})) == 0
    before = files_of(a)
    assert main(run_args(a, **henon, **{"--depth": "5", "--resume": str(b / "ckpt" / "checkpoint_d3.json")})) == 2
    assert files_of(a) == before


def test_resume_over_stats_other_than_the_checkpoints_exit_2(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "3"})) == 0
    stats = tmp_path / "stats.json"
    records = json.loads(stats.read_text())
    records[1]["boxes_kept"] += 1
    stats.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")
    before = files_of(tmp_path)
    assert main(run_args(tmp_path, **{"--depth": "5", "--resume": str(tmp_path / "ckpt" / "checkpoint_d3.json")})) == 2
    assert files_of(tmp_path) == before


def test_resume_over_stats_that_lack_a_depth_exit_2(tmp_path: Path) -> None:
    # boxes and checkpoints that reach into depth 5 over stats that end at
    # depth 3, as a run to depth 6 over a depth-3 run's files leaves when it
    # is killed inside depth 5 and its stats were not written after depth 3:
    # a resume from depth 4 would leave depth 4 without its record
    assert main(run_args(tmp_path, **{"--depth": "3"})) == 0
    stats = tmp_path / "stats.json"
    shallow = stats.read_bytes()
    assert main(run_args(tmp_path, **{"--depth": "6"})) == 0
    stats.write_bytes(shallow)
    boxes = tmp_path / "boxes.jsonl"
    data = boxes.read_bytes()
    boxes.write_bytes(data[: data.index(b'{"depth":5,') + 20])
    before = files_of(tmp_path)
    assert main(run_args(tmp_path, **{"--depth": "6", "--resume": str(tmp_path / "ckpt" / "checkpoint_d4.json")})) == 2
    assert files_of(tmp_path) == before


@pytest.mark.parametrize("resume", [None, 1], ids=["fresh", "resumed"])
def test_stats_on_disk_after_each_level(tmp_path: Path, monkeypatch, resume) -> None:
    # the stats file holds the record of every level whose checkpoint is
    # written, as soon as it is written, so a killed run loses none
    argv = run_args(tmp_path, **{"--depth": "5"})
    if resume is not None:
        assert main(run_args(tmp_path, **{"--depth": "3"})) == 0
        argv = run_args(tmp_path, **{"--depth": "5", "--resume": str(tmp_path / "ckpt" / f"checkpoint_d{resume}.json")})
    real = cli.run_subdivision
    seen = []

    def watching(*args, on_level, **kwargs):
        def cb(level, res, rep):
            on_level(level, res, rep)
            seen.append([s["depth"] for s in json.loads((tmp_path / "stats.json").read_text())])

        return real(*args, **kwargs, on_level=cb)

    monkeypatch.setattr(cli, "run_subdivision", watching)
    assert main(argv) == 0
    first = 0 if resume is None else resume + 1
    assert seen == [list(range(d + 1)) for d in range(first, 6)]


def test_run_makes_the_directory_of_each_artifact(tmp_path: Path) -> None:
    argv = run_args(tmp_path, **{"--depth": "2", "--out": str(tmp_path / "b" / "boxes.jsonl"),
                                 "--stats": str(tmp_path / "s" / "stats.json")})
    assert main(argv) == 0
    assert [s["depth"] for s in json.loads((tmp_path / "s" / "stats.json").read_text())] == [0, 1, 2]


def test_box_lines_repr_only_the_touched_boundaries(monkeypatch) -> None:
    # a depth-16 level has 65,537 boundaries; three cells touch at most six
    calls = {"n": 0}

    def counting(x):
        calls["n"] += 1
        return float.__repr__(x)

    level = CoverLevel(Box([-1.0], [1.0]), 16, np.array([0, 5, 32768]))
    monkeypatch.setattr(cli, "repr", counting, raising=False)
    lines = b"".join(cli._box_lines(level, level.flats)).decode().splitlines()
    assert 0 < calls["n"] <= 2 * level.flats.size
    records = zip(level.flats.tolist(), level.box_los[:, 0].tolist(), level.box_his[:, 0].tolist())
    assert lines == [json.dumps({"depth": 16, "hi": [hi], "index": i, "lo": [lo]}, sort_keys=True, separators=(",", ":"))
                     for i, lo, hi in records]


# roots with non-dyadic bounds and bounds that print in exponent form; each
# level has more than 10,000 cells, so its indices reach five digits
WRITER_LEVELS = [
    (Box([-1.0], [1.0]), 14),
    (Box([-1e-05], [3e-05]), 14),
    (Box([-1e-05, 0.1], [3e-05, 0.7]), 7),
    (Box([-1.0, -1e-05, 0.1], [2.0, 3e-05, 0.7]), 5),
]
# the empty set and sets that cross digit-count boundaries
WRITER_KEPT = [[], [0], [9], [9, 10], [0, 1, 99, 100], [999, 1000, 1001], [0, 9, 10, 99, 100, 999, 1000, 9999, 10000]]


@pytest.mark.parametrize("chunk", [1, 3, 4096])
@pytest.mark.parametrize("root, depth", WRITER_LEVELS)
def test_writers_are_json_dumps_record_by_record(monkeypatch, chunk: int, root: Box, depth: int) -> None:
    monkeypatch.setattr(cli, "_BOX_CHUNK", chunk)
    # more than one 4,096-record chunk only where the chunk is that long
    sets = [*WRITER_KEPT, range(0, 1 << (depth * root.dim), 3)] if chunk == 4096 else WRITER_KEPT
    for kept in sets:
        level = CoverLevel(root, depth, np.array(kept, dtype=np.int64))
        records = zip(level.flats.tolist(), level.box_los.tolist(), level.box_his.tolist())
        lines = [json.dumps({"depth": depth, "hi": hi, "index": i, "lo": lo}, sort_keys=True, separators=(",", ":"))
                 for i, lo, hi in records]
        assert b"".join(cli._box_lines(level, level.flats)).decode() == "".join(line + "\n" for line in lines)
        for cfg_hash in ("0" * 64, "", 7, None, {"b": [1, 2], "a": "\u00e9"}):
            ck = {"config_hash": cfg_hash, "depth": depth, "kept": level.flats.tolist()}
            assert cli._checkpoint_text(level, level.flats, cfg_hash) == json.dumps(
                ck, sort_keys=True, separators=(",", ":")) + "\n"


def test_checkpoint_text_of_64_bit_indices() -> None:
    level = CoverLevel(Box([-1.0], [1.0]), 62, np.array([0, (1 << 62) - 1]))
    text = cli._checkpoint_text(level, level.flats, "h")
    assert text == json.dumps({"config_hash": "h", "depth": 62, "kept": [0, (1 << 62) - 1]},
                              sort_keys=True, separators=(",", ":")) + "\n"
    assert "boundaries" not in vars(level)  # a checkpoint needs no geometry


def test_resume_hash_mismatch_exit_2(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "3"})) == 0
    rc = main(run_args(
        tmp_path, **{"--depth": "5", "--seed": "1",
                     "--resume": str(tmp_path / "ckpt" / "checkpoint_d2.json")},
    ))
    assert rc == 2


def test_prune_graph_examples(tmp_path: Path, capsys) -> None:
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"edges": {"0": [1], "1": [], "2": [2]}}))
    assert main(["prune-graph", "--input", str(graph)]) == 0
    assert json.loads(capsys.readouterr().out) == {"kept": [2]}

    graph.write_text(json.dumps({"edges": {"0": [0], "1": [1]}}))
    out = tmp_path / "kept.json"
    assert main(["prune-graph", "--input", str(graph), "--output", str(out)]) == 0
    assert json.loads(out.read_text()) == {"kept": [0, 1]}

    graph.write_text(json.dumps({"edges": {}}))
    assert main(["prune-graph", "--input", str(graph)]) == 0
    assert json.loads(capsys.readouterr().out) == {"kept": []}

    graph.write_text("{not json")
    assert main(["prune-graph", "--input", str(graph)]) == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"edges": {"0": "01"}}',  # a string is not a successor list
        '{"edges": {"0": [1.9]}}',
        '{"edges": {"0": [true]}}',
        '{"edges": {"1_0": [10]}}',  # int() would read node 10
        '{"edges": {"01": [1]}}',
        '{"edges": [[0]]}',
    ],
    ids=["string", "float", "bool", "underscore-key", "leading-zero-key", "list-of-edges"],
)
def test_prune_graph_rejects_malformed_successors(tmp_path: Path, capsys, text: str) -> None:
    graph = tmp_path / "graph.json"
    graph.write_text(text)
    assert main(["prune-graph", "--input", str(graph)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[prune-graph] malformed input" in captured.err


def test_check_containment_and_gaps(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "5"})) == 0
    base = run_args(tmp_path, **{"--depth": "5"})[1:]  # reuse config flags
    rc = main(["check", "--mode", "containment", *base,
               "--verdict", str(tmp_path / "v1.json")])
    assert rc == 0
    verdict = json.loads((tmp_path / "v1.json").read_text())
    assert verdict["pass"] and all(l["violations"] == 0 for l in verdict["levels"])

    rc = main(["check", "--mode", "gaps", *base, "--verdict", str(tmp_path / "v2.json")])
    assert rc == 0
    verdict = json.loads((tmp_path / "v2.json").read_text())
    assert verdict["pass"] and verdict["non_increasing_from_depth_2"]


def test_check_containment_continuous(tmp_path: Path) -> None:
    flags = {
        "--system": "saddle2d", "--q": "-1,-1:1,1", "--depth": "3",
        "--h0": "0.2", "--h-decay": "0.5", "--euler-substeps": "1",
    }
    assert main(run_args(tmp_path, **flags)) == 0
    base = run_args(tmp_path, **flags)[1:]
    rc = main(["check", "--mode", "containment", *base,
               "--verdict", str(tmp_path / "v.json")])
    assert rc == 0
    verdict = json.loads((tmp_path / "v.json").read_text())
    assert verdict["pass"]
    assert all(l["kept_matches_checkpoint"] for l in verdict["levels"])


def test_check_hash_mismatch_exit_2(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "4"})) == 0
    base = run_args(tmp_path, **{"--depth": "4", "--seed": "9"})[1:]
    assert main(["check", "--mode", "containment", *base]) == 2


def test_check_sandwich_detects_tampering(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "5"})) == 0
    base = run_args(tmp_path, **{"--depth": "5"})[1:]
    rc = main(["check", "--mode", "sandwich", *base, "--resolution", "0.01",
               "--horizon", "30", "--verdict", str(tmp_path / "v.json")])
    assert rc == 0

    # drop the deepest-level boxes nearest the attractor
    boxes = tmp_path / "boxes.jsonl"
    records = [json.loads(line) for line in boxes.read_text().splitlines()]
    tampered = [r for r in records if not (r["depth"] == 5 and r["lo"][0] <= 0.0 <= r["hi"][0])]
    boxes.write_text("\n".join(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in tampered) + "\n")
    rc = main(["check", "--mode", "sandwich", *base, "--resolution", "0.01",
               "--horizon", "30", "--verdict", str(tmp_path / "v_bad.json")])
    assert rc == 1
    verdict = json.loads((tmp_path / "v_bad.json").read_text())
    assert not verdict["pass"]
    assert any(l["uncovered_count"] > 0 for l in verdict["levels"])


@pytest.mark.parametrize("command, flags", [
    ("check", ["--resolution", "0"]),
    ("check", ["--resolution", "nan"]),
    ("check", ["--horizon", "-2"]),
    ("check", ["--horizon", "0.5"]),  # a map's horizon truncates to zero steps
    ("check", ["--horizon", "inf"]),
    ("check", ["--max-global-depth", "-1"]),
    ("oracle", ["--resolution", "0"]),
    ("oracle", ["--resolution", "-0.5"]),
    ("oracle", ["--horizon", "-3", "--system", "henon", "--q", "-2,-2:2,2"]),
    ("oracle", ["--horizon", "0"]),
])
def test_bad_oracle_flags_exit_2(tmp_path: Path, command: str, flags: list[str]) -> None:
    # a horizon that tests no backward step would keep every grid point
    assert main(run_args(tmp_path, **{"--depth": "2"})) == 0
    out = tmp_path / "o.csv"
    if command == "check":
        argv = ["check", "--mode", "sandwich", *run_args(tmp_path, **{"--depth": "2"})[1:], *flags]
    else:
        argv = ["oracle", "--system", "halving1d", "--q", "-1:1", "--oracle-out", str(out), *flags]
    assert main(argv) == 2
    assert not out.exists()


def test_sandwich_that_checks_no_level_fails(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "2"})) == 0
    base = run_args(tmp_path, **{"--depth": "2"})[1:]
    boxes = tmp_path / "boxes.jsonl"
    deepest = [line for line in boxes.read_text().splitlines() if json.loads(line)["depth"] == 2]
    # every checkpointed depth from 0 is checked, so a file without a
    # checkpointed depth's records fails at that depth
    verdict = tmp_path / "v.json"
    for text, max_depth, missing in (("", "6", (0, 1, 2)), ("\n".join(deepest) + "\n", "1", (0, 1))):
        boxes.write_text(text)
        argv = ["check", "--mode", "sandwich", *base, "--max-global-depth", max_depth, "--verdict", str(verdict)]
        assert main(argv) == 1
        assert json.loads(verdict.read_text()) | {"config_hash": None} == {
            "config_hash": None, "levels": [{"depth": d, "kept_matches_checkpoint": False} for d in missing],
            "mode": "sandwich", "pass": False}
    # the same file fails once its own depth is checked too: depths 0 and 1
    # still lack their records, while depth 2 matches its checkpoint
    assert main(["check", "--mode", "sandwich", *base, "--max-global-depth", "2", "--verdict", str(verdict)]) == 1
    *shallow, own = json.loads(verdict.read_text())["levels"]
    assert shallow == [{"depth": d, "kept_matches_checkpoint": False} for d in (0, 1)]
    assert own["depth"] == 2 and own["kept_matches_checkpoint"] and own["pass"]


def test_sandwich_ties_boxes_to_checkpoints(tmp_path: Path) -> None:
    flags = {"--system": "henon", "--q": "-2,-2:2,2", "--depth": "4"}
    assert main(run_args(tmp_path, **flags)) == 0
    base = run_args(tmp_path, **flags)[1:]
    check = ["check", "--mode", "sandwich", *base, "--resolution", "0.02", "--horizon", "4"]
    assert main([*check, "--verdict", str(tmp_path / "v.json")]) == 0
    verdict = json.loads((tmp_path / "v.json").read_text())
    assert [l["depth"] for l in verdict["levels"]] == [0, 1, 2, 3, 4]
    assert all(l["kept_matches_checkpoint"] and l["extra_flats"] == [] for l in verdict["levels"])
    assert not any("extra_keys" in l for l in verdict["levels"])

    # drop one deepest record whose box holds no reference point: both halves
    # of the sandwich still hold, but the file no longer is the run's output
    Q = parse_q("-2,-2:2,2")
    ref = reference_attractor_points(make_builtin("henon", Q), Q, 0.02, 4).points
    boxes = tmp_path / "boxes.jsonl"
    good = boxes.read_text()
    lines = good.splitlines(keepends=True)
    drop = next(i for i, line in enumerate(lines) if (rec := json.loads(line))["depth"] == 4
                and not np.any(np.all((ref >= rec["lo"]) & (ref <= rec["hi"]), axis=1)))
    boxes.write_text("".join(lines[:drop] + lines[drop + 1 :]))
    assert main([*check, "--verdict", str(tmp_path / "v_bad.json")]) == 1
    verdict = json.loads((tmp_path / "v_bad.json").read_text())
    *shallow, deepest = verdict["levels"]
    assert not verdict["pass"] and deepest["depth"] == 4
    assert deepest["pass"] and deepest["uncovered_count"] == 0 and not deepest["kept_matches_checkpoint"]
    assert all(l["kept_matches_checkpoint"] for l in shallow)

    # a depth without its checkpoint fails too
    boxes.write_text(good)
    (tmp_path / "ckpt" / "checkpoint_d4.json").unlink()
    assert main([*check, "--verdict", str(tmp_path / "v_missing.json")]) == 1
    verdict = json.loads((tmp_path / "v_missing.json").read_text())
    assert [l["kept_matches_checkpoint"] for l in verdict["levels"]] == [True] * 4 + [False]


@pytest.mark.parametrize("gone", [4, 2])  # the deepest level, a middle level
def test_sandwich_fails_a_level_missing_from_the_boxes(tmp_path: Path, gone: int) -> None:
    flags = {"--system": "saddle2d", "--q": "-1,-1:1,1", "--h0": "0.2", "--depth": "4"}
    assert main(run_args(tmp_path, **flags)) == 0
    check = ["check", "--mode", "sandwich", *run_args(tmp_path, **flags)[1:], "--max-global-depth", "4",
             "--verdict", str(tmp_path / "v.json")]
    assert main(check) == 0
    boxes = tmp_path / "boxes.jsonl"
    lines = boxes.read_text().splitlines(keepends=True)
    boxes.write_text("".join(line for line in lines if not line.startswith('{"depth":%d,' % gone)))
    assert main(check) == 1
    verdict = json.loads((tmp_path / "v.json").read_text())
    assert [l["depth"] for l in verdict["levels"]] == [0, 1, 2, 3, 4] and not verdict["pass"]
    assert [l["kept_matches_checkpoint"] for l in verdict["levels"]] == [d != gone for d in range(5)]
    assert verdict["levels"][gone] == {"depth": gone, "kept_matches_checkpoint": False}


def test_sandwich_checks_an_empty_checkpoint_against_no_records(tmp_path: Path) -> None:
    # a depth whose checkpoint keeps no cell matches a file without its
    # records, and its empty cover then misses the reference points
    assert main(run_args(tmp_path, **{"--depth": "2"})) == 0
    base = run_args(tmp_path, **{"--depth": "2"})[1:]
    cfg = cli._load_config(cli.build_parser().parse_args(cli._join_q_flag(["run", *base])))
    empty = CoverLevel(cfg.q, 2, [])
    (tmp_path / "ckpt" / "checkpoint_d2.json").write_text(cli._checkpoint_text(empty, empty.flats, cfg.config_hash()))
    boxes = tmp_path / "boxes.jsonl"
    boxes.write_text("".join(l for l in boxes.read_text().splitlines(keepends=True) if not l.startswith('{"depth":2,')))
    assert main(["check", "--mode", "sandwich", *base, "--verdict", str(tmp_path / "v.json")]) == 1
    *shallow, deepest = json.loads((tmp_path / "v.json").read_text())["levels"]
    assert [l["depth"] for l in shallow] == [0, 1] and all(l["pass"] for l in shallow)
    assert deepest["depth"] == 2 and deepest["kept_matches_checkpoint"] and deepest["uncovered_count"] > 0


@pytest.mark.parametrize("mode", ["containment", "gaps", "sandwich"])
def test_verdict_that_checks_no_level_fails(tmp_path: Path, mode: str) -> None:
    # without the checkpoints of depths 0-2 no level can be replayed, and the
    # boxes file keeps only depth 3, beyond --max-global-depth
    assert main(run_args(tmp_path, **{"--depth": "3"})) == 0
    base = run_args(tmp_path, **{"--depth": "3"})[1:]
    for d in range(3):
        (tmp_path / "ckpt" / f"checkpoint_d{d}.json").unlink()
    boxes = tmp_path / "boxes.jsonl"
    boxes.write_text("".join(l for l in boxes.read_text().splitlines(keepends=True) if json.loads(l)["depth"] == 3))
    verdict = tmp_path / "v.json"
    assert main(["check", "--mode", mode, *base, "--max-global-depth", "2", "--verdict", str(verdict)]) == 1
    result = json.loads(verdict.read_text())
    assert result["levels"] == [] and result["pass"] is False


@pytest.mark.parametrize("system, param", [
    ("henon", "henon.aa=1.0"),  # no such parameter
    ("henon", "saddle2d.a=1.0"),  # the prefix names another system
    ("saddle2d", "saddle2d.bogus=7"),
    ("saddle2d", "a=1.0"),  # saddle2d has no parameters
    ("henon", "henon.b=0"),
    ("henon", "b=nan"),
    ("henon", "henon.a=inf"),
])
def test_bad_params_exit_2(tmp_path: Path, system: str, param: str) -> None:
    flags = {"--system": system, "--q": "-1,-1:1,1", "--depth": "2", "--h0": "0.2", "--param": param}
    assert main(run_args(tmp_path, **flags)) == 2
    assert not (tmp_path / "boxes.jsonl").exists()


def test_oracle_subcommand_writes_csv(tmp_path: Path) -> None:
    out = tmp_path / "pts.csv"
    rc = main(["oracle", "--system", "halving1d", "--q", "-1:1",
               "--resolution", "0.05", "--horizon", "20", "--oracle-out", str(out)])
    assert rc == 0
    rows = [line for line in out.read_text().splitlines() if line]
    assert rows
    assert all(abs(float(r)) <= 0.05 for r in rows)


def test_config_file_with_flag_override(tmp_path: Path) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "halving1d", "q": "-1:1", "depth": 3, "M": 1,
        "out": str(tmp_path / "a.jsonl"), "stats": str(tmp_path / "a.json"),
        "checkpoint_dir": str(tmp_path / "ck"),
    }))
    assert main(["run", "--config", str(cfg), "--depth", "2"]) == 0
    records = read_jsonl(tmp_path / "a.jsonl")
    assert max(r["depth"] for r in records) == 2


def test_henon_params_flag(tmp_path: Path) -> None:
    rc = main(run_args(
        tmp_path,
        **{"--system": "henon", "--q": "-2,-2:2,2", "--depth": "2",
           "--param": "henon.a=1.2"},
    ))
    assert rc == 0


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# sha256 of the boxes JSONL, the stats JSON and the concatenated checkpoints
# (in depth order) of two discrete runs. Discrete images of dyadic centres are
# dyadic, so these bytes do not depend on the platform's libm.
PINNED_RUNS = {
    ("henon", "-2,-2:2,2", "6"): (
        "7a374168ff0cbe4ce513fd634dcd555b072061d523a949e284a6fa22af5ad0cc",
        "354b96faac499a9bcfe5d8464caa22d22b0abcfb3a1710cf88d4581fe41d6c47",
        "42e1f4bda97e4e958e9e53c4af271bd4ebffa35dfb0c63e88ee385c0e82dd283",
    ),
    ("linmap2d", "-1,-1:1,1", "7"): (
        "a5c7d99f043d145c920f41cc9c96c74d3c2f8a9bc27f395a38c070c840541906",
        "8f9306ddf3bc9b0facadffda37bae49562c2e100f3e61b1ca2960a7a26c64498",
        "6f67b1552dc8aa8b0ec37accc3e720f82bf245cc71ee7bdf3d7f21a8a5247515",
    ),
}


@pytest.mark.parametrize("system,q,depth", sorted(PINNED_RUNS))
def test_run_artifacts_are_pinned(tmp_path: Path, system: str, q: str, depth: str) -> None:
    rc = main(["run", "--system", system, f"--q={q}", "--depth", depth,
               "--out", str(tmp_path / "boxes.jsonl"), "--stats", str(tmp_path / "stats.json"),
               "--checkpoint-dir", str(tmp_path / "ckpt")])
    assert rc == 0
    ckpts = sorted((tmp_path / "ckpt").iterdir(), key=lambda p: int(p.stem.removeprefix("checkpoint_d")))
    assert [p.name for p in ckpts] == [f"checkpoint_d{d}.json" for d in range(int(depth) + 1)]
    got = (
        sha256((tmp_path / "boxes.jsonl").read_bytes()),
        sha256((tmp_path / "stats.json").read_bytes()),
        sha256(b"".join(p.read_bytes() for p in ckpts)),
    )
    assert got == PINNED_RUNS[(system, q, depth)]


def test_transition_dumps_is_pinned() -> None:
    Q2 = Box([-1.0, -1.0], [1.0, 1.0])
    tmap = build_transition_discrete(CoverLevel.full(Q2, 4), make_builtin("linmap2d", Q2))
    assert sha256(tmap.dumps().encode("utf-8")) == (
        "3ea4b9206fe2325ca386b09339b9be91a9526890e60fdd9b49470e69d5eab99b"
    )


@pytest.mark.parametrize(
    "system, q, extra",
    [
        ("cubic1d", "-1.5:1.5", ("--h0", "0.08", "--depth", "8")),
        ("saddle2d", "-1,-1:1,1", ("--h0", "0.2", "--depth", "5")),
        ("halving1d", "-1e-05:3e-05", ("--depth", "8")),  # bounds print in exponent form
        ("henon", "-1.9,-1.3:1.7,1.9", ("--depth", "6")),  # boundaries that are not lo + c * w
    ],
)
def test_box_records_are_canonical_json(tmp_path: Path, system: str, q: str, extra: tuple) -> None:
    argv = run_args(tmp_path, **{"--system": system, "--q": q})
    assert main([*argv, *extra]) == 0
    lines = (tmp_path / "boxes.jsonl").read_text(encoding="utf-8").splitlines()
    assert lines
    root = parse_q(q)
    for line in lines:
        rec = json.loads(line)
        assert line == json.dumps(rec, sort_keys=True, separators=(",", ":"))
        # the bounds the writer reads from the level are the midpoint recursion's
        box = BoxKey.from_flat(rec["index"], rec["depth"], root.dim).box(root)
        assert (rec["lo"], rec["hi"]) == (box.lo.tolist(), box.hi.tolist())
    if system == "halving1d":
        assert any("e-" in line for line in lines)


def test_check_truncated_checkpoint_exit_2(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "4"})) == 0
    ckpt = tmp_path / "ckpt" / "checkpoint_d2.json"
    text = ckpt.read_text()
    ckpt.write_text(text[: len(text) // 2])
    base = run_args(tmp_path, **{"--depth": "4"})[1:]
    assert main(["check", "--mode", "containment", *base]) == 2


def test_check_malformed_boxes_exit_2(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "2"})) == 0
    base = run_args(tmp_path, **{"--depth": "2"})[1:]
    boxes = tmp_path / "boxes.jsonl"
    good = boxes.read_text()
    lines = good.splitlines(keepends=True)
    # the writer's records but for one changed bound, a repeated record, or
    # two records of one depth swapped: the cells alone would pass at depth 2
    edited = [good.replace('"lo":[-0.5]', '"lo":[-0.25]', 1), "".join(lines[:2] + lines[1:]),
              "".join(lines[:3] + [lines[4], lines[3]] + lines[5:])]
    assert good not in edited
    for bad in ('{"depth": 1, "index": "x"}', "[1,2]", "7", '{"depth": 1}'):
        edited.append(good + bad + "\n")
    for text in edited:
        boxes.write_text(text)
        assert main(["check", "--mode", "sandwich", *base, "--max-global-depth", "2"]) == 2


@pytest.mark.parametrize("bad", [
    '{"depth": 1, "index": 0} {"depth": 1, "index": 1}',  # two records on one line
    '{"depth": 1, "index": 0}, {"depth": 1, "index": 1}',
    '{"depth": 1,\n"index": 0}',  # one record split across two lines
    '{"depth": 1, "index"\n: 0}',
])
def test_check_boxes_one_record_per_line_exit_2(tmp_path: Path, bad: str) -> None:
    # each line must be one record in the bytes the writer gives it
    assert main(run_args(tmp_path, **{"--depth": "2"})) == 0
    base = run_args(tmp_path, **{"--depth": "2"})[1:]
    boxes = tmp_path / "boxes.jsonl"
    boxes.write_text(boxes.read_text() + bad + "\n")
    assert main(["check", "--mode", "sandwich", *base, "--max-global-depth", "2"]) == 2


def test_resume_checkpoint_without_depth_exit_2(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "3"})) == 0
    ckpt = tmp_path / "ckpt" / "checkpoint_d2.json"
    data = json.loads(ckpt.read_text())
    del data["depth"]
    ckpt.write_text(json.dumps(data))
    rc = main(run_args(tmp_path, **{"--depth": "5", "--resume": str(ckpt)}))
    assert rc == 2


def test_resume_checkpoint_out_of_range_exit_2(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "3"})) == 0
    ckpt = tmp_path / "ckpt" / "checkpoint_d2.json"
    data = json.loads(ckpt.read_text())
    for depth, kept in ((2, [0, 99]), (2, [-1]), (-1, []), (70, [])):
        ckpt.write_text(json.dumps({**data, "depth": depth, "kept": kept}))
        assert main(run_args(tmp_path, **{"--depth": "5", "--resume": str(ckpt)})) == 2
        base = run_args(tmp_path, **{"--depth": "3"})[1:]
        assert main(["check", "--mode", "containment", *base]) == 2


def test_check_boxes_out_of_range_exit_2(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "2"})) == 0
    base = run_args(tmp_path, **{"--depth": "2"})[1:]
    boxes = tmp_path / "boxes.jsonl"
    good = boxes.read_text()
    for bad in ('{"depth": 2, "index": 1000000}', '{"depth": 2, "index": -1}', '{"depth": -1, "index": 0}',
                '{"depth": 1, "index": 100000000000000000000}'):
        boxes.write_text(good + bad + "\n")
        assert main(["check", "--mode", "sandwich", *base, "--max-global-depth", "2"]) == 2


@pytest.mark.parametrize("field, value", [
    ("depth", 1.0), ("depth", True), ("depth", "1"),
    ("index", 0.0), ("index", True), ("index", "1"),
])
def test_check_boxes_non_integer_exit_2(tmp_path: Path, field: str, value) -> None:
    # each record would name a valid box if the value were read as int(value)
    assert main(run_args(tmp_path, **{"--depth": "2"})) == 0
    base = run_args(tmp_path, **{"--depth": "2"})[1:]
    boxes = tmp_path / "boxes.jsonl"
    boxes.write_text(boxes.read_text() + json.dumps({"depth": 1, "index": 0, field: value}) + "\n")
    assert main(["check", "--mode", "sandwich", *base, "--max-global-depth", "2"]) == 2


@pytest.mark.parametrize("entry", [
    {"depth": 2.0}, {"depth": True, "kept": [0, 1]}, {"depth": "2"},
    {"kept": [1.0]}, {"kept": [True]}, {"kept": ["1"]},
    {"kept": [3, 2, 1, 0]}, {"kept": [0, 1, 1, 2, 3]},
])
def test_checkpoint_non_integer_exit_2(tmp_path: Path, entry: dict) -> None:
    # each checkpoint, written in the writer's spacing, would be a valid one
    # if its values were read as int(value) and its cells sorted and deduplicated
    assert main(run_args(tmp_path, **{"--depth": "3"})) == 0
    ckpt = tmp_path / "ckpt" / "checkpoint_d2.json"
    data = json.loads(ckpt.read_text())
    assert data["kept"] == [0, 1, 2, 3]
    ckpt.write_text(json.dumps({**data, **entry}, sort_keys=True, separators=(",", ":")) + "\n")
    assert main(run_args(tmp_path, **{"--depth": "5", "--resume": str(ckpt)})) == 2
    base = run_args(tmp_path, **{"--depth": "3"})[1:]
    assert main(["check", "--mode", "containment", *base]) == 2


@pytest.mark.parametrize("entry", [
    {"q": {"lo": [1]}},
    {"q": {"lo": [1], "hi": [0]}},
    {"q": [[-1], [1]]},
    {"depth": "x"},
    {"samples": 2.5},
    {"out": 5},
    {"checkpoint_dir": 3},
    {"diagnostics": "no"},
    {"system": "cubic1d", "q": "-1.5:1.5", "h0": 0.05, "alpha": "fast"},
    {"system": "cubic1d", "q": "-1.5:1.5", "h0": [0.05]},
    {"params": [1]},
    {"system": "henon", "q": "-1,-1:1,1", "params": {"a": "x"}},
    {"depth": True, "samples": True},
    {"M": True},
    {"h0": True},
    {"alpha": False},
])
def test_malformed_config_values_exit_2(tmp_path: Path, entry: dict) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "halving1d", "q": "-1:1", "depth": 2,
        "out": str(tmp_path / "a.jsonl"), "stats": str(tmp_path / "a.json"), **entry,
    }))
    assert main(["run", "--config", str(cfg)]) == 2
    assert not (tmp_path / "a.jsonl").exists()


def test_interrupted_checkpoint_write_leaves_whole_files(tmp_path: Path, monkeypatch) -> None:
    full_dir = tmp_path / "full"
    full_dir.mkdir()
    assert main(run_args(full_dir, **{"--depth": "5"})) == 0
    full = read_jsonl(full_dir / "boxes.jsonl")

    # the second checkpoint write is cut off halfway by an interrupt
    writes = {"n": 0}

    class HalfWriter:
        def __init__(self, fp):
            self.fp = fp

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fp.__exit__(*exc)

        def write(self, text: str) -> int:
            self.fp.write(text[: len(text) // 2])
            self.fp.flush()
            raise KeyboardInterrupt

    def cutting_open(path, *args, **kwargs):
        fp = open(path, *args, **kwargs)
        if "checkpoint_d" in Path(path).name:
            writes["n"] += 1
            if writes["n"] == 2:
                return HalfWriter(fp)
        return fp

    # a checkpoint of the same configuration left from an earlier run must
    # survive the cut whole: readers see the old file or the new one
    cut_dir = tmp_path / "cut"
    (cut_dir / "ckpt").mkdir(parents=True)
    stale = (full_dir / "ckpt" / "checkpoint_d1.json").read_bytes()
    (cut_dir / "ckpt" / "checkpoint_d1.json").write_bytes(stale)
    monkeypatch.setattr(cli, "open", cutting_open, raising=False)
    assert main(run_args(cut_dir, **{"--depth": "5"})) == 130
    monkeypatch.undo()

    # depth 1 is not committed: boxes, stats and the checkpoints this run
    # wrote all end at depth 0, and the stale depth-1 checkpoint is untouched
    assert read_jsonl(cut_dir / "boxes.jsonl") == [r for r in full if r["depth"] == 0]
    assert [s["depth"] for s in json.loads((cut_dir / "stats.json").read_text())] == [0]
    ckpt_dir = cut_dir / "ckpt"
    assert sorted(p.name for p in ckpt_dir.iterdir()) == ["checkpoint_d0.json", "checkpoint_d1.json"]
    first = ckpt_dir / "checkpoint_d0.json"
    assert first.read_bytes() == (full_dir / "ckpt" / "checkpoint_d0.json").read_bytes()
    assert (ckpt_dir / "checkpoint_d1.json").read_bytes() == stale

    resumed_dir = tmp_path / "resumed"
    resumed_dir.mkdir()
    assert main(run_args(resumed_dir, **{"--depth": "5", "--resume": str(first)})) == 0
    assert read_jsonl(resumed_dir / "boxes.jsonl") == [r for r in full if r["depth"] > 0]
    for d in range(1, 6):
        name = f"checkpoint_d{d}.json"
        assert (resumed_dir / "ckpt" / name).read_bytes() == (full_dir / "ckpt" / name).read_bytes()


def _files(tmp: Path) -> dict[str, bytes]:
    return {str(p.relative_to(tmp)): p.read_bytes() for p in sorted(tmp.rglob("*")) if p.is_file()}


def test_resume_deeper_than_depth_exit_2_with_the_files_unchanged(tmp_path: Path, capsys) -> None:
    # a resume from depth 3 with --depth 2 used to truncate a depth-5 run's
    # boxes and stats to depth 3 and exit 0, leaving checkpoints d4 and d5
    assert main(run_args(tmp_path, **{"--depth": "5"})) == 0
    before = _files(tmp_path)
    capsys.readouterr()
    assert main(run_args(tmp_path, **{"--depth": "2", "--resume": str(tmp_path / "ckpt" / "checkpoint_d3.json")})) == 2
    assert capsys.readouterr().err == "error: the resume depth 3 is deeper than the depth 2\n"
    assert _files(tmp_path) == before


def test_resume_at_depth_is_a_no_op(tmp_path: Path) -> None:
    assert main(run_args(tmp_path, **{"--depth": "3"})) == 0
    before = _files(tmp_path)
    assert main(run_args(tmp_path, **{"--depth": "3", "--resume": str(tmp_path / "ckpt" / "checkpoint_d3.json")})) == 0
    assert _files(tmp_path) == before


@pytest.mark.parametrize("flags", [
    {"--seed": "-1"}, {"--samples-per-axis": "0"}, {"--samples": "0"}, {"--box-budget": "0"}, {"--depth": "-1"},
    {"--euler-substeps": "0"}, {"--threads": "0"}, {"--system": "henon"},
    {"--system": "cubic1d", "--q": "-1.5:1.5"},  # a flow without --h0
    {"--system": "cubic1d", "--q": "-1.9:1.9", "--h0": "0.1"},  # margin
])
def test_refused_settings_exit_2_with_no_file_written(tmp_path: Path, flags: dict) -> None:
    assert main(run_args(tmp_path, **flags)) == 2
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["check", "prune-graph", "oracle"])
def test_unwritable_output_exit_2_naming_the_path(tmp_path: Path, capsys, command: str) -> None:
    # a missing directory used to end in a FileNotFoundError traceback with
    # exit 1, the code of a failed verdict
    assert main(run_args(tmp_path, **{"--depth": "2"})) == 0
    target = tmp_path / "missing" / "out.json"
    graph = tmp_path / "graph.json"
    graph.write_text('{"edges": {"0": [0]}}')
    argv = {
        "check": ["check", "--mode", "containment", *run_args(tmp_path, **{"--depth": "2"})[1:], "--verdict"],
        "prune-graph": ["prune-graph", "--input", str(graph), "--output"],
        "oracle": ["oracle", "--system", "halving1d", "--q", "-1:1", "--oracle-out"],
    }[command]
    capsys.readouterr()
    assert main([*argv, str(target)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and err[0].endswith(f"{str(target)!r}")
    assert not (tmp_path / "missing").exists()


def test_interrupted_check_exits_130(tmp_path: Path, monkeypatch, capsys) -> None:
    assert main(run_args(tmp_path, **{"--depth": "2"})) == 0

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "build_transition", interrupted)
    capsys.readouterr()
    assert main(["check", "--mode", "containment", *run_args(tmp_path, **{"--depth": "2"})[1:]]) == 130
    assert capsys.readouterr().err == "[check] interrupted\n"


@pytest.mark.parametrize("earlier", [False, True], ids=["none", "old"])
def test_interrupted_verdict_write_leaves_the_old_verdict_or_none(tmp_path: Path, monkeypatch, earlier: bool) -> None:
    assert main(run_args(tmp_path, **{"--depth": "2"})) == 0
    verdict = tmp_path / "v.json"
    old = b'{"pass": false}\n'
    if earlier:
        verdict.write_bytes(old)

    class HalfWriter:
        def __init__(self, fp):
            self.fp = fp

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return self.fp.__exit__(*exc)

        def write(self, text: str) -> int:
            self.fp.write(text[: len(text) // 2])
            self.fp.flush()
            raise KeyboardInterrupt

    def cutting_open(path, *args, **kwargs):
        fp = open(path, *args, **kwargs)
        return HalfWriter(fp) if "v.json" in Path(path).name else fp

    monkeypatch.setattr(cli, "open", cutting_open, raising=False)
    argv = ["check", "--mode", "containment", *run_args(tmp_path, **{"--depth": "2"})[1:], "--verdict", str(verdict)]
    assert main(argv) == 130
    assert sorted(p.name for p in tmp_path.iterdir()) == ["boxes.jsonl", "ckpt", "stats.json", *(["v.json"] * earlier)]
    if earlier:
        assert verdict.read_bytes() == old


@pytest.mark.parametrize("case, code, line", [
    ("budget", 3, "error: box budget exceeded: depth 5 needs 256 boxes, budget is 200; finished levels are kept"),
    ("radius", 1, "error: the transition radius of henon at depth 0 is nan; finished levels are kept"),
])
def test_run_exit_lines_say_finished_levels_are_kept(tmp_path: Path, capsys, case: str, code: int, line: str) -> None:
    flags = {
        "budget": {"--system": "linmap2d", "--q": "-1,-1:1,1", "--depth": "9", "--box-budget": "200"},
        "radius": {"--system": "henon", "--q": "-2,-2:2,2", "--param": "a=1e308", "--depth": "3"},
    }[case]
    assert main(run_args(tmp_path, **flags)) == code
    assert capsys.readouterr().err.splitlines()[-1] == line
