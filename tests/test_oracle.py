from __future__ import annotations

import itertools

import numpy as np
import pytest

from boxattractor.attractor import run_global, run_subdivision
from boxattractor.geometry import Box, CoverLevel
from boxattractor.oracle import (
    ReferenceAttractor,
    _grid_over,
    backward_containment_mask,
    export_points_csv,
    reach_cycle_set,
    reference_attractor_points,
    verify_sandwich,
)
from boxattractor.systems import make_builtin

Q1 = Box([-1.0], [1.0])
Q2 = Box([-1.0, -1.0], [1.0, 1.0])


def test_reach_cycle_examples() -> None:
    assert reach_cycle_set({0: [1], 1: [], 2: [2]}) == {2}
    complete = {i: [0, 1, 2] for i in range(3)}
    assert reach_cycle_set(complete) == {0, 1, 2}
    dag = {0: [1, 2], 1: [3], 2: [3], 3: []}
    assert reach_cycle_set(dag) == set()


def test_grid_over_is_the_product_grid() -> None:
    # the meshgrid points are the itertools.product points of the per-axis
    # grids, in the same order and byte for byte
    for Q, resolution in (
        (Box([-0.37], [1.13]), 0.07),
        (Box([-0.3333, 0.1], [2.71828, 0.7]), 0.09),
        (Box([-1.1, 0.25, -3.7], [0.9, 0.4, -2.15]), 0.3),
    ):
        axes = [
            np.linspace(Q.lo[k], Q.hi[k], max(2, int(np.ceil((Q.hi[k] - Q.lo[k]) / resolution)) + 1))
            for k in range(Q.dim)
        ]
        want = np.array(list(itertools.product(*axes))).reshape(-1, Q.dim)
        got = _grid_over(Q, resolution)
        assert got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_reference_points_linmap() -> None:
    sys_ = make_builtin("linmap2d", Q2)
    ref = reference_attractor_points(sys_, Q2, resolution=0.05, horizon=30)
    # backward orbit 2^k x leaves Q unless x = 0: only the x = 0 column survives
    assert len(ref.points) > 0
    assert np.max(np.abs(ref.points[:, 0])) == 0.0
    assert np.max(np.abs(ref.points[:, 1])) == 1.0


def test_reference_points_halving() -> None:
    sys_ = make_builtin("halving1d", Q1)
    ref = reference_attractor_points(sys_, Q1, resolution=0.01, horizon=30)
    assert len(ref.points) >= 1
    assert np.max(np.abs(ref.points)) <= 0.01


def test_reference_points_cubic_band() -> None:
    Q = Box([-1.5], [1.5])
    sys_ = make_builtin("cubic1d", Q)
    ref = reference_attractor_points(sys_, Q, resolution=0.01, horizon=10.0)
    lo, hi = float(np.min(ref.points)), float(np.max(ref.points))
    assert -1.02 <= lo <= -0.98 and 0.98 <= hi <= 1.02
    # analytic attractor samples always pass the backward-containment test
    inside = np.linspace(-0.99, 0.99, 21)
    grid = {round(float(p), 10) for p in ref.points.ravel()}
    covered = [any(abs(p - q) <= ref.resolution for q in grid) for p in inside]
    assert all(covered)


def test_analytic_attractor_samples_survive_all_horizons() -> None:
    # samples of the known attractors pass the backward-containment test no
    # matter how long the sampled history is
    ys = np.linspace(-1.0, 1.0, 21)
    cases = [
        ("halving1d", Q1, np.zeros((1, 1)), (5, 20, 60)),
        ("linmap2d", Q2, np.stack([np.zeros_like(ys), ys], axis=1), (5, 20, 60)),
        ("cubic1d", Box([-1.5], [1.5]), ys[:, None], (2.0, 5.0, 10.0)),
        ("saddle2d", Q2, np.stack([ys, np.zeros_like(ys)], axis=1), (2.0, 5.0, 10.0)),
    ]
    for name, Q, pts, horizons in cases:
        sys_ = make_builtin(name, Q)
        for horizon in horizons:
            mask = backward_containment_mask(sys_, Q, pts, horizon)
            assert mask.all(), f"{name} lost attractor samples at horizon {horizon}"


def test_reference_points_monotone_in_horizon() -> None:
    sys_ = make_builtin("halving1d", Q1)
    shorter = reference_attractor_points(sys_, Q1, resolution=0.02, horizon=5)
    longer = reference_attractor_points(sys_, Q1, resolution=0.02, horizon=12)
    s = set(map(float, shorter.points.ravel()))
    l = set(map(float, longer.points.ravel()))
    assert l <= s

    cub = make_builtin("cubic1d", Box([-1.5], [1.5]))
    a = reference_attractor_points(cub, Box([-1.5], [1.5]), resolution=0.05, horizon=2.0)
    b = reference_attractor_points(cub, Box([-1.5], [1.5]), resolution=0.05, horizon=5.0)
    assert set(map(float, b.points.ravel())) <= set(map(float, a.points.ravel()))


def test_a_maps_horizon_counts_whole_steps() -> None:
    # a map iterates whole steps, so 2.5 would run 2; a flow's horizon may
    # be fractional
    sys_ = make_builtin("halving1d", Q1)
    with pytest.raises(ValueError, match="whole steps"):
        reference_attractor_points(sys_, Q1, resolution=0.02, horizon=2.5)
    assert reference_attractor_points(sys_, Q1, resolution=0.02, horizon=np.int64(2)).horizon == 2.0
    cub = make_builtin("cubic1d", Box([-1.5], [1.5]))
    assert reference_attractor_points(cub, Box([-1.5], [1.5]), resolution=0.05, horizon=2.5).horizon == 2.5


def test_verify_sandwich_pass_and_mutation() -> None:
    sys_ = make_builtin("halving1d", Q1)
    levels = run_subdivision(sys_, Q1, max_depth=4, M=1)
    sub_result, report = levels[-1]
    g_result, _ = run_global(sys_, Q1, depth=4, M=1)
    ref = reference_attractor_points(sys_, Q1, resolution=0.01, horizon=30)
    level = CoverLevel(Q1, 4, sub_result.kept_flats)
    verdict = verify_sandwich(level, g_result.kept_flats, ref)
    assert verdict.passed
    assert verdict.uncovered_points.shape == (0, 1) and verdict.extra_flats.size == 0

    # deleting the kept box that covers the reference point breaks check (1)
    lo, hi = level.cell_windows(ref.points, 0.0)
    _, start, count = level.row_runs(lo, hi, level.window_rows(lo, hi))
    cells = level.run_cells(start, count)
    mutated = CoverLevel(Q1, 4, np.setdiff1d(level.flats, level.flats[cells]))
    verdict = verify_sandwich(mutated, g_result.kept_flats, ref)
    assert not verdict.passed and len(verdict.uncovered_points)
    assert verdict.uncovered_points.shape[1] == 1
    assert not mutated.contains_points(verdict.uncovered_points).any()

    # a subdivision cell outside the global kept set breaks check (2)
    alien = g_result.removed_flats[-2:]
    assert alien.size
    widened = CoverLevel(Q1, 4, np.concatenate([level.flats, alien]))
    verdict = verify_sandwich(widened, g_result.kept_flats, ref)
    assert not verdict.passed and verdict.extra_flats.tolist() == sorted(alien.tolist())
    assert verdict.extra_flats.dtype == np.int64
    assert verdict.to_json_dict()["extra_flats"] == sorted(alien.tolist())
    assert verdict.to_json_dict()["extra_count"] == alien.size


def test_verify_sandwich_vacuous_reference() -> None:
    sys_ = make_builtin("halving1d", Q1)
    levels = run_subdivision(sys_, Q1, max_depth=2, M=1)
    sub_result, _ = levels[-1]
    g_result, _ = run_global(sys_, Q1, depth=2, M=1)
    empty = ReferenceAttractor(points=np.empty((0, 1)), resolution=0.1, horizon=1.0)
    verdict = verify_sandwich(CoverLevel(Q1, 2, sub_result.kept_flats), g_result.kept_flats, empty)
    assert verdict.passed


def test_export_points_csv(tmp_path) -> None:
    ref = ReferenceAttractor(points=np.array([[0.25, -1.0], [0.5, 0.125]]), resolution=0.1, horizon=1.0)
    out = tmp_path / "pts.csv"
    export_points_csv(ref, out)
    assert out.read_text() == "0.25,-1\n0.5,0.125\n"
