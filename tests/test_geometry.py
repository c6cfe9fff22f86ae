from __future__ import annotations

import bisect
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxattractor import geometry
from boxattractor.geometry import (
    Box,
    BoxKey,
    CoverLevel,
    _exact_windows,
    across_axes,
    dyadic_boundaries,
    point_box_distance,
    refine_cover,
    region_semidistance,
    subbox_centers,
)


def test_box_rejects_degenerate() -> None:
    with pytest.raises(ValueError):
        Box([0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        Box([0.0], [np.inf])


def level_boxes(level: CoverLevel) -> list[Box]:
    """The boxes of a level's cells as runs read them, from box_los and
    box_his, in flat order."""
    return [Box(lo, hi) for lo, hi in zip(level.box_los, level.box_his)]


def recursion_boxes(level: CoverLevel) -> list[Box]:
    """The boxes of a level's cells by the midpoint recursion (BoxKey.box),
    the reference that reads none of the level's arrays, in flat order."""
    return [BoxKey.from_flat(f, level.depth, level.dim).box(level.root) for f in level.flats]


def children_of(root: Box) -> list[Box]:
    """The boxes of the one-step refinement of `root`, in selector order,
    from the level's bounds, which equal the recursion's."""
    level = refine_cover(CoverLevel.full(root, 0), [0])
    assert level_boxes(level) == recursion_boxes(level)
    return level_boxes(level)


def test_subdivide_unit_square_selector_order() -> None:
    kids = children_of(Box([0.0, 0.0], [1.0, 1.0]))
    expected = [
        ([0.0, 0.0], [0.5, 0.5]),
        ([0.5, 0.0], [1.0, 0.5]),
        ([0.0, 0.5], [0.5, 1.0]),
        ([0.5, 0.5], [1.0, 1.0]),
    ]
    assert [(k.lo.tolist(), k.hi.tolist()) for k in kids] == expected


def test_subdivide_interval_midpoint() -> None:
    kids = children_of(Box([-1.0], [1.0]))
    assert [(k.lo.tolist(), k.hi.tolist()) for k in kids] == [([-1.0], [0.0]), ([0.0], [1.0])]


def test_two_subdivisions_match_flat_index_scheme() -> None:
    # enumerate by recursive subdivision and compare against the flat-index
    # arithmetic: children of flat i at depth n are i*2^d .. (i+1)*2^d - 1
    root = Box([-1.0, -1.0], [1.0, 1.0])
    level2 = CoverLevel.full(root, 2)
    assert level2.size == 16
    by_recursion = {}
    for i, child in enumerate(children_of(root)):
        for s, grand in enumerate(children_of(child)):
            by_recursion[i * 4 + s] = grand
    boxes = level_boxes(level2)
    for flat in range(16):
        assert by_recursion[flat] == boxes[flat]
        assert boxes[flat].diameter == pytest.approx(root.diameter / 4)
    # key digits reproduce the same flats
    for flat in range(16):
        key = BoxKey.from_flat(flat, 2, 2)
        assert key.flat(2) == flat
        assert key.box(root) == boxes[flat]


def test_subbox_centers_examples() -> None:
    # M = 0 is refused by build_transition (tests/test_transition.py)
    def centers(lo, hi, M):
        return subbox_centers(np.array(lo), np.array(hi), M)

    assert centers([0.0], [1.0], 2).ravel().tolist() == [0.25, 0.75]
    assert centers([0.0, 0.0], [1.0, 1.0], 1).tolist() == [[0.5, 0.5]]
    assert centers([-1.0], [1.0], 4).ravel().tolist() == [-0.75, -0.25, 0.25, 0.75]
    # axis 0 varies fastest, and a batch of boxes gives one set per box
    assert centers([0.0, 0.0], [1.0, 1.0], 2).tolist() == [[0.25, 0.25], [0.75, 0.25], [0.25, 0.75], [0.75, 0.75]]
    both = centers([[0.0], [2.0]], [[1.0], [4.0]], 2)
    assert both.shape == (2, 2, 1) and both.ravel().tolist() == [0.25, 0.75, 2.5, 3.5]


def test_point_box_distance_examples() -> None:
    b = Box([0.0, 0.0], [1.0, 1.0])
    assert point_box_distance([2.0, 0.0], b) == pytest.approx(1.0)
    assert point_box_distance([0.3, 0.7], b) == 0.0
    assert point_box_distance([2.0, 3.0], b) == pytest.approx(2.0)


@pytest.mark.parametrize("other", [[0.5], [0.5, 0.5, 0.5]], ids=["1-D", "3-D"])
def test_box_queries_refuse_another_dimension(other: list[float]) -> None:
    # numpy would broadcast a 1-D operand over both axes (a 2-D box would
    # contain [-1, 1]) and fail on a 3-D one with its own message
    b = Box([-2.0, -2.0], [2.0, 2.0])
    inner = Box([v - 1.0 for v in other], [v + 1.0 for v in other])
    dims = f"a {len(other)}-dimensional point or box against a 2-dimensional box"
    for query in (lambda: b.contains_box(inner), lambda: b.contains_point(other),
                  lambda: point_box_distance(other, b)):
        with pytest.raises(ValueError, match=dims):
            query()


@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    st.lists(st.floats(-5, 5), min_size=2, max_size=2),
)
@settings(max_examples=200, deadline=None)
def test_point_box_distance_zero_iff_member(p: list[float], q: list[float]) -> None:
    b = Box([-1.0, -2.0], [2.0, 1.0])
    d = point_box_distance(p, b)
    assert (d == 0.0) == b.contains_point(p)
    # 1-Lipschitz in the point argument
    assert abs(d - point_box_distance(q, b)) <= np.max(np.abs(np.asarray(p) - np.asarray(q))) + 1e-12


def test_refine_cover_examples() -> None:
    root = Box([-1.0], [1.0])
    level0 = CoverLevel.full(root, 0)
    level1 = refine_cover(level0, level0.active)
    assert level1.size == 2 and level1.depth == 1

    empty = refine_cover(level1, [])
    assert empty.size == 0 and empty.depth == 2

    right = [k for k in level1.active if k.box(root).lo[0] == 0.0]
    level2 = refine_cover(level1, right)
    boxes = level_boxes(level2)
    assert boxes == recursion_boxes(level2)
    assert [(b.lo[0], b.hi[0]) for b in boxes] == [(0.0, 0.5), (0.5, 1.0)]

    with pytest.raises(ValueError):
        refine_cover(level2, [BoxKey(2, (0, 0))])  # pruned away above


def test_level_holds_at_most_the_cell_limit(monkeypatch) -> None:
    # the limit keeps every cell id int32; patched small here, since a level
    # at the real limit would take 16 GiB of flat indices
    assert geometry.MAX_LEVEL_CELLS == np.iinfo(np.int32).max
    monkeypatch.setattr(geometry, "MAX_LEVEL_CELLS", 4)
    root = Box([0.0, 0.0], [1.0, 1.0])
    level = CoverLevel(root, 2, [0, 5, 10, 15])
    assert level._lex[1].dtype == level._rank.dtype == np.int32
    with pytest.raises(ValueError, match="at most 4 cells"):
        CoverLevel(root, 2, [0, 1, 5, 10, 15])
    with pytest.raises(ValueError, match="at most 4 cells"):
        refine_cover(level, [0, 5])
    with pytest.raises(ValueError, match="at most 4 cells"):
        CoverLevel.full(root, 2)


def test_sorted_flats_are_copied_and_unsorted_flats_still_sorted() -> None:
    # sorted unique input skips np.unique but is still copied: the level's
    # array is read-only and the caller's array stays writable and its own
    root = Box([-1.0, -1.0], [1.0, 1.0])
    flats = np.array([0, 3, 6, 9, 12, 15], dtype=np.int64)
    level = CoverLevel(root, 2, flats)
    picked = level.flats_of(flats[1:4])
    assert flats.flags.writeable and not level.flats.flags.writeable
    assert not np.shares_memory(level.flats, flats) and not np.shares_memory(picked, flats)
    flats[:] = 1
    assert level.flats.tolist() == [0, 3, 6, 9, 12, 15] and picked.tolist() == [3, 6, 9]
    # unsorted or duplicated input gives sorted unique flats on both paths
    assert CoverLevel(root, 2, [9, 3, 3, 15, 0]).flats.tolist() == [0, 3, 9, 15]
    assert CoverLevel(root, 2, [0, 3, 3, 9]).flats.tolist() == [0, 3, 9]
    assert level.flats_of(np.array([6, 6, 15])).tolist() == [6, 15]
    assert CoverLevel(root, 2, np.array([[6, 6], [0, 12]])).flats.tolist() == [0, 6, 12]
    assert level.flats_of(np.array([15, 0, 15, 6])).tolist() == [0, 6, 15]
    assert level.flats_of(level.flats).tolist() == level.flats.tolist()
    with pytest.raises(ValueError):
        level.flats_of(np.array([15, 1]))  # 1 is not active


def test_flats_of_reads_any_integer_array_like() -> None:
    root = Box([-1.0, -1.0], [1.0, 1.0])
    level = CoverLevel(root, 2, [0, 3, 6, 9, 12, 15])
    for cells in ([9, 3, 9], (3, 9), np.array([9, 3], dtype=np.uint32), np.array([3, 9], dtype=np.uint64),
                  np.array([9, 3], dtype=np.int8), [np.int64(3), 9], {9: [], 3: []}.keys(),
                  [BoxKey.from_flat(9, 2, 2), BoxKey.from_flat(3, 2, 2)]):
        assert level.flats_of(cells).tolist() == [3, 9]
        assert level.flats_of(cells).dtype == np.int64
    assert level.flats_of([]).size == 0 and level.flats_of(np.array([], dtype=np.uint8)).size == 0
    # refine_cover and prune read their cells through flats_of
    assert refine_cover(level, np.array([15], dtype=np.uint16)).flats.tolist() == [60, 61, 62, 63]
    for bad in ([3.0, 9.0], np.array([True, False]), ["3"], [3, BoxKey.from_flat(9, 2, 2)]):
        with pytest.raises(TypeError):
            level.flats_of(bad)
    with pytest.raises(ValueError):
        level.flats_of(np.array([1], dtype=np.uint64))  # 1 is not active
    with pytest.raises(ValueError):
        level.flats_of(np.array([2**63], dtype=np.uint64))  # beyond any depth


def test_nesting_and_partition_invariants() -> None:
    root = Box([-1.0, 0.5], [3.0, 2.5])
    level = CoverLevel.full(root, 3)
    parent = CoverLevel.full(root, 2)
    for key in level.active:
        anc = BoxKey(2, key.path[:2])
        assert anc.box(root).contains_box(key.box(root))
    assert parent.rho == pytest.approx(root.diameter / 4)
    assert level.rho == pytest.approx(root.diameter / 8)
    # children tile their parent exactly: volumes add up
    assert level_boxes(parent)[5] == BoxKey.from_flat(5, 2, 2).box(root)
    for b in (root, level_boxes(parent)[5]):
        kids = children_of(b)
        vol = sum(float(np.prod(k.hi - k.lo)) for k in kids)
        assert vol == pytest.approx(float(np.prod(b.hi - b.lo)))


def test_json_roundtrips() -> None:
    k = BoxKey(3, (0, 2, 1))
    assert BoxKey.from_flat(k.flat(2), 3, 2) == k
    with pytest.raises(ValueError):
        BoxKey.from_flat(-1, 2, 2)
    with pytest.raises(ValueError):
        BoxKey(2, (0,))


def test_flat_coord_roundtrip() -> None:
    rng = np.random.default_rng(7)
    for depth, dim in [(0, 1), (3, 1), (4, 2), (3, 3)]:
        root = Box([-1.0] * dim, [1.0] * dim)
        level = CoverLevel(root, depth, rng.integers(0, 1 << (depth * dim), size=50))
        coords = level.coords
        assert coords.shape == (level.size, dim) and coords.dtype == np.int64
        assert np.all(coords >= 0) and np.all(coords < (1 << depth))
        # the coordinates index the boundaries of the recursively built box
        B = level.boundaries
        for f, c in zip(level.flats, coords):
            b = BoxKey.from_flat(int(f), depth, dim).box(root)
            assert [B[k][c[k]] for k in range(dim)] == b.lo.tolist()
            assert [B[k][c[k] + 1] for k in range(dim)] == b.hi.tolist()


def test_dyadic_boundaries_match_recursive_bounds() -> None:
    # boundary arrays must reproduce the exact floats of per-key recursion
    root = Box([-1.0, -1.0], [1.0, 1.0])
    level = CoverLevel.full(root, 6)
    rng = np.random.default_rng(3)
    boxes = level_boxes(level)
    for flat in rng.integers(0, level.size, size=32):
        key = BoxKey.from_flat(int(flat), 6, 2)
        assert key.box(root) == boxes[flat]


def _lookup_cases() -> list[tuple[CoverLevel, np.ndarray, list[float]]]:
    """(level, points, radii): a full 2-D level and a sparse 3-D level, each
    with random points in and around Q at random radii, points on cell
    faces, edges and corners at r = 0, and points whose p - r or p + r lands
    on a boundary or within two ulps of one, at radii of 0.5-4 cells."""
    rng, edge_rng = np.random.default_rng(11), np.random.default_rng(12)
    full = CoverLevel.full(Box([-1.0, -1.0], [1.0, 1.0]), 4)
    sparse = CoverLevel(Box([-1.0, 0.0, 2.0], [1.0, 0.5, 3.0]), 3, rng.choice(1 << 9, size=60, replace=False))
    cases = []
    for level in (full, sparse):
        lo, hi = level.root.lo, level.root.hi
        pts = [rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo)) for _ in range(50)]
        radii = [float(rng.uniform(0, 0.5)) for _ in range(50)]
        for _ in range(40):
            p = rng.uniform(lo, hi)
            for k in np.nonzero(rng.random(level.dim) < 0.7)[0]:
                p[k] = level.boundaries[k][rng.integers(0, level.cells_per_axis + 1)]
            pts.append(p)
            radii.append(0.0)
        for _ in range(12):
            p = edge_rng.uniform(lo, hi)
            k = edge_rng.integers(level.dim)
            r = float(edge_rng.uniform(0.5, 4) * (hi[k] - lo[k]) / level.cells_per_axis)
            x = level.boundaries[k][edge_rng.integers(0, level.cells_per_axis + 1)] + edge_rng.choice([-r, r])
            for y in x + np.arange(-2, 3) * np.spacing(x):  # x + r or x - r at a boundary, up to rounding
                p[k] = y
                pts.append(p.copy())
                radii.append(r)
        cases.append((level, np.array(pts), radii))
    return cases


def _holding(B, v):
    """The cell that holds v by a search of the boundaries, the upper one on
    a face, clipped to the grid."""
    return np.clip(np.searchsorted(B, v, side="right") - 1, 0, len(B) - 2)


def _searched_windows(B: np.ndarray, x: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Per point, the cells c of one axis with max(B[c] - x, x - B[c+1]) <=
    r, by bisection of the two face tests, each monotone in c also in
    float64: (first, last), or (s + 1, s) for the cell s that _holding gives
    x when none passes."""
    Bl, n = B.tolist(), B.size - 1
    s = _holding(B, x)
    lo, hi = s + 1, s.copy()
    for i, v in enumerate(x.tolist()):
        first = bisect.bisect_left(range(n), True, key=lambda c: v - Bl[c + 1] <= r)
        last = bisect.bisect_left(range(n), True, key=lambda c: Bl[c] - v > r) - 1
        if first <= last:
            lo[i], hi[i] = first, last
    return lo, hi


def test_cell_windows_match_bruteforce() -> None:
    # the exactness contract of cell_windows: the windows of a point hold a
    # cell iff point_box_distance(p, cell) <= r; the runs of row_runs hold
    # the active ones among them. point_cells counts the same cells and
    # lists the active ones in coordinate order, also at radii of several
    # cells and beyond the grid. On each axis, _exact_windows gives the
    # passing cells, or (s + 1, s) for the cell s that holds p where none
    # passes. Its walks start near the cells that hold p - r and p + r, which
    # bracket the passing cells, and the cell that holds p passes, also where
    # rounding decides. One point_cells call on all of a case's r = 0 points
    # (faces, edges and corners, up to 2^d candidates each) lists what the
    # calls one point at a time list
    for level, pts, radii in _lookup_cases():
        grid = CoverLevel.full(level.root, level.depth)
        boxes = recursion_boxes(grid)
        active = np.zeros(grid.size, dtype=bool)
        active[level.flats] = True
        coords = grid.coords
        lex = np.lexsort(coords[level.flats].T[::-1]).tolist()  # local ids in coordinate order, axis 0 slowest
        at_zero = []  # point_cells of each r = 0 point, called alone
        for p, r in zip(pts, radii):
            near = np.array([point_box_distance(p, b) <= r for b in boxes])
            lo, hi = level.cell_windows(p[None, :], r)
            inside = np.all((coords >= lo[0]) & (coords <= hi[0]), axis=1)
            assert np.nonzero(inside)[0].tolist() == np.nonzero(near)[0].tolist()
            point, start, count = level.row_runs(lo, hi, level.window_rows(lo, hi))
            cells = level.run_cells(start, count)
            assert set(point.tolist()) <= {0} and count.sum() == cells.size
            assert sorted(cells.tolist()) == np.nonzero(near[level.flats])[0].tolist()
            candidates, point, cells = level.point_cells(p[None, :], r)
            assert candidates.tolist() == [near.sum()] and set(point.tolist()) <= {0}
            assert cells.tolist() == [c for c in lex if near[level.flats[c]]]
            if r == 0:
                at_zero.append((int(candidates[0]), cells.tolist()))
            for B, x in zip(level.boundaries, p):
                passing = np.nonzero([max(B[c] - x, x - B[c + 1], 0) <= r for c in range(B.size - 1)])[0]
                if passing.size:
                    assert _holding(B, x - r) <= passing[-1] and _holding(B, x + r) >= passing[0]
                    assert _holding(B, x) in passing
                lo, hi = _exact_windows(B, np.array([x]), r)
                s = _holding(B, x)
                assert [lo[0], hi[0]] == ([passing[0], passing[-1]] if passing.size else [s + 1, s])
        want = [any(b.contains_point(p) for b, a in zip(boxes, active) if a) for p in pts]
        assert level.contains_points(pts).tolist() == want
        candidates, point, cells = level.point_cells(pts[np.array(radii) == 0], 0.0)
        assert len(at_zero) == candidates.size >= 40 and candidates.max() == 1 << level.dim
        assert candidates.tolist() == [c for c, _ in at_zero]
        assert point.tolist() == [i for i, (_, cs) in enumerate(at_zero) for _ in cs]
        assert cells.tolist() == [x for _, cs in at_zero for x in cs]


@pytest.mark.parametrize(
    "root", [(-1.0, 1.0), (-2.0, 2.0), (-1.5, 1.5), (0.1, 0.7), (-0.3333, 2.71828), (1e-3, 1e-3 + 3e-7)]
)
def test_grid_starts_and_windows_match_search(root: tuple[float, float]) -> None:
    # the windows of the two face walks from the uniform-grid estimates are
    # the searched windows, empty ones included: points in and around the
    # root, on sampled boundaries and one float step to each side of them,
    # at depths 0-18 and at radii of 0, 1e-9 and 0.3-40 cells
    rng = np.random.default_rng(17)
    lo, hi = root
    for depth in range(19):
        B = dyadic_boundaries(lo, hi, depth)
        n, w = B.size - 1, (hi - lo) / 2**depth
        faces = B[np.concatenate([[0, n], rng.integers(0, n + 1, 12)])]
        x = np.concatenate(
            [
                faces,
                np.nextafter(faces, -np.inf),
                np.nextafter(faces, np.inf),
                rng.uniform(lo, hi, 12),
                lo - rng.uniform(0, 2, 3) * (hi - lo),
                hi + rng.uniform(0, 2, 3) * (hi - lo),
                [lo - 0.5 * w, hi + 0.5 * w, -np.inf, np.inf, np.nan],
            ]
        )
        for r in (0.0, 1e-9, 0.3 * w, 0.5 * w, 1.7 * w, 40 * w):
            want = _searched_windows(B, x, r)
            got = _exact_windows(B, x, r)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (depth, r)


def test_grid_starts_match_search_where_the_estimate_fails() -> None:
    # a span that overflows (every estimate 0 or NaN) or is subnormal
    # (estimates inf or NaN) leaves the ends to the walks, which reach the
    # searched windows and stop at the grid's ends; the midpoints of
    # [-1e308, 1e308] overflow from depth 5 on, and so do the face tests of
    # points far out, which round to inf and stay monotone
    for lo, hi in ((-1e308, 1e308), (0.0, 1e-320), (-1e-320, 3e-321)):
        for depth in range(5):
            B = dyadic_boundaries(lo, hi, depth)
            x = np.concatenate([B, np.nextafter(B, -np.inf), np.nextafter(B, np.inf)])
            x = np.concatenate([x, [-1.7e308, 1.7e308, -np.inf, np.inf, np.nan]])
            for r in (0.0, (hi / 3 - lo / 3) / 2**depth):  # w / 3, whose w = (hi - lo) / 2^depth may overflow
                want = _searched_windows(B, x, r)
                got = _exact_windows(B, x, r)
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1]), (lo, depth, r)


def test_windows_of_nan_and_inf_points_take_a_few_steps() -> None:
    # hi steps back no further than lo - 1, so NaN, which passes no face
    # test, ends after one step of lo instead of walking hi back over all
    # 2^18 cells; -inf and +inf take one step each too
    B = dyadic_boundaries(-1.0, 1.0, 18)
    n, walk, calls = B.size - 1, geometry._walk, []

    def counted(test):
        def run(c, i):
            calls.append(1)
            return test(c, i)

        return run

    def counted_walk(c, fits, next_fits, *ends):
        return walk(c, counted(fits), counted(next_fits), *ends)

    with mock.patch.object(geometry, "_walk", counted_walk):
        for x, want in ((np.nan, (n, n - 1)), (np.inf, (n, n - 1)), (-np.inf, (1, 0))):
            for r in (0.0, 1e-9, 0.5):
                calls.clear()
                lo, hi = _exact_windows(B, np.array([x]), r)
                assert 0 < len(calls) <= 6, (x, r, len(calls))
                assert (lo[0], hi[0]) == want


def test_contains_points_is_window_runs_membership() -> None:
    # contains_points, by point location, agrees with the window lookup: a
    # point is covered iff row_runs lists an active cell for it at r = 0,
    # also on faces, edges and corners, which two cells share; and iff
    # point_box_distance(p, cell) <= 0 for an active cell
    rng = np.random.default_rng(5)
    for dim, depth in ((1, 5), (2, 4), (3, 3)):
        root = Box([-1.0] * dim, [1.0] * dim)
        level = CoverLevel(root, depth, rng.choice(1 << (dim * depth), size=(1 << (dim * depth)) // 3, replace=False))
        pts = rng.uniform(-1.2, 1.2, size=(400, dim))
        faces = rng.random(pts.shape) < 0.6
        face_axis = np.nonzero(faces)[1]
        pts[faces] = np.array(level.boundaries)[face_axis, rng.integers(0, level.cells_per_axis + 1, face_axis.size)]
        lo, hi = level.cell_windows(pts, 0.0)
        point, start, count = level.row_runs(lo, hi, level.window_rows(lo, hi))
        cells = level.run_cells(start, count)
        want = np.zeros(len(pts), dtype=bool)
        want[np.repeat(point, count)] = True
        assert level.contains_points(pts).tolist() == want.tolist()
        assert 0 < want.sum() < len(pts) and cells.size == count.sum()
        boxes = recursion_boxes(level)
        assert [any(point_box_distance(p, b) <= 0 for b in boxes) for p in pts[:100]] == want[:100].tolist()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_across_axes_is_the_axis_reduction(d: int) -> None:
    # the column fold gives the bits of ufunc.reduce along the last axis,
    # for (m, d) and (..., d) arrays; `initial` is the value of no columns
    rng = np.random.default_rng(d)
    a = np.abs(rng.normal(size=(60, d)))
    w = rng.integers(-1, 4, size=(60, d))
    for ufunc in (np.maximum, np.minimum, np.multiply):
        assert across_axes(ufunc, a).tobytes() == ufunc.reduce(a, axis=-1).tobytes()
        assert across_axes(ufunc, a.reshape(3, 20, d)).tobytes() == ufunc.reduce(a.reshape(3, 20, d), axis=-1).tobytes()
        assert np.array_equal(across_axes(ufunc, w), ufunc.reduce(w, axis=1))
    # with no columns the result is the scalar `initial`, which broadcasts
    # to np.prod's one per row
    prod = np.broadcast_to(across_axes(np.multiply, w[:, :-1], initial=1), (60,))
    assert np.array_equal(prod, np.prod(w[:, :-1], axis=1))


@pytest.mark.parametrize("dim,depth", [(1, 6), (2, 4), (3, 3)])
def test_row_runs_match_bruteforce(dim: int, depth: int) -> None:
    # one run per row of a window's first d-1 axes, np.prod of the empty
    # product at d = 1, so one run per non-empty window, and none for an
    # empty window; the runs hold exactly the window's active cells
    rng = np.random.default_rng(dim)
    root = Box([-1.0] * dim, [1.0] * dim)
    level = CoverLevel(root, depth, rng.choice(1 << (dim * depth), size=(1 << (dim * depth)) // 3, replace=False))
    n = level.cells_per_axis
    lo = rng.integers(0, n, size=(200, dim))
    hi = np.minimum(lo + rng.integers(-1, 4, size=(200, dim)), n - 1)  # some windows empty on an axis
    point, start, count = level.row_runs(lo, hi, level.window_rows(lo, hi))
    width = hi - lo + 1
    rows = np.where(width.min(axis=1) > 0, np.prod(width[:, :-1], axis=1), 0)  # the axis form of the run count
    assert level.window_rows(lo, hi).tolist() == rows.tolist()
    assert np.bincount(point, minlength=len(lo)).tolist() == rows.tolist()
    cells = level.run_cells(start, count)
    owner = np.repeat(point, count)
    for i in range(len(lo)):
        inside = np.all((level.coords >= lo[i]) & (level.coords <= hi[i]), axis=1)
        assert sorted(cells[owner == i].tolist()) == np.nonzero(inside)[0].tolist()


def test_contains_points_boundary_inclusive() -> None:
    root = Box([-1.0], [1.0])
    level = CoverLevel(root, 1, [1])  # only [0, 1] active
    res = level.contains_points([[0.0], [-0.5], [0.5], [1.0], [1.5]])
    assert res.tolist() == [True, False, True, True, False]


def test_region_semidistance_exact() -> None:
    level = CoverLevel.full(Box([-1.0, -1.0], [1.0, 1.0]), 2)
    # whole cover against the segment {0} x [-1, 1]: farthest x-extent is 1
    assert region_semidistance(level.box_los, level.box_his, [0.0, -1.0], [0.0, 1.0]) == pytest.approx(1.0)
    # against the full square the distance is zero
    assert region_semidistance(level.box_los, level.box_his, [-1.0, -1.0], [1.0, 1.0]) == 0.0


@given(st.integers(0, 3), st.integers(1, 2))
@settings(max_examples=30, deadline=None)
def test_full_cover_interiors_disjoint_and_tile(depth: int, dim: int) -> None:
    root = Box([0.0] * dim, [1.0] * dim)
    level = CoverLevel.full(root, depth)
    vol = 0.0
    for b in recursion_boxes(level):
        vol += float(np.prod(b.hi - b.lo))
    assert vol == pytest.approx(1.0)
    # diameter law
    assert level.rho == pytest.approx(root.diameter * 2.0**-depth)
