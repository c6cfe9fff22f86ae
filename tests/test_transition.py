from __future__ import annotations

import itertools
import json
from dataclasses import replace
from bisect import bisect_left, bisect_right
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import boxattractor.transition as transition

from boxattractor.geometry import Box, BoxKey, CoverLevel, box_corners, grid_points, point_box_distance, subbox_centers
from boxattractor.attractor import run_subdivision
from boxattractor.integrator import EulerParams, EulerSchedule, enclosure_radius, euler_backward, reference_backward_flow
from boxattractor.systems import (
    ContinuousSystemSpec,
    DiscreteSystemSpec,
    eval_field,
    eval_inverse,
    make_builtin,
)
from boxattractor.transition import (
    TransitionMap,
    TransitionMeta,
    _lookup_runs,
    _runs_of_rows,
    build_transition,
    build_transition_continuous,
    build_transition_discrete,
    check_containment_condition,
    measure_overapprox_gap,
    transition_pair_scan,
)

Q1 = Box([-1.0], [1.0])
Q2 = Box([-1.0, -1.0], [1.0, 1.0])
QUADRANT = Box([0.0, 0.0], [1.0, 1.0])  # a saddle2d study box whose maps hold runs across rows


def edges_as_flats(tmap: TransitionMap) -> dict[int, list[int]]:
    return {int(k): v for k, v in tmap.to_json_dict()["edges"].items()}


def from_successors(level: CoverLevel, indptr: np.ndarray, targets: np.ndarray, meta: TransitionMeta) -> TransitionMap:
    """The map with the given successor rows (indptr, local targets)."""
    return TransitionMap(level, *_runs_of_rows(indptr, level._rank[targets]), meta)


def cell_box(level: CoverLevel, flat) -> Box:
    """The box of a cell by the midpoint recursion, which reads none of the
    level's arrays."""
    return BoxKey.from_flat(flat, level.depth, level.dim).box(level.root)


def cells_at(level: CoverLevel, p) -> list[int]:
    """Local indices of the active cells that hold the point p."""
    lo, hi = level.cell_windows(np.asarray(p, dtype=float)[None, :], 0.0)
    _, start, count = level.row_runs(lo, hi, level.window_rows(lo, hi))
    return sorted(level.run_cells(start, count).tolist())


def test_halving_depth1_hand_example() -> None:
    sys_ = make_builtin("halving1d", Q1)
    level = CoverLevel.full(Q1, 1)
    tmap = build_transition_discrete(level, sys_, M=1)
    # centers -/+0.5 map to -/+1 under f^{-1}(x) = 2x; the ball of radius
    # L * rho/2 = 1 reaches both closed cells
    assert edges_as_flats(tmap) == {0: [0, 1], 1: [0, 1]}


def test_constant_inverse_zero_radius() -> None:
    c = np.array([0.3])  # interior of the right cell at depth 1
    const = DiscreteSystemSpec(
        inverse_eval=lambda p: np.broadcast_to(c, np.asarray(p, dtype=float).shape).copy(),
        lipschitz_L=0.0,
        validity_region=Q1,
        vectorized=True,
    )
    level = CoverLevel.full(Q1, 1)
    tmap = build_transition_discrete(level, const, M=1)
    assert edges_as_flats(tmap) == {0: [1], 1: [1]}


@pytest.mark.parametrize("M,depth", [(1, 3), (2, 3), (1, 4)])
def test_linmap_matches_pair_scan(M: int, depth: int) -> None:
    sys_ = make_builtin("linmap2d", Q2)
    level = CoverLevel.full(Q2, depth)
    tmap = build_transition_discrete(level, sys_, M=M)
    centers = subbox_centers(level.box_los, level.box_his, M)
    images = eval_inverse(sys_, centers.reshape(-1, 2)).reshape(centers.shape)
    assert edges_as_flats(tmap) == transition_pair_scan(level, images, tmap.meta.radius)
    # the attracting segment {0} x [-1, 1] keeps its whole column connected
    mid = [k for k, v in edges_as_flats(tmap).items() if v]
    assert len(mid) >= level.size // 2


def test_cubic_depth4_matches_pair_scan() -> None:
    Q = Box([-1.5], [1.5])
    sys_ = make_builtin("cubic1d", Q)
    level = CoverLevel.full(Q, 4)
    params = EulerParams(h=0.08, substeps=1)
    tmap = build_transition_continuous(level, sys_, M=1, params=params)
    centers = subbox_centers(level.box_los, level.box_his, 1)
    images = euler_backward(sys_, centers.reshape(-1, 1), params).reshape(centers.shape)
    assert edges_as_flats(tmap) == transition_pair_scan(level, images, tmap.meta.radius)


def test_saddle_origin_cell_self_loop() -> None:
    sys_ = make_builtin("saddle2d", Q2)
    for depth in (1, 3, 5):
        level = CoverLevel.full(Q2, depth)
        tmap = build_transition_continuous(level, sys_, M=1, params=EulerParams(h=0.1))
        # the equilibrium at the origin pins its cell into its own edge set
        origin_cells = cells_at(level, np.zeros(2))
        found = False
        for loc in origin_cells:
            if loc in tmap.targets_local(int(loc)):
                found = True
        assert found


def test_margin_violation_rejected() -> None:
    Q = Box([-1.9], [1.9])  # margin to validity [-2, 2] is 0.1 < P*h
    sys_ = make_builtin("cubic1d", Q)
    level = CoverLevel.full(Q, 2)
    with pytest.raises(ValueError, match="margin"):
        build_transition_continuous(level, sys_, M=1, params=EulerParams(h=0.1))


def test_build_transition_chooses_by_system_kind() -> None:
    level = CoverLevel.full(Q2, 3)
    params = EulerParams(h=0.1, substeps=2)
    linmap = make_builtin("linmap2d", Q2)
    tmap = build_transition(level, linmap, 2, params)  # maps ignore the Euler parameters
    # the ball is L * rho/(2M), the distance from a sample centre to its
    # subbox's corners, rounded outward by a few ulps
    want = linmap.lipschitz_L * level.rho / 4
    assert tmap.meta == TransitionMeta("discrete", 2, tmap.meta.radius)
    assert want <= tmap.meta.radius <= want * (1 + 1e-12)
    assert tmap.dumps() == build_transition_discrete(level, linmap, M=2).dumps()
    saddle = make_builtin("saddle2d", Q2)
    tmap = build_transition(level, saddle, 2, params)
    assert (tmap.meta.kind, tmap.meta.h, tmap.meta.substeps) == ("continuous", 0.1, 2)
    want = enclosure_radius(saddle.lipschitz_L, saddle.bound_P, 0.1, 2, level.rho / 4)
    assert want <= tmap.meta.radius <= want * (1 + 1e-12)
    assert tmap.dumps() == build_transition_continuous(level, saddle, M=2, params=params).dumps()
    with pytest.raises(ValueError, match="EulerParams"):
        build_transition(level, saddle, 2)
    with pytest.raises(ValueError, match="M must be"):
        build_transition(level, linmap, 0)


@pytest.mark.parametrize("samples", [0, -3])
def test_diagnostics_reject_samples_below_one(samples: int) -> None:
    sys_ = make_builtin("saddle2d", Q2)
    tmap = build_transition_continuous(CoverLevel.full(Q2, 2), sys_, M=1, params=EulerParams(h=0.1))
    with pytest.raises(ValueError, match="samples"):
        check_containment_condition(tmap, sys_, samples=samples)
    with pytest.raises(ValueError, match="samples"):
        measure_overapprox_gap(tmap, sys_, samples=samples)


def test_empty_level_yields_empty_map_and_report() -> None:
    level = CoverLevel(Q1, 3, [])
    # a system evaluated point by point is never called on no points
    pointwise = DiscreteSystemSpec(inverse_eval=lambda p: 2.0 * p, lipschitz_L=2.0, validity_region=Q1)
    for sys_ in (make_builtin("halving1d", Q1), pointwise):
        tmap = build_transition_discrete(level, sys_, M=1)
        assert tmap.edge_count == 0
        rep = check_containment_condition(tmap, sys_, samples=20, seed=0)
        assert rep.containment_violations == []
        gaps = measure_overapprox_gap(tmap, sys_, samples=20)
        assert gaps.overapprox_gap == 0.0


def test_containment_check_with_no_image_in_an_active_cell() -> None:
    # f^{-1}(x) = 2x sends [0.6, 1] to [1.2, 2]: no image lands in an
    # active cell, so the map has no edges and every chunk's edge query
    # (two chunks here) holds no pairs
    Q = Box([0.6], [1.0])
    sys_ = make_builtin("halving1d", Q)
    tmap = build_transition_discrete(CoverLevel.full(Q, 2), sys_, M=1)
    assert tmap.edge_count == 0
    rep = check_containment_condition(tmap, sys_, samples=5000, seed=0)
    assert rep.containment_violations == []


def test_containment_zero_violations_on_builtins() -> None:
    sys_ = make_builtin("halving1d", Q1)
    level = CoverLevel.full(Q1, 3)
    tmap = build_transition_discrete(level, sys_, M=1)
    rep = check_containment_condition(tmap, sys_, samples=200, seed=0)
    assert rep.containment_violations == []

    cub = make_builtin("cubic1d", Box([-1.5], [1.5]))
    level = CoverLevel.full(Box([-1.5], [1.5]), 4)
    tmap = build_transition_continuous(level, cub, M=1, params=EulerParams(h=0.08))
    rep = check_containment_condition(tmap, cub, samples=100, seed=0)
    assert rep.containment_violations == []


HENON_A, HENON_B = Fraction(1.4), Fraction(0.3)  # the built-in's float parameters, exactly

# exact inverse maps of the discrete built-ins, from their definitions
EXACT_INVERSE = {
    "halving1d": (Q1, lambda x: (2 * x[0],)),
    "linmap2d": (Q2, lambda x: (2 * x[0], x[1] / 2)),
    "henon": (
        Box([-2.0, -2.0], [2.0, 2.0]),
        lambda x: (x[1] / HENON_B, x[0] - 1 + HENON_A * (x[1] / HENON_B) ** 2),
    ),
}


def subbox_grid(lo, hi, M: int, per_axis: int = 4) -> list[tuple]:
    """A per_axis^d grid, corners included, on each of the M^d subboxes of
    the box [lo, hi], whose bounds may be Fractions; the points of subbox k
    (axis 0 fastest, as subbox_centers orders them) are entry k."""
    d = len(lo)
    ts = [Fraction(t, per_axis - 1) for t in range(per_axis)]
    out = []
    for k in itertools.product(range(M), repeat=d):
        k = k[::-1]  # axis 0 varies fastest
        axes = [[lo[a] + (k[a] + t) * (hi[a] - lo[a]) / M for t in ts] for a in range(d)]
        out.append(list(itertools.product(*axes)))
    return out


def exact_enclosure_deviation(name: str, depth: int, M: int) -> list[Fraction]:
    """Per axis, the largest distance from the exact image of a subbox point
    to the float image of its sample centre, over a dense grid on every
    subbox of the full level. Asserts in exact arithmetic that the distance
    is within meta.radius and that every cell containing the exact image is
    a successor of the source; images outside Q need none."""
    Q, inverse = EXACT_INVERSE[name]
    sys_ = make_builtin(name, Q)
    level = CoverLevel.full(Q, depth)
    tmap = build_transition_discrete(level, sys_, M=M)
    radius = Fraction(tmap.meta.radius)
    centers = subbox_centers(level.box_los, level.box_his, M)
    images = eval_inverse(sys_, centers.reshape(-1, level.dim)).reshape(centers.shape)
    bounds = [[Fraction(b) for b in B] for B in level.boundaries]
    n = level.cells_per_axis
    worst = [Fraction(0)] * level.dim
    for i in range(level.size):
        successors = {tuple(c) for c in level.coords[tmap.targets_local(i)].tolist()}
        lo = [Fraction(v) for v in level.box_los[i]]
        hi = [Fraction(v) for v in level.box_his[i]]
        for k, pts in enumerate(subbox_grid(lo, hi, M)):
            centre_image = [Fraction(v) for v in images[i, k]]
            for p in pts:
                y = inverse(p)
                dev = [abs(a - b) for a, b in zip(y, centre_image)]
                assert max(dev) <= radius
                worst = [max(w, v) for w, v in zip(worst, dev)]
                if any(not B[0] <= v <= B[-1] for v, B in zip(y, bounds)):
                    continue  # outside Q
                ranges = [
                    range(max(bisect_left(B, v) - 1, 0), min(bisect_right(B, v) - 1, n - 1) + 1)
                    for v, B in zip(y, bounds)
                ]
                assert set(itertools.product(*ranges)) <= successors
    return worst


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(EXACT_INVERSE))
def test_discrete_ball_encloses_exact_subbox_images(name: str, M: int) -> None:
    rng = np.random.default_rng([M, len(name)])
    top = 8 if name == "halving1d" else 4
    for depth in sorted(rng.choice(np.arange(1, top + 1), size=2, replace=False)):
        exact_enclosure_deviation(name, int(depth), M)


@pytest.mark.parametrize("M", [1, 2])
def test_linmap_ball_is_tight(M: int) -> None:
    # a subbox corner's image lies exactly L * rho/(2M) from its centre's on
    # axis 0, so no smaller radius encloses linmap2d's subbox images
    depth = 3
    rho = Fraction(CoverLevel.full(Q2, depth).rho)
    assert exact_enclosure_deviation("linmap2d", depth, M)[0] == 2 * rho / (2 * M)


def saddle_flow(x: np.ndarray, h: float) -> np.ndarray:
    return x * np.array([np.exp(-h), np.exp(h)])  # phi(-h, (x, y)) of g = (x, -y)


@pytest.mark.parametrize("M", [1, 2, 3])
@pytest.mark.parametrize("name", ["cubic1d", "saddle2d"])
def test_flow_ball_encloses_subbox_images(name: str, M: int) -> None:
    # backward-flow images of a dense grid on every subbox lie within the
    # radius, less a margin well above the oracle's error, of the Euler image
    # of the subbox centre; every cell within that margin of such an image
    # is a successor
    Q, h = (Box([-1.5], [1.5]), 0.08) if name == "cubic1d" else (Q2, 0.1)
    tol, margin = 1e-12, 1e-8
    sys_ = make_builtin(name, Q)
    params = EulerParams(h=h, substeps=M)  # each M also takes a different substep count
    rng = np.random.default_rng([M, len(name)])
    for depth in sorted(rng.choice(np.arange(1, 8 if Q.dim == 1 else 5), size=2, replace=False)):
        level = CoverLevel.full(Q, int(depth))
        lo, hi = level.box_los, level.box_his
        tmap = build_transition_continuous(level, sys_, M=M, params=params)
        images = euler_backward(sys_, subbox_centers(lo, hi, M), params)
        for i in range(level.size):
            pts = np.array(subbox_grid(lo[i], hi[i], M), dtype=np.float64)  # (M^d, per_axis^d, d)
            flat = pts.reshape(-1, level.dim)
            exact = saddle_flow(flat, h) if name == "saddle2d" else reference_backward_flow(sys_, flat, h, tol)
            assert np.max(np.abs(exact.reshape(pts.shape) - images[i][:, None, :])) <= tmap.meta.radius - margin
            gap = np.maximum(np.maximum(lo[None] - exact[:, None], exact[:, None] - hi[None]), 0.0)
            near = np.flatnonzero(np.any(np.max(gap, axis=2) <= margin, axis=0))
            assert set(near.tolist()) <= set(tmap.targets_local(i).tolist())


def drop_edge_of_probe(tmap: TransitionMap, image) -> TransitionMap:
    """The map without the edge that receives the image of an interior point
    of the middle cell, so sampled containment must catch the hole."""
    level = tmap.level
    i = level.size // 2
    probe = level.box_los[i] + 0.8 * (level.box_his[i] - level.box_los[i])
    victim = cells_at(level, image(probe[None, :])[0])[0]
    keep = tmap.targets_local(i)
    assert victim in keep
    trimmed = keep[keep != victim]
    mutated_targets = np.concatenate([tmap.targets[: tmap.indptr[i]], trimmed, tmap.targets[tmap.indptr[i + 1] :]])
    indptr = tmap.indptr.copy()
    indptr[i + 1 :] -= keep.size - trimmed.size
    return from_successors(level, indptr, mutated_targets, tmap.meta)


def test_corrupted_map_reports_violation() -> None:
    sys_ = make_builtin("halving1d", Q1)
    level = CoverLevel.full(Q1, 3)
    tmap = build_transition_discrete(level, sys_, M=1)
    mutated = drop_edge_of_probe(tmap, lambda p: eval_inverse(sys_, p))
    rep = check_containment_condition(mutated, sys_, samples=400, seed=0)
    assert len(rep.containment_violations) >= 1
    flat, witness = rep.containment_violations[0]
    # the witness is a sample of its own active cell
    loc = int(level.locate([flat])[0])
    assert loc >= 0 and cell_box(level, flat).contains_point(witness)
    # brute-force confirmation that the witness is genuine: its image lies in
    # the covered region but not in the mutated successor union
    wimg = eval_inverse(sys_, witness[None, :])[0]
    assert level.contains_points(wimg[None, :])[0]
    phi_boxes = [cell_box(level, level.flats[t]) for t in mutated.targets_local(loc)]
    assert all(not b.contains_point(wimg) for b in phi_boxes)


def test_corrupted_flow_map_reports_violation() -> None:
    sys_ = make_builtin("saddle2d", Q2)
    level = CoverLevel.full(Q2, 3)
    h, tol = 0.1, 1e-10
    tmap = build_transition_continuous(level, sys_, M=1, params=EulerParams(h=h))
    mutated = drop_edge_of_probe(tmap, lambda p: reference_backward_flow(sys_, p, h, tol))
    rep = check_containment_condition(mutated, sys_, samples=200, seed=0)
    assert len(rep.containment_violations) >= 1
    # brute-force confirmation that every witness is genuine: its image lies
    # in Q, so the whole slack ball is covered, yet no mutated successor of
    # its cell comes within the slack
    for flat, witness in rep.containment_violations:
        loc = int(level.locate([flat])[0])
        assert loc >= 0 and cell_box(level, flat).contains_point(witness)
        wimg = reference_backward_flow(sys_, witness, h, tol)
        assert Q2.contains_point(wimg)
        phi_boxes = [cell_box(level, level.flats[t]) for t in mutated.targets_local(loc)]
        assert all(point_box_distance(wimg, b) > 10 * tol for b in phi_boxes)


@pytest.mark.parametrize("name, Q, params", [("halving1d", Q1, None), ("saddle2d", Q2, EulerParams(h=0.1))])
def test_containment_witnesses_do_not_depend_on_chunking(name: str, Q: Box, params) -> None:
    sys_ = make_builtin(name, Q)
    level = CoverLevel.full(Q, 3)
    tmap = build_transition(level, sys_, M=1, params=params)
    image = (lambda p: reference_backward_flow(sys_, p, 0.1)) if params else (lambda p: eval_inverse(sys_, p))
    mutated = drop_edge_of_probe(tmap, image)
    reports = [check_containment_condition(mutated, sys_, samples=60, seed=5)]
    with patch.object(transition, "_CHECK_POINTS", 7):
        reports.append(check_containment_condition(mutated, sys_, samples=60, seed=5))
    default, small = ([(flat, p.tobytes()) for flat, p in r.containment_violations] for r in reports)
    assert default and default == small


def test_containment_holds_for_every_M() -> None:
    sys_ = make_builtin("linmap2d", Q2)
    level = CoverLevel.full(Q2, 2)
    for M in (1, 2, 3):
        tmap = build_transition_discrete(level, sys_, M=M)
        rep = check_containment_condition(tmap, sys_, samples=100, seed=2)
        assert rep.containment_violations == []


def test_discrete_gap_below_analytic_bound() -> None:
    sys_ = make_builtin("halving1d", Q1)
    for depth in (2, 3, 4):
        level = CoverLevel.full(Q1, depth)
        tmap = build_transition_discrete(level, sys_, M=1)
        rep = measure_overapprox_gap(tmap, sys_, samples=100)
        assert rep.overapprox_gap <= (sys_.lipschitz_L + 1) * level.rho + 1e-9


def test_continuous_gap_below_proof_bound() -> None:
    Q = Box([-1.5], [1.5])
    sys_ = make_builtin("cubic1d", Q)
    h = 0.05
    for depth in (3, 4, 5):
        level = CoverLevel.full(Q, depth)
        tmap = build_transition_continuous(level, sys_, M=1, params=EulerParams(h=h))
        rep = measure_overapprox_gap(tmap, sys_, samples=100)
        L, P = sys_.lipschitz_L, sys_.bound_P
        rho, r = level.rho, tmap.meta.radius
        assert rep.neighbor_gap <= rho + r + P * h + 1e-9
        assert rep.defect_gap <= (rho + r) / h + 0.5 * L * P * h + rho / h + L * rho + 1e-9


def brute_force_gaps(tmap: TransitionMap, sys_, samples: int) -> tuple[float, float, float]:
    """(overapprox, neighbor, defect) gap straight from their definitions,
    one edge and one point at a time, with every stride-th successor of a
    row (discrete) or every stride-th edge (flows) sampled."""
    level, M, h = tmap.level, tmap.meta.M, tmap.meta.h
    d = level.dim

    def corners(b):
        return [np.array(c) for c in itertools.product(*zip(level.box_los[b], level.box_his[b]))]

    def center(b):
        return (level.box_los[b] + level.box_his[b]) / 2.0

    def strided(seq, cap):
        return seq[:: -(-len(seq) // cap)] if len(seq) > cap else seq

    rows = [list(tmap.targets_local(i)) for i in range(level.size)]
    if tmap.meta.kind == "discrete":
        gap = 0.0
        for i, phi in enumerate(rows):
            w = (level.box_his[i] - level.box_los[i]) / M
            subs = [level.box_los[i] + (np.array(k) + 0.5) * w for k in itertools.product(range(M), repeat=d)]
            witnesses = [eval_inverse(sys_, p[None, :])[0] for p in subs + corners(i) + [center(i)]]
            for j in strided(phi, max(1, samples // (2**d + 1))):
                for a in corners(j) + [center(j)]:
                    gap = max(gap, min(float(np.max(np.abs(a - z))) for z in witnesses))
        return gap, 0.0, 0.0
    edges = [(i, j) for i, phi in enumerate(rows) for j in phi]
    neighbor, defect = 0.0, 0.0
    for i, j in edges:
        lo_i, hi_i, lo_j, hi_j = level.box_los[i], level.box_his[i], level.box_los[j], level.box_his[j]
        neighbor = max(neighbor, float(np.max(np.maximum(lo_i - lo_j, hi_j - hi_i))))
    for i, j in strided(edges, max(100 * samples, 10_000)):
        axes = [np.linspace(level.box_los[i][k], level.box_his[i][k], 3) for k in range(d)]
        for z in itertools.product(*axes):
            z = np.array(z)
            g = eval_field(sys_, z[None, :])[0]
            for x in corners(j):
                defect = max(defect, float(np.max(np.abs((x - z) / h + g))))
    return 0.0, neighbor, defect


@pytest.mark.parametrize(
    "name,Q,depth,M,h",
    [
        ("linmap2d", Q2, 3, 1, None),
        ("linmap2d", Q2, 3, 2, None),
        ("henon", Box([-2.0, -2.0], [2.0, 2.0]), 3, 1, None),
        ("henon", Box([-2.0, -2.0], [2.0, 2.0]), 3, 2, None),
        ("cubic1d", Box([-1.5], [1.5]), 5, 1, 0.08),
        ("saddle2d", Q2, 3, 2, 0.1),
        ("saddle2d", QUADRANT, 3, 1, 0.5),
    ],
)
def test_gap_matches_brute_force(name: str, Q: Box, depth: int, M: int, h: float | None) -> None:
    # the gaps read from the runs against their definitions on every edge.
    # On QUADRANT every map holds runs whose cells lie in two rows of the
    # lexicographic order, and some source's neighbor gap is met by an inner
    # cell of such a run, not by the end cell of any of its runs
    sys_ = make_builtin(name, Q)
    rng = np.random.default_rng(depth * M)
    for _ in range(3):
        cells = 1 << (depth * Q.dim)
        level = CoverLevel(Q, depth, np.sort(rng.choice(cells, size=cells // 2, replace=False)))
        if h is None:
            tmap = build_transition_discrete(level, sys_, M=M)
            samples = 14  # a cap of 2 successors per row, so long rows are strided
            assert np.max(np.diff(tmap.indptr)) > samples // 5
        else:
            tmap = build_transition_continuous(level, sys_, M=M, params=EulerParams(h=h))
            samples = 100
            order = level._lex[1]
            first, last = order[tmap.run_start], order[tmap.run_start + tmap.run_count - 1]
            assert np.any(level.coords[first, :-1] != level.coords[last, :-1]) == (Q is QUADRANT)
        # the whole map, and each row alone, so the sampled successors and
        # witnesses of every row reach the maximum
        maps = [tmap]
        for i in range(level.size):
            counts = np.zeros(level.size, dtype=np.int64)
            counts[i] = tmap.targets_local(i).size
            maps.append(from_successors(level, np.concatenate([[0], np.cumsum(counts)]), tmap.targets_local(i), tmap.meta))
        for m in maps:
            rep = measure_overapprox_gap(m, sys_, samples=samples)
            assert (rep.overapprox_gap, rep.neighbor_gap, rep.defect_gap) == brute_force_gaps(m, sys_, samples)


@st.composite
def lookup_cases(draw) -> tuple[CoverLevel, np.ndarray, float, int]:
    """Random sparse active sets; images inside Q, outside Q and exactly on
    cell faces; radii from 0 to several cell widths: (level, images, radius, M)."""
    dim, depth, M = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.sampled_from([1, 2]))
    root = Box([-1.0] * dim, [1.0] * dim)
    cells = 1 << (depth * dim)
    flats = draw(st.lists(st.integers(0, cells - 1), min_size=1, max_size=min(cells, 20), unique=True))
    level = CoverLevel(root, depth, flats)
    width = 2.0 / level.cells_per_axis
    radius = draw(st.sampled_from([0.0, 0.5 * width, width, 3 * width]) | st.floats(0.0, 4 * width))
    face = st.sampled_from(level.boundaries[0].tolist())
    coord = face | st.floats(-1.0, 1.0) | st.floats(-1.0 - 5 * width, 1.0 + 5 * width)
    n_images = level.size * M**dim
    images = np.array(
        draw(st.lists(st.lists(coord, min_size=dim, max_size=dim), min_size=n_images, max_size=n_images))
    ).reshape(level.size, M**dim, dim)
    return level, images, radius, M


@given(case=lookup_cases(), chunk=st.sampled_from([1, 3, 1 << 16]))
@settings(max_examples=150, deadline=None)
def test_lookup_matches_pair_scan(case, chunk: int) -> None:
    level, images, radius, M = case
    meta = TransitionMeta(kind="discrete", M=M, radius=radius)
    with patch.object(transition, "_CHUNK_ROWS", chunk):
        tmap = TransitionMap(level, *_lookup_runs(level, images, radius), meta)
    assert tmap.targets.dtype == np.int32
    assert edges_as_flats(tmap) == transition_pair_scan(level, images, radius)


def test_pair_scan_catches_a_corrupted_boundary_array() -> None:
    # the pair scan bounds cells by the midpoint recursion, not by the
    # level's boundary arrays that the lookup reads: with interior face 5 of
    # axis 0 moved by 0.45 of a cell, the lookup's map is no longer the scan
    true_boundaries = CoverLevel.boundaries.func

    def moved(level: CoverLevel) -> list[np.ndarray]:
        B = true_boundaries(level)
        B[0][5] += 0.45 * (B[0][6] - B[0][5])
        return B

    images = np.random.default_rng(5).uniform(-1.0, 1.0, size=(64, 2, 2))
    with patch.object(CoverLevel, "boundaries", property(moved)):
        level = CoverLevel.full(Q2, 3)
        assert level.boundaries[0][5] != true_boundaries(level)[0][5]
        tmap = TransitionMap(level, *transition._lookup_runs(level, images, 0.05), TransitionMeta("discrete", 2, 0.05))
        scan = transition_pair_scan(level, images, 0.05)
    assert edges_as_flats(tmap) != scan
    # on the true boundaries the two agree
    level = CoverLevel.full(Q2, 3)
    tmap = TransitionMap(level, *transition._lookup_runs(level, images, 0.05), TransitionMeta("discrete", 2, 0.05))
    assert edges_as_flats(tmap) == scan


def assert_canonical_runs(tmap: TransitionMap) -> None:
    """Every source's runs are non-empty, disjoint, not adjacent and ascending."""
    assert tmap.run_ptr.dtype == np.int64 and tmap.run_ptr[0] == 0 and np.all(np.diff(tmap.run_ptr) >= 0)
    assert tmap.run_start.dtype == tmap.run_count.dtype == np.int32 and np.all(tmap.run_count > 0)
    ends = tmap.run_start + tmap.run_count
    source = np.repeat(np.arange(tmap.size), np.diff(tmap.run_ptr))
    same = source[1:] == source[:-1]  # a run and the run before it of the same source
    assert np.all(tmap.run_start[1:][same] > ends[:-1][same])
    assert np.all(ends <= tmap.size)


@given(case=lookup_cases(), chunk=st.sampled_from([1, 3, 1 << 16]))
@settings(max_examples=150, deadline=None)
def test_successor_view_is_the_pair_scan(case, chunk: int) -> None:
    # the successor view expanded from the stored runs is the pair scan, each
    # row in the level's lexicographic order, and the out-degrees and edge
    # count read from the runs agree with it
    level, images, radius, M = case
    meta = TransitionMeta(kind="discrete", M=M, radius=radius)
    scan = transition_pair_scan(level, images, radius)
    with patch.object(transition, "_CHUNK_ROWS", chunk):
        tmap = TransitionMap(level, *_lookup_runs(level, images, radius), meta)
    assert_canonical_runs(tmap)
    flats = level.flats.tolist()
    rows = np.split(tmap.targets, tmap.indptr[1:-1])
    assert tmap.indptr.dtype == np.int64 and tmap.indptr[0] == 0 and tmap.out_degree.dtype == np.int64
    assert tmap.targets.dtype == np.int32 and tmap.targets.flags.owndata
    assert all(np.array_equal(row, tmap.targets_local(i)) for i, row in enumerate(rows))
    assert all(np.all(np.diff(level._rank[row]) > 0) for row in rows)
    assert {flats[s]: sorted(level.flats[row].tolist()) for s, row in enumerate(rows)} == scan
    assert tmap.out_degree.tolist() == [len(scan[s]) for s in flats]
    assert tmap.edge_count == sum(map(len, scan.values()))
    assert edges_as_flats(tmap) == scan


@given(case=lookup_cases())
@settings(max_examples=150, deadline=None)
def test_runs_of_the_successor_view_are_the_stored_runs(case) -> None:
    # _runs_of_rows followed by the successor view, and the successor view
    # turned back into runs, round-trip: the stored runs are canonical
    level, images, radius, M = case
    meta = TransitionMeta(kind="discrete", M=M, radius=radius)
    tmap = TransitionMap(level, *_lookup_runs(level, images, radius), meta)
    again = from_successors(level, tmap.indptr, tmap.targets, meta)
    for a, b in zip((again.run_ptr, again.run_start, again.run_count), (tmap.run_ptr, tmap.run_start, tmap.run_count)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert np.array_equal(again.indptr, tmap.indptr) and np.array_equal(again.targets, tmap.targets)
    # successor rows in any order, with repeats, give the same runs
    rng = np.random.default_rng(level.size)
    shuffled = np.concatenate([rng.permutation(np.repeat(tmap.targets_local(i), 2)) for i in range(level.size)])
    twice = from_successors(level, 2 * tmap.indptr, shuffled.astype(np.int32), meta)
    assert np.array_equal(twice.run_start, tmap.run_start) and np.array_equal(twice.run_ptr, tmap.run_ptr)


@given(case=lookup_cases())
@settings(max_examples=150, deadline=None)
def test_has_edges_on_runs_matches_pair_scan(case) -> None:
    # every pair of cells, edge or not, empty rows included, with images on
    # cell faces and M = 2 among the cases
    level, images, radius, M = case
    meta = TransitionMeta(kind="discrete", M=M, radius=radius)
    tmap = TransitionMap(level, *_lookup_runs(level, images, radius), meta)
    scan = transition_pair_scan(level, images, radius)
    flats = level.flats.tolist()
    src, tgt = (a.ravel().astype(np.int32) for a in np.meshgrid(np.arange(level.size), np.arange(level.size)))
    member = [flats[t] in scan[flats[s]] for s, t in zip(src.tolist(), tgt.tolist())]
    assert tmap.has_edges(src, tgt).tolist() == member
    assert tmap.has_edges(src.astype(np.int64), tgt).tolist() == member
    # the pairs unsorted and repeated, as int32 and int64
    pick = np.random.default_rng(level.size).integers(0, src.size, 3 * src.size)
    for dtype in (np.int32, np.int64):
        assert tmap.has_edges(src[pick].astype(dtype), tgt[pick].astype(dtype)).tolist() == [member[k] for k in pick.tolist()]
    # no pairs, and sources with no runs: each alone, whose query holds no
    # run at all, and all of them together with the sources between them
    for dtype in (np.int32, np.int64):
        assert tmap.has_edges(np.zeros(0, dtype), np.zeros(0, dtype)).shape == (0,)
    cells = np.arange(level.size, dtype=np.int32)
    bare = np.flatnonzero(tmap.out_degree == 0).astype(np.int32)
    for s in bare.tolist():
        assert not tmap.has_edges(np.full(level.size, s, np.int32), cells).any()
    if bare.size:
        pairs = np.repeat(bare, level.size), np.tile(cells, bare.size)
        assert not tmap.has_edges(*pairs).any()


def drop_repeats_rows(level: CoverLevel, images: np.ndarray, radius: float) -> dict[int, list[int]]:
    """The predecessor rows of the per-edge build that merged runs replace:
    one key target * size + source per run cell, repeats included, sorted,
    with the repeated keys dropped. The reference for M > 1."""
    n, per = images.shape[:2]
    lo, hi = level.cell_windows(images.reshape(-1, level.dim), radius)
    point, start, count = level.row_runs(lo, hi, level.window_rows(lo, hi))
    targets = level.run_cells(start, count).astype(np.int64)
    keys = np.unique(targets * n + np.repeat(point // per, count))
    assert targets.size > keys.size  # the windows of a source overlap, so there were repeats
    flats = level.flats
    return {int(flats[t]): flats[keys[keys // n == t] % n].tolist() for t in range(n)}


@pytest.mark.parametrize("name, M", [("henon", 2), ("henon", 3), ("linmap2d", 2), ("linmap2d", 3)])
def test_merged_runs_hold_every_edge_once(name: str, M: int) -> None:
    # with M > 1 the M^d windows of a source overlap; the merged runs hold
    # each edge once, so no repeated key is ever made
    Q = Box([-2.0, -2.0], [2.0, 2.0]) if name == "henon" else Q2
    sys_ = make_builtin(name, Q)
    level = CoverLevel(Q, 3, np.arange(0, 64, 3))
    tmap = build_transition(level, sys_, M=M)
    images = eval_inverse(sys_, subbox_centers(level.box_los, level.box_his, M))
    scan = transition_pair_scan(level, images, tmap.meta.radius)
    assert_canonical_runs(tmap)
    successors = edges_as_flats(tmap)
    assert successors == scan
    assert tmap.edge_count == sum(map(len, scan.values()))
    flats = level.flats.tolist()
    preds = {t: [s for s in flats if t in successors[s]] for t in flats}  # the map's rows, transposed
    assert preds == drop_repeats_rows(level, images, tmap.meta.radius)


@pytest.mark.parametrize("name, depth, M", [("henon", 5, 1), ("henon", 5, 2), ("saddle2d", 6, 1), ("linmap2d", 5, 2)])
def test_runs_do_not_depend_on_the_chunking(name: str, depth: int, M: int) -> None:
    # one windows pass per map, then row lookups on chunks of at most
    # _CHUNK_ROWS window rows that end on source boundaries, so a source's
    # M^d windows are merged together however the level is cut. A budget of
    # 1 gives every source with rows a chunk of its own, and every source
    # with more than one row exceeds it
    Q = Box([-2.0, -2.0], [2.0, 2.0]) if name == "henon" else Q2
    sys_ = make_builtin(name, Q)
    level = CoverLevel.full(Q, depth)
    params = EulerParams(h=0.2 * 2.0**-3) if name == "saddle2d" else None  # the saddle workloads' depth-6 step
    maps, lookups = [], []
    for budget in (transition._CHUNK_ROWS, 1, 2, 7):
        with (
            patch.object(transition, "_CHUNK_ROWS", budget),
            patch.object(CoverLevel, "cell_windows", autospec=True, side_effect=CoverLevel.cell_windows) as windows,
            patch.object(CoverLevel, "row_runs", autospec=True, side_effect=CoverLevel.row_runs) as rows,
        ):
            maps.append(build_transition(level, sys_, M, params))
        assert windows.call_count == 1
        lookups.append(rows.call_count)
    runs = [(tmap.run_ptr, tmap.run_start, tmap.run_count) for tmap in maps]
    assert maps[0].edge_count > level.size
    for cut in runs[1:]:
        for a, b in zip(cut, runs[0]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    if name == "saddle2d":
        # the depth-6 level of the saddle workloads: 8,320 window rows, one
        # lookup at the default budget, one per source at a budget of 1
        images = euler_backward(sys_, subbox_centers(level.box_los, level.box_his, M), params)
        lo, hi = level.cell_windows(images.reshape(-1, 2), maps[0].meta.radius)
        assert int(level.window_rows(lo, hi).sum()) == 8_320
        assert lookups[:2] == [1, level.size]


@pytest.mark.parametrize("name, Q, depth, h0", [
    ("henon", Box([-2.0, -2.0], [2.0, 2.0]), 6, None), ("saddle2d", Q2, 6, 0.2), ("cubic1d", Box([-1.5], [1.5]), 8, 0.08),
    ("halving1d", Q1, 8, None),
])
def test_every_level_indexes_its_cells_in_int32(name: str, Q: Box, depth: int, h0) -> None:
    # one index space: on every level of a run, the lexicographic order, the
    # ranks, the runs, their cells and the located cells are int32
    sys_ = make_builtin(name, Q)
    schedule = EulerSchedule(h0=h0) if h0 else None
    levels: list[CoverLevel] = []
    run_subdivision(sys_, Q, depth, euler=schedule, on_level=lambda level, res, rep: levels.append(level))
    assert [level.depth for level in levels] == list(range(depth + 1))
    for level in levels:
        tmap = build_transition(level, sys_, 1, schedule.params_at(level.depth) if schedule else None)
        located = level.point_cells((level.box_los + level.box_his) / 2.0, 0.0)[2]
        arrays = [level._lex[1], level._rank, tmap.run_start, tmap.run_count, tmap.targets, tmap.targets_local(0),
                  level.run_cells(tmap.run_start, tmap.run_count), located]
        assert [a.dtype for a in arrays] == [np.dtype(np.int32)] * len(arrays)
    assert all(a.dtype == np.int32 for a in _runs_of_rows(np.array([0, 2, 3]), np.array([1, 0, 1]))[1:])


@pytest.mark.parametrize(
    "name, extra", [("run_ptr", 1), ("run_ptr", -1), ("run_start", 1), ("run_start", -1), ("run_count", -1)]
)
def test_constructor_rejects_runs_of_the_wrong_length(name: str, extra: int) -> None:
    level = CoverLevel.full(Q1, 2)
    tmap = build_transition_discrete(level, make_builtin("halving1d", Q1), M=1)
    runs = {"run_ptr": tmap.run_ptr, "run_start": tmap.run_start, "run_count": tmap.run_count}
    TransitionMap(level, **runs, meta=tmap.meta)  # the right lengths pass
    runs[name] = np.concatenate([runs[name], runs[name][-1:]]) if extra > 0 else runs[name][:-1]
    with pytest.raises(ValueError, match="run_ptr"):
        TransitionMap(level, **runs, meta=tmap.meta)


def test_thread_count_does_not_change_serialization() -> None:
    sys_ = make_builtin("linmap2d", Q2)
    level = CoverLevel.full(Q2, 4)
    blobs = {build_transition_discrete(level, sys_, M=1, threads=t).dumps() for t in (1, 2, 4)}
    assert len(blobs) == 1


def test_serialization_shape() -> None:
    sys_ = make_builtin("halving1d", Q1)
    level = CoverLevel.full(Q1, 1)
    tmap = build_transition_discrete(level, sys_, M=1)
    obj = json.loads(tmap.dumps())
    assert obj == {"depth": 1, "edges": {"0": [0, 1], "1": [0, 1]}}


# -- the column forms against the axis and broadcast forms they replaced -------


def axis_form_containment(tmap: TransitionMap, sys_, samples: int, seed: int) -> list[tuple[int, bytes]]:
    """check_containment_condition with its samples built by one broadcast
    over d and its region test and window sizes reduced along axis 1: the
    oracle for the column forms."""
    level = tmap.level
    continuous = tmap.meta.kind == "continuous"
    slack = 10.0 * transition._CONTAINMENT_TOL if continuous else 0.0
    n, d = level.size, level.dim
    lo, hi = level.box_los, level.box_his
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(level.depth,)))
    step = max(1, transition._CHECK_POINTS // samples)
    out = []
    for b0 in range(0, n, step):
        b1 = min(b0 + step, n)
        unit = rng.random((b1 - b0, samples, d))
        pts = (lo[b0:b1, None, :] + unit * (hi[b0:b1] - lo[b0:b1])[:, None, :]).reshape(-1, d)
        if continuous:
            images = reference_backward_flow(sys_, pts, tmap.meta.h, transition._CONTAINMENT_TOL)
        else:
            images = eval_inverse(sys_, pts)
        wlo, whi = level.cell_windows(images, slack)
        point, start, count = level.row_runs(wlo, whi, level.window_rows(wlo, whi))
        near = level.run_cells(start, count)
        point = np.repeat(point, count)
        covered = np.zeros(images.shape[0], dtype=bool)
        covered[point[tmap.has_edges(b0 + point // samples, near)]] = True
        active = np.bincount(point, minlength=images.shape[0])
        if continuous:
            inside = np.all((images >= level.root.lo) & (images <= level.root.hi), axis=1)
            in_region = inside & (active == np.prod(np.maximum(whi - wlo + 1, 0), axis=1))
        else:
            in_region = active > 0
        out += [(int(level.flats[b0 + s // samples]), pts[s].tobytes()) for s in np.nonzero(in_region & ~covered)[0]]
    return out


def broadcast_defect(sys_, h: float, src_lo, src_hi, tgt_lo, tgt_hi) -> float:
    """The defect over the (E, 2^d, 3^d, d) broadcast of the target corners
    against the source grid points: the oracle for transition._defect."""
    x = box_corners(tgt_lo, tgt_hi)
    zs = grid_points(src_lo, src_hi, 3)
    gz = eval_field(sys_, zs)
    return float(np.max(np.abs((x[:, :, None, :] - zs[:, None, :, :]) / h + gz[:, None, :, :])))


def axis_form_gaps(tmap: TransitionMap, sys_, samples: int) -> tuple[float, float, float]:
    """measure_overapprox_gap with the map distances reduced along their d
    axis and the flow defect over the broadcast: the oracle for the column
    forms."""
    level = tmap.level
    lo, hi = level.box_los, level.box_his
    d, chunk = level.dim, 4096
    if tmap.meta.kind == "discrete":
        ends = np.concatenate([box_corners(lo, hi), ((lo + hi) / 2.0)[:, None, :]], axis=1)
        w_img = eval_inverse(sys_, np.concatenate([subbox_centers(lo, hi, tmap.meta.M), ends], axis=1))
        rows, pos = transition._strided_entries(tmap.indptr, max(1, samples // ((1 << d) + 1)))
        gap = 0.0
        for c0 in range(0, pos.size, chunk):
            si, ti = rows[c0 : c0 + chunk], tmap.targets[pos[c0 : c0 + chunk]]
            dists = np.max(np.abs(ends[ti][:, :, None, :] - w_img[si][:, None, :, :]), axis=3)
            gap = max(gap, float(np.max(np.min(dists, axis=2))))
        return gap, 0.0, 0.0
    src = np.repeat(np.arange(level.size), np.diff(tmap.indptr))
    tgt = tmap.targets
    neighbor = float(max(np.max(np.maximum(lo[src] - lo[tgt], hi[tgt] - hi[src])), 0.0))
    _, edges = transition._strided_entries(np.array([0, tgt.size]), max(samples * 100, 10_000))
    defect = 0.0
    for c0 in range(0, edges.size, chunk):
        si, ti = src[edges[c0 : c0 + chunk]], tgt[edges[c0 : c0 + chunk]]
        defect = max(defect, broadcast_defect(sys_, tmap.meta.h, lo[si], hi[si], lo[ti], hi[ti]))
    return 0.0, neighbor, defect


Q3 = Box([-1.0] * 3, [1.0] * 3)


def stretch1d() -> DiscreteSystemSpec:
    """The inverse map x -> 1.7 x - 0.1 of [-2, 2], vectorised, L = 1.7."""
    return DiscreteSystemSpec(inverse_eval=lambda p: 1.7 * np.asarray(p, dtype=np.float64) - 0.1, lipschitz_L=1.7,
                              validity_region=Box([-2.0], [2.0]), name="stretch1d", vectorized=True)


def shear3d() -> DiscreteSystemSpec:
    """A nonlinear 3-D inverse map of [-2, 2]^3, vectorised; its Jacobian
    rows sum to at most 1.6 there, and L = 3.2 bounds that."""

    def inv(p):
        p = np.asarray(p, dtype=np.float64)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        return np.stack([0.5 * y + 0.1, 0.8 * z - 0.2 * x * x, 1.2 * x - 0.3 * y], axis=-1)

    return DiscreteSystemSpec(inverse_eval=inv, lipschitz_L=3.2, validity_region=Box([-2.0] * 3, [2.0] * 3),
                              name="shear3d", vectorized=True)


def twist3d() -> ContinuousSystemSpec:
    """A nonlinear 3-D field, vectorised; on [-2, 2]^3 its norm is at most
    4 and its Jacobian rows sum to at most 3, and P = 6, L = 4 bound these."""

    def field(p):
        p = np.asarray(p, dtype=np.float64)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        return np.stack([x - 0.5 * y * z, -y + 0.25 * x * x, 0.5 * z - 0.2 * x * y], axis=-1)

    return ContinuousSystemSpec(field_eval=field, bound_P=6.0, lipschitz_L=4.0, validity_region=Box([-2.0] * 3, [2.0] * 3),
                                name="twist3d", vectorized=True)


def diagnostics_case(kind: str, d: int, honest: bool):
    """(system, study box, depth, params) of a map or a flow in d = 1, 2 or
    3 dimensions; with honest=False its constants are understated, so the
    map has holes that the containment check must find."""
    if kind == "map":
        sys_, Q, depth = {
            1: (stretch1d(), Q1, 6),
            2: (make_builtin("henon", Box([-2.0, -2.0], [2.0, 2.0])), Box([-2.0, -2.0], [2.0, 2.0]), 4),
            3: (shear3d(), Q3, 3),
        }[d]
        return (sys_ if honest else replace(sys_, lipschitz_L=sys_.lipschitz_L / 10)), Q, depth, None
    sys_, Q, depth, h = {
        1: (make_builtin("cubic1d", Box([-1.5], [1.5])), Box([-1.5], [1.5]), 6, 0.05),
        2: (make_builtin("saddle2d", Q2), Q2, 4, 0.4),
        3: (twist3d(), Q3, 3, 0.1),
    }[d]
    sys_ = sys_ if honest else replace(sys_, lipschitz_L=0.01, bound_P=0.01)
    return sys_, Q, depth, EulerParams(h=h)


@pytest.mark.parametrize("honest", [True, False])
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kind", ["map", "flow"])
def test_diagnostics_match_their_axis_forms(kind: str, d: int, honest: bool) -> None:
    # maps (M = 1 and 2) and flows in d = 1, 2 and 3 on a sparse level:
    # the same violations, bit for bit, and the same gaps as the axis forms
    sys_, Q, depth, params = diagnostics_case(kind, d, honest)
    rng = np.random.default_rng(17)
    cells = 1 << (depth * d)
    level = CoverLevel(Q, depth, np.sort(rng.choice(cells, size=cells * 3 // 5, replace=False)))
    for M in (1, 2) if params is None else (1,):
        tmap = build_transition(level, sys_, M=M, params=params)
        got = check_containment_condition(tmap, sys_, samples=30, seed=3).containment_violations
        want = axis_form_containment(tmap, sys_, samples=30, seed=3)
        assert [(flat, p.tobytes()) for flat, p in got] == want
        assert (want == []) == honest
        rep = measure_overapprox_gap(tmap, sys_, samples=40)
        assert (rep.overapprox_gap, rep.neighbor_gap, rep.defect_gap) == axis_form_gaps(tmap, sys_, samples=40)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_defect_matches_its_broadcast_form(d: int) -> None:
    # random source and target boxes: the per-axis maximum over a corner's
    # two values of x_k is the maximum of the same floats as the broadcast,
    # for a batch of edges and for each edge alone
    rng = np.random.default_rng(d)
    sys_ = {1: make_builtin("cubic1d", Box([-1.5], [1.5])), 2: make_builtin("saddle2d", Q2), 3: twist3d()}[d]
    for h in (0.05, 0.3):
        a, b = rng.uniform(-1.0, 1.0, size=(2, 2, 60, d))
        boxes = np.minimum(a[0], b[0]), np.maximum(a[0], b[0]), np.minimum(a[1], b[1]), np.maximum(a[1], b[1])
        for e in [slice(None)] + [slice(i, i + 1) for i in range(60)]:
            edge = [corner[e] for corner in boxes]
            assert transition._defect(sys_, h, *edge) == broadcast_defect(sys_, h, *edge)


# -- point location against the window lookup ----------------------------------


def corrupted_full_map(level: CoverLevel, meta: TransitionMeta, seed: int) -> TransitionMap:
    """Every cell a successor of every cell, then 30% of the edges dropped."""
    size = level.size
    keep = np.random.default_rng(seed).random((size, size)) >= 0.3
    indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
    targets = np.tile(np.arange(size, dtype=np.int32), size)[keep.ravel()]
    return from_successors(level, indptr, targets, meta)


def face_images(level: CoverLevel, slack: float):
    """An image function that moves each coordinate of a point, chosen by
    the coordinate's own digits, onto a cell face, within the slack of one,
    one ulp off one, just outside Q within the slack, or beyond the grid on
    either side, and otherwise leaves it; two axes on faces make a corner."""

    def image(p):
        p = np.array(p, dtype=np.float64)
        for k in range(level.dim):
            B, x = level.boundaries[k], p[..., k].copy()
            kind = ((x * 7919.0) % 1.0 * 10).astype(int)
            below = (x * 104729.0) % 1.0 < 0.5
            face = B[np.clip(np.rint((x - B[0]) / (B[-1] - B[0]) * (B.size - 1)).astype(int), 0, B.size - 1)]
            width = B[-1] - B[0]
            moved = [
                face, face, face, face + slack, face - slack / 2,
                np.nextafter(face, np.where(below, -np.inf, np.inf)),
                np.where(below, B[0] - slack / 2, B[-1] + slack / 2),
                np.where(below, B[0] - 0.3 * width, B[-1] + 0.3 * width),
                x, x,
            ]
            p[..., k] = np.choose(kind, moved)
        return p

    return image


@pytest.mark.parametrize("kind", ["map", "flow"])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_point_location_matches_the_window_lookup_on_faces(kind: str, d: int, monkeypatch) -> None:
    # images on faces, corners, within the slack of a face, outside Q and
    # beyond the grid: the check by point location lists the violations of
    # its window-lookup form bit for bit, at slack 0 (a map) and 1e-9 (a flow)
    depth = {1: 6, 2: 4, 3: 3}[d]
    root = Box(np.full(d, -1.1), np.full(d, 0.9))
    rng = np.random.default_rng(d)
    cells = 1 << (depth * d)
    level = CoverLevel(root, depth, np.sort(rng.choice(cells, size=cells * 3 // 5, replace=False)))
    slack = 10.0 * transition._CONTAINMENT_TOL if kind == "flow" else 0.0
    image = face_images(level, slack)
    sys_ = DiscreteSystemSpec(inverse_eval=image, lipschitz_L=1.0, validity_region=root, name="faces", vectorized=True)
    if kind == "flow":

        def flow(sys_, pts, h, tol):
            return image(pts)

        monkeypatch.setattr(transition, "reference_backward_flow", flow)
        monkeypatch.setitem(globals(), "reference_backward_flow", flow)
        meta = TransitionMeta("continuous", 1, 0.0, h=0.1)
    else:
        meta = TransitionMeta("discrete", 1, 0.0)
    tmap = corrupted_full_map(level, meta, seed=d)
    got = check_containment_condition(tmap, sys_, samples=30, seed=3).containment_violations
    want = axis_form_containment(tmap, sys_, samples=30, seed=3)
    assert [(flat, p.tobytes()) for flat, p in got] == want
    assert 0 < len(want) < 30 * level.size
    # the images include points that two or more cells share
    images = image(np.concatenate([level.box_los, level.box_his]))
    assert level.point_cells(images, slack)[0].max() >= 2


def test_point_location_is_exact_when_the_slack_spans_cells() -> None:
    # a sparse cubic1d level whose cells, about 5.7e-10 wide, are narrower
    # than the flow's slack of 1e-9: an image on a face has two cells
    # within the slack on each side, so one neighbour per side would be
    # wrong, and the check still lists the violations of its window-lookup
    # form bit for bit
    Q = Box([-1.5e-4], [1.5e-4])
    sys_ = make_builtin("cubic1d", Q)
    depth = 19
    rng = np.random.default_rng(19)
    middle = np.arange((1 << (depth - 1)) - 200, (1 << (depth - 1)) + 200)
    level = CoverLevel(Q, depth, np.sort(rng.choice(middle, size=380, replace=False)))
    slack = 10.0 * transition._CONTAINMENT_TOL
    assert level.rho < slack
    assert level.point_cells(level.box_los, slack)[0].min() == 4
    tmap = corrupted_full_map(level, TransitionMeta("continuous", 1, 0.0, h=0.05), seed=19)
    got = check_containment_condition(tmap, sys_, samples=100, seed=5).containment_violations
    want = axis_form_containment(tmap, sys_, samples=100, seed=5)
    assert [(flat, p.tobytes()) for flat, p in got] == want
    assert 0 < len(want) < 100 * level.size
