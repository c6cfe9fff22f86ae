from __future__ import annotations

import itertools
import json
from bisect import bisect_left, bisect_right
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import boxattractor.transition as transition

from boxattractor.geometry import Box, CoverLevel, point_box_distance, subbox_centers
from boxattractor.integrator import EulerParams, enclosure_radius, euler_backward, reference_backward_flow
from boxattractor.systems import (
    DiscreteSystemSpec,
    eval_field,
    eval_inverse,
    make_builtin,
)
from boxattractor.transition import (
    TransitionMap,
    TransitionMeta,
    _build_map,
    _lookup_runs,
    build_transition,
    build_transition_continuous,
    build_transition_discrete,
    check_containment_condition,
    measure_overapprox_gap,
    transition_pair_scan,
)

Q1 = Box([-1.0], [1.0])
Q2 = Box([-1.0, -1.0], [1.0, 1.0])


def edges_as_flats(tmap: TransitionMap) -> dict[int, list[int]]:
    return {int(k): v for k, v in tmap.to_json_dict()["edges"].items()}


def from_successors(level: CoverLevel, indptr: np.ndarray, targets: np.ndarray, meta: TransitionMeta) -> TransitionMap:
    """The map with the given successor rows (indptr, local targets)."""
    return TransitionMap(level, *transition._transpose(indptr, targets, level.size), np.diff(indptr), meta)


def cells_at(level: CoverLevel, p) -> list[int]:
    """Local indices of the active cells that hold the point p."""
    return sorted(level.window_runs(*level.cell_windows(np.asarray(p, dtype=float)[None, :], 0.0))[2].tolist())


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
    assert tmap.meta == TransitionMeta("discrete", 2, tmap.meta.radius, level.rho / 2)
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
    assert loc >= 0 and level.box_of_flat(flat).contains_point(witness)
    # brute-force confirmation that the witness is genuine: its image lies in
    # the covered region but not in the mutated successor union
    wimg = eval_inverse(sys_, witness[None, :])[0]
    assert level.contains_points(wimg[None, :])[0]
    phi_boxes = [level.box_of_flat(int(level.flats[t])) for t in mutated.targets_local(loc)]
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
        assert loc >= 0 and level.box_of_flat(flat).contains_point(witness)
        wimg = reference_backward_flow(sys_, witness, h, tol)
        assert Q2.contains_point(wimg)
        phi_boxes = [level.box_of_flat(int(level.flats[t])) for t in mutated.targets_local(loc)]
        assert all(point_box_distance(wimg, b) > 10 * tol for b in phi_boxes)


@pytest.mark.parametrize("name, Q, params", [("halving1d", Q1, None), ("saddle2d", Q2, EulerParams(h=0.1))])
def test_containment_witnesses_do_not_depend_on_chunking(name: str, Q: Box, params) -> None:
    sys_ = make_builtin(name, Q)
    level = CoverLevel.full(Q, 3)
    tmap = build_transition(level, sys_, M=1, params=params)
    image = (lambda p: reference_backward_flow(sys_, p, 0.1)) if params else (lambda p: eval_inverse(sys_, p))
    mutated = drop_edge_of_probe(tmap, image)
    reports = [check_containment_condition(mutated, sys_, samples=60, seed=5)]
    with patch.object(transition, "_CHUNK_POINTS", 7), patch.object(transition, "_CHECK_POINTS", 7):
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
    ],
)
def test_gap_matches_brute_force(name: str, Q: Box, depth: int, M: int, h: float | None) -> None:
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


@given(case=lookup_cases(), chunk=st.sampled_from([1, 3, 1 << 10]))
@settings(max_examples=150, deadline=None)
def test_lookup_matches_pair_scan(case, chunk: int) -> None:
    level, images, radius, M = case
    meta = TransitionMeta(kind="discrete", M=M, radius=radius, subdiameter=level.rho / M)
    with patch.object(transition, "_CHUNK_POINTS", chunk):
        tmap = _build_map(level, *_lookup_runs(level, images, radius), meta)
    assert tmap.targets.dtype == np.int32
    assert edges_as_flats(tmap) == transition_pair_scan(level, images, radius)


@given(
    case=lookup_cases(),
    chunk=st.sampled_from([1, 3, 1 << 10]),
    wide=st.booleans(),
    block=st.sampled_from([1, 2, 1 << 16]),
)
@settings(max_examples=150, deadline=None)
def test_predecessor_rows_are_the_transposed_pair_scan(case, chunk: int, wide: bool, block: int) -> None:
    # wide=True lowers the int32 packing bound so that small levels take the
    # int64 key path of the builder and of the successor view's transpose;
    # small blocks split the in-place key passes as large levels do
    level, images, radius, M = case
    meta = TransitionMeta(kind="discrete", M=M, radius=radius, subdiameter=level.rho / M)
    scan = transition_pair_scan(level, images, radius)
    bound = 0 if wide else np.iinfo(np.int32).max
    with (
        patch.object(transition, "_CHUNK_POINTS", chunk),
        patch.object(transition, "_INT32_KEYS", bound),
        patch.object(transition, "_BLOCK_EDGES", block),
    ):
        tmap = _build_map(level, *_lookup_runs(level, images, radius), meta)
        successors = edges_as_flats(tmap)
        again = from_successors(level, tmap.indptr, tmap.targets, meta)
    flats = level.flats.tolist()
    preds = {f: [s for s in flats if f in scan[s]] for f in flats}
    rows = np.split(tmap.sources, tmap.pred_indptr[1:-1])
    assert tmap.pred_indptr.dtype == np.int64 and tmap.pred_indptr[0] == 0
    assert tmap.sources.dtype == np.int32 and tmap.out_degree.dtype == np.int64
    assert {flats[t]: level.flats[row].tolist() for t, row in enumerate(rows)} == preds
    assert tmap.out_degree.tolist() == [len(scan[s]) for s in flats]
    assert tmap.edge_count == sum(map(len, scan.values()))
    assert successors == scan
    # every pair of cells, edge or not, empty rows included
    src, tgt = (a.ravel().astype(np.int32) for a in np.meshgrid(np.arange(level.size), np.arange(level.size)))
    member = [flats[t] in scan[flats[s]] for s, t in zip(src.tolist(), tgt.tolist())]
    assert tmap.has_edges(src, tgt).tolist() == member
    # transposing the successor view gives back the same predecessor rows
    assert np.array_equal(again.pred_indptr, tmap.pred_indptr) and np.array_equal(again.sources, tmap.sources)
    assert np.array_equal(again.out_degree, tmap.out_degree)


@pytest.mark.parametrize(
    "name, extra", [("pred_indptr", 1), ("pred_indptr", -1), ("out_degree", 1), ("out_degree", -1), ("sources", -1)]
)
def test_constructor_rejects_rows_of_the_wrong_length(name: str, extra: int) -> None:
    level = CoverLevel.full(Q1, 2)
    tmap = build_transition_discrete(level, make_builtin("halving1d", Q1), M=1)
    rows = {"pred_indptr": tmap.pred_indptr, "sources": tmap.sources, "out_degree": tmap.out_degree}
    TransitionMap(level, **rows, meta=tmap.meta)  # the right lengths pass
    rows[name] = np.concatenate([rows[name], rows[name][-1:]]) if extra > 0 else rows[name][:-1]
    with pytest.raises(ValueError, match="pred_indptr"):
        TransitionMap(level, **rows, meta=tmap.meta)


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
