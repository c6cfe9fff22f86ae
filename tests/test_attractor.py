from __future__ import annotations

import gc
import itertools
import tracemalloc
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import boxattractor.attractor as attractor
import boxattractor.transition as transition

from boxattractor.attractor import (
    BoxBudgetError,
    prune,
    run_global,
    run_subdivision,
)
from boxattractor.geometry import (
    Box,
    BoxKey,
    CoverLevel,
    expand_ranges,
    refine_cover,
    region_semidistance,
    subbox_centers,
)
from boxattractor.integrator import EulerParams, EulerSchedule, euler_backward, reference_backward_flow
from boxattractor.oracle import reach_cycle_set, reference_attractor_points
from boxattractor.systems import (
    ContinuousSystemSpec,
    DiscreteSystemSpec,
    EvaluationError,
    eval_inverse,
    make_builtin,
)
from boxattractor.transition import (
    TransitionMap,
    TransitionMeta,
    build_transition,
    build_transition_discrete,
    check_containment_condition,
    measure_overapprox_gap,
    transition_pair_scan,
)

Q1 = Box([-1.0], [1.0])
Q2 = Box([-1.0, -1.0], [1.0, 1.0])


def kept_level(Q: Box, depth: int, kept) -> CoverLevel:
    return CoverLevel(Q, depth, [k.flat(Q.dim) for k in kept])


def test_prune_hand_examples() -> None:
    res = prune([0, 1, 2], {0: [1], 1: [], 2: [2]})
    assert res.kept == (2,) and res.removed == (0, 1)
    assert res.rounds == 2  # node 1 first, then node 0 loses its successor

    res = prune([0, 1, 2], {0: [0], 1: [1], 2: [2]})
    assert res.kept == (0, 1, 2) and res.rounds == 0

    res = prune([0, 1, 2], {0: [1], 1: [0], 2: [0]})
    assert res.kept == (0, 1, 2)

    res = prune([], {})
    assert res.kept == () and res.removed == () and res.rounds == 0


def test_prune_restriction_semantics() -> None:
    # edges out of the index set are dropped; 1 then has no successors
    res = prune([0, 1], {0: [0, 1], 1: [5], 5: [5]})
    assert res.kept == (0,) and res.removed == (1,)


def test_prune_matches_reach_cycle_oracle_random_graphs() -> None:
    rng = np.random.default_rng(20260810)
    for _ in range(60):
        n = int(rng.integers(1, 51))
        p = float(rng.uniform(0.0, 0.2))
        adj = rng.random((n, n)) < p
        edges = {i: list(np.nonzero(adj[i])[0]) for i in range(n)}
        assert set(prune(range(n), edges).kept) == reach_cycle_set(edges)


def test_prune_packed_key_widths() -> None:
    # 46,340 nodes is the last count whose packed row * n + value keys fit
    # in int32 and 46,341 the first that needs int64. The embedded graph's
    # chain 38 -> 39 into a sink sits at the two largest ids, so its edge has
    # the key (n - 1) * n + n - 2, which int32 would wrap at 46,341 nodes;
    # the runs of a plain graph are sorted by such keys (row * (n + 1) +
    # position) before they are merged.
    adj = np.random.default_rng(20261018).random((40, 40)) < 0.045
    adj[38:] = False
    adj[38, 39] = True
    small = {i: np.flatnonzero(adj[i]).tolist() for i in range(40)}
    want = reach_cycle_set(small)
    assert 0 < len(want) < 38
    rounds = set()
    for n in (46_340, 46_341):
        ids = np.random.default_rng(n).choice(n - 2, size=41, replace=False).tolist()
        nodes, loops = ids[:38] + [n - 2, n - 1], ids[38:]
        edges = {nodes[i]: [nodes[j] for j in succ] for i, succ in small.items()}
        edges.update({v: [v] for v in loops})
        res = prune(range(n), edges)
        assert set(res.kept) == {nodes[i] for i in want} | set(loops)
        rounds.add(res.rounds)
    assert len(rounds) == 1 and rounds.pop() > 1


@given(
    st.dictionaries(
        st.integers(0, 14),
        st.lists(st.integers(0, 14), max_size=5),
        max_size=15,
    )
)
@settings(max_examples=200, deadline=None)
def test_prune_matches_reach_cycle_oracle_hypothesis(edges: dict[int, list[int]]) -> None:
    assert set(prune(edges.keys(), edges).kept) == reach_cycle_set(edges)


def sink_generations(edges: dict[int, list[int]]) -> tuple[set, int]:
    """Kept set and generation count by brute force: each generation removes
    every alive node that has no alive successor, all at once."""
    alive, generations = set(edges), 0
    while True:
        dead = {i for i in alive if not any(j in alive for j in edges[i])}
        if not dead:
            return alive, generations
        alive -= dead
        generations += 1


@given(
    st.integers(1, 40).flatmap(
        lambda n: st.lists(st.lists(st.integers(0, n - 1), max_size=3), min_size=n, max_size=n)
    )
)
@settings(max_examples=200, deadline=None)
def test_prune_rounds_match_sink_generations_hypothesis(succ: list[list[int]]) -> None:
    # sparse random graphs have long chains into sinks, so the touched-node
    # frontier must find every node a round strips of its last successor
    edges = dict(enumerate(succ))
    res = prune(range(len(succ)), edges)
    kept, generations = sink_generations(edges)
    assert set(res.kept) == reach_cycle_set(edges) == kept
    assert res.rounds == generations


def test_prune_result_independent_of_node_labelling() -> None:
    # relabel nodes randomly: the kept set must map back onto itself
    rng = np.random.default_rng(99)
    edges = {0: [1], 1: [2], 2: [0], 3: [1], 4: [], 5: [4, 3]}
    base = set(prune(edges.keys(), edges).kept)
    for _ in range(100):
        perm = rng.permutation(6)
        relabeled = {int(perm[i]): [int(perm[j]) for j in js] for i, js in edges.items()}
        kept = set(prune(relabeled.keys(), relabeled).kept)
        assert {int(perm[i]) for i in base} == kept


def test_prune_on_transition_map_matches_oracle() -> None:
    sys_ = make_builtin("halving1d", Q1)
    level = CoverLevel.full(Q1, 4)
    tmap = build_transition_discrete(level, sys_, M=1)
    edges = {int(k): v for k, v in tmap.to_json_dict()["edges"].items()}
    want = reach_cycle_set(edges)
    res = prune(level.active, tmap)
    assert {int(k.flat(1)) for k in res.kept} == want
    # the transition map and its plain-dict copy give the same kept and
    # removed sets and the same number of removal generations
    res_generic = prune(edges.keys(), edges)
    assert {int(k.flat(1)) for k in res.kept} == set(res_generic.kept)
    assert {int(k.flat(1)) for k in res.removed} == set(res_generic.removed)
    assert res.rounds == res_generic.rounds
    # plain integer flats of any integer dtype name the same cells
    for flats in (level.flats.tolist(), level.flats.astype(np.uint32), level.flats.astype(np.uint64)):
        assert prune(flats, tmap).kept_flats.tolist() == res.kept_flats.tolist()


def test_read_result_holds_no_box_keys() -> None:
    # kept and removed are built on each access, not cached, so a result
    # that was read holds only its flat arrays; a BoxKey has slots and no
    # per-instance dict
    level = CoverLevel.full(Q1, 4)
    res = prune(level.flats, build_transition_discrete(level, make_builtin("halving1d", Q1), M=1))
    kept, removed = res.kept, res.removed
    assert kept and removed and all(isinstance(k, BoxKey) for k in kept + removed)
    assert res.kept == kept and res.kept is not kept and res.removed == removed
    held = [v for o in gc.get_referents(res) for v in (o.values() if isinstance(o, dict) else [o])]
    keys = [v for v in held if isinstance(v, BoxKey) or isinstance(v, tuple) and any(isinstance(k, BoxKey) for k in v)]
    assert held and not keys
    assert not hasattr(kept[0], "__dict__") and "__dict__" not in dir(BoxKey)


def test_prune_restriction_semantics_on_transition_map_subset() -> None:
    sys_ = make_builtin("linmap2d", Q2)
    level = CoverLevel.full(Q2, 3)
    tmap = build_transition_discrete(level, sys_, M=1)
    edges = {int(k): v for k, v in tmap.to_json_dict()["edges"].items()}
    rng = np.random.default_rng(7)
    for _ in range(20):
        subset = [k for k in level.active if rng.random() < 0.6]
        flats = {int(k.flat(2)) for k in subset}
        restricted = {f: [t for t in edges[f] if t in flats] for f in flats}
        res = prune(subset, tmap)
        want = prune(flats, restricted)
        assert [k.flat(2) for k in res.kept] == list(want.kept)
        assert [k.flat(2) for k in res.removed] == list(want.removed)
        assert res.rounds == want.rounds
        assert set(want.kept) == reach_cycle_set(restricted)
        assert res.kept_flats.tolist() == list(want.kept)
    # some subsets do prune, so the comparison is not between two full sets
    assert prune(level.active[::2], tmap).removed


def whole_round_prune(pred_indptr, sources, out_degree, alive):
    """The prune kernel on predecessor rows that gathers each round's rows
    at once, kept as the oracle of the kernel on runs."""
    counts = out_degree.astype(np.int64)
    lengths = np.diff(pred_indptr)
    alive = alive.copy()

    def remove(nodes):
        alive[nodes] = False
        touched, lost = np.unique(sources[expand_ranges(pred_indptr[nodes], lengths[nodes])], return_counts=True)
        counts[touched] -= lost
        return touched

    remove(np.flatnonzero(~alive))
    frontier = np.flatnonzero(alive & (counts == 0))
    rounds = 0
    while frontier.size:
        rounds += 1
        touched = remove(frontier)
        frontier = touched[alive[touched] & (counts[touched] <= 0)]
    return alive, rounds


@st.composite
def prune_graphs(draw):
    """A graph to prune and the cells to prune it over: successor lists of the
    cells of a 1-D level, or a window map of a 2-D level from the lookup."""
    if draw(st.booleans()):
        n = 1 << draw(st.integers(0, 6))
        succ = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=4, unique=True), min_size=n, max_size=n))
        level = CoverLevel.full(Q1, n.bit_length() - 1)
        indptr = np.concatenate([[0], np.cumsum([len(s) for s in succ])])
        targets = np.array([t for s in succ for t in s], dtype=np.int32)
        runs = transition._runs_of_rows(indptr, level._rank[targets])
    else:
        depth = draw(st.integers(1, 3))
        flats = draw(st.lists(st.integers(0, (1 << 2 * depth) - 1), min_size=1, max_size=40, unique=True))
        level = CoverLevel(Q2, depth, flats)
        width = 2.0 / level.cells_per_axis
        coord = st.floats(-1.0 - width, 1.0 + width) | st.sampled_from(level.boundaries[0].tolist())
        points = draw(st.lists(st.lists(coord, min_size=2, max_size=2), min_size=level.size, max_size=level.size))
        radius = draw(st.sampled_from([0.0, 0.5 * width, 1.5 * width]))
        runs = transition._lookup_runs(level, np.array(points).reshape(level.size, 1, 2), radius)
    given = np.array(draw(st.lists(st.booleans(), min_size=level.size, max_size=level.size)), dtype=bool)
    return TransitionMap(level, *runs, TransitionMeta("discrete", 1, 0.0)), given


def assert_prune_equals_whole_round_kernel(tmap, given, as_map: bool, method: str) -> None:
    """The kernel on runs, with its rounds forced dense, sparse or a seeded
    mix of both, or chosen by cost, against the predecessor-row kernel: the
    same kept set, removed set and round count. A map pruned over a subset
    removes the cells outside it first, so that removal goes through both
    methods too; a plain graph is pruned from its restricted successor
    lists."""
    level = tmap.level
    if as_map:
        graph, indices = tmap, level.flats[given]
        # the predecessor rows, from the successor view by a stable sort of its targets
        targets = tmap.targets
        sources = np.repeat(np.arange(level.size), tmap.out_degree)[np.argsort(targets, kind="stable")]
        pred_indptr = np.concatenate([[0], np.cumsum(np.bincount(targets, minlength=level.size))])
        want_alive, want_rounds = whole_round_prune(pred_indptr, sources, tmap.out_degree, given)
        want_kept, want_removed = level.flats[want_alive], level.flats[given & ~want_alive]
    else:
        edges = tmap.to_json_dict()["edges"]
        graph = {int(f): succ for f, succ in edges.items()}
        indices = level.flats[given].tolist()
        position = {f: i for i, f in enumerate(indices)}
        succ = [{position[t] for t in graph[f] if t in position} for f in indices]
        preds = [[i for i, s in enumerate(succ) if t in s] for t in range(len(indices))]
        pred_indptr = np.concatenate([[0], np.cumsum([len(p) for p in preds], dtype=np.int64)])
        sources = np.array([i for p in preds for i in p], dtype=np.int64)
        out_degree = np.array([len(s) for s in succ], dtype=np.int64)
        want_alive, want_rounds = whole_round_prune(pred_indptr, sources, out_degree, np.ones(len(indices), bool))
        ids = np.arange(len(indices))
        want_kept, want_removed = ids[want_alive], ids[~want_alive]
    rng = np.random.default_rng(len(indices))
    choose = {
        "dense": lambda *args: True,
        "sparse": lambda *args: False,
        "mix": lambda *args: bool(rng.random() < 0.5),
        "by cost": attractor._dense_is_cheaper,
    }[method]
    with patch.object(attractor, "_dense_is_cheaper", choose):
        got = prune(indices, graph)
    assert got.kept_flats.tolist() == want_kept.tolist()
    assert got.removed_flats.tolist() == want_removed.tolist()
    assert got.rounds == want_rounds


@given(
    case=prune_graphs(),
    as_map=st.booleans(),
    method=st.sampled_from(["dense", "sparse", "mix", "by cost"]),
)
@settings(max_examples=300, deadline=None)
def test_prune_equals_whole_round_kernel(case, as_map: bool, method: str) -> None:
    assert_prune_equals_whole_round_kernel(*case, as_map, method)


def test_prune_with_a_large_sparse_round_equals_whole_round_kernel() -> None:
    # a 2^19-cell 1-D level whose cells hold zero, one or two runs of one or
    # two cells: its first round removes the fifth of the cells that have no
    # successors and, chosen by cost, tests more than 2^17 candidates in one
    # sparse gather
    n = 1 << 19
    rng = np.random.default_rng(19)
    degree = rng.choice(3, size=n, p=[0.2, 0.4, 0.4])
    run_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degree, out=run_ptr[1:])
    half = n // 2  # a cell's first run ends by half + 1 and its second starts after that
    lower = rng.integers(0, half, size=n)
    upper = rng.integers(half + 2, n - 2, size=n)
    starts = np.stack([np.where(degree == 1, rng.integers(0, n - 2, size=n), lower), upper], axis=1)
    take = np.arange(2) < degree[:, None]
    run_start = starts[take].astype(np.int32)
    run_count = rng.integers(1, 3, size=run_start.size).astype(np.int32)
    level = CoverLevel.full(Q1, 19)
    tmap = TransitionMap(level, run_ptr, run_start, run_count, TransitionMeta("discrete", 1, 0.0))
    sparse_candidates = []
    real = attractor._dense_is_cheaper

    def recording(candidates, runs, nodes, sorted_runs):
        dense = real(candidates, runs, nodes, sorted_runs)
        if not dense:
            sparse_candidates.append(candidates)
        return dense

    with patch.object(attractor, "_dense_is_cheaper", recording):
        prune(level.flats, tmap)
    assert sparse_candidates[0] > 1 << 17  # precondition
    assert_prune_equals_whole_round_kernel(tmap, np.ones(n, dtype=bool), True, "by cost")


def test_prune_methods_both_occur_on_the_workload_levels() -> None:
    # a henon level takes dense rounds and a cubic flow level sparse ones,
    # so the cost choice is exercised on both sides
    calls = []

    def counting(*args):
        calls.append(real(*args))
        return calls[-1]

    real = attractor._dense_is_cheaper
    Q = Box([-2.0, -2.0], [2.0, 2.0])
    with patch.object(attractor, "_dense_is_cheaper", counting):
        run_subdivision(make_builtin("henon", Q), Q, 6)
        dense = sum(calls)
        calls.clear()
        Qc = Box([-1.5], [1.5])
        run_subdivision(make_builtin("cubic1d", Qc), Qc, 12, euler=EulerSchedule(h0=0.08, alpha=0.5, substeps=1))
        sparse = len(calls) - sum(calls)
    assert dense > 0 and sparse > 100


def test_run_global_halving_band() -> None:
    sys_ = make_builtin("halving1d", Q1)
    result, report = run_global(sys_, Q1, depth=6, M=1)
    level = kept_level(Q1, 6, result.kept)
    ref = reference_attractor_points(sys_, Q1, resolution=0.01, horizon=30)
    # the only surviving grid point is the one nearest 0
    assert np.max(np.abs(ref.points)) <= 0.01
    assert np.all(level.contains_points(ref.points))
    sd = region_semidistance(level.box_los, level.box_his, [0.0], [0.0])
    assert sd <= 8 * report.rho
    # both cells adjacent to 0 survive
    assert level.contains_points(np.array([[-1e-12], [1e-12]])).all()


def test_run_global_linmap_covers_segment() -> None:
    sys_ = make_builtin("linmap2d", Q2)
    result, _ = run_global(sys_, Q2, depth=6, M=1)
    level = kept_level(Q2, 6, result.kept)
    ys = np.linspace(-1, 1, 41)
    pts = np.stack([np.zeros_like(ys), ys], axis=1)
    assert np.all(level.contains_points(pts))


def test_run_global_depth0_all_builtins() -> None:
    # the one-cell graph keeps its single node for every built-in
    cases = [
        ("halving1d", Q1, None),
        ("linmap2d", Q2, None),
        ("henon", Box([-2, -2], [2, 2]), None),
        ("cubic1d", Box([-1.5], [1.5]), EulerParams(h=0.08)),
        ("saddle2d", Q2, EulerParams(h=0.2)),
    ]
    for name, Q, euler in cases:
        result, report = run_global(make_builtin(name, Q), Q, depth=0, M=1, euler=euler)
        assert report.boxes_in == 1 and len(result.kept) == 1


def test_run_global_budget() -> None:
    sys_ = make_builtin("linmap2d", Q2)
    with pytest.raises(BoxBudgetError):
        run_global(sys_, Q2, depth=8, M=1, box_budget=1000)


def test_run_global_above_the_full_grid_cap_is_a_budget_error() -> None:
    # a budget above MAX_FULL_GRID (2^24) does not let a 2^25-cell grid through
    with pytest.raises(BoxBudgetError) as err:
        run_global(make_builtin("halving1d", Q1), Q1, depth=25, box_budget=1 << 26)
    assert (err.value.needed, err.value.budget) == (1 << 25, 1 << 24)


def test_subdivision_halving_band_and_containment() -> None:
    sys_ = make_builtin("halving1d", Q1)
    levels = run_subdivision(sys_, Q1, max_depth=8, M=1)
    assert len(levels) == 9
    for result, report in levels:
        assert result.kept_flats.tolist() == [k.flat(1) for k in result.kept]
        assert result.removed_flats.tolist() == [k.flat(1) for k in result.removed]
        level = kept_level(Q1, report.depth, result.kept)
        assert level.contains_points(np.zeros((1, 1))).all()
        if report.depth >= 4:
            sd = region_semidistance(level.box_los, level.box_his, [0.0], [0.0])
            assert sd <= 8 * report.rho


def test_subdivision_cubic_contains_attractor() -> None:
    Q = Box([-1.5], [1.5])
    sys_ = make_builtin("cubic1d", Q)
    sched = EulerSchedule(h0=0.08, alpha=0.5, substeps=1)
    levels = run_subdivision(sys_, Q, max_depth=6, euler=sched)
    xs = np.linspace(-1, 1, 201)[:, None]
    for result, report in levels:
        level = kept_level(Q, report.depth, result.kept)
        assert np.all(level.contains_points(xs))


def test_subdivision_max_depth0_equals_global() -> None:
    sys_ = make_builtin("halving1d", Q1)
    levels = run_subdivision(sys_, Q1, max_depth=0, M=1)
    g_result, _ = run_global(sys_, Q1, depth=0, M=1)
    assert levels[0][0].kept == g_result.kept


def test_monotone_refinement_union_shrinks() -> None:
    sys_ = make_builtin("halving1d", Q1)
    levels = run_subdivision(sys_, Q1, max_depth=6, M=1)
    for (res_a, rep_a), (res_b, rep_b) in zip(levels, levels[1:]):
        kept_parents = {k.path for k in res_a.kept}
        for k in res_b.kept:
            assert k.path[: rep_a.depth] in kept_parents


def test_sandwich_kept_keys_subset_of_global() -> None:
    sys_ = make_builtin("halving1d", Q1)
    levels = run_subdivision(sys_, Q1, max_depth=5, M=1)
    for result, report in levels:
        g_result, _ = run_global(sys_, Q1, depth=report.depth, M=1)
        assert set(result.kept) <= set(g_result.kept)


def test_restart_from_coarse_output_preserves_attractor() -> None:
    # refine the depth-3 kept region without pruning down to depth 5, then
    # prune there: the reference cloud must still be covered
    sys_ = make_builtin("halving1d", Q1)
    levels = run_subdivision(sys_, Q1, max_depth=3, M=1)
    result3, _ = levels[-1]
    level = kept_level(Q1, 3, result3.kept)
    for _ in range(2):
        level = refine_cover(level, level.flats)
    tmap = build_transition_discrete(level, sys_, M=1)
    res = prune(level.active, tmap)
    kept = kept_level(Q1, 5, res.kept)
    ref = reference_attractor_points(sys_, Q1, resolution=0.01, horizon=30)
    assert np.all(kept.contains_points(ref.points))


def test_subdivision_budget_overflow_flushes_partial() -> None:
    sys_ = make_builtin("linmap2d", Q2)
    seen: list[int] = []
    with pytest.raises(BoxBudgetError):
        run_subdivision(
            sys_, Q2, max_depth=9, M=1, box_budget=200,
            on_level=lambda level, res, rep: seen.append(rep.depth),
        )
    assert seen == [0, 1, 2, 3, 4]  # depth 5 would need 64 * 4 > 200 cells


def test_subdivision_rejects_samples_below_one_before_level_0() -> None:
    sys_ = make_builtin("saddle2d", Q2)
    seen: list[int] = []
    with pytest.raises(ValueError, match="samples"):
        run_subdivision(
            sys_, Q2, max_depth=3, euler=EulerSchedule(h0=0.2), diagnostics=True, samples=0,
            on_level=lambda level, res, rep: seen.append(rep.depth),
        )
    assert seen == []


def test_subdivision_checks_the_budget_before_building_the_level() -> None:
    # the depth-5 level of linmap2d would hold 64 * 4 = 256 cells: the run
    # stops on the kept count with the error it always gave, and no level
    # above the budget is ever built, fresh or resumed
    sys_ = make_builtin("linmap2d", Q2)
    built: list[int] = []

    def refine(level, kept):
        built.append(level.flats_of(kept).size << level.dim)
        return refine_cover(level, kept)

    with patch.object(attractor, "refine_cover", refine):
        with pytest.raises(BoxBudgetError) as err:
            run_subdivision(sys_, Q2, max_depth=9, box_budget=200)
        assert (err.value.depth, err.value.needed, err.value.budget) == (5, 256, 200)
        kept4 = run_subdivision(sys_, Q2, max_depth=4)[-1][0].kept_flats
        with pytest.raises(BoxBudgetError) as err:
            run_subdivision(sys_, Q2, max_depth=9, box_budget=200, resume=(4, kept4))
        assert (err.value.depth, err.value.needed, err.value.budget) == (5, 256, 200)
    assert built and max(built) <= 200


@pytest.mark.parametrize("kwargs", [dict(box_budget=0), dict(box_budget=2**31), dict(max_depth=63)])
def test_subdivision_rejects_a_budget_or_depth_beyond_the_limits_before_level_0(kwargs) -> None:
    # a budget outside 1..MAX_LEVEL_CELLS, or a depth whose flat indices
    # need more than 62 bits, is refused before any level runs
    seen: list[int] = []
    with pytest.raises(ValueError):
        run_subdivision(make_builtin("halving1d", Q1), Q1, **{"max_depth": 3, **kwargs},
                        on_level=lambda level, res, rep: seen.append(rep.depth))
    assert seen == []


@pytest.mark.parametrize("kwargs, match", [
    (dict(box_budget=0), "budget"),
    (dict(box_budget=2**31), "budget"),
    (dict(max_depth=-1), "depth"),
    (dict(max_depth=32), "depth"),  # 64 bits in 2-D
    (dict(M=0), "M and samples"),
    (dict(samples=0), "M and samples"),  # without diagnostics too
    (dict(seed=-1), "seed"),
    (dict(max_depth=2, resume=(3, np.arange(4))), "resume depth"),
    (dict(euler=EulerSchedule(h0=2.0)), "margin"),  # a flow whose P * h0 exceeds its margin
    # counts that are not integers: a fractional M's centres do not tile a cell under the radius of rho/(2M)
    (dict(M=2.5), "M must be an integer"),
    (dict(M=True), "M must be an integer"),
    (dict(max_depth=3.0), "depth must be an integer"),
    (dict(samples=2.5, diagnostics=True), "samples must be an integer"),
    (dict(seed=1.5, diagnostics=True), "seed must be an integer"),
    (dict(seed=np.float64(1.0)), "seed must be an integer"),
], ids=["budget-0", "budget-2^31", "depth--1", "depth-32", "M-0", "samples-0", "seed--1", "resume-deeper",
        "margin", "M-2.5", "M-True", "depth-3.0", "samples-2.5", "seed-1.5", "seed-float64"])
def test_run_settings_are_refused_before_any_level_is_built(monkeypatch, kwargs: dict, match: str) -> None:
    built: list[int] = []
    init = CoverLevel.__init__

    def counting_init(self, *args, **kw):
        built.append(1)
        init(self, *args, **kw)

    sys_ = make_builtin("saddle2d" if "euler" in kwargs else "linmap2d", Q2)
    monkeypatch.setattr(CoverLevel, "__init__", counting_init)
    with pytest.raises(ValueError, match=match):
        run_subdivision(sys_, Q2, **{"max_depth": 3, **kwargs})
    assert built == []


def test_a_maps_study_box_outside_its_validity_region_is_refused_before_any_level_is_built(monkeypatch) -> None:
    built: list[int] = []
    init = CoverLevel.__init__

    def counting_init(self, *args, **kw):
        built.append(1)
        init(self, *args, **kw)

    sys_ = DiscreteSystemSpec(lambda p: 2.0 * p, 2.0, Box([-0.5, -0.5], [0.5, 0.5]), vectorized=True)
    monkeypatch.setattr(CoverLevel, "__init__", counting_init)
    with pytest.raises(ValueError, match="validity region"):
        run_subdivision(sys_, Q2, 3)
    with pytest.raises(ValueError, match="validity region"):
        run_global(sys_, Q2, 2)
    assert built == []


def test_numpy_integer_settings_run_as_python_ones() -> None:
    sys_ = make_builtin("saddle2d", Q2)
    schedule = EulerSchedule(0.2, 0.5)
    want = run_subdivision(sys_, Q2, 4, M=2, euler=schedule, diagnostics=True, samples=5, seed=1)
    got = run_subdivision(sys_, Q2, np.int32(4), M=np.int64(2), euler=schedule, diagnostics=True,
                          samples=np.int64(5), seed=np.uint8(1))
    assert [r.kept_flats.tolist() for r, _ in got] == [r.kept_flats.tolist() for r, _ in want]
    assert [rep.gaps.to_json_dict() for _, rep in got] == [rep.gaps.to_json_dict() for _, rep in want]
    level = CoverLevel.full(Q2, 2)
    with pytest.raises(ValueError, match="M must be an integer"):
        build_transition(level, sys_, 2.5, schedule.params_at(2))
    assert build_transition(level, sys_, np.int64(2), schedule.params_at(2)).meta.M == 2


def test_resume_at_the_last_depth_runs_no_level() -> None:
    sys_ = make_builtin("halving1d", Q1)
    kept3 = run_subdivision(sys_, Q1, max_depth=3)[-1][0].kept_flats
    assert run_subdivision(sys_, Q1, max_depth=3, resume=(3, kept3)) == []
    with pytest.raises(ValueError, match="resume depth 3 is deeper than the depth 2"):
        run_subdivision(sys_, Q1, max_depth=2, resume=(3, kept3))


_PLANE = Box([-4.0, -4.0], [4.0, 4.0])


@pytest.mark.parametrize("Q", [Q1, Box([-1.0] * 3, [1.0] * 3)], ids=["1-D", "3-D"])
@pytest.mark.parametrize("kind", ["map", "flow"])
def test_a_study_box_of_another_dimension_is_refused_at_entry(Q: Box, kind: str) -> None:
    # a 2-D system on a 1-D or 3-D box used to run by numpy broadcasting
    # (a 1-D box kept 1, 2, 4, 4, 4 cells) or fail inside its evaluator
    if kind == "map":
        sys_ = DiscreteSystemSpec(lambda p: 2.0 * p, 2.0, _PLANE, vectorized=True)
        euler = params = None
    else:
        sys_ = ContinuousSystemSpec(lambda p: -p, 8.0, 1.0, _PLANE, vectorized=True)
        euler = EulerSchedule(h0=0.1)
        params = euler.params_at(1)
    dims = rf"2-dimensional.*{Q.dim}-dimensional|{Q.dim}-dimensional.*2-dimensional"
    with pytest.raises(ValueError, match=dims):
        run_subdivision(sys_, Q, 4, euler=euler)
    with pytest.raises(ValueError, match=dims):
        run_global(sys_, Q, 1, euler=params)
    with pytest.raises(ValueError, match=dims):
        build_transition(CoverLevel.full(Q, 1), sys_, 1, params)


def test_subdivision_stops_on_an_empty_level() -> None:
    # halving1d on [0.5, 1] keeps its one cell at depth 0 (the image ball
    # reaches back into it) and none at depth 1: the run ends there
    Q = Box([0.5], [1.0])
    levels = run_subdivision(make_builtin("halving1d", Q), Q, 6)
    assert [(r.depth, r.boxes_in, r.boxes_kept) for _, r in levels] == [(0, 1, 1), (1, 2, 0)]


def _henon_with(**over):
    Q = Box([-2.0, -2.0], [2.0, 2.0])
    return replace(make_builtin("henon", Q), **over), Q, None


def _saddle_with(**over):
    return replace(make_builtin("saddle2d", Q2), **over), Q2, EulerSchedule(h0=0.2)


@pytest.mark.parametrize("case", [
    lambda: _henon_with(lipschitz_L=np.inf),
    lambda: _henon_with(lipschitz_L=np.nan),
    lambda: _henon_with(lipschitz_L=1e308),
    lambda: (make_builtin("henon", Box([-2.0, -2.0], [2.0, 2.0]), a=1e308), Box([-2.0, -2.0], [2.0, 2.0]), None),
    lambda: _saddle_with(lipschitz_L=np.inf),
    lambda: _saddle_with(lipschitz_L=np.nan),
    lambda: _saddle_with(bound_P=np.nan),
])
def test_a_radius_that_is_not_finite_aborts_the_level(case) -> None:
    # no cell passes the edge test against a NaN radius, so a run would
    # prune the whole cover and report an empty attractor: it aborts instead
    sys_, Q, euler = case()
    seen: list[int] = []
    with pytest.raises(EvaluationError, match="radius"):
        run_subdivision(sys_, Q, 3, euler=euler, on_level=lambda level, res, rep: seen.append(rep.depth))
    assert seen == []


def test_subdivision_resume_matches_uninterrupted() -> None:
    sys_ = make_builtin("halving1d", Q1)
    full = run_subdivision(sys_, Q1, max_depth=7, M=1)
    mid_result, mid_report = full[4]
    kept_flats = np.array([k.flat(1) for k in mid_result.kept], dtype=np.int64)
    resumed = run_subdivision(sys_, Q1, max_depth=7, M=1, resume=(mid_report.depth, kept_flats))
    tail = full[5:]
    assert len(resumed) == len(tail)
    for (ra, _), (rb, _) in zip(tail, resumed):
        assert ra.kept == rb.kept and ra.removed == rb.removed


def test_level_report_traces_prune_rounds_and_selfloops() -> None:
    # the report carries the radius used, the prune's round count and the
    # share of boxes that are their own successor, counted here row by row
    Q = Box([-2.0, -2.0], [2.0, 2.0])
    sys_ = make_builtin("henon", Q)
    rounds = []

    def check(level, result, rep):
        tmap = build_transition_discrete(level, sys_)
        assert (rep.r, rep.rounds) == (tmap.meta.radius, result.rounds)
        assert rep.selfloop_frac == np.mean([i in tmap.targets_local(i) for i in range(level.size)])
        rounds.append(rep.rounds)

    run_subdivision(sys_, Q, max_depth=6, on_level=check)
    assert len(rounds) == 7 and max(rounds) > 1  # boxes without successors were pruned


@given(
    name=st.sampled_from(["henon", "linmap2d", "halving1d", "cubic1d"]),
    depth=st.integers(1, 5),
    M=st.sampled_from([1, 2]),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_selfloop_share_matches_pair_scan(name: str, depth: int, M: int, seed: int) -> None:
    # the share from one bisection of each cell's runs for its own position
    # against the brute-force edge predicate on every cell and itself
    Q = {"henon": Box([-2.0, -2.0], [2.0, 2.0]), "linmap2d": Q2, "halving1d": Q1, "cubic1d": Box([-1.5], [1.5])}[name]
    sys_ = make_builtin(name, Q)
    cells = 1 << (depth * Q.dim)
    rng = np.random.default_rng(seed)
    level = CoverLevel(Q, depth, rng.choice(cells, size=min(cells, 24), replace=False))
    params = EulerParams(h=0.08) if name == "cubic1d" else None
    tmap = build_transition(level, sys_, M, params)
    centers = subbox_centers(level.box_los, level.box_his, M)
    images = euler_backward(sys_, centers, params) if params else eval_inverse(sys_, centers)
    scan = transition_pair_scan(level, images, tmap.meta.radius)
    assert attractor._selfloop_frac(tmap) == np.mean([f in scan[f] for f in scan])


def test_deep_continuous_runs_eventually_prune() -> None:
    # at M=1 a cell keeps its self-loop while its drift h_n*|g| is at most
    # r_n + rho_n/2; at depth 9 the threshold (r_n + rho_n/2)/h_n = 1.81
    # first drops below max|g| = 1.875 and the outer cells start dying: the
    # onset of upper convergence, well under way at depth 11 (0.90)
    Q = Box([-1.5], [1.5])
    sys_ = make_builtin("cubic1d", Q)
    sched = EulerSchedule(h0=0.08, alpha=0.5, substeps=1)
    levels = run_subdivision(sys_, Q, max_depth=11, euler=sched)
    result, report = levels[-1]
    assert report.boxes_kept < report.boxes_in
    level = kept_level(Q, 11, result.kept)
    sd = region_semidistance(level.box_los, level.box_his, [-1.0], [1.0])
    assert sd < 0.5


def test_deep_saddle_prunes_boundary_rows() -> None:
    # same onset for the 2-d flow: rows with |y| above (r_n + rho_n/2)/h_n
    # lose their self-loops, 0.910 at depth 7 and 0.642 at depth 8, and the
    # kept union pulls off the top boundary
    sys_ = make_builtin("saddle2d", Q2)
    sched = EulerSchedule(h0=0.2, alpha=0.5, substeps=1)
    levels = run_subdivision(sys_, Q2, max_depth=8, euler=sched)
    result, report = levels[-1]
    assert report.boxes_kept < report.boxes_in
    level = kept_level(Q2, 8, result.kept)
    sd = region_semidistance(level.box_los, level.box_his, [-1.0, 0.0], [1.0, 0.0])
    assert sd < 1.0
    xs = np.linspace(-1, 1, 40)
    assert np.all(level.contains_points(np.stack([xs, np.zeros_like(xs)], axis=1)))


def _exact_box_map_subdivision(root: Box, sched: EulerSchedule, max_depth: int, image_box):
    """Kept (los, his) per depth of the subdivision scheme on the exact box map.

    image_box(los, his, h) returns the exact backward image phi(-h, B) of
    every cell as a box. Cell i maps to every active cell whose interior
    meets that image, read off the dyadic grid by floor/ceil, and the graph
    is pruned as a plain dict; the sampled lookup is not used.
    """
    d = root.dim
    active = [(0,) * d]
    kept_boxes = []
    for depth in range(max_depth + 1):
        n = 1 << depth
        rho = (root.hi - root.lo) / n
        coords = np.array(active, dtype=np.int64).reshape(-1, d)
        los = root.lo + coords * rho
        his = root.lo + (coords + 1) * rho
        ilo, ihi = image_box(los, his, sched.h_at(depth))
        # an image that leaves Q gets an empty range on some axis
        c0 = np.maximum(np.floor((ilo - root.lo) / rho).astype(np.int64), 0)
        c1 = np.minimum(np.ceil((ihi - root.lo) / rho).astype(np.int64) - 1, n - 1)
        index = {c: i for i, c in enumerate(active)}
        edges = {}
        for i in range(len(active)):
            ranges = [range(c0[i, k], c1[i, k] + 1) for k in range(d)]
            edges[i] = [index[c] for c in itertools.product(*ranges) if c in index]
        kept = prune(range(len(active)), edges).kept
        kept_boxes.append((los[list(kept)], his[list(kept)]))
        active = [
            tuple(2 * active[i][k] + bit[k] for k in range(d))
            for i in kept
            for bit in itertools.product((0, 1), repeat=d)
        ]
    return kept_boxes


def test_exact_box_map_keeps_all_of_q_at_shallow_depths() -> None:
    # At depth 8 (cubic, rho = 0.0117, h = 0.005) and depth 6 (saddle,
    # rho = 0.03125, h = 0.025), alpha = 0.5, the largest drift on Q is below
    # rho: every cell meets its own exact backward image, so even the exact
    # box map prunes nothing and sd_final = sd_3. Any method that contains
    # the exact map keeps all of Q there; a quarter of sd_3 is out of reach.
    Qc = Box([-1.5], [1.5])
    cubic = make_builtin("cubic1d", Qc)

    def cubic_image(los, his, h):
        # the 1-d flow is monotone, so the cell endpoints bound the image
        ends = reference_backward_flow(cubic, np.concatenate([los, his]), h)
        return ends[: len(los)], ends[len(los):]

    def saddle_image(los, his, h):
        # phi(-h, (x, y)) = (x e^{-h}, y e^{h}) maps boxes onto boxes
        scale = np.array([np.exp(-h), np.exp(h)])
        return los * scale, his * scale

    cases = [
        (Qc, EulerSchedule(h0=0.08, alpha=0.5), 8, cubic_image, [-1.0], [1.0]),
        (Q2, EulerSchedule(h0=0.2, alpha=0.5), 6, saddle_image, [-1.0, 0.0], [1.0, 0.0]),
    ]
    for Q, sched, depth, image_box, region_lo, region_hi in cases:
        kept = _exact_box_map_subdivision(Q, sched, depth + 1, image_box)
        for n, (klos, _) in enumerate(kept[: depth + 1]):
            assert len(klos) == 2 ** (Q.dim * n)
        # one level deeper the drift passes rho and the same map does prune
        assert len(kept[depth + 1][0]) < 2 ** (Q.dim * (depth + 1))
        los, his = kept[depth]
        ilo, ihi = image_box(los, his, sched.h_at(depth))
        drift = max(np.max(np.abs(ilo - los)), np.max(np.abs(ihi - his)))
        assert drift < float(np.min(his - los))  # every cell moves by less than rho
        sd = [region_semidistance(klos, khis, region_lo, region_hi) for klos, khis in kept]
        assert sd[depth] == sd[3]
        assert sd[depth] > sd[3] / 4.0


@pytest.fixture(scope="module")
def henon_d6():
    Q = Box([-2.0, -2.0], [2.0, 2.0])
    sys_ = make_builtin("henon", Q)
    result, _ = run_subdivision(sys_, Q, 6)[-1]
    return Q, sys_, result.kept_flats


def test_henon_level_peak_bytes_per_edge(henon_d6) -> None:
    # int32 edges from the lookup to the prune: the traced peak of building
    # a henon map at depth 7 (3.2 M edges) and of pruning it, per edge, with
    # the map alive during the prune. int64 targets read 15.0 and 16.0 here,
    # and a prune that sorted its own transpose 10.8; reading the builder's
    # predecessor rows it reads 6.8, and gathering them in blocks of 2^17
    # entries rather than a whole round at once 4.5, below the build. A build
    # that concatenated per-chunk targets read 8.3; keeping only the lookup's
    # runs, then filling one keys array of exactly one entry per edge, reads
    # 4.8. Storing the merged runs themselves, with no array of one entry
    # per edge in the build or the prune, reads 1.92 for the build and 0.71
    # for the prune.
    Q, sys_, kept = henon_d6
    level = refine_cover(CoverLevel(Q, 6, kept), kept)
    tracemalloc.start()
    try:
        tmap = build_transition(level, sys_)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        prune(level.flats, tmap)
        prune_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tmap.edge_count > 3_000_000
    assert build_peak / tmap.edge_count <= 5.6
    assert prune_peak / tmap.edge_count <= 4.8
    assert prune_peak <= build_peak


def test_henon_d8_level_peak_bytes_per_run() -> None:
    # the level of the henon-d8 benchmark workload: 9.69 M edges in 348,586
    # merged runs. The map holds 8 bytes per run (start and count) and the
    # prune adds one end and the dense rounds' losses per run, which read
    # 27.6 (build) and 23.2 (prune) bytes per run, the prune below the build
    Q = Box([-2.0, -2.0], [2.0, 2.0])
    sys_ = make_builtin("henon", Q)
    kept = run_subdivision(sys_, Q, 7)[-1][0].kept_flats
    level = refine_cover(CoverLevel(Q, 7, kept), kept)
    tracemalloc.start()
    try:
        tmap = build_transition(level, sys_)
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        prune(level.flats, tmap)
        prune_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    runs = tmap.run_start.size
    assert tmap.edge_count > 9_000_000 and runs > 300_000
    assert build_peak / runs <= 32.0
    assert prune_peak / runs <= 28.0
    assert prune_peak <= build_peak


def test_run_without_diagnostics_never_builds_the_successor_view() -> None:
    # the prune, the report, the containment check and the gap measurement
    # all read the stored runs, so no run builds the successor view, with
    # diagnostics or without, for a map or a flow
    def no_view(self):
        raise AssertionError("the successor view was built")

    Q = Box([-2.0, -2.0], [2.0, 2.0])
    sys_ = make_builtin("henon", Q)
    flow = make_builtin("saddle2d", Q2)
    with patch.object(TransitionMap, "targets", property(no_view)):
        levels = run_subdivision(sys_, Q, 6)
        assert levels[-1][1].edges > 0
        levels = run_subdivision(sys_, Q, 3, diagnostics=True, samples=5)
        assert all(rep.gaps is not None and rep.gaps.overapprox_gap > 0 for _, rep in levels[1:])
        tmap = build_transition(CoverLevel.full(Q2, 4), flow, params=EulerParams(h=0.1))
        rep = measure_overapprox_gap(tmap, flow, samples=5)
        assert rep.neighbor_gap > 0 and rep.defect_gap > 0
