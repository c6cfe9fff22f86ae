"""Combinatorial core: pruning a multivalued index map to its greatest fixed
point, the fixed-depth global scheme, and the sparse subdivision loop.

Pruning keeps exactly the indices that have nonempty images under every
iterate of the map; it is realised as counter decrement (every node tracks
how many successors survive, nodes hitting zero join the removal worklist)
processed in batched generations, so the result and the round count do not
depend on the order of the nodes.

One kernel prunes every graph on the form a TransitionMap stores: each
node's successors as disjoint runs of positions. A plain graph's successor
rows become such runs over its sorted nodes. A removal round lowers every
node's counter by the removed positions its runs hold: sparse rounds test
the runs that start near each removed position, dense rounds take one
cumulative sum over the positions and read every run once, and each round
takes the cheaper of the two, so neither the map nor the prune ever makes
an array of one entry per edge. The level report's self-loop share
searches the runs for each cell's own position, and the diagnostics read
the runs too, so no run builds a view of the map's edges.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import MAX_FULL_GRID, MAX_LEVEL_CELLS, Box, BoxKey, CoverLevel, expand_ranges, refine_cover
from .integrator import EulerParams, EulerSchedule
from .systems import ContinuousSystemSpec, DiscreteSystemSpec, _require_dim
from .transition import (
    GapReport,
    TransitionMap,
    _row_sums,
    _runs_of_rows,
    build_transition,
    check_margin,
    run_diagnostics,
)

# Cells allowed in one level, at most MAX_LEVEL_CELLS. A run whose next level
# would hold more stops with BoxBudgetError (the CLI's exit 3, artifacts of
# the finished levels flushed) before that level is built.
DEFAULT_BOX_BUDGET = 1 << 22


class BoxBudgetError(RuntimeError):
    """A level would exceed the configured box budget."""

    def __init__(self, depth: int, needed: int, budget: int):
        super().__init__(f"depth {depth} needs {needed} boxes, budget is {budget}")
        self.depth = depth
        self.needed = needed
        self.budget = budget


@dataclass(frozen=True, eq=False)
class PruneResult:
    """Greatest fixed point of a pruning pass.

    kept is the maximal subset S of the input indices with phi(i) & S
    nonempty for every i in S; removed is its complement; rounds counts the
    worklist generations that were processed. kept and removed are sorted
    tuples, built anew on each access from the sorted int64 arrays
    kept_flats and removed_flats, so a result that was read holds no
    per-cell objects. These hold flat indices at `depth` (viewed as BoxKeys)
    or, for a plain graph, positions in the sorted `nodes`.
    """

    kept_flats: np.ndarray
    removed_flats: np.ndarray
    rounds: int
    depth: int = 0
    dim: int = 0
    nodes: tuple | None = None

    def _view(self, flats: np.ndarray) -> tuple:
        if self.nodes is not None:
            return tuple(self.nodes[i] for i in flats.tolist())
        return tuple(BoxKey.from_flat(f, self.depth, self.dim) for f in flats.tolist())

    @property
    def kept(self) -> tuple:
        return self._view(self.kept_flats)

    @property
    def removed(self) -> tuple:
        return self._view(self.removed_flats)


@dataclass
class LevelReport:
    """Per-depth run record."""

    depth: int
    rho: float
    h: float
    r: float
    boxes_in: int
    boxes_kept: int
    edges: int
    map_ms: float = 0.0
    prune_ms: float = 0.0
    diag_ms: float = 0.0  # diagnostics of the level; 0 when they are off
    rounds: int = 0  # prune worklist generations
    selfloop_frac: float = 0.0  # share of boxes that are their own successor
    gaps: GapReport | None = None

    def to_json_dict(self) -> dict:
        # timings and the prune trace go to stderr, not into data artifacts,
        # so stats files keep their keys and are reproducible byte for byte
        out = {
            "depth": self.depth,
            "rho": self.rho,
            "h": self.h,
            "r": self.r,
            "boxes_in": self.boxes_in,
            "boxes_kept": self.boxes_kept,
            "edges": self.edges,
            "gaps": self.gaps.to_json_dict() if self.gaps is not None else None,
        }
        return out


def _dense_is_cheaper(candidates: int, runs: int, nodes: int, sorted_runs: bool) -> bool:
    """Whether a round's dense method costs less than its sparse one: the
    runs and nodes against the candidates, plus the runs once while the
    sparse method has still to sort them."""
    return candidates + (0 if sorted_runs else runs) > runs + nodes


def _prune_runs(run_ptr: np.ndarray, run_start: np.ndarray, run_count: np.ndarray, rank: np.ndarray | None,
                alive: np.ndarray) -> tuple[np.ndarray, int]:
    """Counter-decrement worklist on successor runs, restricted to the nodes
    of the `alive` mask; returns (alive mask, rounds).

    Node i's successors are the nodes at the positions of its runs
    run_ptr[i] .. run_ptr[i + 1] - 1, which are disjoint; node v sits at
    position rank[v] (at v without `rank`). Every node starts with its
    out-degree. The nodes outside the mask are removed first, which counts
    as no round. A round removes its frontier and lowers every node's
    counter by the number of removed positions its runs hold, by whichever
    of two exact methods costs less, judged from sizes the round already has
    (the dense/sparse frontier switch of direction-optimizing BFS; Beamer,
    Asanovic & Patterson 2012):

    - sparse: the runs that can hold position p start in [p - longest + 1,
      p], a range of the runs sorted by start that a prefix count of the
      starts gives. The frontier's ranges are gathered at once: a candidate
      holds p when it ends after p, and its node loses one. It costs the
      candidates, plus the runs once for the sort on the first sparse round;
    - dense: one cumulative sum C over the marked positions, so each run
      loses C[end] - C[start], summed per node. It costs O(runs + nodes).

    Both give the same counters, so kept sets and round counts do not depend
    on the choice. Only the nodes a round decrements can join the next
    frontier, which is drawn after the whole round.
    """
    n, m = alive.size, run_start.size
    alive = alive.copy()
    counts = _row_sums(run_ptr, run_count)
    end = run_start + run_count
    longest = int(run_count.max(initial=0))
    by_start = np.zeros(n + 1, dtype=np.int64)  # runs that start before each position
    np.add.at(by_start[1:], run_start, 1)  # with no index-sized temporary, unlike bincount
    np.cumsum(by_start, out=by_start)
    by_start_runs = None  # the ends and nodes of the runs sorted by start, made on the first sparse round

    def dense(at: np.ndarray) -> np.ndarray:
        marks = np.zeros(n + 1, dtype=run_start.dtype)
        marks[at + 1] = 1
        np.cumsum(marks, out=marks)
        loss = marks[end]
        loss -= marks[run_start]
        lost = _row_sums(run_ptr, loss)
        touched = np.flatnonzero(lost)
        counts[touched] -= lost[touched]
        return touched

    def remove(cells: np.ndarray) -> np.ndarray:
        nonlocal by_start_runs
        alive[cells] = False
        at = cells if rank is None else rank[cells]
        first = by_start[np.maximum(at - (longest - 1), 0)]
        lens = by_start[at + 1] - first
        total = int(lens.sum())
        if not total:
            return cells[:0]
        if _dense_is_cheaper(total, m, n, by_start_runs is not None):
            return dense(at)
        if by_start_runs is None:
            order = np.argsort(run_start)
            by_start_runs = end[order], np.repeat(np.arange(n, dtype=run_start.dtype), np.diff(run_ptr))[order]
        ends, nodes = by_start_runs
        k = expand_ranges(first, lens, np.intp)  # run indices, which the cell count does not bound
        hit = ends[k] > np.repeat(at, lens)
        touched, lost = np.unique(nodes[k[hit]], return_counts=True)
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


def _selfloop_frac(tmap: TransitionMap) -> float:
    """Share of cells that are their own successor: one search of the runs
    for each cell's own position (TransitionMap.has_edges)."""
    if tmap.size == 0:
        return 0.0
    cells = np.arange(tmap.size, dtype=np.int32)
    return float(np.mean(tmap.has_edges(cells, cells)))


def prune(indices, transition) -> PruneResult:
    """Remove every index whose image chain dies out; keep the rest.

    `transition` is either a TransitionMap, whose indices are BoxKeys or an
    integer array of flat indices on its level, or a plain mapping from node
    to an iterable of successors. Edges leaving `indices` are dropped
    (restriction semantics), and indices missing from the mapping count as
    having no successors. One kernel prunes every graph: a TransitionMap on
    its own runs, with the cells outside `indices` removed first, and a
    mapping on the runs of its successor rows over its sorted nodes.
    """
    if isinstance(transition, TransitionMap):
        level = transition.level
        if indices is level.flats:  # the level's own cells, as the level loop passes them
            given = np.ones(level.size, dtype=bool)
        else:
            given = np.zeros(level.size, dtype=bool)
            given[level.locate(level.flats_of(indices))] = True
        runs = transition.run_ptr, transition.run_start, transition.run_count
        alive, rounds = _prune_runs(*runs, level._rank, given)
        return PruneResult(level.flats[alive], level.flats[given & ~alive], rounds, depth=level.depth, dim=level.dim)
    nodes = tuple(sorted(set(indices)))
    position = {v: i for i, v in enumerate(nodes)}
    succ = [{position[j] for j in transition.get(v, ()) if j in position} for v in nodes]
    indptr = np.concatenate([[0], np.cumsum([len(s) for s in succ], dtype=np.int64)])
    targets = np.fromiter(itertools.chain.from_iterable(succ), dtype=np.int64, count=int(indptr[-1]))
    alive, rounds = _prune_runs(*_runs_of_rows(indptr, targets), None, np.ones(len(nodes), bool))
    ids = np.arange(len(nodes))
    return PruneResult(ids[alive], ids[~alive], rounds, nodes=nodes)


def _run_level(
    level: CoverLevel,
    sys: DiscreteSystemSpec | ContinuousSystemSpec,
    M: int,
    euler: EulerParams | None,
    diagnostics: bool,
    samples: int,
    seed: int,
) -> tuple[PruneResult, LevelReport]:
    """Map, prune and (optionally) diagnose one level."""
    t0 = time.perf_counter()
    tmap = build_transition(level, sys, M, euler)
    t1 = time.perf_counter()
    result = prune(level.flats, tmap)
    t2 = time.perf_counter()
    report = LevelReport(
        depth=level.depth,
        rho=level.rho,
        h=tmap.meta.h,
        r=tmap.meta.radius,
        boxes_in=level.size,
        boxes_kept=int(result.kept_flats.size),
        edges=tmap.edge_count,
        map_ms=(t1 - t0) * 1e3,
        prune_ms=(t2 - t1) * 1e3,
        rounds=result.rounds,
        selfloop_frac=_selfloop_frac(tmap),
    )
    if diagnostics:
        report.gaps = run_diagnostics(tmap, sys, samples=samples, seed=seed)
        report.diag_ms = (time.perf_counter() - t2) * 1e3
    return result, report


def check_run_settings(sys: DiscreteSystemSpec | ContinuousSystemSpec, Q: Box, max_depth: int, M: int = 1,
                       samples: int = 100, seed: int = 0, box_budget: int = DEFAULT_BOX_BUDGET,
                       h0: float | None = None, resume_depth: int | None = None) -> None:
    """Raise ValueError unless these settings may start a run: the system
    and Q of one dimension, a budget in 1..MAX_LEVEL_CELLS, a max_depth in
    0..62/d (flat indices of depth·d bits fit in an int64), M, samples >= 1,
    seed >= 0, a resume depth of at most max_depth and, for a flow with a
    first step h0, the margin between Q and the validity region (P*h0)."""
    _require_dim(Q, sys.dim, sys.name)
    if not 1 <= box_budget <= MAX_LEVEL_CELLS:
        raise ValueError(f"box budget must be in 1..{MAX_LEVEL_CELLS}")
    if not 0 <= max_depth <= 62 // Q.dim:
        raise ValueError(f"depth must be in 0..{62 // Q.dim} in dimension {Q.dim}")
    if M < 1 or samples < 1:
        raise ValueError("M and samples must be positive")
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if resume_depth is not None and resume_depth > max_depth:
        raise ValueError(f"the resume depth {resume_depth} is deeper than the depth {max_depth}")
    if h0 is not None and isinstance(sys, ContinuousSystemSpec):
        check_margin(sys, Q, h0)


def run_global(
    sys: DiscreteSystemSpec | ContinuousSystemSpec,
    Q: Box,
    depth: int,
    M: int = 1,
    euler: EulerParams | None = None,
    box_budget: int = DEFAULT_BOX_BUDGET,
) -> tuple[PruneResult, LevelReport]:
    """Fixed-depth scheme: build the full 2^{nd}-cell cover, map, and prune."""
    check_run_settings(sys, Q, depth, M, box_budget=box_budget)
    needed, budget = 1 << (depth * Q.dim), min(box_budget, MAX_FULL_GRID)  # CoverLevel.full's cap too
    if needed > budget:
        raise BoxBudgetError(depth=depth, needed=needed, budget=budget)
    return _run_level(CoverLevel.full(Q, depth), sys, M, euler, diagnostics=False, samples=0, seed=0)


def run_subdivision(
    sys: DiscreteSystemSpec | ContinuousSystemSpec,
    Q: Box,
    max_depth: int,
    M: int = 1,
    euler: EulerSchedule | None = None,
    diagnostics: bool = False,
    samples: int = 100,
    seed: int = 0,
    threads: int = 1,
    box_budget: int = DEFAULT_BOX_BUDGET,
    resume: tuple[int, np.ndarray] | None = None,
    on_level: Callable[[CoverLevel, PruneResult, LevelReport], None] | None = None,
) -> list[tuple[PruneResult, LevelReport]]:
    """Subdivision loop: map, prune, and refine the kept cells per depth.

    Starts from the root cover (or from a `resume` pair of depth and kept
    flat indices), emits one (PruneResult, LevelReport) per completed level,
    and stops at max_depth, on an exhausted level, or with BoxBudgetError
    when the next level, counted from the kept cells before it is built,
    would exceed the budget. Settings that check_run_settings refuses, or a
    flow without an EulerSchedule, raise ValueError before level 0; a
    resume at max_depth runs no level. A KeyboardInterrupt propagates after
    the current level's callback has fired, so streamed artifacts stay
    complete per level. `threads` is accepted for compatibility and ignored.
    """
    check_run_settings(sys, Q, max_depth, M, samples, seed, box_budget, h0=euler.h0 if euler is not None else None,
                       resume_depth=resume[0] if resume is not None else None)
    if isinstance(sys, ContinuousSystemSpec) and euler is None:
        raise ValueError("continuous systems need an EulerSchedule")
    level = CoverLevel.full(Q, 0) if resume is None else CoverLevel(Q, *resume)
    kept = level.flats

    out: list[tuple[PruneResult, LevelReport]] = []
    for n in range(level.depth + (resume is not None), max_depth + 1):
        if n > level.depth:
            needed = kept.size << level.dim
            if needed > box_budget:
                raise BoxBudgetError(depth=n, needed=needed, budget=box_budget)
            level = refine_cover(level, kept)
        params = euler.params_at(n) if euler is not None else None
        result, report = _run_level(level, sys, M, params, diagnostics, samples, seed)
        out.append((result, report))
        if on_level is not None:
            on_level(level, result, report)
        kept = result.kept_flats
        if not kept.size:
            break  # attractor region empty at this depth
    return out
