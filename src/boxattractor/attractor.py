"""Combinatorial core: pruning a multivalued index map to its greatest fixed
point, the fixed-depth global scheme, and the sparse subdivision loop.

Pruning keeps exactly the indices that have nonempty images under every
iterate of the map; it is realised as reverse-adjacency counter decrement
(every node tracks how many successors survive, nodes hitting zero join the
removal worklist) processed in batched generations on a CSR graph, so the
result and the round count do not depend on the order of the nodes.

The reverse adjacency is the form a TransitionMap stores: predecessor rows
and out-degrees, built by the map builder with one sort per level, so the
prune sorts no edges. A plain graph is transposed once by the same helper,
as one sort of packed target * n + source keys (int32 while n * n fits in
int32, int64 otherwise). A removal round gathers the predecessor rows of
its frontier only, in blocks of a bounded number of entries, and the next
frontier is drawn from the nodes the round decremented, so the whole prune
costs O(edges), not O(n) per round, and peaks a few MiB above the rows. The
level report's self-loop share is one TransitionMap.has_edges query on
the same rows, so a run without diagnostics never builds successor rows.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .geometry import MAX_FULL_GRID, Box, BoxKey, CoverLevel, expand_ranges, index_dtype, refine_cover
from .integrator import EulerParams, EulerSchedule
from .systems import ContinuousSystemSpec, DiscreteSystemSpec
from .transition import GapReport, TransitionMap, _transpose, build_transition, check_margin, run_diagnostics

# Cells allowed in one level. A run whose next level would hold more stops
# with BoxBudgetError (the CLI's exit 3, artifacts of the finished levels
# flushed) before that level's map can outgrow memory.
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
    tuples, built on first access from the sorted int64 arrays kept_flats
    and removed_flats. These hold flat indices at `depth` (viewed as
    BoxKeys) or, for a plain graph, positions in the sorted `nodes`.
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

    @cached_property
    def kept(self) -> tuple:
        return self._view(self.kept_flats)

    @cached_property
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


_GATHER_ENTRIES = 1 << 17  # predecessor entries a removal round gathers at once


def _prune_csr(pred_indptr: np.ndarray, sources: np.ndarray, out_degree: np.ndarray,
               alive: np.ndarray) -> tuple[np.ndarray, int]:
    """Counter-decrement worklist on predecessor rows, restricted to the
    nodes of the `alive` mask; returns (alive mask, rounds).

    Every node starts with its out-degree. The nodes outside the mask are
    removed first, which counts as no round. A round removes its frontier,
    gathers the frontier's predecessor rows and decrements each predecessor
    once per removed successor; only the nodes it decrements can join the
    next frontier, so a round costs O(its predecessors), not O(n). The rows
    are gathered, counted and decremented one block of at most
    _GATHER_ENTRIES entries at a time (or one longer row), the blocks cut
    by the cumulative sum of the row lengths, so the prune's temporaries
    stay small beside the rows it reads; a round whose rows fit in one block
    is one such step. The next frontier is filtered from the sorted union
    of the touched nodes after the whole round, so the result and the round
    count do not depend on the blocks.
    """
    counts = out_degree.astype(np.int64)
    lengths = np.diff(pred_indptr)
    longest = int(lengths.max(initial=0))
    position = index_dtype(sources.size)
    alive = alive.copy()

    def decrement(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
        touched, lost = np.unique(sources[expand_ranges(starts, lens, position)], return_counts=True)
        counts[touched] -= lost
        return touched

    def remove(nodes: np.ndarray) -> np.ndarray:
        alive[nodes] = False
        starts, lens = pred_indptr[nodes], lengths[nodes]
        if nodes.size * longest <= _GATHER_ENTRIES or lens.sum() <= _GATHER_ENTRIES:
            return decrement(starts, lens)  # one block, with no sum for the many small rounds
        ends = np.cumsum(lens)
        parts, a = [], 0
        while a < nodes.size:  # nodes a..b-1 hold at most _GATHER_ENTRIES entries, or one row
            b = max(int(np.searchsorted(ends, ends[a] - lens[a] + _GATHER_ENTRIES, side="right")), a + 1)
            parts.append(decrement(starts[a:b], lens[a:b]))
            a = b
        return np.unique(np.concatenate(parts))

    remove(np.flatnonzero(~alive))
    frontier = np.flatnonzero(alive & (counts == 0))
    rounds = 0
    while frontier.size:
        rounds += 1
        touched = remove(frontier)
        frontier = touched[alive[touched] & (counts[touched] <= 0)]
    return alive, rounds


def _selfloop_frac(tmap: TransitionMap) -> float:
    """Share of cells that are their own successor."""
    if tmap.size == 0:
        return 0.0
    cells = np.arange(tmap.size, dtype=tmap.sources.dtype)
    return float(np.mean(tmap.has_edges(cells, cells)))


def prune(indices, transition) -> PruneResult:
    """Remove every index whose image chain dies out; keep the rest.

    `transition` is either a TransitionMap, whose indices are BoxKeys or an
    integer array of flat indices on its level, or a plain mapping from node
    to an iterable of successors. Edges leaving `indices` are dropped
    (restriction semantics), and indices missing from the mapping count as
    having no successors. One kernel prunes every graph: a TransitionMap on
    its own predecessor rows, with the cells outside `indices` removed
    first, and a mapping on predecessor rows over its sorted nodes.
    """
    if isinstance(transition, TransitionMap):
        level = transition.level
        given = np.zeros(level.size, dtype=bool)
        given[level.locate(level.flats_of(indices))] = True
        alive, rounds = _prune_csr(transition.pred_indptr, transition.sources, transition.out_degree, given)
        return PruneResult(level.flats[alive], level.flats[given & ~alive], rounds, depth=level.depth, dim=level.dim)
    nodes = tuple(sorted(set(indices)))
    position = {v: i for i, v in enumerate(nodes)}
    succ = [{position[j] for j in transition.get(v, ()) if j in position} for v in nodes]
    indptr = np.concatenate([[0], np.cumsum([len(s) for s in succ], dtype=np.int64)])
    targets = np.fromiter(itertools.chain.from_iterable(succ), dtype=np.int64, count=int(indptr[-1]))
    alive, rounds = _prune_csr(*_transpose(indptr, targets, len(nodes)), np.diff(indptr), np.ones(len(nodes), bool))
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


def run_global(
    sys: DiscreteSystemSpec | ContinuousSystemSpec,
    Q: Box,
    depth: int,
    M: int = 1,
    euler: EulerParams | None = None,
    box_budget: int = DEFAULT_BOX_BUDGET,
    diagnostics: bool = False,
    samples: int = 100,
    seed: int = 0,
) -> tuple[PruneResult, LevelReport]:
    """Fixed-depth scheme: build the full 2^{nd}-cell cover, map, and prune."""
    needed, budget = 1 << (depth * Q.dim), min(box_budget, MAX_FULL_GRID)  # CoverLevel.full's cap too
    if needed > budget:
        raise BoxBudgetError(depth=depth, needed=needed, budget=budget)
    return _run_level(CoverLevel.full(Q, depth), sys, M, euler, diagnostics, samples, seed)


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
    when the next level would exceed the budget. A KeyboardInterrupt
    propagates after the current level's callback has fired, so streamed
    artifacts stay complete per level. `threads` is accepted for
    compatibility and ignored.
    """
    if isinstance(sys, ContinuousSystemSpec):
        if euler is None:
            raise ValueError("continuous systems need an EulerSchedule")
        check_margin(sys, Q, euler.h0)
    if diagnostics and samples < 1:
        raise ValueError("samples must be >= 1")
    if resume is None:
        level = CoverLevel.full(Q, 0)
        start = 0
    else:
        depth0, kept_flats = resume
        prev = CoverLevel(Q, depth0, np.asarray(kept_flats, dtype=np.int64))
        level = refine_cover(prev, prev.flats)
        start = depth0 + 1

    out: list[tuple[PruneResult, LevelReport]] = []
    for n in range(start, max_depth + 1):
        if level.size > box_budget:
            raise BoxBudgetError(depth=n, needed=level.size, budget=box_budget)
        params = euler.params_at(n) if euler is not None else None
        result, report = _run_level(level, sys, M, params, diagnostics, samples, seed)
        out.append((result, report))
        if on_level is not None:
            on_level(level, result, report)
        if not result.kept_flats.size:
            break  # attractor region empty at this depth
        if n < max_depth:
            level = refine_cover(level, result.kept_flats)
    return out
