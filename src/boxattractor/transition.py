"""Overapproximating multivalued transition maps on a cover level.

For every active cell, sample centers are pushed through the backward
dynamics (the inverse map, or an Euler approximation of the backward flow)
and every cell met by the inflated image ball becomes a successor:

    discrete:    j in phi(i)  iff  min_l dist(f^{-1}(z_l), D_j) <= L * rho/(2M)
    continuous:  j in phi(i)  iff  min_l dist(phi_E(-h, z_l), D_j) <= r

with r the enclosure radius of rho/(2M), the infinity-norm distance from a
sample centre to the farthest point of its subbox. Both radii are rounded
outward by a few ulps, so the float64 test errs outward. Cells sharing only
a face count as intersecting (closed cells), which can only enlarge phi and
therefore preserves every containment guarantee. Only the image function
and the radius differ; build_transition picks both by the system kind.

The neighbour lookup takes two steps per level. One CoverLevel.cell_windows
pass gives every image point's exact cell window per axis, and
CoverLevel.window_rows the number of rows of each window. Then the sources
are cut into chunks of at most _CHUNK_ROWS window rows, each ending on a
source boundary (a source with more rows gets a chunk of its own), and
CoverLevel.row_runs finds a chunk's active cells as runs of the level's
sorted lexicographic keys, one per window row. Chunks sized by rows, not
points, do the same work per lookup whether a point's window has 2 rows
(saddle2d) or 64 (henon at depth 8). The map stores what the lookup finds:
each source's runs, as the start position and cell count of every run
over the level's lexicographic order. A chunk's runs are sorted by source
and start and merged where they overlap or touch (the windows of a
source's M^d samples overlap when M > 1), so every edge is held once and
no array of one entry per edge is ever made: the map takes 8 bytes per
run, about 28 edges per run on henon levels. The prune reads the runs
(attractor._prune_runs), and edge queries search the runs for each
(source, target position) pair with one np.searchsorted: the self-loop
share and the containment check, which finds each image's cells by point
location (CoverLevel.point_cells: the same exact windows, with one key
search per candidate cell instead of runs). The runs are the map's one
stored form. The gap measurement reads
them too, finding the edges at given positions of the run order by
bisecting the runs' cumulative counts (_edge_pairs), and the serialisation
expands one source's runs at a time and sorts the row by flat index, so
the JSON is canonical. The diagnostics' per-point arrays are (m, d) with
d small, so they are computed one axis at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce

import numpy as np

from .geometry import (
    Box,
    BoxKey,
    CoverLevel,
    across_axes,
    box_corners,
    expand_ranges,
    grid_points,
    point_box_distance,
    subbox_centers,
)
from .integrator import EulerParams, enclosure_radius, euler_backward, reference_backward_flow
from .systems import (
    ContinuousSystemSpec,
    DiscreteSystemSpec,
    EvaluationError,
    _require_dim,
    eval_field,
    eval_inverse,
)


@dataclass(frozen=True)
class TransitionMeta:
    """How a map was built; carried so diagnostics can replay the predicate."""

    kind: str  # "discrete" | "continuous"
    M: int
    radius: float
    h: float = 0.0
    substeps: int = 1


class TransitionMap:
    """Multivalued index map on a cover level, stored as successor runs.

    Position p names the cell at place p of the level's coordinate-
    lexicographic order (CoverLevel._lex; `level._rank` maps each cell to its
    position). Source i's runs are k = run_ptr[i] .. run_ptr[i + 1] - 1, and
    run k holds the run_count[k] cells at positions run_start[k] onwards.
    A source's runs are disjoint, not adjacent and ascending, so every edge
    is held once. run_ptr is int64 and the runs are int32, as every cell id
    and position of a level is (CoverLevel). The runs are the only stored
    form, at 8 bytes per run, and `has_edges` answers edge queries on them
    by one search over keys it builds per call for the queried sources'
    runs. The successor rows `indptr` (the cumulative out-degrees, int64)
    and `targets` (int32 indices local into level.flats) are expanded from
    the runs on every access, each row in run order, which is the level's
    lexicographic order; so is `targets_local(i)`, which expands source i's
    runs only. `to_json_dict` and `dumps` sort each row by local index,
    which is flat order, so the serialisation is canonical.
    """

    def __init__(
        self, level: CoverLevel, run_ptr: np.ndarray, run_start: np.ndarray, run_count: np.ndarray, meta: TransitionMeta
    ):
        if run_ptr.shape != (level.size + 1,):
            raise ValueError("run_ptr needs one entry per cell plus one")
        if not run_ptr[-1] == run_start.size == run_count.size:
            raise ValueError("run_ptr must end at the number of runs, and every run needs one start and one count")
        self.level = level
        self.run_ptr, self.run_start, self.run_count = run_ptr, run_start, run_count
        self.meta = meta

    @cached_property
    def out_degree(self) -> np.ndarray:
        """Each cell's successor count (int64): the counts of its runs, summed."""
        return _row_sums(self.run_ptr, self.run_count)

    @property
    def indptr(self) -> np.ndarray:
        indptr = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(self.out_degree, out=indptr[1:])
        return indptr

    @property
    def targets(self) -> np.ndarray:
        return self.level.run_cells(self.run_start, self.run_count)  # local indices into level.flats

    @property
    def size(self) -> int:
        return self.level.size

    @property
    def edge_count(self) -> int:
        return int(self.run_count.sum(dtype=np.int64))

    def has_edges(self, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """Whether src[k] -> tgt[k] is an edge, per k: one search of the
        runs of the sources s0 = min(src) .. s1 = max(src), keyed
        (source - s0) * (size + 1) + run_start and built per call, for the
        last run at or below the pair's key (src[k] - s0) * (size + 1) +
        tgt[k]'s position, which holds the pair when the pair's key is less
        than its count past the run's key. A run ends by position size, short
        of the next source's keys, so none holds a pair of a later source; a
        pair below every run finds index -1, the last run, above the pair."""
        if not src.size:
            return np.zeros(src.shape, dtype=bool)
        s0, s1 = int(src.min()), int(src.max())
        r0, r1 = self.run_ptr[s0], self.run_ptr[s1 + 1]
        if r0 == r1:
            return np.zeros(src.shape, dtype=bool)
        stride = self.size + 1
        keys = np.repeat(np.arange(s1 - s0 + 1, dtype=np.int64) * stride, np.diff(self.run_ptr[s0 : s1 + 2]))
        keys += self.run_start[r0:r1]
        needle = src.astype(np.int64)
        needle -= s0
        needle *= stride
        needle += self.level._rank[tgt]
        run = np.searchsorted(keys, needle, side="right")
        run -= 1
        needle -= keys[run]
        return (needle >= 0) & (needle < self.run_count[r0:r1][run])

    def targets_local(self, i: int) -> np.ndarray:
        runs = slice(self.run_ptr[i], self.run_ptr[i + 1])
        return self.level.run_cells(self.run_start[runs], self.run_count[runs])

    def to_json_dict(self) -> dict:
        edges = {}
        for i in range(self.size):
            src = int(self.level.flats[i])
            edges[str(src)] = [int(f) for f in self.level.flats[np.sort(self.targets_local(i))]]
        return {"depth": self.level.depth, "edges": edges}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))


@dataclass
class GapReport:
    """Measured slack of the overapproximation, plus containment witnesses:
    (flat index of the sample's cell, sample point) pairs."""

    containment_violations: list[tuple[int, np.ndarray]] = field(default_factory=list)
    overapprox_gap: float = 0.0
    neighbor_gap: float = 0.0
    defect_gap: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "containment_violations": len(self.containment_violations),
            "overapprox_gap": self.overapprox_gap,
            "neighbor_gap": self.neighbor_gap,
            "defect_gap": self.defect_gap,
        }


# -- construction --------------------------------------------------------------


_CHUNK_ROWS = 1 << 16  # window rows per batch neighbour lookup, unless one source holds more


def _row_sums(run_ptr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The values of each row's runs, summed (int64): one reduceat over the
    non-empty rows in the values' own dtype, which holds every such sum of
    run counts, as a row's disjoint runs hold at most one entry per node."""
    rows = np.flatnonzero(np.diff(run_ptr))
    sums = np.zeros(run_ptr.size - 1, dtype=np.int64)
    sums[rows] = np.add.reduceat(values, run_ptr[rows], dtype=values.dtype)
    return sums


def _merged_runs(row: np.ndarray, start: np.ndarray, end: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Runs [start, end) of positions below n, given by ascending row,
    sorted by start within each row (unless they already are, as the runs
    of one window per row are) and merged where they overlap or touch: the
    segmented running maximum of the ends, row * (n + 1) + end, tells where
    a run leaves every earlier run of its row. Returns the merged runs'
    rows, starts and counts."""
    offset = row.astype(np.int64) * (n + 1)
    key = offset + start
    if np.any(key[1:] < key[:-1]):
        order = np.argsort(key)
        row, start, end, offset = row[order], start[order], end[order], offset[order]
    reach = np.maximum.accumulate(offset + end) - offset
    new = np.ones(row.size, dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (start[1:] > reach[:-1])
    first = np.flatnonzero(new)
    last = np.append(first[1:], row.size)[: first.size] - 1
    return row[first], start[first], reach[last] - start[first]


def _runs_of_rows(indptr: np.ndarray, positions: np.ndarray) -> tuple[np.ndarray, ...]:
    """CSR rows of positions on n = indptr.size - 1 nodes as runs: each
    row's positions sorted, with repeated and consecutive positions merged.
    Returns (run_ptr int64, run_start int32, run_count int32)."""
    n = indptr.size - 1
    rows = np.repeat(np.arange(n, dtype=np.int32), np.diff(indptr))
    positions = positions.astype(np.int32)
    row, start, count = _merged_runs(rows, positions, positions + 1, n)
    run_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=run_ptr[1:])
    return run_ptr, start.astype(np.int32), count.astype(np.int32)


def _lookup_runs(level: CoverLevel, images: np.ndarray, radius: float) -> tuple[np.ndarray, ...]:
    """The successor runs of the sources' (V, M^d, d) image points: one
    CoverLevel.cell_windows pass over all of them, then one
    CoverLevel.row_runs lookup per chunk of sources. A chunk holds at most
    _CHUNK_ROWS window rows, counted once per level by
    CoverLevel.window_rows, unless one source alone holds more; it ends on a
    source boundary, so _merged_runs sees all of a source's runs at once and
    for M > 1 drops the cells that several windows of a source hold. Returns
    (run_ptr int64, run_start int32, run_count int32); no array has one
    entry per edge."""
    n, per = images.shape[:2]
    lo, hi = level.cell_windows(images.reshape(-1, level.dim), radius)
    rows = level.window_rows(lo, hi)
    ends = np.zeros(n + 1, dtype=np.int64)  # the rows before each source
    np.cumsum(across_axes(np.add, rows.reshape(n, per)), out=ends[1:])
    runs = np.zeros(n, dtype=np.int64)
    starts, counts = [np.empty(0, np.int32)], [np.empty(0, np.int32)]
    s0 = 0
    while s0 < n:
        s1 = max(int(np.searchsorted(ends, ends[s0] + _CHUNK_ROWS, side="right")) - 1, s0 + 1)
        p0, p1 = s0 * per, s1 * per
        point, start, count = level.row_runs(lo[p0:p1], hi[p0:p1], rows[p0:p1])
        kept = count > 0
        start = start[kept]
        source, start, count = _merged_runs(point[kept] // per, start, start + count[kept], level.size)
        runs[s0:s1] = np.bincount(source, minlength=s1 - s0)
        starts.append(start.astype(np.int32))
        counts.append(count.astype(np.int32))
        s0 = s1
    run_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(runs, out=run_ptr[1:])
    return run_ptr, np.concatenate(starts), np.concatenate(counts)


def check_margin(sys: ContinuousSystemSpec, root: Box, h: float) -> None:
    """Raise ValueError unless the drift bound P*h fits between the study box
    and the validity region, so every Euler image stays where g is valid."""
    _require_dim(root, sys.dim, sys.name)
    V = sys.validity_region
    margin = float(min(np.min(root.lo - V.lo), np.min(V.hi - root.hi)))
    if sys.bound_P * h > margin:
        raise ValueError(
            f"margin check failed: P*h = {sys.bound_P * h:.6g} exceeds the "
            f"distance {margin:.6g} between the study box and the validity region"
        )


_ROUNDING_ULPS = 8  # rounding budget per step, in ulps of the scale


def _round_outward(radius: float, lip: float, extent: float, images: np.ndarray, steps: int) -> float:
    """The radius plus a few ulps of the level's magnitude scale, so that the
    float64 closed-cell test errs outward. The scale bounds every value the
    computation passes through: the radius, the largest |image|, and the
    largest |boundary|, |centre| or Euler iterate (`extent`) times the image
    function's Lipschitz constant `lip`, which carries the rounding of the
    centres and cell widths into the images. Each of the `steps` evaluation
    steps, the radius and the cell test's subtractions round by a few ulps."""
    scale = max(radius, max(lip, 1.0) * extent, float(np.max(np.abs(images), initial=0.0)))
    return radius + _ROUNDING_ULPS * (steps + 1) * float(np.spacing(scale))


def build_transition(
    level: CoverLevel, sys: DiscreteSystemSpec | ContinuousSystemSpec, M: int = 1, params: EulerParams | None = None
) -> TransitionMap:
    """Overapproximating map of a map or a flow on the given level.

    Every point of a subbox of side rho/M lies within rho/(2M) of its centre
    in the infinity norm, so the system kind fixes the image of the sample
    centres and the radius of the ball around it: f^{-1} and L * rho/(2M)
    for a map, N Euler substeps of `params` and the enclosure radius of
    rho/(2M) for a flow. The radius is rounded outward for float64 and
    recorded in the map's meta; one that is not finite, which no cell test
    passes, raises EvaluationError. Maps ignore `params`.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    spread = level.rho / M / 2.0
    extent = float(np.max(np.abs([level.root.lo, level.root.hi])))  # largest |boundary| and |centre|
    if isinstance(sys, ContinuousSystemSpec):
        if params is None:
            raise ValueError("continuous transition maps need EulerParams")
        check_margin(sys, level.root, params.h)
        kind, h, steps = "continuous", params.h, params.substeps
        lip = math.exp(sys.lipschitz_L * h)  # of the backward flow and of the Euler map
        extent += sys.bound_P * h  # Euler iterates drift at most P*h from their centre
        radius = enclosure_radius(sys.lipschitz_L, sys.bound_P, h, steps, spread)
        image = partial(euler_backward, sys, p=params)
    else:
        if level.size and not sys.validity_region.contains_box(level.root):
            raise ValueError("cover must lie inside the system's validity region")
        kind, h, steps = "discrete", 0.0, 1
        lip = sys.lipschitz_L
        radius = lip * spread
        image = partial(eval_inverse, sys)
    centers = subbox_centers(level.box_los, level.box_his, M)
    images = image(centers) if level.size else centers
    del centers
    radius = _round_outward(radius, lip, extent, images, steps)
    if not math.isfinite(radius):
        raise EvaluationError(f"the transition radius of {sys.name} at depth {level.depth} is {radius}")
    meta = TransitionMeta(kind, M, radius, h=h, substeps=steps)
    return TransitionMap(level, *_lookup_runs(level, images, radius), meta)


def build_transition_discrete(
    level: CoverLevel, sys: DiscreteSystemSpec, M: int = 1, threads: int = 1
) -> TransitionMap:
    """build_transition for a map; `threads` is accepted and ignored."""
    return build_transition(level, sys, M)


def build_transition_continuous(
    level: CoverLevel, sys: ContinuousSystemSpec, M: int = 1, params: EulerParams | None = None, threads: int = 1
) -> TransitionMap:
    """build_transition for a flow; `threads` is accepted and ignored."""
    return build_transition(level, sys, M, params)


# -- diagnostics ----------------------------------------------------------------


_CONTAINMENT_TOL = 1e-10  # reference-flow accuracy; flows test membership within 10x this
_CHECK_POINTS = 1 << 14  # sample points per image call of the containment check


def check_containment_condition(
    tmap: TransitionMap,
    sys: DiscreteSystemSpec | ContinuousSystemSpec,
    samples: int = 100,
    seed: int = 0,
) -> GapReport:
    """Sampled check of the containment condition behind the lower enclosure.

    Draws `samples` uniform points per cell from one stream seeded by (seed,
    depth), in cell order, so the points do not depend on the chunking. Each
    chunk of cells, about _CHECK_POINTS sample points, is mapped backward
    with one call (exactly for maps, with the reference integrator for
    flows, which picks the step count per point, so no image depends on its
    batch); images landing in the covered region must lie in their cell's
    successor union. Flows test membership within 10 * _CONTAINMENT_TOL:
    diagnostic, not proof-strength. CoverLevel.point_cells finds the grid
    cells within that slack (0 for maps) of each image and the active ones
    among them, and only those go to has_edges. A map's image is in the
    region when one of its candidates is active, a flow's when all are and
    the image lies in Q. The samples and the region test are computed
    column by column.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    level = tmap.level
    report = GapReport()
    continuous = tmap.meta.kind == "continuous"
    slack = 10.0 * _CONTAINMENT_TOL if continuous else 0.0
    n, d = level.size, level.dim
    lo, hi = level.box_los, level.box_his
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(level.depth,)))
    step = max(1, _CHECK_POINTS // samples)
    for b0 in range(0, n, step):
        b1 = min(b0 + step, n)
        unit = rng.random((b1 - b0, samples, d))
        pts = np.empty(unit.shape)
        for k in range(d):
            lo_k = lo[b0:b1, k, None]
            pts[..., k] = lo_k + unit[..., k] * (hi[b0:b1, k, None] - lo_k)
        pts = pts.reshape(-1, d)
        if continuous:
            images = reference_backward_flow(sys, pts, tmap.meta.h, _CONTAINMENT_TOL)
        else:
            images = eval_inverse(sys, pts)
        # an image is covered when an active cell within the slack of it is a
        # successor of its box
        candidates, point, near = level.point_cells(images, slack)
        covered = np.zeros(images.shape[0], dtype=bool)
        covered[point[tmap.has_edges(b0 + point // samples, near)]] = True
        # images outside the covered region need no successor; for flows the
        # whole slack ball around the image must be covered
        active = np.bincount(point, minlength=images.shape[0])
        if continuous:
            in_region = active == candidates
            for k in range(d):
                in_region &= (images[:, k] >= level.root.lo[k]) & (images[:, k] <= level.root.hi[k])
        else:
            in_region = active > 0
        for s in np.nonzero(in_region & ~covered)[0]:
            report.containment_violations.append((int(level.flats[b0 + s // samples]), pts[s].copy()))
    return report


def _strided_entries(indptr: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Every stride-th entry of each CSR row, the stride ceil(length / cap)
    chosen per row so at most cap entries remain: (rows, value positions)."""
    lengths = np.diff(indptr)
    stride = np.maximum(-(-lengths // cap), 1)
    counts = -(-lengths // stride)
    rows = np.repeat(np.arange(lengths.size), counts)
    k = expand_ranges(np.zeros_like(counts), counts)
    return rows, indptr[rows] + k * stride[rows]


def _edge_pairs(tmap: TransitionMap, ends: np.ndarray, pos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (source, target) local indices of the edges at positions pos of
    the run order, in which source i's edges fill indptr[i] .. indptr[i + 1]
    - 1 as targets_local(i) lists them: a bisection of the runs' cumulative
    counts `ends` finds each position's run, and one of run_ptr its source."""
    run = np.searchsorted(ends, pos, side="right")
    cell = tmap.run_start[run] + (pos - (ends[run] - tmap.run_count[run]))
    source = np.searchsorted(tmap.run_ptr, run, side="right") - 1
    return source, tmap.level._lex[1][cell]


def _defect(
    sys: ContinuousSystemSpec, h: float, src_lo: np.ndarray, src_hi: np.ndarray, tgt_lo: np.ndarray, tgt_hi: np.ndarray
) -> float:
    """Largest |(x - z)_k / h + g_k(z)| over the edges given as (E, d)
    source and target corners, the axes k, the 2^d corners x of the target
    and the 3^d grid points z of the source. A corner has x_k = lo_k or
    hi_k, so each axis takes the maximum over these two values: the same
    floats as the (E, 2^d, 3^d, d) broadcast, with no array of that size."""
    zs = grid_points(src_lo, src_hi, 3)  # (E, 3^d, d)
    gz = eval_field(sys, zs)
    defect = 0.0
    for k in range(src_lo.shape[-1]):
        z, g = zs[:, :, k], gz[:, :, k]
        for x in (tgt_lo[:, k], tgt_hi[:, k]):
            defect = max(defect, float(np.max(np.abs((x[:, None] - z) / h + g))))
    return defect


def measure_overapprox_gap(
    tmap: TransitionMap,
    sys: DiscreteSystemSpec | ContinuousSystemSpec,
    samples: int = 100,
) -> GapReport:
    """Sampled maximisation of the gaps that drive upper convergence.

    Discrete maps fill overapprox_gap (distance from the successor union back
    to the exact preimage, its maximum norm folded axis by axis); flows fill
    neighbor_gap (exact, separable formula) and defect_gap (difference
    quotients against the field, per axis at a target corner's two values).
    Sampling grids are deterministic, so repeated measurements agree.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    level = tmap.level
    report = GapReport()
    if level.size == 0 or tmap.edge_count == 0:
        return report
    lo, hi = level.box_los, level.box_his
    d, chunk = level.dim, 4096  # sampled edges per chunk
    run_ends = np.cumsum(tmap.run_count, dtype=np.int64)
    if tmap.meta.kind == "discrete":
        # witnesses: each source's sample centres, corners and centre, mapped
        # back; a sampled successor's corners and centre find their nearest one
        ends = np.concatenate([box_corners(lo, hi), ((lo + hi) / 2.0)[:, None, :]], axis=1)
        w_pts = np.concatenate([subbox_centers(lo, hi, tmap.meta.M), ends], axis=1)
        w_img = eval_inverse(sys, w_pts)
        _, pos = _strided_entries(tmap.indptr, max(1, samples // ((1 << d) + 1)))
        src, tgt = _edge_pairs(tmap, run_ends, pos)
        # one (points, cells) array per axis, so a chunk's distances are
        # (2^d + 1, M^d + 2^d + 1, E) with the sampled edges innermost
        e_cols = [np.ascontiguousarray(ends[:, :, k].T) for k in range(d)]
        w_cols = [np.ascontiguousarray(w_img[:, :, k].T) for k in range(d)]
        gap = 0.0
        for c0 in range(0, pos.size, chunk):
            si, ti = src[c0 : c0 + chunk], tgt[c0 : c0 + chunk]
            dists = reduce(np.maximum, (np.abs(e[:, None, ti] - w[None, :, si]) for e, w in zip(e_cols, w_cols)))
            gap = max(gap, float(np.max(np.min(dists, axis=1))))
        report.overapprox_gap = gap
        return report

    # continuous: exact neighbor gap, grid-sampled defect gap
    h, edges, block = tmap.meta.h, tmap.edge_count, 1 << 16  # edges per block of the neighbor gap
    # neighbor gap dist(D_j, D_i): per-axis separable supremum, exact
    neighbor = -math.inf
    for e0 in range(0, edges, block):
        si, ti = _edge_pairs(tmap, run_ends, np.arange(e0, min(e0 + block, edges)))
        neighbor = max(neighbor, np.max(np.maximum(lo[si] - lo[ti], hi[ti] - hi[si])))
    report.neighbor_gap = float(max(neighbor, 0.0))
    _, pos = _strided_entries(np.array([0, edges]), max(samples * 100, 10_000))
    src, tgt = _edge_pairs(tmap, run_ends, pos)
    defect = 0.0
    for c0 in range(0, pos.size, chunk):
        si, ti = src[c0 : c0 + chunk], tgt[c0 : c0 + chunk]
        defect = max(defect, _defect(sys, h, lo[si], hi[si], lo[ti], hi[ti]))
    report.defect_gap = defect
    return report


def run_diagnostics(
    tmap: TransitionMap,
    sys: DiscreteSystemSpec | ContinuousSystemSpec,
    samples: int = 100,
    seed: int = 0,
) -> GapReport:
    """Gap measurement plus containment check, merged into one report."""
    report = measure_overapprox_gap(tmap, sys, samples)
    report.containment_violations = check_containment_condition(tmap, sys, samples, seed).containment_violations
    return report


def transition_pair_scan(
    level: CoverLevel,
    images_of: np.ndarray,
    radius: float,
) -> dict[int, list[int]]:
    """Brute-force reference: evaluate the edge predicate on every pair.

    O(V^2) and intended for cross-checking the spatial lookup on small
    levels; images_of has shape (V, M^d, d). Each cell is bounded by the
    midpoint recursion (BoxKey.box), not by the level's boundary arrays or
    coordinates that the lookup reads, so the two agree only if those are
    right.
    """
    boxes = [BoxKey.from_flat(f, level.depth, level.dim).box(level.root) for f in level.flats]
    edges: dict[int, list[int]] = {}
    for i in range(level.size):
        out = []
        for j, box_j in enumerate(boxes):
            if any(point_box_distance(p, box_j) <= radius for p in images_of[i]):
                out.append(int(level.flats[j]))
        edges[int(level.flats[i])] = out
    return edges
