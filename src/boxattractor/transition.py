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

All image points of a chunk of sources go through one batch neighbour
lookup: CoverLevel.cell_windows gives each point's exact cell window per
axis and CoverLevel.row_runs the active cells in it, as runs of the
level's sorted lexicographic keys. The lookup pass keeps each run's start
and count, and the fill pass writes the runs' cells into one keys array of
one entry per edge, packed in place into target * size + source and
sorted once (repeats dropped when M > 1): the predecessor rows, which the
prune reads. The sources are decoded into the keys' own memory, narrowed
in place when the keys are int64, so the build peaks at about 4 bytes per
edge with int32 keys and 8 with int64 keys, plus 8 bytes per run (see
_build_map). Edge queries bisect these rows: the self-loop share and the
containment check, which finds each image's cells by point location
(CoverLevel.point_cells: the same exact windows, with one key search per
candidate cell instead of runs). The successor rows, sorted by flat index
so that the JSON serialisation is canonical, are one transpose away and
are built only for the gap measurement and the serialisation. The
diagnostics' per-point arrays are (m, d) with d small, so they are
computed one axis at a time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce

import numpy as np

from .geometry import (
    Box,
    CoverLevel,
    box_corners,
    expand_ranges,
    grid_points,
    index_dtype,
    point_box_distance,
    subbox_centers,
)
from .integrator import EulerParams, enclosure_radius, euler_backward, reference_backward_flow
from .systems import (
    ContinuousSystemSpec,
    DiscreteSystemSpec,
    eval_field,
    eval_inverse,
)


@dataclass(frozen=True)
class TransitionMeta:
    """How a map was built; carried so diagnostics can replay the predicate."""

    kind: str  # "discrete" | "continuous"
    M: int
    radius: float
    subdiameter: float
    h: float = 0.0
    substeps: int = 1


class TransitionMap:
    """Multivalued index map on a cover level, stored as predecessor rows.

    Row t of `pred_indptr` (int64) and `sources` lists the sources with t
    among their successors, sorted; `out_degree` (int64) counts each
    source's successors. Indices are local into level.flats, int32 while
    the level has fewer than 2^31 cells. `has_edges` answers edge queries
    on these rows. The successor view, `indptr` and `targets` with every
    row sorted by flat index, is built by one transpose on first use;
    `targets_local`, `to_json_dict` and `dumps` read it, so iteration order
    and the JSON serialisation are canonical.
    """

    def __init__(
        self, level: CoverLevel, pred_indptr: np.ndarray, sources: np.ndarray, out_degree: np.ndarray, meta: TransitionMeta
    ):
        if pred_indptr.shape != (level.size + 1,) or out_degree.shape != (level.size,):
            raise ValueError("pred_indptr needs one entry per cell plus one, out_degree one per cell")
        if pred_indptr[-1] != sources.size:
            raise ValueError("pred_indptr must end at the number of sources")
        self.level = level
        self.pred_indptr, self.sources, self.out_degree = pred_indptr, sources, out_degree
        self.meta = meta

    @cached_property
    def _successors(self) -> tuple[np.ndarray, np.ndarray]:
        return _transpose(self.pred_indptr, self.sources, self.size)

    @property
    def indptr(self) -> np.ndarray:
        return self._successors[0]

    @property
    def targets(self) -> np.ndarray:
        return self._successors[1]  # local indices into level.flats

    @property
    def size(self) -> int:
        return self.level.size

    @property
    def edge_count(self) -> int:
        return int(self.sources.size)

    def has_edges(self, src: np.ndarray, tgt: np.ndarray) -> np.ndarray:
        """Whether src[k] -> tgt[k] is an edge, per k: one vectorised
        bisection of each sorted predecessor row tgt[k] for src[k]."""
        lo, hi = self.pred_indptr[tgt], self.pred_indptr[1:][tgt]
        open_ = np.flatnonzero(lo < hi)
        while open_.size:
            mid = (lo[open_] + hi[open_]) // 2
            below = self.sources[mid] < src[open_]
            lo[open_[below]] = mid[below] + 1
            hi[open_[~below]] = mid[~below]
            open_ = open_[lo[open_] < hi[open_]]
        found = lo < self.pred_indptr[1:][tgt]  # the row ends, gathered again rather than held through the loop
        found[found] = self.sources[lo[found]] == src[found]
        return found

    def targets_local(self, i: int) -> np.ndarray:
        return self.targets[self.indptr[i] : self.indptr[i + 1]]

    def to_json_dict(self) -> dict:
        edges = {}
        for i in range(self.size):
            src = int(self.level.flats[i])
            edges[str(src)] = [int(f) for f in self.level.flats[self.targets_local(i)]]
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


_CHUNK_POINTS = 1 << 10  # image points per batch neighbour lookup
_BLOCK_EDGES = 1 << 16  # keys per block of the fill and the in-place key passes, whose temporaries stay small
_INT32_KEYS = np.iinfo(np.int32).max  # the largest packed key kept in int32


def _key_dtype(n: int) -> type:
    """int32 while the packed keys of n nodes, below n * n, fit in it."""
    return np.int32 if n * n <= _INT32_KEYS else np.int64


def _pack_rows(keys: np.ndarray, indptr: np.ndarray, n: int) -> None:
    """Turn the values of the CSR rows of n nodes into the keys
    value * n + row, in place; the rows are added one block of rows at a
    time, so the temporaries stay small."""
    keys *= n
    lengths = np.diff(indptr)
    step = max(1, _BLOCK_EDGES * n // max(keys.size, 1))
    for r0 in range(0, n, step):
        r1 = min(r0 + step, n)
        keys[indptr[r0] : indptr[r1]] += np.repeat(np.arange(r0, r1, dtype=keys.dtype), lengths[r0:r1])


def _drop_repeats(keys: np.ndarray) -> int:
    """Move the distinct values of sorted keys to the front in place, one
    block at a time, so no second key array is made; returns their count."""
    w = min(keys.size, 1)
    for b0 in range(1, keys.size, _BLOCK_EDGES):
        block = keys[b0 : b0 + _BLOCK_EDGES]
        fresh = block[np.diff(block, prepend=keys[w - 1]) != 0]  # keys[w - 1] is the last kept value
        keys[w : w + fresh.size] = fresh
        w += fresh.size
    return w


def _key_owner(m: int, n: int) -> np.ndarray:
    """The memory of m packed keys of n nodes: an empty array of n's index
    dtype, viewed as the keys by owner.view(_key_dtype(n)). int64 keys of
    nodes with int32 indices get an int32 owner of twice the length, so that
    _rows_of_keys can narrow the decoded values into its front in place."""
    key, index = np.dtype(_key_dtype(n)), np.dtype(index_dtype(n))
    return np.empty(m * key.itemsize // index.itemsize, index)


def _rows_of_keys(owner: np.ndarray, m: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR rows of the first m sorted keys row * n + value in `owner`, from
    _key_owner: the searchsorted positions of the keys r * n bound the rows,
    and the values are decoded in place one block at a time, each block's
    written into the owner's front (numpy buffers the overlap of the first
    block of int64 keys; later blocks land on keys already decoded). The
    owner, shrunk in place to its m values, becomes the values, so a key
    array is never copied; the caller must hold no view of it."""
    keys = owner.view(_key_dtype(n))[:m]
    indptr = np.searchsorted(keys, (np.arange(n + 1) * n).astype(keys.dtype))
    for b0 in range(0, m, _BLOCK_EDGES):
        block = keys[b0 : b0 + _BLOCK_EDGES]
        block -= block // n * n  # key % n: numpy divides by a scalar several times faster
        owner[b0 : b0 + block.size] = block  # a no-op when the keys are the owner
    keys = block = None  # the resize may move the data, so no view of it may be left
    owner.resize(m, refcheck=False)
    return indptr, owner


def _transpose(indptr: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """CSR rows of the reversed relation on n nodes, each row sorted: one
    sort of the packed keys value * n + row (int32 while n * n fits in
    int32, int64 otherwise)."""
    owner = _key_owner(values.size, n)
    keys = owner.view(_key_dtype(n))
    keys[:] = values
    _pack_rows(keys, indptr, n)
    keys.sort()
    del keys
    return _rows_of_keys(owner, values.size, n)


def _lookup_runs(level: CoverLevel, images: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lookup pass over the sources' (V, M^d, d) image points, one batch
    lookup per chunk of sources: the entries of each source (int64, repeats
    included), and the start in the level's lexicographic keys and the cell
    count of every non-empty run, source after source, in the level's index
    dtype (8 bytes per run while it is int32)."""
    n, per = images.shape[:2]
    pts = images.reshape(-1, level.dim)
    step = max(1, _CHUNK_POINTS // per)
    dtype = index_dtype(level.size)
    counts = np.zeros(n, dtype=np.int64)
    starts, lengths = [np.empty(0, dtype)], [np.empty(0, dtype)]
    for s0 in range(0, n, step):
        s1 = min(s0 + step, n)
        point, start, count = level.row_runs(*level.cell_windows(pts[s0 * per : s1 * per], radius))
        counts[s0:s1] = np.bincount(point // per, weights=count, minlength=s1 - s0)
        kept = count > 0
        starts.append(start[kept].astype(dtype))
        lengths.append(count[kept].astype(dtype))
    return counts, np.concatenate(starts), np.concatenate(lengths)


def _build_map(
    level: CoverLevel, counts: np.ndarray, start: np.ndarray, count: np.ndarray, meta: TransitionMeta
) -> TransitionMap:
    """Predecessor rows of every cell from the lookup pass's runs, with one
    sort per level. One keys array of exactly one entry per run cell, int32
    while size * size fits in it and int64 otherwise, is filled with the
    runs' local cell ids one block of runs (about _BLOCK_EDGES keys on
    average) at a time, then packed in place into keys target * size +
    source. One sort of all keys then lists every target's predecessors as
    one sorted run, and _rows_of_keys decodes the sources into the keys'
    memory (from _key_owner, so int64 keys are narrowed to int32 in place)
    and shrinks it to the sources. So the build peaks at about 4 bytes per
    edge with int32 keys and 8 with int64 keys, plus 8 bytes per run. The
    run counts give the out-degrees for M = 1; for M > 1 repeated keys are
    dropped in place after the sort and the out-degrees counted from the
    sources."""
    size = level.size
    owner = _key_owner(int(counts.sum()), size)
    keys = owner.view(_key_dtype(size))
    step = max(1, _BLOCK_EDGES * count.size // max(keys.size, 1))  # runs per block
    at = 0
    for r0 in range(0, count.size, step):
        cells = level.run_cells(start[r0 : r0 + step], count[r0 : r0 + step])
        keys[at : at + cells.size] = cells
        at += cells.size
    _pack_rows(keys, np.concatenate([[0], np.cumsum(counts)]), size)
    keys.sort()
    m = keys.size if meta.M == 1 else _drop_repeats(keys)
    del keys  # _rows_of_keys shrinks the owner in place
    pred_indptr, sources = _rows_of_keys(owner, m, size)
    out_degree = counts if meta.M == 1 else np.bincount(sources, minlength=size)
    return TransitionMap(level, pred_indptr, sources, out_degree, meta)


def check_margin(sys: ContinuousSystemSpec, root: Box, h: float) -> None:
    """Raise ValueError unless the drift bound P*h fits between the study box
    and the validity region, so every Euler image stays where g is valid."""
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
    recorded in the map's meta. Maps ignore `params`.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    subdiameter = level.rho / M
    spread = subdiameter / 2.0
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
    counts, start, count = _lookup_runs(level, images, radius)
    del images  # the fill reads only the runs
    return _build_map(level, counts, start, count, TransitionMeta(kind, M, radius, subdiameter, h=h, substeps=steps))


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
    if tmap.meta.kind == "discrete":
        # witnesses: each source's sample centres, corners and centre, mapped
        # back; a sampled successor's corners and centre find their nearest one
        ends = np.concatenate([box_corners(lo, hi), ((lo + hi) / 2.0)[:, None, :]], axis=1)
        w_pts = np.concatenate([subbox_centers(lo, hi, tmap.meta.M), ends], axis=1)
        w_img = eval_inverse(sys, w_pts)
        rows, pos = _strided_entries(tmap.indptr, max(1, samples // ((1 << d) + 1)))
        # one (points, cells) array per axis, so a chunk's distances are
        # (2^d + 1, M^d + 2^d + 1, E) with the sampled edges innermost
        e_cols = [np.ascontiguousarray(ends[:, :, k].T) for k in range(d)]
        w_cols = [np.ascontiguousarray(w_img[:, :, k].T) for k in range(d)]
        gap = 0.0
        for c0 in range(0, pos.size, chunk):
            si, ti = rows[c0 : c0 + chunk], tmap.targets[pos[c0 : c0 + chunk]]
            dists = reduce(np.maximum, (np.abs(e[:, None, ti] - w[None, :, si]) for e, w in zip(e_cols, w_cols)))
            gap = max(gap, float(np.max(np.min(dists, axis=1))))
        report.overapprox_gap = gap
        return report

    # continuous: exact neighbor gap, grid-sampled defect gap
    h = tmap.meta.h
    src_of_edge = np.repeat(np.arange(level.size), np.diff(tmap.indptr))
    tgt_of_edge = tmap.targets
    # neighbor gap dist(D_j, D_i): per-axis separable supremum, exact
    neighbor = np.maximum(lo[src_of_edge] - lo[tgt_of_edge], hi[tgt_of_edge] - hi[src_of_edge])
    report.neighbor_gap = float(max(np.max(neighbor), 0.0))
    _, edges = _strided_entries(np.array([0, tgt_of_edge.size]), max(samples * 100, 10_000))
    defect = 0.0
    for c0 in range(0, edges.size, chunk):
        e = edges[c0 : c0 + chunk]
        si, ti = src_of_edge[e], tgt_of_edge[e]
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
    levels; images_of has shape (V, M^d, d).
    """
    boxes = [level.box_of_flat(int(f)) for f in level.flats]
    edges: dict[int, list[int]] = {}
    for i in range(level.size):
        out = []
        for j, box_j in enumerate(boxes):
            if any(point_box_distance(p, box_j) <= radius for p in images_of[i]):
                out.append(int(level.flats[j]))
        edges[int(level.flats[i])] = out
    return edges
