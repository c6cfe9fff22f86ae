"""Axis-aligned boxes, dyadic subdivision covers, and metric primitives.

All distances are infinity-norm distances and every box is closed, so a
ball-box intersection test is exact and branch-free: dist(p, b) <= r holds
iff the ball of radius r around p meets b.

Cell bounds at depth n are produced by repeated midpoint splitting, never by
`lo + i * width` arithmetic. The reference is the recursion, BoxKey.box,
which splits one cell at a time; brute-force checks bound cells with it.
Runs read a level's geometry from CoverLevel alone: `coords` is the one
decoder of flat indices into per-axis cell coordinates, and `boundaries`,
each axis's midpoint-inserted faces, give `box_los` and `box_his`, which
are the recursion's bounds bit for bit. Both spatial queries, the windows and
runs of the map build and the point location of the containment check,
get their per-axis cells from one exact window routine and their keys from
one enumeration; they differ only in how they search the level's keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

MAX_FULL_GRID = 1 << 24  # hard cap on materialised full-grid covers
MAX_LEVEL_CELLS = (1 << 31) - 1  # hard cap on one level's cells, so its cell ids are int32


def _as_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"expected a d-vector, got array of shape {v.shape}")
    return v


def _same_dim(box: "Box", v: np.ndarray) -> np.ndarray:
    """v, a point or corner, if it has the box's dimension; numpy would
    broadcast a one-axis v over every axis of the box, or fail on others."""
    if v.size != box.dim:
        raise ValueError(f"a {v.size}-dimensional point or box against a {box.dim}-dimensional box")
    return v


@dataclass(frozen=True, eq=False)
class Box:
    """Nonempty, nondegenerate closed box given by its lower and upper corner."""

    lo: np.ndarray
    hi: np.ndarray

    def __init__(self, lo, hi):
        lo = _as_vector(lo).copy()
        hi = _as_vector(hi).copy()
        if lo.shape != hi.shape:
            raise ValueError("lo and hi must have the same dimension")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise ValueError("box corners must be finite")
        if not np.all(lo < hi):
            raise ValueError("box must satisfy lo < hi on every axis")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.size

    @property
    def diameter(self) -> float:
        """Infinity-norm diameter, i.e. the longest side."""
        return float(np.max(self.hi - self.lo))

    def contains_point(self, p) -> bool:
        p = _same_dim(self, _as_vector(p))
        return bool(np.all(self.lo <= p) and np.all(p <= self.hi))

    def contains_box(self, other: "Box") -> bool:
        _same_dim(self, other.lo)
        return bool(np.all(self.lo <= other.lo) and np.all(other.hi <= self.hi))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Box):
            return NotImplemented
        return np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi)

    def __repr__(self) -> str:
        return f"Box({self.lo.tolist()}, {self.hi.tolist()})"


def point_box_distance(p, b: Box) -> float:
    """Infinity-norm distance from a point to a closed box (0 iff p in b)."""
    p = _same_dim(b, _as_vector(p))
    gap = np.maximum(b.lo - p, p - b.hi)
    return float(max(np.max(gap), 0.0))


def box_corners(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """All 2^d corners of boxes given as (..., d) corner arrays."""
    d = lo.shape[-1]
    bits = ((np.arange(1 << d)[:, None] >> np.arange(d)) & 1).astype(bool)
    return np.where(bits, hi[..., None, :], lo[..., None, :])


def subbox_centers(lo: np.ndarray, hi: np.ndarray, M: int) -> np.ndarray:
    """Centers of the M^d commensurate subboxes of boxes given as (..., d)
    corner arrays, shape (..., M^d, d) with axis 0 varying fastest."""
    d = lo.shape[-1]
    idx = (np.arange(M**d)[:, None] // M ** np.arange(d)) % M
    w = (hi - lo) / M
    return lo[..., None, :] + (idx + 0.5) * w[..., None, :]


def dyadic_boundaries(lo: float, hi: float, depth: int) -> np.ndarray:
    """All 2^depth + 1 cell boundaries of one axis, by midpoint insertion."""
    b = np.array([lo, hi], dtype=np.float64)
    for _ in range(depth):
        nb = np.empty(2 * b.size - 1)
        nb[0::2] = b
        nb[1::2] = (b[:-1] + b[1:]) / 2.0
        b = nb
    return b


@dataclass(frozen=True, order=True, slots=True)
class BoxKey:
    """Canonical name of one dyadic cell: depth plus the child-selector path.

    Prefixes of the path name ancestors; the flat index in {0, ..., 2^{nd}-1}
    is the base-2^d number whose digits are the path entries.
    """

    depth: int
    path: tuple[int, ...]

    def __post_init__(self):
        if self.depth < 0 or len(self.path) != self.depth:
            raise ValueError("path length must equal depth")

    def flat(self, dim: int) -> int:
        f = 0
        for s in self.path:
            if not 0 <= s < (1 << dim):
                raise ValueError(f"selector {s} out of range for dimension {dim}")
            f = (f << dim) | s
        return f

    @classmethod
    def from_flat(cls, flat: int, depth: int, dim: int) -> "BoxKey":
        flat = int(flat)
        if flat < 0 or flat >= (1 << (dim * depth)):
            raise ValueError("flat index out of range")
        mask = (1 << dim) - 1
        path = tuple((flat >> (dim * (depth - 1 - m))) & mask for m in range(depth))
        return cls(depth=depth, path=path)

    def box(self, root: Box) -> Box:
        lo = root.lo.copy()
        hi = root.hi.copy()
        for s in self.path:
            mid = (lo + hi) / 2.0
            for k in range(root.dim):
                if (s >> k) & 1:
                    lo[k] = mid[k]
                else:
                    hi[k] = mid[k]
        return Box(lo, hi)


class CoverLevel:
    """The active dyadic cells of one subdivision depth over a root box.

    Active cells are stored as a sorted array of flat indices; BoxKey views
    are materialised on demand. Instances are immutable after construction.
    It holds at most MAX_LEVEL_CELLS cells, so its cell ids and lexicographic
    positions (`_lex`, `_rank`, `run_cells`, `point_cells`) are int32.
    """

    def __init__(self, root: Box, depth: int, flats):
        flats = _sorted_unique(np.asarray(flats, dtype=np.int64))
        if depth < 0:
            raise ValueError("depth must be nonnegative")
        if depth * root.dim > 62:
            raise ValueError("depth too large for 64-bit flat indices")
        if flats.size > MAX_LEVEL_CELLS:
            raise ValueError(f"a level holds at most {MAX_LEVEL_CELLS} cells, not {flats.size}")
        if flats.size and (flats[0] < 0 or flats[-1] >= (1 << (depth * root.dim))):
            raise ValueError("flat index out of range for depth")
        self.root = root
        self.depth = depth
        self._flats = flats
        self._flats.setflags(write=False)

    @classmethod
    def full(cls, root: Box, depth: int) -> "CoverLevel":
        count = 1 << (depth * root.dim)
        if count > MAX_FULL_GRID:
            raise ValueError(f"full cover at depth {depth} exceeds {MAX_FULL_GRID} cells")
        return cls(root, depth, np.arange(count, dtype=np.int64))

    # -- basic views ---------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.root.dim

    @property
    def size(self) -> int:
        return int(self._flats.size)

    @property
    def flats(self) -> np.ndarray:
        return self._flats

    @property
    def cells_per_axis(self) -> int:
        return 1 << self.depth

    @property
    def rho(self) -> float:
        """Common diameter bound of the level's cells."""
        return self.root.diameter * 2.0**-self.depth

    @cached_property
    def active(self) -> tuple[BoxKey, ...]:
        d = self.dim
        return tuple(BoxKey.from_flat(f, self.depth, d) for f in self._flats)

    @cached_property
    def boundaries(self) -> list[np.ndarray]:
        return [dyadic_boundaries(self.root.lo[k], self.root.hi[k], self.depth) for k in range(self.dim)]

    @cached_property
    def coords(self) -> np.ndarray:
        """Per-axis cell coordinates of the active cells, (size, d) int64:
        bit depth-1-m of axis k is bit k of the path's m-th selector."""
        d, depth = self.dim, self.depth
        coords = np.zeros((self.size, d), dtype=np.int64)
        for m in range(depth):
            digit = (self._flats >> (d * (depth - 1 - m))) & ((1 << d) - 1)
            for k in range(d):
                coords[:, k] |= ((digit >> k) & 1) << (depth - 1 - m)
        return coords

    @cached_property
    def box_los(self) -> np.ndarray:
        return np.stack([self.boundaries[k][self.coords[:, k]] for k in range(self.dim)], axis=1)

    @cached_property
    def box_his(self) -> np.ndarray:
        return np.stack([self.boundaries[k][self.coords[:, k] + 1] for k in range(self.dim)], axis=1)

    @cached_property
    def _lex(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate-lexicographic keys of the active cells (axis 0 slowest),
        sorted, and the local id of the cell behind each key."""
        keys = _lex_keys(list(self.coords.T), self.cells_per_axis)
        order = np.argsort(keys)
        return keys[order], order.astype(np.int32)

    @cached_property
    def _rank(self) -> np.ndarray:
        """The position of each local cell in the sorted lexicographic keys:
        the inverse permutation of _lex[1]."""
        order = self._lex[1]
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size, dtype=order.dtype)
        return rank

    def flats_of(self, cells) -> np.ndarray:
        """Sorted unique flat indices of active cells, given as an integer
        array-like of flat indices (any integer dtype) or as BoxKeys of this
        depth; TypeError for anything else."""
        if not isinstance(cells, np.ndarray):
            cells = list(cells)
            if cells and all(isinstance(k, BoxKey) for k in cells):
                if any(k.depth != self.depth for k in cells):
                    raise ValueError("cells must live on this level's depth")
                cells = [k.flat(self.dim) for k in cells]
        flats = np.asarray(cells)
        if flats.size and flats.dtype.kind not in "iu":
            raise TypeError(f"cells must be integer flat indices or BoxKeys, got dtype {flats.dtype}")
        flats = _sorted_unique(flats.astype(np.int64, copy=False))
        missing = flats[self.locate(flats) < 0]
        if missing.size:
            raise ValueError(f"cell {int(missing[0])} is not active on this level")
        return flats

    def locate(self, flats) -> np.ndarray:
        """Local positions of flat indices, -1 where not active."""
        flats = np.asarray(flats, dtype=np.int64)
        if self.size == 0:
            return np.full(flats.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self._flats, flats)
        pos_c = np.minimum(pos, self.size - 1)
        ok = self._flats[pos_c] == flats
        return np.where(ok, pos_c, -1)

    # -- spatial queries -----------------------------------------------------

    def cell_windows(self, points, r: float) -> tuple[np.ndarray, np.ndarray]:
        """First and last cell index, per point and axis, of the cells within
        r >= 0 (lo > hi where none is), by :func:`_exact_windows`. Exactness
        contract: the product of a point's windows holds a grid cell iff
        point_box_distance(p, cell) <= r with the cell's canonical bounds;
        :meth:`row_runs` and :meth:`run_cells` give the active cells among
        them.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (m, {self.dim}), got {pts.shape}")
        los, his = zip(*(_exact_windows(B, x, r) for B, x in zip(self.boundaries, pts.T)))
        return np.stack(los, axis=1), np.stack(his, axis=1)

    @staticmethod
    def window_rows(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The rows of each window lo[i]..hi[i]: the product of its widths on
        the first d-1 axes, 0 for an empty window."""
        width = hi - lo + 1
        return np.where(across_axes(np.minimum, width) > 0, across_axes(np.multiply, width[:, :-1], initial=1), 0)

    def row_runs(self, lo: np.ndarray, hi: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The active cells of the windows lo[i]..hi[i], whose row counts are
        rows[i] (:meth:`window_rows`), as runs of the sorted lexicographic
        keys, one per row of a window's first d-1 axes, ordered by window and
        row: the window index, the position of the run's first key and the
        run's cell count. :func:`_window_keys` gives each row's first key,
        which plus its window's last-axis width less one is the row's last
        key, and two binary searches in the level's keys, the larger part of
        a row's cost, find its run.
        """
        width = hi - lo + 1
        point, first = _window_keys(list(lo.T), list(width[:, :-1].T), rows, self.cells_per_axis)
        keys = self._lex[0]
        start = np.searchsorted(keys, first, side="left")
        count = np.searchsorted(keys, first + np.repeat(width[:, -1] - 1, rows), side="right") - start
        return point, start, count

    def run_cells(self, start: np.ndarray, count: np.ndarray) -> np.ndarray:
        """The local indices of the cells of the runs of :meth:`row_runs`
        given by their start and count, run after run, each run in coordinate
        order."""
        return self._lex[1][expand_ranges(start, count, np.int32)]

    def point_cells(self, points, r: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Point location: per point, the number of grid cells c with
        point_box_distance(p, c) <= r (r >= 0), and the active cells among
        them as (point index, local id) pairs, ordered by point and then by
        coordinates. The windows are :func:`_exact_windows`, as for
        :meth:`cell_windows` but axis by axis with no (m, d) arrays, and one
        search of the level's keys per candidate cell (:func:`_window_keys`)
        finds the active ones: grid arithmetic per axis and one key search
        for a point farther than r from every face.
        """
        pts = np.asarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (m, {self.dim}), got {pts.shape}")
        los, his = zip(*(_exact_windows(B, x, r) for B, x in zip(self.boundaries, pts.T)))
        widths = [hi - lo + 1 for lo, hi in zip(los, his)]
        candidates = reduce(np.multiply, widths)
        point, key = _window_keys(los, widths, candidates, self.cells_per_axis)
        keys, order = self._lex
        pos = np.searchsorted(keys, key)
        hit = pos < keys.size
        hit[hit] = keys[pos[hit]] == key[hit]
        return candidates, point[hit], order[pos[hit]]

    def contains_points(self, points) -> np.ndarray:
        """Membership of points in the union of active (closed) cells: the
        points with an active cell at distance 0 in :meth:`point_cells`."""
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        out = np.zeros(pts.shape[0], dtype=bool)
        out[self.point_cells(pts, 0.0)[1]] = True
        return out


def _sorted_unique(flats: np.ndarray) -> np.ndarray:
    """np.unique(flats) as a new array; strictly increasing input, the usual
    case, is only copied, since numpy 2 hashes even sorted input."""
    flats = flats.ravel()
    if np.all(flats[1:] > flats[:-1]):
        return flats.copy()
    return np.unique(flats)


def across_axes(ufunc: np.ufunc, a: np.ndarray, initial=None):
    """ufunc folded over the columns of a (..., d) array, the values of
    ufunc.reduce(a, axis=-1): ufunc(...ufunc(a[..., 0], a[..., 1])...,
    a[..., d-1]), starting from `initial` when it is given, which is then
    the result for d = 0. With one column and no `initial`, the result is
    a view of that column.

    The column rule of the per-point kernels: an (m, d) array reduced along
    its last axis, or broadcast with d as its innermost axis, runs as m
    inner loops of length d, while d whole-column calls run d loops of
    length m. On a shared 2-core x86-64 container, np.max(a, axis=1) on
    16,350 x 2 points took about 1.1 ms and this fold about 17 us.
    """
    columns = (a[..., k] for k in range(a.shape[-1]))
    return reduce(ufunc, columns) if initial is None else reduce(ufunc, columns, initial)


def expand_ranges(start: np.ndarray, count: np.ndarray, dtype=np.int64) -> np.ndarray:
    """The concatenation of arange(s, s + c) over the pairs (s, c), as
    `dtype`, which must hold every value of the ranges."""
    nz = count > 0
    start, count = start[nz], count[nz]
    out = np.ones(int(count.sum()), dtype=dtype)
    if out.size:
        ends = np.cumsum(count[:-1])
        out[0] = start[0]
        out[ends] = start[1:] - start[:-1] - count[:-1] + 1
        np.cumsum(out, out=out, dtype=dtype)
    return out


def _lex_keys(columns, n: int) -> np.ndarray:
    """Lexicographic keys of per-axis cell columns, n cells per axis and
    axis 0 slowest: key * n + c folded over the axes."""
    return reduce(lambda key, c: key * n + c, columns)


def _walk(c: np.ndarray, fits, next_fits, out: int, edge: int, last) -> np.ndarray:
    """Move each start cell c[i], in place, to the last cell in direction
    `out` of the cells that pass fits(c, i), a test monotone in c (it
    passes on one side of some face and fails on the other): a passing
    cell steps out while the next cell out passes (next_fits(c, i) tests
    c + out) and stops at `edge`; a failing cell steps back until a cell
    passes or it steps past `last` (a scalar or one per point), the last
    cell it may test. Both walks run on shrinking index sets, so only the
    points whose start is off by a cell loop at all."""
    every = slice(None)
    ok = fits(c, every)
    i = np.flatnonzero(next_fits(c, every) & (c != edge))  # a cell whose next cell out passes passes too
    while i.size:
        c[i] += out
        i = i[c[i] != edge]
        i = i[next_fits(c[i], i)]
    last = np.broadcast_to(last, c.shape)
    i = np.flatnonzero(~ok)
    i = i[c[i] != last[i] - out]
    while i.size:
        c[i] -= out
        i = i[c[i] != last[i] - out]
        i = i[~fits(c[i], i)]
    return c


def _exact_windows(B: np.ndarray, x: np.ndarray, r: float) -> tuple[np.ndarray, np.ndarray]:
    """The first and last cell c of one axis with max(B[c] - x, x - B[c+1])
    <= r (r >= 0) on the n + 1 increasing boundaries B, or (s + 1, s) where
    none passes, for the cell s that holds x (the upper one on a face,
    clipped to the grid, n - 1 for NaN).

    The window is where two face tests meet: lo is the first cell with
    x - B[c+1] <= r and hi the last with B[c] - x <= r. Each test is
    monotone in c, also in float64 (rounding is monotone, and an overflow
    rounds to inf), so :func:`_walk` finds each end exactly, with no
    rounding margin, from the uniform grid's floor((x - (B[0] +- r)) * n /
    (B[n] - B[0])), clipped to the grid before the cast. The midpoint
    boundaries are the uniform ones up to rounding, so only ends within a
    few rounding steps of a face step at all; but no bound on the
    estimate's error is assumed, so a span that overflows or underflows
    only costs steps. hi steps back no further than lo - 1, where a point
    right of the grid or NaN (which passes no test, so lo = n) ends it: a
    NaN point costs one step, not n. A point left of the grid ends at
    (0, -1), moved to (1, 0).
    """
    n = B.size - 1
    upper = B[1:]
    with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN estimates are clipped; tests round to inf
        s = n / (B[n] - B[0])

        def start(origin):
            v = x - origin
            v *= s
            return np.fmax(np.fmin(v, n - 1, out=v), 0, out=v).astype(np.intp)  # fmin takes NaN to n - 1

        lo = _walk(start(B[0] + r), lambda c, i: x[i] - upper[c] <= r, lambda c, i: x[i] - B[c] <= r, -1, 0, n - 1)
        hi = _walk(start(B[0] - r), lambda c, i: B[c] - x[i] <= r, lambda c, i: upper[c] - x[i] <= r, 1, n - 1, lo)
    left = np.flatnonzero(hi < 0)
    lo[left], hi[left] = 1, 0
    return lo, hi


def _window_keys(firsts: list, widths: list, counts: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The cells of per-point product windows as (point, key) pairs, point
    after point and in key order within a point. Point i's window starts at
    cell firsts[k][i] of every axis k and spans widths[k][i] cells on each
    of the leading len(widths) axes, one cell on the others; counts[i] is
    the product of its widths (0 for an empty window). Every entry is its
    point's first key plus its rank within the point, decoded in mixed
    radix by the widths, in a few whole-array passes over all entries."""
    point = np.repeat(np.arange(counts.size), counts)
    key = np.repeat(_lex_keys(firsts, n), counts)
    rank = np.arange(point.size)
    rank -= np.repeat(np.cumsum(counts) - counts, counts)
    stride = n ** (len(firsts) - len(widths))
    for w in reversed(widths[1:]):  # the last enumerated axis varies fastest, as in the keys
        w = w[point]
        np.divmod(rank, w, out=(rank, w))  # the quotient stays to decode, the digit goes to the key
        w *= stride
        key += w
        stride *= n
    rank *= stride  # what is left of the rank is axis 0's offset
    key += rank
    return point, key


def refine_cover(level: CoverLevel, retained) -> CoverLevel:
    """Replace each retained cell by its 2^d children, one depth down."""
    flats = level.flats_of(retained)
    d = level.dim
    children = ((flats[:, None] << d) | np.arange(1 << d, dtype=np.int64)[None, :]).ravel()
    return CoverLevel(level.root, level.depth + 1, children)


def grid_points(lo: np.ndarray, hi: np.ndarray, per_axis: int) -> np.ndarray:
    """Uniform grids of per_axis >= 2 points per axis over boxes given as
    (..., d) corner arrays, endpoints included: shape (..., per_axis^d, d),
    the last axis varying fastest."""
    d = lo.shape[-1]
    axes = np.linspace(lo, hi, per_axis, axis=-1)  # (..., d, per_axis)
    idx = (np.arange(per_axis**d)[:, None] // per_axis ** np.arange(d - 1, -1, -1)) % per_axis
    return axes[..., np.arange(d), idx]


def region_semidistance(los: np.ndarray, his: np.ndarray, region_lo, region_hi) -> float:
    """Exact sup-distance from a union of boxes to an axis-aligned region.

    The region may be degenerate (region_lo == region_hi on some axis), which
    covers point and segment targets. Exact because the per-axis gap of a
    product set separates: the supremum is attained at per-axis extremes.
    """
    if los.size == 0:
        return 0.0
    rlo = _as_vector(region_lo)
    rhi = _as_vector(region_hi)
    gap = np.maximum(rlo[None, :] - los, his - rhi[None, :])
    return float(max(np.max(gap), 0.0))
