"""Overapproximating multivalued transition maps on a cover level.

For every active cell, sample centers are pushed through the backward
dynamics (the inverse map, or an Euler approximation of the backward flow)
and every cell met by the inflated image ball becomes a successor:

    discrete:    j in phi(i)  iff  min_l dist(f^{-1}(z_l), D_j) <= L * subdiameter
    continuous:  j in phi(i)  iff  min_l dist(phi_E(-h, z_l), D_j) <= r

with r the enclosure radius. Cells sharing only a face count as
intersecting (closed cells), which can only enlarge phi and therefore
preserves every containment guarantee.

Edge construction is independent per source cell and runs in source order
on one thread, so the output is canonical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .geometry import (
    Box,
    BoxKey,
    CoverLevel,
    box_corners,
    coords_to_flats,
    grid_points,
    point_box_distance,
    subbox_centers,
)
from .integrator import EulerParams, enclosure_radius, euler_backward, reference_backward_flow
from .systems import (
    ContinuousSystemSpec,
    DiscreteSystemSpec,
    eval_field_batch,
    eval_inverse_batch,
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
    """Multivalued index map on a cover level, stored in CSR form.

    Successor sets are sorted by flat index, so iteration order and the JSON
    serialisation are canonical.
    """

    def __init__(self, level: CoverLevel, indptr: np.ndarray, targets: np.ndarray, meta: TransitionMeta):
        if indptr.size != level.size + 1:
            raise ValueError("indptr must have one entry per source plus one")
        self.level = level
        self.indptr = indptr
        self.targets = targets  # local indices into level.flats
        self.meta = meta

    @property
    def size(self) -> int:
        return self.level.size

    @property
    def edge_count(self) -> int:
        return int(self.targets.size)

    def targets_local(self, i: int) -> np.ndarray:
        return self.targets[self.indptr[i] : self.indptr[i + 1]]

    def targets_of(self, key: BoxKey) -> tuple[BoxKey, ...]:
        if key.depth != self.level.depth:
            raise KeyError(key)
        loc = self.level.locate(np.array([key.flat(self.level.dim)]))[0]
        if loc < 0:
            raise KeyError(key)
        flats = self.level.flats[self.targets_local(int(loc))]
        return tuple(self.level.key_of_flat(f) for f in flats)

    def items(self) -> Iterator[tuple[BoxKey, tuple[BoxKey, ...]]]:
        for i, key in enumerate(self.level.active):
            flats = self.level.flats[self.targets_local(i)]
            yield key, tuple(self.level.key_of_flat(f) for f in flats)

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
    """Measured slack of the overapproximation, plus containment witnesses."""

    containment_violations: list[tuple[BoxKey, np.ndarray]] = field(default_factory=list)
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


def _targets_for_images(level: CoverLevel, images: np.ndarray, radius: float) -> np.ndarray:
    """Sorted local target indices for one source cell's image points."""
    dense = level._dense
    if dense is None:
        parts = [level.active_near_point(p, radius) for p in images]
        return parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))
    mask_grid, local_grid = dense
    d = level.dim
    parts = []
    for p in images:
        slices = []
        within = []
        empty = False
        for k in range(d):
            c0, c1 = level._axis_window(k, p[k] - radius, p[k] + radius)
            if c0 > c1:
                empty = True
                break
            B = level.boundaries[k]
            idx = np.arange(c0, c1 + 1)
            gap = np.maximum(np.maximum(B[idx] - p[k], p[k] - B[idx + 1]), 0.0)
            slices.append(slice(c0, c1 + 1))
            within.append(gap <= radius)
        if empty:
            continue
        sub = mask_grid[tuple(slices)].copy()
        for k in range(d):
            shape = [1] * d
            shape[k] = within[k].size
            sub &= within[k].reshape(shape)
        if not sub.any():
            continue
        parts.append(local_grid[tuple(slices)][sub])
    if not parts:
        return np.empty(0, dtype=np.int64)
    if len(parts) == 1:
        return np.sort(parts[0])
    return np.unique(np.concatenate(parts))


def _build_map(level: CoverLevel, images: np.ndarray, radius: float, meta: TransitionMeta) -> TransitionMap:
    per_source = [_targets_for_images(level, pts, radius) for pts in images]
    lengths = np.array([t.size for t in per_source], dtype=np.int64)
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    targets = np.concatenate(per_source) if per_source else np.empty(0, dtype=np.int64)
    return TransitionMap(level, indptr.astype(np.int64), targets.astype(np.int64), meta)


def build_transition_discrete(
    level: CoverLevel, sys: DiscreteSystemSpec, M: int = 1, threads: int = 1
) -> TransitionMap:
    """Overapproximating map for a discrete system on the given level.

    `threads` is accepted for compatibility and ignored; maps are built on
    one thread.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if level.size and not sys.validity_region.contains_box(level.root):
        raise ValueError("cover must lie inside the system's validity region")
    subdiameter = level.rho / M
    radius = sys.lipschitz_L * subdiameter
    meta = TransitionMeta(kind="discrete", M=M, radius=radius, subdiameter=subdiameter)
    centers = subbox_centers(level.box_los, level.box_his, M)
    images = eval_inverse_batch(sys, centers.reshape(-1, level.dim)).reshape(centers.shape)
    return _build_map(level, images, radius, meta)


def validity_margin(sys: ContinuousSystemSpec, root: Box) -> float:
    """Smallest slack between the study box and the validity region."""
    V = sys.validity_region
    return float(min(np.min(root.lo - V.lo), np.min(V.hi - root.hi)))


def build_transition_continuous(
    level: CoverLevel, sys: ContinuousSystemSpec, M: int = 1, params: EulerParams | None = None, threads: int = 1
) -> TransitionMap:
    """Overapproximating map for an ODE flow via inflated Euler images.

    `threads` is accepted for compatibility and ignored.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    if params is None:
        raise ValueError("continuous transition maps need EulerParams")
    margin = validity_margin(sys, level.root)
    if sys.bound_P * params.h > margin:
        raise ValueError(
            f"margin check failed: P*h = {sys.bound_P * params.h:.6g} exceeds the "
            f"distance {margin:.6g} between the study box and the validity region"
        )
    subdiameter = level.rho / M
    radius = enclosure_radius(sys.lipschitz_L, sys.bound_P, params.h, params.substeps, subdiameter)
    meta = TransitionMeta(
        kind="continuous", M=M, radius=radius, subdiameter=subdiameter,
        h=params.h, substeps=params.substeps,
    )
    centers = subbox_centers(level.box_los, level.box_his, M)
    if level.size:
        images = euler_backward(sys, centers.reshape(-1, level.dim), params).reshape(centers.shape)
    else:
        images = centers
    return _build_map(level, images, radius, meta)


# -- diagnostics ----------------------------------------------------------------


def _box_rng(seed: int, depth: int, flat: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(depth, flat)))


def check_containment_condition(
    tmap: TransitionMap,
    sys: DiscreteSystemSpec | ContinuousSystemSpec,
    samples: int = 100,
    seed: int = 0,
    tol: float = 1e-10,
) -> GapReport:
    """Sampled check of the containment condition behind the lower enclosure.

    Draws seeded uniform points in every cell, maps them backward (exactly
    for discrete systems, with the reference integrator for flows) and
    asserts that images landing in the covered region lie in the cell's
    successor union. For flows the membership test uses a tolerance ball, so
    the verdict is diagnostic-strength, not proof-strength.
    """
    level = tmap.level
    report = GapReport()
    if level.size == 0 or samples <= 0:
        return report
    continuous = tmap.meta.kind == "continuous"
    slack = 10.0 * tol if continuous else 0.0
    lo, hi = level.box_los, level.box_his
    for i in range(level.size):
        flat = int(level.flats[i])
        rng = _box_rng(seed, level.depth, flat)
        pts = lo[i] + rng.random((samples, level.dim)) * (hi[i] - lo[i])
        if continuous:
            images = reference_backward_flow(sys, pts, tmap.meta.h, tol)
        else:
            images = eval_inverse_batch(sys, pts)
        phi = tmap.targets_local(i)
        # fast path: the cell containing each image
        coords = np.empty((samples, level.dim), dtype=np.int64)
        inside = np.ones(samples, dtype=bool)
        on_edge = np.zeros(samples, dtype=bool)
        for k in range(level.dim):
            B = level.boundaries[k]
            x = images[:, k]
            inside &= (x >= B[0]) & (x <= B[-1])
            c = np.clip(np.searchsorted(B, x, side="right") - 1, 0, level.cells_per_axis - 1)
            coords[:, k] = c
            on_edge |= x == B[c]
        flats = coords_to_flats(coords, level.depth, level.dim)
        loc = level.locate(flats)
        if phi.size:
            pos_c = np.minimum(np.searchsorted(phi, loc), phi.size - 1)
            in_phi = (loc >= 0) & (phi[pos_c] == loc)
        else:
            in_phi = np.zeros(samples, dtype=bool)
        # images whose own cell is inactive sit outside the covered region,
        # except possibly on a shared face; only those need the careful path
        maybe_in_region = (loc >= 0) | on_edge if not continuous else loc >= 0
        suspicious = np.nonzero(inside & ~in_phi & maybe_in_region)[0]
        for s in suspicious:
            p = images[s]
            cand = level.cells_near_point(p, slack)
            loc_c = level.locate(cand)
            if continuous:
                in_region = cand.size > 0 and np.all(loc_c >= 0)
            else:
                in_region = bool(np.any(loc_c >= 0))
            if not in_region:
                continue
            hits = loc_c[loc_c >= 0]
            if not np.any(np.isin(hits, phi)):
                report.containment_violations.append((level.key_of_flat(flat), pts[s].copy()))
    return report


def _stride_subsample(n: int, cap: int) -> np.ndarray:
    if n <= cap:
        return np.arange(n)
    stride = int(np.ceil(n / cap))
    return np.arange(0, n, stride)


def measure_overapprox_gap(
    tmap: TransitionMap,
    sys: DiscreteSystemSpec | ContinuousSystemSpec,
    samples: int = 100,
) -> GapReport:
    """Sampled maximisation of the gaps that drive upper convergence.

    Discrete maps fill overapprox_gap (distance from the successor union back
    to the exact preimage); flows fill neighbor_gap (exact, separable
    formula) and defect_gap (difference quotients against the field).
    Sampling grids are deterministic, so repeated measurements agree.
    """
    level = tmap.level
    report = GapReport()
    if level.size == 0 or tmap.edge_count == 0:
        return report
    lo, hi = level.box_los, level.box_his
    if tmap.meta.kind == "discrete":
        d = level.dim
        cap_t = max(1, samples // ((1 << d) + 1))
        gap = 0.0
        for i in range(level.size):
            phi = tmap.targets_local(i)
            if phi.size == 0:
                continue
            sel = phi[_stride_subsample(phi.size, cap_t)]
            a_corners = box_corners(lo[sel], hi[sel]).reshape(-1, d)
            a_centers = (lo[sel] + hi[sel]) / 2.0
            a_pts = np.concatenate([a_corners, a_centers], axis=0)
            w_pts = np.concatenate(
                [
                    subbox_centers(lo[i], hi[i], tmap.meta.M),
                    box_corners(lo[i], hi[i]).reshape(-1, d),
                    ((lo[i] + hi[i]) / 2.0)[None, :],
                ],
                axis=0,
            )
            w_img = eval_inverse_batch(sys, w_pts)
            dists = np.max(np.abs(a_pts[:, None, :] - w_img[None, :, :]), axis=2)
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
    edges = _stride_subsample(tgt_of_edge.size, max(samples * 100, 10_000))
    d = level.dim
    defect = 0.0
    chunk = 4096
    for c0 in range(0, edges.size, chunk):
        e = edges[c0 : c0 + chunk]
        si, ti = src_of_edge[e], tgt_of_edge[e]
        x = box_corners(lo[ti], hi[ti])  # (E, 2^d, d), exact extremes in x
        zs = np.stack([grid_points(lo[i], hi[i], 3) for i in si])  # (E, 3^d, d)
        gz = eval_field_batch(sys, zs.reshape(-1, d)).reshape(zs.shape)
        val = np.abs((x[:, :, None, :] - zs[:, None, :, :]) / h + gz[:, None, :, :])
        defect = max(defect, float(np.max(val)))
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
