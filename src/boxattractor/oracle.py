"""Independent brute-force ground truth.

Reference attractor point clouds come straight from the defining property of
the relative attractor (the whole backward orbit stays in Q, truncated to a
finite horizon), the reach-a-cycle oracle re-derives pruning results from
naive sink elimination, and the sandwich verdict ties both to the run
output. Everything here is oracle-grade: deliberately simple, independent of
the code paths it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .geometry import Box, CoverLevel
from .integrator import rk4_backward
from .systems import ContinuousSystemSpec, DiscreteSystemSpec

DEFAULT_DISCRETE_HORIZON = 40
DEFAULT_CONTINUOUS_HORIZON = 10.0
_MARCH_DT = 0.05  # fixed so longer horizons extend shorter ones


@dataclass(frozen=True)
class ReferenceAttractor:
    """Grid points whose sampled backward orbit never leaves Q."""

    points: np.ndarray  # (P, d)
    resolution: float
    horizon: float


def _grid_over(Q: Box, resolution: float) -> np.ndarray:
    """The product of per-axis uniform grids at spacing at most resolution,
    endpoints included, as (P, d) points with the last axis varying fastest,
    built as arrays without a tuple per point."""
    axes = []
    for k in range(Q.dim):
        count = max(2, int(np.ceil((Q.hi[k] - Q.lo[k]) / resolution)) + 1)
        axes.append(np.linspace(Q.lo[k], Q.hi[k], count))
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, Q.dim)


def backward_containment_mask(
    sys: DiscreteSystemSpec | ContinuousSystemSpec,
    Q: Box,
    points: np.ndarray,
    horizon: float | int | None = None,
) -> np.ndarray:
    """Which of the given points keep their sampled backward orbit in Q.

    Discrete systems iterate the inverse map an integer number of times;
    flows march backward in fixed time slices, with the membership box
    shrunk by the accumulated integrator tolerance to avoid false keeps.
    Non-finite iterates count as having left Q.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts[None, :]
    alive = np.ones(len(pts), dtype=bool)
    current = pts.copy()
    if isinstance(sys, DiscreteSystemSpec):
        K = int(horizon) if horizon is not None else DEFAULT_DISCRETE_HORIZON
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(K):
                idx = np.nonzero(alive)[0]
                if idx.size == 0:
                    break
                if sys.vectorized:
                    nxt = np.asarray(sys.inverse_eval(current[idx]), dtype=np.float64)
                else:
                    nxt = np.stack([np.asarray(sys.inverse_eval(p), dtype=np.float64) for p in current[idx]])
                good = np.all(np.isfinite(nxt), axis=1)
                good &= np.all(nxt >= Q.lo, axis=1) & np.all(nxt <= Q.hi, axis=1)
                alive[idx[~good]] = False
                current[idx[good]] = nxt[good]
        return alive

    T = float(horizon) if horizon is not None else DEFAULT_CONTINUOUS_HORIZON
    steps = max(1, int(round(T / _MARCH_DT)))
    dt = _MARCH_DT if T >= _MARCH_DT else T
    tol_budget = 0.0
    for _ in range(steps):
        idx = np.nonzero(alive)[0]
        if idx.size == 0:
            break
        nxt = rk4_backward(sys, current[idx], dt, steps=8)
        tol_budget += 1e-9
        good = np.all(np.isfinite(nxt), axis=1)
        good &= np.all(nxt >= Q.lo + tol_budget, axis=1) & np.all(nxt <= Q.hi - tol_budget, axis=1)
        alive[idx[~good]] = False
        current[idx[good]] = nxt[good]
    return alive


def reference_attractor_points(
    sys: DiscreteSystemSpec | ContinuousSystemSpec,
    Q: Box,
    resolution: float,
    horizon: float | int | None = None,
) -> ReferenceAttractor:
    """Scan a uniform grid on Q and keep backward-invariant points.

    Finite horizons over-select slightly, so the cloud is an outer sample of
    the attractor, suitable for lower-bounding required coverage. A
    horizon that tests no backward step is refused.
    """
    if not resolution > 0:
        raise ValueError("resolution must be positive")
    discrete = isinstance(sys, DiscreteSystemSpec)
    if horizon is None:
        horizon = DEFAULT_DISCRETE_HORIZON if discrete else DEFAULT_CONTINUOUS_HORIZON
    if not (horizon >= 1 if discrete else horizon > 0) or horizon == np.inf:
        raise ValueError("horizon must be finite and positive, and at least one step for a map")
    pts = _grid_over(Q, resolution)
    alive = backward_containment_mask(sys, Q, pts, horizon)
    kept_horizon = float(int(horizon) if discrete else horizon)
    return ReferenceAttractor(points=pts[alive], resolution=resolution, horizon=kept_horizon)


def reach_cycle_set(edges: Mapping) -> set:
    """Nodes from which a cycle is reachable, by iterated sink removal.

    Deliberately naive (repeated full scans to a fixed point) so it shares
    no machinery with the worklist pruning it is used to verify. Successors
    outside the key set are ignored.
    """
    remaining = set(edges.keys())
    changed = True
    while changed:
        changed = False
        for i in list(remaining):
            if not any(j in remaining for j in edges.get(i, ())):
                remaining.discard(i)
                changed = True
    return remaining


@dataclass(frozen=True)
class SandwichVerdict:
    passed: bool
    uncovered_points: np.ndarray  # (U, d) reference points outside the kept cells
    extra_flats: np.ndarray  # sorted int64 kept cells that the global scheme removes

    def to_json_dict(self) -> dict:
        return {
            "pass": self.passed,
            "uncovered_points": self.uncovered_points[:5].tolist(),
            "uncovered_count": len(self.uncovered_points),
            "extra_flats": self.extra_flats[:5].tolist(),
            "extra_count": int(self.extra_flats.size),
        }


def verify_sandwich(level: CoverLevel, global_flats, reference: ReferenceAttractor) -> SandwichVerdict:
    """Check both halves of the sandwich at the depth of `level`, the
    subdivision's kept cells: (1) every reference point lies in some kept
    cell, and (2) the kept cells are a subset of `global_flats`, the global
    scheme's kept flat indices at the same depth.
    """
    points = reference.points
    uncovered = points[~level.contains_points(points)] if points.size else points
    extra = np.setdiff1d(level.flats, global_flats)
    return SandwichVerdict(passed=not len(uncovered) and not extra.size, uncovered_points=uncovered, extra_flats=extra)


def export_points_csv(ref: ReferenceAttractor, path) -> None:
    """One point per line, full round-trip precision."""
    with open(path, "w", encoding="utf-8") as fp:
        for p in ref.points:
            fp.write(",".join(format(float(x), ".17g") for x in p) + "\n")
