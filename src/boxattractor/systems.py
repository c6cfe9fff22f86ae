"""Dynamical systems under study.

Discrete homeomorphisms are described through their inverse map together
with an infinity-norm Lipschitz constant; ODE right-hand sides carry a field
bound P and a Lipschitz constant L, both valid on a declared validity
region. Built-in systems ship analytically derived constants, so enclosure
radii downstream are honest rather than estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Box, across_axes


class EvaluationError(RuntimeError):
    """A system evaluator produced a non-finite value; the run must abort."""


@dataclass(frozen=True)
class DiscreteSystemSpec:
    """A homeomorphism given by its inverse map.

    lipschitz_L bounds ||f^{-1}(x) - f^{-1}(z)|| / ||x - z|| for arguments in
    validity_region. forward_eval is optional and used only by oracles and
    round-trip checks. Evaluators flagged `vectorized` must broadcast over
    leading axes of (..., d) arrays. An evaluator may return its argument
    or a view of it (eval_inverse then copies it) but must not write into
    its argument. The transition radius is rounded outward for the
    package's own float64 arithmetic, which covers the built-in evaluators;
    the rounding error of a user's inverse_eval is not covered.
    """

    inverse_eval: Callable[[np.ndarray], np.ndarray]
    lipschitz_L: float
    validity_region: Box
    forward_eval: Callable[[np.ndarray], np.ndarray] | None = None
    name: str = "custom"
    vectorized: bool = False

    @property
    def dim(self) -> int:
        return self.validity_region.dim


@dataclass(frozen=True)
class ContinuousSystemSpec:
    """An autonomous vector field with certified bounds.

    ||g|| <= bound_P and g is lipschitz_L-Lipschitz on validity_region.
    Built-in fields clamp their argument to the validity region, which
    preserves both constants globally. field_eval may return its argument
    or a view of it (eval_field then copies it) but must not write into its
    argument: the reference RK4 passes its stage buffers. The enclosure
    radius is rounded outward for the package's own float64 arithmetic,
    including the Euler substeps; the rounding error of a user's field_eval
    is not covered.
    """

    field_eval: Callable[[np.ndarray], np.ndarray]
    bound_P: float
    lipschitz_L: float
    validity_region: Box
    name: str = "custom"
    vectorized: bool = False

    @property
    def dim(self) -> int:
        return self.validity_region.dim


SystemSpec = DiscreteSystemSpec | ContinuousSystemSpec


def _evaluate(fn: Callable[[np.ndarray], np.ndarray], vectorized: bool, x, what: str) -> np.ndarray:
    """fn at a point or a (..., d) batch of points, point by point when fn is
    not vectorised; raises EvaluationError on a non-finite value. The result
    never shares memory with x, so a caller may write into either of them:
    what fn returns is copied when it is x or a view of it."""
    x = np.asarray(x, dtype=np.float64)
    if vectorized or x.ndim <= 1:
        y = np.asarray(fn(x), dtype=np.float64)
        if np.may_share_memory(y, x):
            y = y.copy()
    else:
        y = np.array([fn(p) for p in x.reshape(-1, x.shape[-1])], dtype=np.float64).reshape(x.shape)
    if not np.all(np.isfinite(y)):
        raise EvaluationError(f"{what} produced a non-finite value")
    return y


def eval_inverse(sys: DiscreteSystemSpec, x) -> np.ndarray:
    """Evaluate f^{-1} at a point or a (..., d) batch of points."""
    return _evaluate(sys.inverse_eval, sys.vectorized, x, f"inverse map of {sys.name}")


def eval_field(sys: ContinuousSystemSpec, x) -> np.ndarray:
    """Evaluate the right-hand side g at a point or a (..., d) batch of points."""
    return _evaluate(sys.field_eval, sys.vectorized, x, f"field of {sys.name}")


# earlier names of the same evaluators, kept for callers that import them
eval_inverse_batch = eval_inverse
eval_field_batch = eval_field


# -- built-in systems ---------------------------------------------------------


def _clamped(field, region: Box):
    """field of the argument clamped to the region, the values of
    np.clip(p, lo, hi). The clamp runs axis by axis with scalar bounds on a
    copy: a (d,) bound broadcast over (N, d) points makes numpy run N inner
    loops of length d, several times slower on a batch. field receives that
    copy and may write its values into it."""
    bounds = list(zip(region.lo, region.hi))

    def g(p):
        q = np.array(p, dtype=np.float64, ndmin=1)
        for k, (lo, hi) in enumerate(bounds):
            axis = q[..., k]
            np.maximum(axis, lo, out=axis)
            np.minimum(axis, hi, out=axis)
        return field(q)

    return g


def _require_dim(Q: Box, d: int, name: str) -> None:
    if Q.dim != d:
        raise ValueError(f"{name} is {d}-dimensional, got a {Q.dim}-dimensional box")


def _require_inside(Q: Box, region: Box, name: str) -> None:
    if not region.contains_box(Q):
        raise ValueError(f"{name}: Q must lie inside the validity region {region!r}")


def _make_halving1d(Q: Box) -> DiscreteSystemSpec:
    # f(x) = x/2, f^{-1}(x) = 2x; L = 2 everywhere.
    return DiscreteSystemSpec(
        inverse_eval=lambda p: 2.0 * np.asarray(p, dtype=np.float64),
        lipschitz_L=2.0,
        validity_region=Q,
        forward_eval=lambda p: np.asarray(p, dtype=np.float64) / 2.0,
        name="halving1d",
        vectorized=True,
    )


def _make_linmap2d(Q: Box) -> DiscreteSystemSpec:
    # f(x, y) = (x/2, 2y), f^{-1}(x, y) = (2x, y/2); L = 2 everywhere.
    def inv(p):
        p = np.asarray(p, dtype=np.float64)
        out = np.empty(p.shape[:-1] + (2,))
        np.multiply(2.0, p[..., 0], out=out[..., 0])
        np.divide(p[..., 1], 2.0, out=out[..., 1])
        return out

    def fwd(p):
        p = np.asarray(p, dtype=np.float64)
        return np.stack([p[..., 0] / 2.0, 2.0 * p[..., 1]], axis=-1)

    _require_dim(Q, 2, "linmap2d")
    return DiscreteSystemSpec(
        inverse_eval=inv, lipschitz_L=2.0, validity_region=Q,
        forward_eval=fwd, name="linmap2d", vectorized=True,
    )


def _make_henon(Q: Box, a: float = 1.4, b: float = 0.3) -> DiscreteSystemSpec:
    # f(x, y) = (1 - a x^2 + y, b x); f^{-1}(x, y) = (y/b, x - 1 + a (y/b)^2).
    # On |y| <= ymax the Jacobian row sums of f^{-1} give
    # L = max(1/b, 1 + 2 a ymax / b^2).
    if not (np.isfinite(a) and np.isfinite(b) and b != 0):
        raise ValueError(f"henon needs finite a and b with b != 0, got a={a!r}, b={b!r}")
    _require_dim(Q, 2, "henon")
    region = Box([-2.0, -2.0], [2.0, 2.0])
    _require_inside(Q, region, "henon")
    ymax = float(max(abs(region.lo[1]), abs(region.hi[1])))
    L = max(1.0 / b, 1.0 + 2.0 * a * ymax / (b * b))

    def inv(p):
        p = np.asarray(p, dtype=np.float64)
        out = np.empty(p.shape[:-1] + (2,))
        x = np.divide(p[..., 1], b, out=out[..., 0])
        out[..., 1] = p[..., 0] - 1.0 + a * x * x
        return out

    def fwd(p):
        p = np.asarray(p, dtype=np.float64)
        x, y = p[..., 0], p[..., 1]
        return np.stack([1.0 - a * x * x + y, b * x], axis=-1)

    return DiscreteSystemSpec(
        inverse_eval=inv, lipschitz_L=L, validity_region=region,
        forward_eval=fwd, name="henon", vectorized=True,
    )


def _make_cubic1d(Q: Box) -> ContinuousSystemSpec:
    # g(x) = x - x^3 on [-2, 2]: sup|g| = 6 at the endpoints,
    # sup|g'| = |1 - 3x^2| = 11 at the endpoints.
    _require_dim(Q, 1, "cubic1d")
    region = Box([-2.0], [2.0])
    _require_inside(Q, region, "cubic1d")

    def field(p):
        return p - p**3

    return ContinuousSystemSpec(
        field_eval=_clamped(field, region), bound_P=6.0, lipschitz_L=11.0,
        validity_region=region, name="cubic1d", vectorized=True,
    )


def _make_saddle2d(Q: Box) -> ContinuousSystemSpec:
    # g(x, y) = (x, -y) on [-2, 2]^2: P = 2, L = 1.
    _require_dim(Q, 2, "saddle2d")
    region = Box([-2.0, -2.0], [2.0, 2.0])
    _require_inside(Q, region, "saddle2d")

    def field(p):  # p is the clamp's own copy
        np.negative(p[..., 1], out=p[..., 1])
        return p

    return ContinuousSystemSpec(
        field_eval=_clamped(field, region), bound_P=2.0, lipschitz_L=1.0,
        validity_region=region, name="saddle2d", vectorized=True,
    )


_FACTORIES = {
    "linmap2d": _make_linmap2d,
    "henon": _make_henon,
    "halving1d": _make_halving1d,
    "cubic1d": _make_cubic1d,
    "saddle2d": _make_saddle2d,
}
BUILTIN_NAMES = tuple(_FACTORIES)


def make_builtin(name: str, Q: Box, **params) -> SystemSpec:
    """Instantiate a built-in system for the study region Q.

    Raises ValueError when Q exceeds the built-in's validity region or has
    the wrong dimension, or a parameter value is out of range, and TypeError
    for a parameter the system does not have.
    """
    try:
        factory = _FACTORIES[name]
    except KeyError:
        raise ValueError(f"unknown system {name!r}; choose from {BUILTIN_NAMES}") from None
    return factory(Q, **params)


# -- spot checks for user-supplied constants ----------------------------------


def _spot_check(evaluate, sys: SystemSpec, pairs: int, seed: int) -> tuple[float, float]:
    """Largest observed |evaluate(x)| and ||evaluate(x)-evaluate(z)|| / ||x-z||
    on random pairs in the validity region."""
    rng = np.random.default_rng(seed)
    V = sys.validity_region
    x, z = V.lo + rng.random((2, pairs, V.dim)) * (V.hi - V.lo)
    fx, fz = evaluate(sys, x), evaluate(sys, z)
    num = across_axes(np.maximum, np.abs(fx - fz))
    den = across_axes(np.maximum, np.abs(x - z))
    ok = den > 0
    return float(np.max(np.abs(fx))), float(np.max(num[ok] / den[ok]))


def spot_check_discrete(sys: DiscreteSystemSpec, pairs: int = 10_000, seed: int = 0) -> float:
    """Largest observed ||f^{-1}(x)-f^{-1}(z)|| / ||x-z|| on random pairs."""
    return _spot_check(eval_inverse, sys, pairs, seed)[1]


def spot_check_continuous(sys: ContinuousSystemSpec, pairs: int = 10_000, seed: int = 0) -> tuple[float, float]:
    """Largest observed field norm and Lipschitz ratio on random pairs."""
    return _spot_check(eval_field, sys, pairs, seed)
