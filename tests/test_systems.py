from __future__ import annotations

import itertools
import re

import numpy as np
import pytest

from boxattractor import systems
from boxattractor.geometry import Box
from boxattractor.systems import (
    BUILTIN_NAMES,
    ContinuousSystemSpec,
    DiscreteSystemSpec,
    EvaluationError,
    _clamped,
    _spot_check,
    eval_field,
    eval_inverse,
    make_builtin,
    spot_check_continuous,
    spot_check_discrete,
)

Q1 = Box([-1.0], [1.0])
Q2 = Box([-1.0, -1.0], [1.0, 1.0])


def test_henon_inverse_example() -> None:
    sys_ = make_builtin("henon", Box([-2.0, -2.0], [2.0, 2.0]))
    assert eval_inverse(sys_, [1.0, 0.0]).tolist() == [0.0, 0.0]
    # algebraic inversion: f(f^{-1}(p)) == p on random points
    rng = np.random.default_rng(0)
    pts = rng.uniform(-2, 2, size=(10_000, 2))
    back = sys_.forward_eval(sys_.inverse_eval(pts))
    assert np.max(np.abs(back - pts)) < 1e-12


def test_linmap_and_halving_inverse_examples() -> None:
    lin = make_builtin("linmap2d", Q2)
    assert eval_inverse(lin, [1.0, 1.0]).tolist() == [2.0, 0.5]
    half = make_builtin("halving1d", Q1)
    assert eval_inverse(half, [0.0]).tolist() == [0.0]


def test_field_examples_and_clamping() -> None:
    cubic = make_builtin("cubic1d", Box([-1.5], [1.5]))
    assert eval_field(cubic, [1.0]).tolist() == [0.0]
    # clamp rule: outside the validity region the argument is clamped first
    assert eval_field(cubic, [5.0]).tolist() == [2.0 - 8.0]
    saddle = make_builtin("saddle2d", Q2)
    assert eval_field(saddle, [1.0, 1.0]).tolist() == [1.0, -1.0]


def test_builtin_constants() -> None:
    assert make_builtin("saddle2d", Q2).bound_P == 2.0
    assert make_builtin("saddle2d", Q2).lipschitz_L == 1.0
    assert make_builtin("saddle2d", Q2).validity_region == Box([-2.0, -2.0], [2.0, 2.0])
    assert make_builtin("linmap2d", Q2).lipschitz_L == 2.0
    cubic = make_builtin("cubic1d", Box([-1.5], [1.5]))
    assert cubic.bound_P == 6.0 and cubic.lipschitz_L == 11.0
    henon = make_builtin("henon", Box([-2.0, -2.0], [2.0, 2.0]))
    # max(1/b, 1 + 2a*ymax/b^2) with a=1.4, b=0.3, ymax=2
    assert henon.lipschitz_L == pytest.approx(max(1 / 0.3, 1 + 2 * 1.4 * 2 / 0.3**2))
    assert henon.lipschitz_L == pytest.approx(63.2, abs=0.05)


def test_make_builtin_rejections() -> None:
    with pytest.raises(ValueError):
        make_builtin("nosuch", Q1)
    with pytest.raises(ValueError):
        make_builtin("henon", Box([-3.0, -3.0], [3.0, 3.0]))  # exceeds validity
    with pytest.raises(ValueError):
        make_builtin("cubic1d", Q2)  # wrong dimension
    with pytest.raises(ValueError):
        make_builtin("saddle2d", Q1)


@pytest.mark.parametrize("name,Q", [("halving1d", Q1), ("linmap2d", Q2), ("henon", Box([-2, -2], [2, 2]))])
def test_discrete_lipschitz_spot_check(name: str, Q: Box) -> None:
    sys_ = make_builtin(name, Q)
    ratio = spot_check_discrete(sys_, pairs=10_000, seed=1)
    assert ratio <= sys_.lipschitz_L * (1 + 1e-9)


@pytest.mark.parametrize("name,Q", [("cubic1d", Box([-1.5], [1.5])), ("saddle2d", Q2)])
def test_continuous_bounds_spot_check(name: str, Q: Box) -> None:
    sys_ = make_builtin(name, Q)
    bound, ratio = spot_check_continuous(sys_, pairs=10_000, seed=1)
    assert bound <= sys_.bound_P * (1 + 1e-9)
    assert ratio <= sys_.lipschitz_L * (1 + 1e-9)


def test_non_finite_evaluation_aborts() -> None:
    bad = DiscreteSystemSpec(
        inverse_eval=lambda p: np.asarray(p) * np.inf,
        lipschitz_L=1.0,
        validity_region=Q1,
    )
    with pytest.raises(EvaluationError):
        eval_inverse(bad, [1.0])
    bad_field = ContinuousSystemSpec(
        field_eval=lambda p: np.full_like(np.asarray(p, dtype=float), np.nan),
        bound_P=1.0,
        lipschitz_L=1.0,
        validity_region=Q1,
    )
    with pytest.raises(EvaluationError):
        eval_field(bad_field, [0.5])


def test_scalar_evaluators_take_batches() -> None:
    # a system not flagged vectorized is evaluated point by point
    inv = DiscreteSystemSpec(
        inverse_eval=lambda p: np.array([p[1], p[0] - p[1] ** 2]), lipschitz_L=5.0, validity_region=Q2,
    )
    field = ContinuousSystemSpec(
        field_eval=lambda p: np.array([p[0] * p[1], -p[1]]), bound_P=1.0, lipschitz_L=2.0, validity_region=Q2,
    )
    pts = np.random.default_rng(3).uniform(-1.0, 1.0, size=(3, 2))
    for evaluate, sys_ in ((eval_inverse, inv), (eval_field, field)):
        batch = evaluate(sys_, pts)
        assert batch.shape == (3, 2)
        assert np.array_equal(batch, np.stack([evaluate(sys_, p) for p in pts]))
        assert np.array_equal(evaluate(sys_, pts.reshape(3, 1, 2)), batch.reshape(3, 1, 2))


RAW_FIELDS = {  # the built-in fields before the clamp
    "cubic1d": lambda p: p - p**3,
    "saddle2d": lambda p: np.stack([p[..., 0], -p[..., 1]], axis=-1),
}


@pytest.mark.parametrize("name,Q", [("cubic1d", Box([-1.5], [1.5])), ("saddle2d", Q2)])
def test_builtin_clamp_matches_np_clip(name: str, Q: Box) -> None:
    # the clamp runs axis by axis with scalar bounds; its values must be
    # bitwise those of np.clip, and the caller's array must stay untouched
    sys_ = make_builtin(name, Q)
    region = sys_.validity_region
    d = sys_.dim
    rng = np.random.default_rng(7)
    edges = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, np.nextafter(2.0, 3.0), -2.5, 1e300, -np.inf]
    pts = np.concatenate([
        rng.uniform(-1.9, 1.9, size=(20, d)),  # inside the region
        rng.uniform(-6.0, 6.0, size=(20, d)),  # mostly outside
        np.array(list(itertools.product(edges, repeat=d))),  # boundary, beyond it, signed zeros
    ])
    clamp = _clamped(lambda q: q, region)
    for p in (pts, pts[:30].reshape(5, 6, d), *pts[40:]):  # batches, then single points
        before = p.copy()
        clipped = np.clip(p, region.lo, region.hi)
        assert clamp(p).tobytes() == clipped.tobytes()
        got, want = eval_field(sys_, p), RAW_FIELDS[name](clipped)
        assert got.shape == want.shape == p.shape
        assert got.tobytes() == want.tobytes()
        assert p.tobytes() == before.tobytes()
    nan = np.full((3, d), np.nan)
    nan[0] = -np.nan
    assert clamp(nan).tobytes() == np.clip(nan, region.lo, region.hi).tobytes()
    with pytest.raises(EvaluationError):
        eval_field(sys_, nan)
    with pytest.raises(EvaluationError):
        eval_field(sys_, nan[0])


BUILTINS = [
    ("halving1d", Q1), ("linmap2d", Q2), ("henon", Box([-2.0, -2.0], [2.0, 2.0])),
    ("cubic1d", Box([-1.5], [1.5])), ("saddle2d", Q2),
]


def test_builtin_names_are_the_factories_in_their_listed_order() -> None:
    assert BUILTIN_NAMES == tuple(systems._FACTORIES) == ("linmap2d", "henon", "halving1d", "cubic1d", "saddle2d")
    assert sorted(BUILTIN_NAMES) == sorted(name for name, _ in BUILTINS)
    with pytest.raises(ValueError, match=re.escape(str(BUILTIN_NAMES))):
        make_builtin("lorenz", Q1)


@pytest.mark.parametrize("name,Q", BUILTINS)
def test_builtin_evaluators_leave_their_input_alone(name: str, Q: Box) -> None:
    # every built-in evaluator returns a new array and never writes into
    # the caller's: the saddle field negates y in place on the clamp's own
    # copy, and the inverses fill a new output array column by column
    sys_ = make_builtin(name, Q)
    evaluate = eval_field if isinstance(sys_, ContinuousSystemSpec) else eval_inverse
    rng = np.random.default_rng(2)
    batch = rng.uniform(-1.0, 1.0, size=(40, sys_.dim))
    for x in (batch, batch.reshape(4, 10, sys_.dim), batch[0]):
        before = x.copy()
        x.setflags(write=False)  # a write into the caller's array would raise
        y = evaluate(sys_, x)
        x.setflags(write=True)
        assert x.tobytes() == before.tobytes()
        assert y.shape == x.shape and not np.shares_memory(x, y)
        assert y.tobytes() == evaluate(sys_, before).tobytes()


ALIASING = {  # user evaluators that hand back their argument, or a view of it
    "identity": lambda p: p,
    "view": lambda p: np.asarray(p)[..., ::-1],
}


@pytest.mark.parametrize("vectorized", [True, False])
@pytest.mark.parametrize("name", sorted(ALIASING))
def test_evaluators_never_hand_back_their_argument(name: str, vectorized: bool) -> None:
    # a caller may write into an evaluator's result, as the reference RK4
    # does with its stages, so the result shares no memory with the input
    # even when the user's function returns its argument or a view of it
    fn = ALIASING[name]
    field = ContinuousSystemSpec(field_eval=fn, bound_P=2.0, lipschitz_L=1.0, validity_region=Q2, vectorized=vectorized)
    inverse = DiscreteSystemSpec(inverse_eval=fn, lipschitz_L=1.0, validity_region=Q2, vectorized=vectorized)
    batch = np.random.default_rng(4).uniform(-1.0, 1.0, size=(40, 2))
    for evaluate, sys_ in ((eval_field, field), (eval_inverse, inverse)):
        for x in (batch, batch.reshape(4, 10, 2), batch[0]):
            before = x.copy()
            y = evaluate(sys_, x)
            assert not np.shares_memory(x, y)
            assert y.shape == x.shape and y.tobytes() == fn(before).tobytes()
            y[...] = 7.0
            assert x.tobytes() == before.tobytes()


OLD_INVERSES = {  # the np.stack forms the inverses had before writing their columns into one array
    "linmap2d": lambda p: np.stack([2.0 * p[..., 0], p[..., 1] / 2.0], axis=-1),
    "henon": lambda p: np.stack([p[..., 1] / 0.3, p[..., 0] - 1.0 + 1.4 * (p[..., 1] / 0.3) * (p[..., 1] / 0.3)], axis=-1),
}


@pytest.mark.parametrize("name", sorted(OLD_INVERSES))
def test_inverses_match_their_stack_forms(name: str) -> None:
    sys_ = make_builtin(name, Box([-2.0, -2.0], [2.0, 2.0]))
    pts = np.random.default_rng(4).uniform(-2.0, 2.0, size=(300, 2))
    pts[:4] = [[0.0, -0.0], [-0.0, 0.0], [2.0, -2.0], [1e-300, -1e-300]]
    for x in (pts, pts.reshape(3, 100, 2), pts[0], pts[1], pts[-1]):
        assert eval_inverse(sys_, x).tobytes() == OLD_INVERSES[name](x).tobytes()


@pytest.mark.parametrize("name,Q", BUILTINS)
def test_spot_check_matches_its_axis_form(name: str, Q: Box) -> None:
    # the row maxima of the spot check, folded column by column, against
    # np.max(..., axis=1) on the same random pairs
    sys_ = make_builtin(name, Q)
    evaluate = eval_field if isinstance(sys_, ContinuousSystemSpec) else eval_inverse
    rng = np.random.default_rng(9)
    V = sys_.validity_region
    x, z = V.lo + rng.random((2, 500, V.dim)) * (V.hi - V.lo)
    fx, fz = evaluate(sys_, x), evaluate(sys_, z)
    num, den = np.max(np.abs(fx - fz), axis=1), np.max(np.abs(x - z), axis=1)
    want = (float(np.max(np.abs(fx))), float(np.max(num[den > 0] / den[den > 0])))
    got = _spot_check(evaluate, sys_, 500, 9)
    assert got == want
