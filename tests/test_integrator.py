from __future__ import annotations

import math

import numpy as np
import pytest

from boxattractor.geometry import Box
from boxattractor.integrator import (
    EulerParams,
    EulerSchedule,
    enclosure_radius,
    euler_backward,
    euler_defect,
    reference_backward_flow,
    rk4_backward,
)
from boxattractor.systems import ContinuousSystemSpec, eval_field, make_builtin


def linear_decay() -> ContinuousSystemSpec:
    """g(x) = -x with exact backward flow e^h * x; P, L valid on [-2, 2]."""
    return ContinuousSystemSpec(
        field_eval=lambda p: -np.asarray(p, dtype=np.float64),
        bound_P=2.0,
        lipschitz_L=1.0,
        validity_region=Box([-2.0], [2.0]),
        name="linear-decay",
        vectorized=True,
    )


def test_euler_single_step_example() -> None:
    sys_ = linear_decay()
    y = euler_backward(sys_, [1.0], EulerParams(h=0.1, substeps=1))
    assert y.tolist() == [1.1]


def test_euler_two_step_recurrence_by_hand() -> None:
    sys_ = linear_decay()
    y = euler_backward(sys_, [1.0], EulerParams(h=0.1, substeps=2))
    assert y[0] == pytest.approx(1.05**2, abs=1e-15)


def test_euler_fixes_equilibria() -> None:
    cubic = make_builtin("cubic1d", Box([-1.5], [1.5]))
    for x in ([0.0], [1.0], [-1.0]):
        y = euler_backward(cubic, x, EulerParams(h=0.07, substeps=3))
        assert y.tolist() == x


def test_enclosure_radius_examples() -> None:
    assert enclosure_radius(0.0, 5.0, 0.1, 1, 0.0) == 0.0
    # direct formula evaluation, independently recomputed here
    want = math.exp(0.1) * 0.01 + 0.5 * 2.0 * 0.1 * (math.exp(0.1) - 1.0)
    assert enclosure_radius(1.0, 2.0, 0.1, 1, 0.01) == pytest.approx(want, rel=1e-15)
    assert enclosure_radius(1.0, 2.0, 0.1, 1, 0.01) == pytest.approx(0.0215688, abs=1e-7)
    # doubling N halves only the second term
    want2 = math.exp(0.1) * 0.01 + 0.25 * 2.0 * 0.1 * (math.exp(0.1) - 1.0)
    assert enclosure_radius(1.0, 2.0, 0.1, 2, 0.01) == pytest.approx(want2, rel=1e-15)
    assert enclosure_radius(1.0, 2.0, 0.1, 2, 0.01) == pytest.approx(0.0163102, abs=1e-7)
    with pytest.raises(ValueError):
        enclosure_radius(-1.0, 2.0, 0.1, 1, 0.01)
    with pytest.raises(ValueError):
        enclosure_radius(1.0, 2.0, 0.1, 0, 0.01)


def test_euler_defect_examples() -> None:
    sys_ = linear_decay()
    # zero by construction, up to one rounding of the difference quotient
    assert euler_defect(sys_, [1.0], EulerParams(h=0.1, substeps=1)) <= 2e-15
    # hand evaluation: |(1.1025 - 1)/0.1 - 1| = 0.025
    d = euler_defect(sys_, [1.0], EulerParams(h=0.1, substeps=2))
    assert d == pytest.approx(0.025, abs=1e-12)
    assert d <= 0.5 * sys_.lipschitz_L * sys_.bound_P * 0.1
    cubic = make_builtin("cubic1d", Box([-1.5], [1.5]))
    assert euler_defect(cubic, [1.0], EulerParams(h=0.05, substeps=4)) == 0.0


def test_reference_backward_flow_linear() -> None:
    sys_ = linear_decay()
    y = reference_backward_flow(sys_, [1.0], 0.1, tol=1e-10)
    assert y[0] == pytest.approx(math.exp(0.1), abs=1e-9)
    assert reference_backward_flow(sys_, [0.7], 0.0).tolist() == [0.7]


def test_reference_backward_flow_saddle_closed_form() -> None:
    saddle = make_builtin("saddle2d", Box([-1.0, -1.0], [1.0, 1.0]))
    y = reference_backward_flow(saddle, [1.0, 1.0], math.log(2.0), tol=1e-12)
    # exact backward flow of (x, -y): (e^{-t} x, e^{t} y) at t = ln 2
    assert y[0] == pytest.approx(0.5, abs=1e-10)
    assert y[1] == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("h", [0.08, 0.2, 0.5])
def test_reference_backward_flow_per_point(h: float) -> None:
    # 1.5 needs more substeps than 0.01; that batch-mate must not change
    # the bits of 0.01's image
    cubic = make_builtin("cubic1d", Box([-1.5], [1.5]))
    alone = reference_backward_flow(cubic, np.array([[0.01]]), h)
    batch = reference_backward_flow(cubic, np.array([[0.01], [1.5]]), h)
    assert batch[:1].tobytes() == alone.tobytes()


def counting_saddle(calls: dict) -> ContinuousSystemSpec:
    """g(x, y) = (x, -y), vectorised; calls["points"] counts the points it evaluates."""

    def field(p):
        p = np.asarray(p, dtype=np.float64)
        calls["points"] += p.size // p.shape[-1]
        return np.stack([p[..., 0], -p[..., 1]], axis=-1)

    return ContinuousSystemSpec(
        field_eval=field,
        bound_P=2.0,
        lipschitz_L=1.0,
        validity_region=Box([-2.0, -2.0], [2.0, 2.0]),
        name="counting-saddle",
        vectorized=True,
    )


def test_reference_backward_flow_starts_from_one_step() -> None:
    # at h = 0.025 one and two RK4 steps already meet tol: 3 steps of 4
    # field evaluations per point, where a start at 4 steps pays 12 steps
    calls = {"points": 0}
    pts = np.random.default_rng(11).uniform(-1.0, 1.0, (1000, 2))
    reference_backward_flow(counting_saddle(calls), pts, 0.025, tol=1e-10)
    assert calls["points"] == 12 * len(pts)


@pytest.mark.parametrize("h", [0.2 * 2.0 ** (-n / 2) for n in range(13)] + [0.5])
def test_reference_backward_flow_error_near_tol(h: float) -> None:
    # the saddle's backward flow is (x e^{-h}, y e^{h}); each point stops at
    # its own estimate, so its error against the exact flow stays near tol
    saddle = make_builtin("saddle2d", Box([-1.0, -1.0], [1.0, 1.0]))
    pts = np.random.default_rng(5).uniform(-1.0, 1.0, (2000, 2))
    exact = pts * np.array([math.exp(-h), math.exp(h)])
    err = np.max(np.abs(reference_backward_flow(saddle, pts, h, 1e-10) - exact), axis=1)
    assert np.all(err <= 2e-10 * (1.0 + np.max(np.abs(exact), axis=1)))


def test_rk4_fourth_order_on_linear_system() -> None:
    sys_ = linear_decay()
    h = 0.5
    exact = math.exp(h)
    errs = []
    for steps in (4, 8, 16):
        errs.append(abs(rk4_backward(sys_, np.array([1.0]), h, steps)[0] - exact))
    # halving the step cuts the error by about 2^4
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.3)
    assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.3)


def test_schedule_limits() -> None:
    sched = EulerSchedule(h0=0.2, alpha=0.5, substeps=1)
    assert sched.h_at(0) == 0.2
    assert sched.h_at(2) == pytest.approx(0.1)
    # h_n -> 0 and rho_n / h_n -> 0 along the dyadic schedule
    rho0 = 2.0
    ratios = [rho0 * 2.0**-n / sched.h_at(n) for n in range(0, 30, 5)]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    with pytest.raises(ValueError):
        EulerSchedule(h0=0.1, alpha=1.0)
    with pytest.raises(ValueError):
        EulerParams(h=0.0)


def _euler_bound_sweep(sys_: ContinuousSystemSpec, count: int, seed: int) -> None:
    rng = np.random.default_rng(seed)
    V = sys_.validity_region
    P, L = sys_.bound_P, sys_.lipschitz_L
    for _ in range(count):
        h = float(rng.uniform(1e-3, 0.2))
        N = int(rng.choice([1, 2, 4]))
        p = EulerParams(h=h, substeps=N)
        x = V.lo + rng.random(V.dim) * (V.hi - V.lo)
        z = V.lo + rng.random(V.dim) * (V.hi - V.lo)
        ex = euler_backward(sys_, x, p)
        ez = euler_backward(sys_, z, p)
        slack = 1e-12 * (1 + float(np.max(np.abs(ex))))
        assert np.max(np.abs(ex - x)) <= P * h + slack  # (E1)
        assert np.max(np.abs(ex - ez)) <= math.exp(L * h) * np.max(np.abs(x - z)) + slack  # (E2)
        assert euler_defect(sys_, x, p) <= 0.5 * L * P * h + slack  # (E4)


@pytest.mark.parametrize("name,Q", [("cubic1d", Box([-1.5], [1.5])), ("saddle2d", Box([-1, -1], [1, 1]))])
def test_euler_bounds_sampled(name: str, Q: Box) -> None:
    _euler_bound_sweep(make_builtin(name, Q), count=300, seed=5)


def test_euler_exact_flow_error_bound_grid() -> None:
    # (E3) against the exact flow e^h * x of the linear system
    sys_ = linear_decay()
    P, L = sys_.bound_P, sys_.lipschitz_L
    for x in np.linspace(-1.0, 1.0, 9):
        for h in (0.01, 0.05, 0.1, 0.2):
            for N in (1, 2, 4, 8):
                approx = euler_backward(sys_, [x], EulerParams(h=h, substeps=N))[0]
                err = abs(math.exp(h) * x - approx)
                bound = P * h * (math.exp(L * h) - 1.0) / (2 * N)
                assert err <= bound + 1e-12 * max(1.0, abs(x))


def textbook_rk4_backward(sys_: ContinuousSystemSpec, x, h: float, steps: int) -> np.ndarray:
    """Classical RK4 for the backward flow as the textbook writes it, with
    the stages k_i = -g(.) as new arrays: the oracle for the bits of
    rk4_backward."""
    y = np.asarray(x, dtype=np.float64)
    if h == 0.0:
        return y.copy()
    dt = h / steps

    def f(v):
        return -eval_field(sys_, v)

    for _ in range(steps):
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y


def axis_form_reference_flow(sys_: ContinuousSystemSpec, x, h: float, tol: float) -> np.ndarray:
    """reference_backward_flow with its row maxima taken by np.max(..., axis=1),
    the form before the column fold, on the textbook RK4 and with a new
    array for every Richardson term: the oracle for the bits of the images."""
    x = np.asarray(x, dtype=np.float64)
    pts = x.reshape(-1, x.shape[-1])
    out, todo, steps = np.empty_like(pts), np.arange(pts.shape[0]), 1
    coarse = textbook_rk4_backward(sys_, pts, h, steps)
    while todo.size:
        fine = textbook_rk4_backward(sys_, pts[todo], h, 2 * steps)
        scale = 1.0 + np.max(np.abs(fine), axis=1)
        err = np.max(np.abs(fine - coarse), axis=1) / 15.0
        done = err <= tol * scale
        out[todo[done]] = fine[done]
        todo, coarse, steps = todo[~done], fine[~done], 2 * steps
    return out.reshape(x.shape)


def twist3d() -> ContinuousSystemSpec:
    """A nonlinear 3-D field, vectorised, with bounds valid on [-2, 2]^3."""

    def field(p):
        p = np.asarray(p, dtype=np.float64)
        x, y, z = p[..., 0], p[..., 1], p[..., 2]
        return np.stack([x - 0.5 * y * z, -y + 0.25 * x * x, 0.5 * z - 0.2 * x * y], axis=-1)

    return ContinuousSystemSpec(
        field_eval=field, bound_P=6.0, lipschitz_L=4.0, validity_region=Box([-2.0] * 3, [2.0] * 3),
        name="twist3d", vectorized=True,
    )


@pytest.mark.parametrize("h", [0.025, 0.2, 0.5])
def test_reference_backward_flow_matches_its_axis_form(h: float) -> None:
    # d = 1, 2 and 3: the column fold stops every point at the same step
    # count, so the images are bitwise those of the axis form
    rng = np.random.default_rng(13)
    for sys_ in (make_builtin("cubic1d", Box([-1.5], [1.5])), make_builtin("saddle2d", Box([-1.0, -1.0], [1.0, 1.0])), twist3d()):
        pts = rng.uniform(-1.0, 1.0, size=(500, sys_.dim))
        want = axis_form_reference_flow(sys_, pts, h, 1e-10)
        assert reference_backward_flow(sys_, pts, h, 1e-10).tobytes() == want.tobytes()
        assert reference_backward_flow(sys_, pts[0], h, 1e-10).tobytes() == want[0].tobytes()


def identity_field() -> ContinuousSystemSpec:
    """g(p) = p, whose evaluator hands back its argument."""
    return ContinuousSystemSpec(
        field_eval=lambda p: p, bound_P=2.0, lipschitz_L=1.0, validity_region=Box([-2.0, -2.0], [2.0, 2.0]),
        name="identity", vectorized=True,
    )


def swap_field() -> ContinuousSystemSpec:
    """g(x, y) = (y, x), whose evaluator hands back a view of its argument."""
    return ContinuousSystemSpec(
        field_eval=lambda p: np.asarray(p)[..., ::-1], bound_P=2.0, lipschitz_L=1.0,
        validity_region=Box([-2.0, -2.0], [2.0, 2.0]), name="swap", vectorized=True,
    )


@pytest.mark.parametrize("h", [0.025, 0.1, 0.5])
def test_rk4_matches_the_textbook_form(h: float) -> None:
    # the stages and the step sum run in reused buffers with the field's
    # negation folded into the updates; the images must be bitwise those of
    # the textbook form, signed zeros included, for fields that hand back
    # their argument or a view of it too, and the caller's array is never
    # written (it is read-only here, so a write would raise)
    rng = np.random.default_rng(19)
    systems = (
        make_builtin("cubic1d", Box([-1.5], [1.5])), make_builtin("saddle2d", Box([-1.0, -1.0], [1.0, 1.0])),
        twist3d(), identity_field(), swap_field(),
    )
    for sys_ in systems:
        pts = np.concatenate([rng.uniform(-1.0, 1.0, size=(300, sys_.dim)), np.zeros((1, sys_.dim)), np.full((1, sys_.dim), -0.0)])
        before = pts.copy()
        pts.setflags(write=False)
        for steps in (1, 2, 4):
            want = textbook_rk4_backward(sys_, before, h, steps)
            assert rk4_backward(sys_, pts, h, steps).tobytes() == want.tobytes()
            assert rk4_backward(sys_, pts[-1], h, steps).tobytes() == want[-1].tobytes()
        want = axis_form_reference_flow(sys_, before, h, 1e-10)
        assert reference_backward_flow(sys_, pts, h, 1e-10).tobytes() == want.tobytes()
        assert pts.tobytes() == before.tobytes()
