import numpy as np

from dyadcast.descent import FitReport, descend


def quadratic(center):
    """value and gradient of sum((x_k - center_k)^2) over a tuple x."""
    def value(x):
        return sum(float(np.sum((xi - ci) ** 2)) for xi, ci in zip(x, center)), None

    def gradient(x, aux):
        return tuple(2.0 * (xi - ci) for xi, ci in zip(x, center))

    return value, gradient


class Recorder:
    """value/gradient wrappers logging each call; every value call hands
    its call number to gradient as aux."""

    def __init__(self, value, gradient):
        self._value, self._gradient = value, gradient
        self.values, self.gradients = [], []

    def value(self, x):
        v = self._value(x)[0]
        self.values.append(v)
        return v, len(self.values) - 1

    def gradient(self, x, aux):
        self.gradients.append(aux)
        return self._gradient(x, None)


def test_descend_minimizes_a_quadratic():
    center = (np.array([1.0, -2.0]), 3.0)
    value, gradient = quadratic(center)
    x0 = (np.zeros(2), 0.0)
    x, v, stop, iterations = descend(x0, value(x0), value, gradient, 0.1, 500, 1e-8)
    assert stop == "tolerance" and 0 < iterations < 500
    assert np.allclose(x[0], center[0], atol=1e-8) and abs(x[1] - center[1]) < 1e-8
    assert v == value(x)[0] and v < 1e-15


def test_descend_zero_iterations_returns_the_start_unconverged():
    value, gradient = quadratic((np.ones(3),))
    start = (np.zeros(3),)
    x, v, stop, iterations = descend(start, value(start), value, gradient, 0.1, 0, 1e-8)
    assert x is start and v == 3.0
    assert (stop, iterations) == ("cap", 0)


def test_descend_stops_at_its_iteration_cap_unconverged():
    value, gradient = quadratic((np.ones(3),))
    x0 = (np.zeros(3),)
    x, v, stop, iterations = descend(x0, value(x0), value, gradient, 0.01, 3, 1e-8)
    assert (stop, iterations) == ("cap", 3)
    assert 0.0 < v < 3.0


def test_descend_converges_at_a_zero_gradient_without_a_trial():
    rec = Recorder(*quadratic((np.ones(2),)))
    x0 = (np.ones(2),)
    x, v, stop, iterations = descend(
        x0, rec.value(x0), rec.value, rec.gradient, 0.1, 10, 1e-8
    )
    assert (stop, iterations, v) == ("tolerance", 1, 0.0)
    assert rec.values == [0.0] and rec.gradients == [0]


def test_descend_value_that_never_drops_stops_on_its_step_at_the_start():
    rec = Recorder(lambda x: (5.0, None), lambda x, aux: (np.ones(2),))
    start = (np.zeros(2),)
    x, v, stop, iterations = descend(
        start, rec.value(start), rec.value, rec.gradient, 1.0, 100, 1e-8
    )
    assert x is start and v == 5.0
    assert (stop, iterations) == ("step", 1)
    # halved from 1 until below 1e-14: 47 rejected trials, one gradient
    assert len(rec.values) == 1 + 47 and rec.gradients == [0]


def test_descend_rejects_non_finite_trials():
    def value(x):
        return (np.inf if x[0] < 0 else x[0] ** 2), None

    x, v, _, _ = descend(
        (1.0,), value((1.0,)), value, lambda x, aux: (2.0 * x[0],), 10.0, 50, 1e-8
    )
    assert np.isfinite(v) and x[0] >= 0 and v < 1.0


def test_descend_projects_every_trial():
    projected, seen = [], []
    value, gradient = quadratic((np.array([-1.0, 2.0]),))

    def project(x):
        out = (np.maximum(x[0], 0.0),)
        projected.append(out)
        return out

    def logged_value(x):
        seen.append(x)
        return value(x)

    x0 = (np.array([3.0, 3.0]),)
    x, v, _, _ = descend(
        x0, logged_value(x0), logged_value, gradient, 0.1, 200, 1e-8, project
    )
    assert len(seen) == 1 + len(projected) > 1
    assert all(a is b for a, b in zip(seen[1:], projected))
    assert np.array_equal(x[0][:1], [0.0]) and abs(x[0][1] - 2.0) < 1e-6


def test_descend_computes_gradients_only_at_accepted_points():
    # from 1 on x^2 with step 10, the first trials overshoot and are rejected
    rec = Recorder(*quadratic((0.0,)))
    x, v, _, iterations = descend(
        (1.0,), rec.value((1.0,)), rec.value, rec.gradient, 10.0, 40, 1e-6
    )
    accepted, best = [0], rec.values[0]
    for k, val in enumerate(rec.values[1:], start=1):
        if val < best:
            accepted.append(k)
            best = val
    assert len(rec.gradients) == iterations
    assert rec.gradients == accepted[: len(rec.gradients)]
    assert len(rec.values) > len(rec.gradients) + 1  # rejected trials cost value calls only
    assert v == best == rec.values[accepted[-1]]


def test_descend_takes_the_start_from_its_caller():
    """value is called only at trial points: the start's (v, aux) comes in
    as an argument and is never recomputed."""
    rec = Recorder(*quadratic((np.array([2.0, -1.0]),)))
    x0 = (np.zeros(2),)
    calls = []

    def value(x):
        calls.append(x)
        return rec.value(x)

    x, v, _, _ = descend(x0, (5.0, "start"), value, rec.gradient, 0.1, 30, 1e-8)
    assert all(trial is not x0 for trial in calls)
    assert len(calls) == len(rec.values) > 0
    assert rec.gradients[0] == "start"  # the caller's aux feeds the first gradient


def test_only_a_stop_at_tolerance_is_converged():
    stops = ("tolerance", "step", "cap", "degenerate")
    assert [FitReport(stop=s, n_iter=1, objective=0.0).converged for s in stops] == [
        True, False, False, False
    ]
    assert FitReport(stop="cap", n_iter=1, objective=0.0).capped == 0
