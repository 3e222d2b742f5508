"""How every iterative fit stops, and the gradient descent of two of them."""

import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .codec import Count


@dataclass(kw_only=True)
class FitReport:
    """How an iterative fit stopped, after n_iter iterations, with the fit's
    objective in its own sense, and how many inner loops met their caps."""

    stop: Literal["tolerance", "step", "cap", "degenerate"]
    n_iter: Count
    objective: float
    capped: Count = 0

    @property
    def converged(self) -> bool:
        return self.stop == "tolerance"


def _largest(gi):
    """The largest absolute entry of one gradient part, 0 for an empty array."""
    return abs(gi) if isinstance(gi, float) else np.max(np.abs(gi), initial=0.0)


def descend(x, start, value, gradient, step, max_iter, grad_tol, project=lambda x: x):
    """Minimize value from x, a tuple of arrays and floats.

    value(x) returns (v, aux); start is value(x) at the starting x, which
    the caller has already computed, so value is called only at trial
    points. gradient(x, aux) returns the partials at x, reusing aux, and is
    called only at accepted points. An iteration stops at "tolerance" once
    every gradient entry is below grad_tol, and otherwise tries
    project(x - step * g) until a finite, strictly lower value is accepted
    (the step then grows 1.5x, to at most 10) or the halved step falls
    below 1e-14 ("step"). Returns (x, v, stop, iterations), iterations
    counting the gradients computed, at most max_iter ("cap")."""
    v, aux = start
    for it in range(1, max_iter + 1):
        g = gradient(x, aux)
        if max(_largest(gi) for gi in g) < grad_tol:
            return x, v, "tolerance", it
        while step >= 1e-14:
            trial = project(tuple(xi - step * gi for xi, gi in zip(x, g)))
            v_try, aux_try = value(trial)
            if math.isfinite(v_try) and v_try < v:
                x, v, aux = trial, v_try, aux_try
                step = min(step * 1.5, 10.0)
                break
            step *= 0.5
        else:
            return x, v, "step", it
    return x, v, "cap", max_iter
