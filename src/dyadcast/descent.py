"""Backtracking gradient descent, shared by the latent-space and neural-net fits."""

import numpy as np


def descend(x, value, gradient, step, max_iter, grad_tol, project=lambda x: x):
    """Minimize value from x, a tuple of arrays and floats.

    value(x) returns (v, aux); gradient(x, aux) returns the partials at x,
    reusing aux, and is called only at accepted points. An iteration stops
    as converged once every gradient entry is below grad_tol, and otherwise
    tries project(x - step * g) until a finite, strictly lower value is
    accepted (the step then grows 1.5x, to at most 10) or the halved step
    falls below 1e-14 (converged). Returns (x, v, converged, iterations),
    iterations counting the gradients computed, at most max_iter."""
    v, aux = value(x)
    for it in range(1, max_iter + 1):
        g = gradient(x, aux)
        if max(np.max(np.abs(gi)) if np.size(gi) else 0.0 for gi in g) < grad_tol:
            return x, v, True, it
        while step >= 1e-14:
            trial = project(tuple(xi - step * gi for xi, gi in zip(x, g)))
            v_try, aux_try = value(trial)
            if np.isfinite(v_try) and v_try < v:
                x, v, aux = trial, v_try, aux_try
                step = min(step * 1.5, 10.0)
                break
            step *= 0.5
        else:
            return x, v, True, it
    return x, v, False, max_iter
