"""The line-searched descent that fits LFR and OPP: one step rule, one line search, one stop rule."""

import math
import warnings

from ..errors import FairbenchWarning, FitError


def descend(name, objective, point, direction, max_iter, tol, floor, cap):
    """Descend from `point`, whose objective is `objective`; return (last point, objective trace, stop reason).

    `direction(point)` gives `trial(t)`: the `(objective, point)` that a step of length t reaches, or None.
    A step starts at twice the last accepted length, at most `cap` (the first at 1), and halves up to 60
    times until the objective is finite and strictly lower. The reason is "converged" once the relative drop
    (old - new) / max(|old|, floor) is below `tol`, "line search" when no halving lowers the objective, and
    "max_iter" after `max_iter` steps, which warns. The trace is the starting and each accepted objective.
    """
    if not math.isfinite(objective):
        raise FitError(f"non-finite objective at initialization: {objective}")
    trace = [float(objective)]
    step, rel_drop = 1.0, math.inf
    for _ in range(max_iter):
        trial, t = direction(point), step
        for _ in range(60):
            reached = trial(t)
            if reached is not None and math.isfinite(reached[0]) and reached[0] < objective:
                break
            t *= 0.5
        else:
            return point, tuple(trace), "line search"
        rel_drop = (objective - reached[0]) / max(abs(objective), floor)
        objective, point = reached
        trace.append(float(objective))
        if rel_drop < tol:
            return point, tuple(trace), "converged"
        step = min(t * 2.0, cap)
    warnings.warn(f"{name} stopped at max_iter={max_iter} steps: "
                  f"last relative objective drop {rel_drop:.4g} >= tol {tol:.4g}", FairbenchWarning)
    return point, tuple(trace), "max_iter"
