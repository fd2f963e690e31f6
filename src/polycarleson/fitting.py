"""Least squares on log-log data for power-law exponents."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class FitRefused(RuntimeError):
    pass


@dataclass(frozen=True)
class LogLogFit:
    slope: float
    intercept: float
    slope_stderr: float
    max_abs_residual: float


def trusted_points(deltas, values, points):
    """(deltas, values, relative stderrs) of the trusted points with a positive value.

    ``values`` are the points' volumes or ratios and ``points`` their records,
    which carry ``trusted`` and ``stderr``.  Untrusted points and exact zeros
    (sets empty by structure) are left out; fewer than four left refuse the fit.
    """
    kept = [(d, v, p.stderr / v) for d, v, p in zip(deltas, values, points)
            if p.trusted and v > 0]
    if len(kept) < 4:
        raise FitRefused(f"only {len(kept)} trusted points out of {len(points)}; need at least 4")
    return tuple(zip(*kept))


def loglog_wls(x_values, y_values, y_rel_sigma) -> LogLogFit:
    """Fit log y = intercept + slope * log x with equal weights; propagate the errors.

    ``y_rel_sigma`` is sigma(y)/y per point, which is the standard deviation of
    log y to first order; the slope is a fixed linear combination of the log y
    values, so its standard error is that combination applied to the sigmas.
    The weights do not come from the sigmas: a sigma estimated from a few
    replicates is itself noisy, and on a grid where log y bends slightly
    (local slopes drifting by ~1e-2) noisy weights move the slope by several
    times its stated error.  Each point of a grid has the same budget and a
    self-similar proposal, so the relative sigmas are close to equal and
    equal weights lose little.
    """
    x = np.log(np.asarray(x_values, dtype=float))
    y = np.log(np.asarray(y_values, dtype=float))
    s = np.asarray(y_rel_sigma, dtype=float)
    if x.shape != y.shape or x.shape != s.shape:
        raise ValueError("mismatched fit inputs")
    if len(x) < 2:
        raise FitRefused("need at least two points to fit a slope")
    xc = x - x.mean()
    sxx = float(np.sum(xc * xc))
    if sxx <= 0:
        raise FitRefused("degenerate abscissa grid")
    slope = float(np.sum(xc * y) / sxx)
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    return LogLogFit(
        slope=slope,
        intercept=intercept,
        slope_stderr=float(np.sqrt(np.sum((xc * s) ** 2)) / sxx),
        max_abs_residual=float(np.max(np.abs(resid))),
    )
