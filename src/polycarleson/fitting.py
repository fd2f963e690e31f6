"""Least squares on log-log data for power-law exponents."""

from __future__ import annotations

import math
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
    """(deltas, values, relative non-replicate stderrs, replicates) of the kept points.

    ``values`` are the points' volumes or ratios and ``points`` their records,
    which carry ``trusted``, ``stderr`` and ``replicates``: the R scaled
    replicate means whose mean is the value's sampled part, on the value's
    scale (none for a quadrature, an empty set or a single replicate).
    Untrusted points and exact zeros (sets empty by structure) are left out;
    fewer than four left refuse the fit.  A point's stderr is the
    replicates' standard error and the rest (quadrature bound, leakage
    stderr, box-denominator bound) added in quadrature; the rest, recovered
    as a difference of squares, is returned relative to the value, and the
    replicates as they are.
    """
    kept = [(d, v, _non_replicate_stderr(p) / v, p.replicates)
            for d, v, p in zip(deltas, values, points) if p.trusted and v > 0]
    if len(kept) < 4:
        raise FitRefused(f"only {len(kept)} trusted points out of {len(points)}; need at least 4")
    return tuple(zip(*kept))


def _non_replicate_stderr(point) -> float:
    """The part of a point's stderr that its replicates' spread does not give."""
    if not point.replicates:
        return point.stderr
    spread = float(np.std(point.replicates, ddof=1)) ** 2 / len(point.replicates)
    return math.sqrt(max(point.stderr ** 2 - spread, 0.0))


def loglog_wls(x_values, y_values, y_rel_sigma, replicates=None) -> LogLogFit:
    """Fit log y = intercept + slope * log x with equal weights; propagate the errors.

    The slope is a fixed linear combination sum_k c_k log y_k, with
    c_k = (x_k - mean x) / S_xx on log x, and to first order a change dy_k
    moves it by sum_k c_k dy_k / y_k.  ``replicates`` gives per point the R
    replicate means whose mean is y_k's sampled part, or an empty sequence
    for a point with none; every point that has them has the same R, and
    replicate r of each point comes from the same random stream.  The
    slope's sampling error is then the spread over r of the linearised
    slope sum_k c_k m_{r,k} / y_k, divided by sqrt(R): correlated points
    cancel in it, as the slope, a difference of log y, cancels their common
    error.  ``y_rel_sigma`` is the rest of each point's sigma(y)/y, the part
    no replicate shows (a quadrature bound, a leakage stderr), taken as
    independent between points: sqrt(sum (c_k rel_k)^2), added to the
    replicate part in quadrature.  Without replicates that is the whole
    stderr.

    The weights do not come from the sigmas: a sigma estimated from a few
    replicates is itself noisy, and on a grid where log y bends slightly
    (local slopes drifting by ~1e-2) noisy weights move the slope by several
    times its stated error.  Each point of a grid has the same budget and a
    self-similar proposal, so the relative sigmas are close to equal and
    equal weights lose little.
    """
    x = np.log(np.asarray(x_values, dtype=float))
    v = np.asarray(y_values, dtype=float)
    y = np.log(v)
    s = np.asarray(y_rel_sigma, dtype=float)
    if x.shape != y.shape or x.shape != s.shape or (
            replicates is not None and len(replicates) != len(x)):
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
    slope_stderr = float(np.sqrt(np.sum((xc * s) ** 2)) / sxx)
    sampled = [k for k, m in enumerate(replicates or ()) if len(m)]
    if sampled:
        m = np.array([replicates[k] for k in sampled], dtype=float)  # (points, R): one R
        linear = (xc[sampled] / (sxx * v[sampled])) @ m
        spread = float(np.std(linear, ddof=1)) / math.sqrt(m.shape[1])
        slope_stderr = math.hypot(spread, slope_stderr)
    return LogLogFit(
        slope=slope,
        intercept=intercept,
        slope_stderr=slope_stderr,
        max_abs_residual=float(np.max(np.abs(resid))),
    )
