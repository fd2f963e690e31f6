"""Independent brute-force oracles used to pin expected values in the tests.

Everything in here is deliberately written without touching the package
internals beyond plain evaluation, so test expectations do not share code
paths with the implementations they check.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate


def eval_entries(entries, z):
    """Evaluate a list of (exponent tuple, coefficient) pairs at a point."""
    total = 0j
    for alpha, c in entries:
        term = c
        for zj, aj in zip(z, alpha):
            term *= zj ** aj
        total += term
    return total


def diff_entries(entries, j):
    """Symbolic derivative of a monomial list with respect to variable j."""
    out = {}
    for alpha, c in entries:
        if alpha[j] == 0:
            continue
        beta = tuple(a - 1 if i == j else a for i, a in enumerate(alpha))
        out[beta] = out.get(beta, 0j) + c * alpha[j]
    return list(out.items())


def grid_disc_cap(a, delta, beta, res=2048):
    """Dense-grid indicator sum for A_beta(D(a, delta) ∩ D).

    Midpoint rule on a res x res grid over [-1, 1]^2 with the normalized
    weighted area density (beta + 1) (1 - |z|^2)^beta / pi.
    """
    xs = (np.arange(res) + 0.5) / res * 2.0 - 1.0
    cell = (2.0 / res) ** 2
    x, y = np.meshgrid(xs, xs, indexing="ij")
    r2 = x * x + y * y
    inside = (r2 < 1.0) & ((x - np.real(a)) ** 2 + (y - np.imag(a)) ** 2 < delta * delta)
    w = np.zeros_like(x)
    w[inside] = (beta + 1.0) * (1.0 - r2[inside]) ** beta / np.pi
    return float(w.sum() * cell)


def radial_moment(beta, power):
    """1-D quadrature of E|z|^power under the weighted disc measure."""
    val, _ = integrate.quad(
        lambda r: r ** power * (beta + 1.0) * (1.0 - r * r) ** beta * 2.0 * r,
        0.0,
        1.0,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    return val


def greedy_dedupe(theta, residuals, merge_radius):
    """Reference clustering in the wrap-around sup metric, O(N * representatives).

    Visits the points in lexicographic order; each joins the earliest-listed
    representative closer than merge_radius (replacing it when its residual is
    smaller) or becomes a new one.  Returns the representatives in
    lexicographic order.
    """
    two_pi = 2.0 * np.pi
    order = np.lexsort(theta.T[::-1])
    reps = []
    for idx in order:
        if reps:
            d = np.abs((theta[idx] - theta[reps] + np.pi) % two_pi - np.pi)
            close = np.flatnonzero(np.max(d, axis=1) < merge_radius)
            if close.size:
                r_pos = int(close[0])
                if residuals[idx] < residuals[reps[r_pos]]:
                    reps[r_pos] = idx
                continue
        reps.append(idx)
    reps = np.array(reps, dtype=int)
    reps = reps[np.lexsort(theta[reps].T[::-1])]
    return theta[reps], residuals[reps]


def uniform_sublevel_volume(entries, n, eta, delta, budget, seed):
    """Plain hit-or-miss V_0({z in D^n : |f(z) - eta| <= delta}) with its stderr.

    Draws ``budget`` points uniformly from the polydisc (Lebesgue, beta = 0)
    and counts how many satisfy the inequality.
    """
    rng = np.random.default_rng(seed)
    z = np.sqrt(rng.random((budget, n))) * np.exp(2j * np.pi * rng.random((budget, n)))
    f = np.zeros(budget, dtype=complex)
    for alpha, c in entries:
        f += c * np.prod(z ** np.asarray(alpha), axis=1)
    p = np.count_nonzero(np.abs(f - eta) <= delta) / budget
    return p, float(np.sqrt(p * (1.0 - p) / budget))
