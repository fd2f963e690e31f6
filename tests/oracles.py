"""Independent brute-force oracles used to pin expected values in the tests.

Everything in here is deliberately written without touching the package
internals beyond plain evaluation, so test expectations do not share code
paths with the implementations they check.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath import mp, mpf
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


def eval_entries_batch(entries, z):
    """eval_entries at every row of an (N, n) array.

    Factors with a zero exponent are skipped and the rest are multiplied in
    variable order before the coefficient, an exponent of 1 taking the column
    view itself, as the package's vectorised evaluation does: numpy may round
    a complex product of contiguous arrays differently from one of strided
    views, so only the same order on the same layout agrees bit for bit.
    """
    acc = np.zeros(z.shape[0], dtype=complex)
    for alpha, c in entries:
        term = None
        for zj, aj in zip(z.T, alpha):
            if aj:
                p = zj if aj == 1 else zj**aj
                term = p if term is None else term * p
        acc += c if term is None else c * term
    return acc


def torus_grid(n, res):
    """Every point of the res^n grid of angles 2 pi k / res on T^n, one per row, C order."""
    ring = np.exp(1j * (2.0 * math.pi * np.arange(res) / res))
    return np.stack([g.reshape(-1) for g in np.meshgrid(*([ring] * n), indexing="ij")], axis=1)


def full_modulus_grid(entries, n, res, dtype):
    """|polynomial| at every point of the res^n torus grid, shaped (res,) * n."""
    return np.abs(eval_entries_batch(entries, torus_grid(n, res))).astype(dtype).reshape((res,) * n)


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


def uniform_joint_volume(bindings, n, beta, budget, seed):
    """Plain hit-or-miss V_beta({z in D^n : every binding holds}) with its stderr.

    ``bindings`` lists (entries, target, tolerance), each the test
    |f(z) - target| <= tolerance for f given by its (exponent tuple,
    coefficient) entries.  Draws ``budget`` i.i.d. points of V_beta, whose
    |z_j|^2 = 1 - (1 - U)^(1/(beta+1)) is U itself at beta = 0 (Lebesgue).
    """
    rng = np.random.default_rng(seed)
    r = np.sqrt(1.0 - (1.0 - rng.random((budget, n))) ** (1.0 / (beta + 1.0)))
    z = r * np.exp(2j * np.pi * rng.random((budget, n)))
    ok = np.ones(budget, dtype=bool)
    for entries, target, tol in bindings:
        f = np.zeros(budget, dtype=complex)
        for alpha, c in entries:
            f += c * np.prod(z ** np.asarray(alpha), axis=1)
        ok &= np.abs(f - target) <= tol
    p = np.count_nonzero(ok) / budget
    return p, float(np.sqrt(p * (1.0 - p) / budget))


def _halfwidth(rho, u, delta):
    """Half-width in angle of {theta : |rho e^{i theta} - u| <= delta}, in half-angle form."""
    inside = (delta - rho + u) * (delta + rho - u)
    outside = (rho + u - delta) * (rho + u + delta)
    return 2.0 * math.atan2(math.sqrt(max(inside, 0.0)), math.sqrt(max(outside, 0.0)))


def product_volume(n, delta, beta=0.0, epsrel=1e-13):
    """Exact V_beta({z in D^n : |z_1 ... z_n - 1| <= delta}) by quadrature.

    The argument of z_1 ... z_n is uniform and independent of rho = r_1 ... r_n,
    so the volume is E[h(rho, 1, delta)/pi] with h the angular half-width of
    the set at modulus rho.  h vanishes below rho = 1 - delta, i.e. beyond
    x = -log rho^2 = -2 log(1 - delta).  At beta = 0, x has the Gamma(n, 1)
    law: one quadrature for any n.  Otherwise x is the sum of the
    x_j = -log r_j^2, each with CDF (1 - e^{-x})^(beta+1): for n <= 2 the
    quadrature is nested, over each x_j's CDF value v_j, in which the law is
    uniform and the integrand stays bounded.
    """
    x_max = -2.0 * math.log1p(-delta) if delta < 1.0 else math.inf
    if beta != 0.0:
        return _product_volume_nested(n, delta, beta, x_max, epsrel)

    def integrand(x):
        rho = math.exp(-x / 2.0)
        gamma = x ** (n - 1) * math.exp(-x) / math.factorial(n - 1)  # Gamma(n, 1) density
        return _halfwidth(rho, 1.0, delta) / math.pi * gamma

    val, _ = integrate.quad(integrand, 0.0, x_max, epsabs=0.0, epsrel=epsrel, limit=200)
    return val


def _product_volume_nested(n, delta, beta, x_max, epsrel):
    """product_volume for beta != 0 and n <= 2: nested quadrature over the CDF values v_j."""
    if n not in (1, 2) or not x_max < math.inf:
        raise ValueError("the nested product oracle takes n <= 2 and delta < 1")
    p1 = beta + 1.0
    cdf = lambda x: (-math.expm1(-x)) ** p1
    quantile = lambda v: -math.log1p(-v ** (1.0 / p1))

    def halfwidth(x):  # h(rho, 1, delta)/pi at rho = e^{-x/2}, with rho - 1 kept exact
        fall = math.expm1(-x / 2.0)
        inside = (delta - fall) * (delta + fall)
        outside = (2.0 + fall - delta) * (2.0 + fall + delta)
        return 2.0 * math.atan2(math.sqrt(max(inside, 0.0)), math.sqrt(outside)) / math.pi

    def quad(fn, top):
        val, _ = integrate.quad(fn, 0.0, top, epsabs=0.0, epsrel=epsrel, limit=200)
        return val

    if n == 1:
        return quad(lambda v: halfwidth(quantile(v)), cdf(x_max))

    def inner(v1):
        x1 = quantile(v1)
        return quad(lambda v2: halfwidth(x1 + quantile(v2)), cdf(x_max - x1))

    return quad(inner, cdf(x_max))


def unit_disc_cap_area(delta):
    """A_0(D(1, delta) ∩ D) for delta < 2: the lens of two discs over pi."""
    area = (delta * delta * math.acos(delta / 2.0) + math.acos(1.0 - delta * delta / 2.0)
            - delta / 2.0 * math.sqrt(4.0 - delta * delta))
    return area / math.pi


def radial_cap_weight(b, u, delta, m, beta, epsrel=1e-13, rounded_edges=True):
    """V_beta probability over z = r e^{i theta} in D that |b z^m - u| <= delta, for b, u >= 0.

    The disc D(u, delta) meets the circle of radius rho = b r^m in an arc of
    half-width h, with cos h = (rho^2 + a c)/(rho (a + c)) for its signed
    inner and its outer distance from the origin, a = u - delta and
    c = u + delta.  Those two are taken as the doubles the package bounds its
    radial interval by: within an ulp of tangency, where mu_beta near
    beta = -1 puts visible mass on a sliver of r, the weight depends on how
    they round.  ``rounded_edges=False`` takes them as exact reals instead:
    the weight of the inputs themselves.  The rest runs at 30 digits (45
    give the same doubles on every row the tests use): the angle is
    integrated exactly (h/pi), the radius by mpmath's tanh-sinh quadrature
    in v = (1 - r^2)^(beta+1), where mu_beta is Lebesgue measure, and the
    part of the law where the whole circle lies in the disc is exact.  Raises ArithmeticError when the
    quadrature's error estimate exceeds epsrel of the weight plus 1e-20.
    """
    if b == 0.0:
        return 1.0 if u < delta else 0.0
    with mp.workdps(30):
        b, p1 = mpf(b), mpf(beta) + 1
        a, c = ((mpf(u - delta), mpf(u + delta)) if rounded_edges
                else (mpf(u) - mpf(delta), mpf(u) + mpf(delta)))
        x_lo = min(1, (abs(a) / b) ** (mpf(2) / m))  # r^2 where rho meets the inner edge
        x_hi = min(1, (c / b) ** (mpf(2) / m))        # ... and the outer edge
        total = 1 - (1 - x_lo) ** p1 if a < 0 else mpf(0)
        if x_lo >= x_hi:
            return float(total)

        def h(v):  # h/pi at r^2 = 1 - v^(1/(beta+1))
            rho = b * (1 - v ** (1 / p1)) ** (mpf(m) / 2)
            inside, outside = (c - rho) * (rho - a), (rho + a) * (rho + c)
            return 2 * mpmath.atan2(mpmath.sqrt(max(inside, 0)),
                                    mpmath.sqrt(max(outside, 0))) / mpmath.pi

        part, err = mpmath.quad(h, [(1 - x_hi) ** p1, (1 - x_lo) ** p1], error=True)
        total += part
        if err > epsrel * total + mpf(10) ** -20:
            raise ArithmeticError(f"radial cap weight did not converge: error {err} of {total}")
        return float(total)


def _gauss01(nodes):
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    return (x + 1.0) / 2.0, w / 2.0


def half_square_weight(u, delta, nodes=64):
    """radial_cap_weight(1/2, u, delta, 2, 0) for 1/2 - delta < u <= 1/2 + delta, delta < 1/2, vectorised.

    At beta = 0, r^2 is uniform, so the weight is (2/pi) times the integral of
    h(rho, u, delta) over rho = r^2/2 in [u - delta, 1/2], where the arc opens
    with a square root; rho = lo + (1/2 - lo) t^2 makes the integrand smooth
    in t for Gauss-Legendre.
    """
    t, wt = _gauss01(nodes)
    u = np.asarray(u, dtype=float)[..., None]
    lo = u - delta
    rho = lo + (0.5 - lo) * t * t
    inside = (delta - rho + u) * (delta + rho - u)
    outside = (rho + u - delta) * (rho + u + delta)
    h = 2.0 * np.arctan2(np.sqrt(np.maximum(inside, 0.0)), np.sqrt(np.maximum(outside, 0.0)))
    return 2.0 / math.pi * np.sum(h * 2.0 * (0.5 - lo) * t * wt, axis=-1)


def powersum2_volume(delta, nodes=64):
    """Exact V_0({z in D^2 : |(z_1^2 + z_2^2)/2 - 1| <= delta}) by nested quadrature, delta <= 1/4.

    Over z_1 the set has probability ``half_square_weight(u, delta)``, the
    ``radial_cap_weight`` oracle at b = 1/2, m = 2, at u = |1 - z_2^2/2|.  At
    beta = 0, w = z_2^2 = s e^{i phi} has s uniform on [0, 1) and phi
    uniform, and u^2 = 1 - s cos(phi) + s^2/4 >= 1/4.  The weight vanishes
    unless u <= 1/2 + delta, i.e. phi <= arccos(5/4 - A) and s >= s_1(phi),
    the lower root of s^2/4 - s cos(phi) + 1 - A with A = (1/2 + delta)^2; by
    symmetry in phi the volume is (1/pi) times the integral over that region.
    The weight vanishes like a power 3/2 at s_1 and the s-integral like a
    power 5/2 at the largest phi, so s = s_1 + (1 - s_1) q^2 and
    phi = phi_max (1 - p^2) leave smooth integrands for Gauss-Legendre.
    """
    a = (0.5 + delta) ** 2
    p, wp = _gauss01(nodes)
    phi_max = math.acos(1.25 - a)
    cos = np.cos(phi_max * (1.0 - p * p))[:, None]
    s1 = 2.0 * (1.0 - a) / (cos + np.sqrt(cos * cos - 1.0 + a))  # the stable lower root
    q, wq = _gauss01(nodes)
    s = s1 + (1.0 - s1) * q * q
    u = np.sqrt(np.maximum(1.0 - s * cos + s * s / 4.0, 0.25))
    inner = np.sum(half_square_weight(u, delta, nodes) * 2.0 * (1.0 - s1) * q * wq, axis=1)
    return float(np.sum(inner * 2.0 * phi_max * p * wp)) / math.pi
