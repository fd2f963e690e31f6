"""Torus contact sets and numerical rank.

A contact set collects the points of T^n where selected components of a
certified self-map attain unit modulus.  Detection screens a dense angle grid
(min over selected component moduli within a coarse margin of 1) and then
drives candidates onto the contact locus with a damped Newton ascent on the
smooth objective sum_i |Phi_i|^2; the same routine, run as a descent on
|f - eta|^2, solves the value fibers f = eta for the sublevel proposals.
Each component's float32 modulus grid comes from ``symbols``, which walks
only the angles its table depends on and keeps length-1 axes for the others,
so a two-variable component of a tridisc map costs res^2 cells, not res^3,
and the test on the minimum over components combines the per-component
tests by broadcasting.
Whether the refined set is a finite point list or a sampled
positive-dimensional locus is decided by the fraction of accepted grid cells.
Either way a ``ContactSet`` holds its points as one read-only (N, n) array
of angles in [0, 2 pi), shared with the per-constraint cache.  The rank
checks below read it as is, and so do ``sublevel``'s value fibers, whose
points give the fiber arcs of bindings outside ``build_proposal``'s term
rule; only a reported point becomes a ``TorusPoint``.

Rank checks take a whole contact set's angles at once: one batched Jacobian
evaluation and one stacked SVD give a ``RankBatch`` holding every point's
singular values, rank and inconclusive flag, from which the per-point
``RankReport`` records are built on demand.  The boundary-derivative checks
at contact points are in ``inequality_lab`` with the other property checks.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import DEFAULTS, LabConfig, contact_grid_res
from .symbols import (MonomialTable, PolySymbol, TorusPoint, _derivative_table_cached, _eval_table,
                      _torus_modulus_grid)

TWO_PI = 2.0 * math.pi

# Contact detection.  Grid cells whose minimum component modulus is within
# COARSE_MARGIN of 1 seed the Newton refinement, at most POSDIM_SAMPLE_CAP of
# them (also the size of the sample grid of a constraint-free torus).
# Refined points closer than MERGE_RADIUS are one point.  A locus whose
# accepted grid fraction exceeds MANIFOLD_FRAC is positive-dimensional; so
# is a "finite" one with more than FINITE_CAP separated points, a sampled
# curve that slipped under MANIFOLD_FRAC.
COARSE_MARGIN = 1e-2
MERGE_RADIUS = 1e-4
MANIFOLD_FRAC = 0.05
POSDIM_SAMPLE_CAP = 4096
FINITE_CAP = 256


class ContactRequired(ValueError):
    """Raised when an operation needs a torus contact point and was given none."""


@dataclass(frozen=True, eq=False)
class ContactSet:
    """A contact set's points as read-only arrays, shared with the detection cache."""

    symbol: PolySymbol
    index_set: tuple[int, ...]
    kind: str  # "empty" | "finite" | "positive_dimensional"
    points: np.ndarray     # (N, n) angles in [0, 2 pi)
    residuals: np.ndarray  # (N,)
    grid_res: int
    accepted_fraction: float
    contact_tol: float

    def to_csv_rows(self) -> tuple[list[str], list[list]]:
        n = self.symbol.n_in
        header = [f"theta_{j + 1}" for j in range(n)] + ["residual", "kind"]
        rows = [[*pt, res, self.kind]
                for pt, res in zip(self.points.tolist(), self.residuals.tolist())]
        return header, rows


@dataclass(frozen=True)
class RankReport:
    point: TorusPoint
    singular_values: tuple[float, ...]
    rank: int
    target: int
    passed: bool
    inconclusive: bool


# ---------------------------------------------------------------------------
# grid screening
# ---------------------------------------------------------------------------


_GRID_CACHE_BYTES = 128 << 20  # two full 256^3 float32 grids
_grid_cache: OrderedDict[tuple, np.ndarray] = OrderedDict()


def _modulus_grid(table: MonomialTable, n: int, res: int) -> np.ndarray:
    """Float32 ``symbols._torus_modulus_grid``, shaped to broadcast.

    Grids are kept in a least-recently-used cache bounded by
    _GRID_CACHE_BYTES, not by a count of entries.
    """
    key = (table, n, res)
    grid = _grid_cache.get(key)
    if grid is None:
        grid = _torus_modulus_grid(table, n, res, np.float32)
        _grid_cache[key] = grid
        held = sum(g.nbytes for g in _grid_cache.values())
        while held > _GRID_CACHE_BYTES:
            held -= _grid_cache.popitem(last=False)[1].nbytes
    else:
        _grid_cache.move_to_end(key)
    return grid


def _grid_angles(idx: np.ndarray, n: int, res: int) -> np.ndarray:
    coords = np.stack(np.unravel_index(idx, (res,) * n), axis=1)
    return coords * (TWO_PI / res)


# ---------------------------------------------------------------------------
# Newton refinement on the torus
# ---------------------------------------------------------------------------


def _torus_newton(tables, targets, theta: np.ndarray, ascend: bool) -> np.ndarray:
    """Damped Newton on F(theta) = sum_i |P_i(e^{i theta}) - t_i|^2 over T^n.

    Ascends F when ``ascend`` (contact refinement: targets 0, moduli pushed up
    to 1), otherwise descends it (value fibers: P = eta).  Steps are clipped
    to length 0.5 and halved until F does not get worse.  Every step is
    -pinv(H) g, so flat directions (positive-dimensional loci) get no step
    and a row's step never depends on the other rows.  Returns the
    unwrapped angles, so callers can evaluate residuals before reducing
    mod 2 pi.
    """
    n = theta.shape[1]
    d1 = [[_derivative_table_cached(t, j) for j in range(n)] for t in tables]
    d2 = [[[_derivative_table_cached(d, k) for k in range(n)] for d in row] for row in d1]
    sign = 1.0 if ascend else -1.0

    def f_g_h(th):
        z = np.exp(1j * th)
        cache: dict = {}
        B = th.shape[0]
        F = np.zeros(B)
        g = np.zeros((B, n))
        H = np.zeros((B, n, n))
        for ci, table in enumerate(tables):
            val = _eval_table(table, z, cache) - targets[ci]
            dval = [_eval_table(d1[ci][j], z, cache) for j in range(n)]
            w = [1j * z[:, j] * dval[j] for j in range(n)]
            F += np.abs(val) ** 2
            conj_val = np.conj(val)
            for j in range(n):
                g[:, j] += 2.0 * np.real(conj_val * w[j])
            for j in range(n):
                for k in range(j, n):
                    d2val = _eval_table(d2[ci][j][k], z, cache)
                    dw = -z[:, j] * z[:, k] * d2val
                    if j == k:
                        dw = dw - z[:, j] * dval[j]
                    h = 2.0 * np.real(np.conj(w[k]) * w[j] + conj_val * dw)
                    H[:, j, k] += h
                    if k != j:
                        H[:, k, j] += h
        return F, g, H

    th = theta.copy()
    # A row that an iteration leaves bit-unchanged is a fixed point: its next
    # iteration would repeat this one exactly.  Such rows retire, and their
    # last gradient norm stays in the stopping tests, so the other rows run
    # the same iterations as they would with every row kept.
    moving = np.arange(th.shape[0])
    last_gnorm = np.zeros(th.shape[0])
    for _ in range(30):
        rows = th[moving]
        F, g, H = f_g_h(rows)
        gnorm = np.linalg.norm(g, axis=1)
        last_gnorm[moving] = gnorm
        if not np.any(last_gnorm > 1e-13):
            break
        active = gnorm > 1e-13
        step = np.zeros_like(rows)
        step[active] = -np.einsum("bij,bj->bi", np.linalg.pinv(H[active]), g[active])
        # clip absurd steps, then damp until F does not get worse
        norms = np.linalg.norm(step, axis=1, keepdims=True)
        step = np.where(norms > 0.5, step * (0.5 / np.maximum(norms, 1e-300)), step)
        improved = np.zeros(rows.shape[0], dtype=bool)
        trial = rows.copy()
        for t in (1.0, 0.5, 0.25, 0.125):
            cand = rows + t * step
            Fc = f_g_h(cand)[0]
            take = (~improved) & (sign * Fc >= sign * F - 1e-15)
            trial[take] = cand[take]
            improved |= take
        th[moving] = trial
        if np.max(last_gnorm) < 1e-12:
            break
        moving = moving[np.any(trial != rows, axis=1)]
        if not moving.size:
            break
    return th


def _dedupe(theta: np.ndarray, residuals: np.ndarray, merge_radius: float) -> tuple[np.ndarray, np.ndarray]:
    """Greedy clustering in the wrap-around sup metric; keeps the best residual.

    Points are visited in lexicographic order.  Each joins the earliest-listed
    representative closer than merge_radius, replacing it when its residual is
    smaller, or else becomes a new representative.  Representatives are
    bucketed by cells at least merge_radius wide in their first min(n, 3)
    angles, so a point is compared only with those in the (at most 27) cells
    around its own.
    """
    k = min(theta.shape[1], 3)
    # a hair under 2 pi / merge_radius cells per angle, so that rounding cannot
    # put two close points two cells apart; at most 2^20, so that a cell's
    # code fits in an int64
    cells = (1 << 20 if merge_radius * (1 << 20) < TWO_PI
             else max(1, int(TWO_PI / merge_radius * (1.0 - 1e-9))))
    key = np.floor((theta[:, :k] % TWO_PI) * (cells / TWO_PI)).astype(np.int64) % cells
    weights = cells ** np.arange(k, dtype=np.int64)
    code = key @ weights
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=k)))
    around = ((key[:, None, :] + offsets) % cells) @ weights
    # only cells that hold some point can ever hold a representative
    occupied = np.isin(around, code)
    flat = around[occupied].tolist()
    end = np.cumsum(occupied.sum(axis=1)).tolist()
    near_cells = [flat[a:b] for a, b in zip([0, *end[:-1]], end)]
    code = code.tolist()
    rows = theta.tolist()
    resid = residuals.tolist()

    def gap(i, j):  # wrap-around sup distance
        return max(abs((a - b + math.pi) % TWO_PI - math.pi) for a, b in zip(rows[i], rows[j]))

    buckets: dict[int, list[int]] = {}  # cell code -> positions in reps
    reps: list[int] = []
    for idx in np.lexsort(theta.T[::-1]).tolist():
        near = sorted({pos for c in near_cells[idx] for pos in buckets.get(c, ())})
        joined = next((pos for pos in near if gap(idx, reps[pos]) < merge_radius), None)
        if joined is None:
            buckets.setdefault(code[idx], []).append(len(reps))
            reps.append(idx)
        elif resid[idx] < resid[reps[joined]]:
            buckets[code[reps[joined]]].remove(joined)
            buckets.setdefault(code[idx], []).append(joined)
            reps[joined] = idx
    reps_arr = np.array(reps, dtype=int)
    final_order = np.lexsort(theta[reps_arr].T[::-1])
    reps_arr = reps_arr[final_order]
    return theta[reps_arr], residuals[reps_arr]


def find_contact_set(
    sym: PolySymbol,
    index_set,
    grid_res: int | None = None,
    config: LabConfig = DEFAULTS,
) -> ContactSet:
    """Detect {zeta in T^n : |Phi_i(zeta)| = 1 for i in index_set}.

    Components that are single monomials impose either no constraint (unit
    coefficient modulus: the full torus) or an impossible one, so they are
    resolved structurally before any grid work.  The components that remain
    are the constraint; index sets with the same constraint share one cached
    detection, so e.g. {0} and {0, 2} cost one grid screen and one Newton
    refinement when component 2 is a unimodular monomial.
    """
    sym.require_certificate()
    index_set = tuple(sorted(int(i) for i in index_set))
    if not index_set:
        raise ValueError("index set must be nonempty")
    for i in index_set:
        if not 0 <= i < sym.n_out:
            raise ValueError(f"component index {i} out of range")
    res = grid_res if grid_res is not None else contact_grid_res(sym.n_in)
    constraint = []
    for i in index_set:
        mono = sym.monomial_structure(i)
        if mono is None:
            constraint.append(sym.components[i])
        elif abs(abs(mono[0]) - 1.0) > config.contact_tol:
            constraint = None  # |c z^alpha| = |c| != 1 everywhere on T^n
            break
    if constraint is None or not all(constraint):  # or a zero component
        kind, points, residuals, frac = _locus("empty", [], [], 0.0, sym.n_in)
    else:
        kind, points, residuals, frac = _contact_locus(tuple(constraint), sym.n_in, res,
                                                       config.contact_tol)
    return ContactSet(symbol=sym, index_set=index_set, kind=kind, points=points,
                      residuals=residuals, grid_res=res, accepted_fraction=frac,
                      contact_tol=config.contact_tol)


def _locus(kind: str, theta, residuals, frac: float, n: int):
    """(kind, read-only (N, n) angles, read-only (N,) residuals, accepted fraction).

    The angles are reduced mod 2 pi once more: numpy's % maps a tiny negative
    angle to exactly 2 pi, which the second reduction maps to 0.
    """
    theta = np.reshape(np.asarray(theta, dtype=float), (-1, n)) % TWO_PI
    residuals = np.array(residuals, dtype=float)
    theta.flags.writeable = residuals.flags.writeable = False
    return kind, theta, residuals, float(frac)


@lru_cache(maxsize=32)
def _contact_locus(tables: tuple[MonomialTable, ...], n: int, res: int, contact_tol: float):
    """(kind, points, residuals, accepted fraction) of {|P| = 1 for every P in tables}."""

    if not tables:
        # whole torus; deterministic coarse sample grid
        side = max(2, int(round(POSDIM_SAMPLE_CAP ** (1.0 / n))))
        theta = TWO_PI * np.arange(side) / side
        grids = np.meshgrid(*([theta] * n), indexing="ij")
        pts = np.stack([g.reshape(-1) for g in grids], axis=1)
        return _locus("positive_dimensional", pts, np.zeros(len(pts)), 1.0, n)

    # the minimum modulus is within the margin iff every component's is; the
    # per-component masks broadcast against each other
    near_unit = functools.reduce(np.logical_and, [
        _modulus_grid(t, n, res) >= 1.0 - COARSE_MARGIN for t in tables
    ])
    candidates = np.flatnonzero(np.broadcast_to(near_unit, (res,) * n))
    total_cells = res**n
    frac_coarse = len(candidates) / total_cells
    if len(candidates) == 0:
        return _locus("empty", [], [], 0.0, n)

    stride = max(1, math.ceil(len(candidates) / POSDIM_SAMPLE_CAP))
    seeds = candidates[::stride]
    theta0 = _grid_angles(seeds, n, res)
    theta = _torus_newton(tables, [0j] * len(tables), theta0, ascend=True)
    z = np.exp(1j * theta)
    cache: dict = {}
    residual = 1.0 - np.minimum.reduce([np.abs(_eval_table(t, z, cache)) for t in tables])
    theta %= TWO_PI
    accepted = residual <= contact_tol
    acc_rate = float(np.mean(accepted)) if len(accepted) else 0.0
    frac = frac_coarse * acc_rate
    if not np.any(accepted):
        return _locus("empty", [], [], frac, n)

    theta_a = theta[accepted]
    res_a = residual[accepted]
    if frac > MANIFOLD_FRAC:
        order = np.lexsort(theta_a.T[::-1])
        return _locus("positive_dimensional", theta_a[order], res_a[order], frac, n)

    pts, resid = _dedupe(theta_a, res_a, MERGE_RADIUS)
    if len(pts) > FINITE_CAP:
        # a thin curve sampled densely looks like very many separated points;
        # the cell fraction missed it, the point count does not
        return _locus("positive_dimensional", pts, resid, frac, n)
    h = TWO_PI / res
    if len(pts) <= 64:
        for a, b in itertools.combinations(range(len(pts)), 2):
            d = np.abs((pts[a] - pts[b] + math.pi) % TWO_PI - math.pi)
            if np.max(d) < 2.0 * h:
                # cached, so this fires once per constraint and process
                warnings.warn(
                    f"grid resolution {res} may be too small to separate contact points "
                    f"{pts[a]} and {pts[b]}",
                    stacklevel=3,
                )
                break
    return _locus("finite", pts, resid, frac, n)


# ---------------------------------------------------------------------------
# rank analysis
# ---------------------------------------------------------------------------


def _stacked_rank(blocks: np.ndarray, rank_tol: float, rank_band: float):
    """Singular values, ranks and inconclusive flags of an (N, k, m) matrix stack.

    sigma_k counts iff sigma_k > rank_tol * sigma_1.  Singular values in the
    open band (rank_tol, rank_band) * sigma_1 are a gray zone: they flag the
    block inconclusive instead of being silently tie-broken.
    """
    sv = np.linalg.svd(np.asarray(blocks, dtype=complex), compute_uv=False)
    top = sv[:, :1]
    nonzero = top != 0.0  # a zero (or empty) block has rank 0 and is never inconclusive
    rel = sv / np.where(nonzero, top, 1.0)
    counted = (rel > rank_tol) & nonzero
    return sv, counted.sum(axis=1), (counted & (rel < rank_band)).any(axis=1)


@dataclass(frozen=True, eq=False)
class RankBatch:
    """Rank of the Jacobian block d_zeta Phi_I at every point of a contact set.

    Row k of each array belongs to the angles ``points[k]``; ``report(k)``
    builds that point's ``RankReport``.
    """

    points: np.ndarray           # (N, n) angles
    target: int
    jacobians: np.ndarray        # (N, |I|, n) Jacobian blocks
    singular_values: np.ndarray  # (N, min(|I|, n)), descending
    ranks: np.ndarray            # (N,)
    inconclusive: np.ndarray     # (N,) bool

    @property
    def passed(self) -> np.ndarray:
        return (self.ranks == self.target) & ~self.inconclusive

    def report(self, k: int) -> RankReport:
        return RankReport(
            point=TorusPoint(tuple(self.points[k].tolist())),
            singular_values=tuple(float(s) for s in self.singular_values[k]),
            rank=int(self.ranks[k]),
            target=self.target,
            passed=bool(self.passed[k]),
            inconclusive=bool(self.inconclusive[k]),
        )


def rank_report(sym: PolySymbol, index_set: tuple[int, ...], angles,
                config: LabConfig = DEFAULTS) -> RankBatch:
    """Rank of the Jacobian block d_zeta Phi_I against the target |I| at every row of ``angles``."""
    angles = np.asarray(angles, dtype=float).reshape(-1, sym.n_in)
    blocks = sym.jacobian_batch(np.exp(1j * angles))[:, list(index_set), :]
    sv, ranks, inconclusive = _stacked_rank(blocks, config.rank_tol, config.rank_band)
    return RankBatch(points=angles, target=len(index_set), jacobians=blocks,
                     singular_values=sv, ranks=ranks, inconclusive=inconclusive)
