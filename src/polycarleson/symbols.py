"""Sparse multivariate polynomial maps of the polydisc and exact calculus on them.

A map D^n -> C^m is stored per component as a table of (multi-index, complex
coefficient) pairs.  Differentiation is exact (coefficient shift on the
multi-indices); evaluation is a plain monomial sum with cached powers, which is
fast enough for vectorized Monte Carlo batches of ~10^6 points.

Maps used as composition-operator symbols must be self-maps of the polydisc.
By the maximum principle the modulus of a polynomial over the closed polydisc
peaks on the torus, so construction certifies ``max |Phi_i| <= 1 + CERT_TOL``
on a dense torus grid and records a Lipschitz bound for the gap between grid
points.  The grid is walked along the axes each table depends on, one pass
per distinct table; this module's ``_torus_modulus_grid`` is the only
evaluator of tables on a torus grid, also for contact screens and the
Schwarz slice bound of the sublevel proposals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

import numpy as np

from .config import CERT_TOL


class DimensionMismatch(ValueError):
    pass


class SymbolNotSelfMap(ValueError):
    pass


class SymbolNotCertified(ValueError):
    pass


# ((exponent tuple, coefficient), ...) sorted by exponent tuple, zeros dropped
MonomialTable = tuple[tuple[tuple[int, ...], complex], ...]


def _normalize_table(entries: Iterable[tuple[Iterable[int], complex]], n_in: int) -> MonomialTable:
    acc: dict[tuple[int, ...], complex] = {}
    for alpha, c in entries:
        alpha = tuple(alpha)
        if any(isinstance(a, bool) or not float(a).is_integer() for a in alpha):
            raise ValueError(f"non-integral exponent in multi-index {alpha}")
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != n_in:
            raise DimensionMismatch(f"multi-index {alpha} has length {len(alpha)}, expected {n_in}")
        if any(a < 0 for a in alpha):
            raise ValueError(f"negative exponent in multi-index {alpha}")
        c = complex(c)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise ValueError(f"non-finite coefficient {c}")
        acc[alpha] = acc.get(alpha, 0j) + c
    return tuple(sorted(((a, c) for a, c in acc.items() if c != 0), key=lambda t: t[0]))


@dataclass(frozen=True)
class SelfMapCertificate:
    """Record of the torus-grid self-map screen.

    ``grid_max`` is the exact maximum of max_i |Phi_i| over the certification
    grid; ``strong`` is set when grid_max plus the per-cell Lipschitz margin
    already stays below 1 + CERT_TOL, i.e. the bound is proven everywhere and
    not only at grid points.
    """

    grid_max: float
    grid_res: int
    lipschitz_margin: float
    strong: bool


@dataclass(frozen=True)
class TorusPoint:
    """Point of the torus T^n stored by its angles; |zeta_j| = 1 by construction."""

    angles: tuple[float, ...]

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        if not all(math.isfinite(a) for a in angles):
            raise ValueError(f"torus angles must be finite, got {angles}")
        object.__setattr__(self, "angles", tuple(a % (2.0 * math.pi) for a in angles))

    @property
    def n(self) -> int:
        return len(self.angles)

    def point(self) -> np.ndarray:
        return np.exp(1j * np.asarray(self.angles))


@dataclass(frozen=True)
class PolySymbol:
    """Polynomial map C^n_in -> C^n_out with sparse multi-index storage."""

    n_in: int
    components: tuple[MonomialTable, ...]
    certificate: SelfMapCertificate | None = None

    @property
    def n_out(self) -> int:
        return len(self.components)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_tables(
        tables: Iterable[Iterable[tuple[Iterable[int], complex]]],
        n_in: int,
    ) -> "PolySymbol":
        comps = tuple(_normalize_table(t, n_in) for t in tables)
        if not comps:
            raise ValueError("symbol needs at least one component")
        return certify_self_map(PolySymbol(n_in=n_in, components=comps))

    @staticmethod
    def from_literal(rows: list[list[list[float]]]) -> "PolySymbol":
        """Build from the config-file literal format.

        One list per component, each a list of ``[coeff_re, coeff_im, a_1, ..., a_n]``
        rows of ints or floats (not bools); the exponents are non-negative integers.
        """
        if not isinstance(rows, list) or not all(
                isinstance(comp, list) and all(
                    isinstance(row, list) and all(type(x) in (int, float) for x in row)
                    for row in comp)
                for comp in rows):
            raise ValueError("symbol literal must list components of rows of ints and floats")
        if not rows or not rows[0]:
            raise ValueError("empty symbol literal")
        n_in = len(rows[0][0]) - 2
        if n_in < 1:
            raise ValueError("literal rows need at least one exponent column")
        tables = []
        for comp in rows:
            entries = []
            for row in comp:
                if len(row) != n_in + 2:
                    raise DimensionMismatch(f"literal row {row} has wrong length")
                entries.append((tuple(row[2:]), complex(row[0], row[1])))
            tables.append(entries)
        return PolySymbol.from_tables(tables, n_in)

    @staticmethod
    def monomial(n: int, alpha: Iterable[int], coeff: complex = 1.0) -> "PolySymbol":
        return PolySymbol.from_tables([[(tuple(alpha), coeff)]], n)

    # -- evaluation --------------------------------------------------------

    def evaluate(self, z) -> np.ndarray:
        """Evaluate at a single point; returns a length-n_out complex vector."""
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.n_in,):
            raise DimensionMismatch(f"point has shape {z.shape}, expected ({self.n_in},)")
        return self.evaluate_batch(z[None, :])[0]

    def evaluate_batch(self, z: np.ndarray) -> np.ndarray:
        """Evaluate at an (N, n_in) batch; returns (N, n_out)."""
        z = np.asarray(z, dtype=complex)
        if z.ndim != 2 or z.shape[1] != self.n_in:
            raise DimensionMismatch(f"batch has shape {z.shape}, expected (N, {self.n_in})")
        out = np.empty((z.shape[0], self.n_out), dtype=complex)
        cache: dict[tuple[int, int], np.ndarray] = {}
        for i, table in enumerate(self.components):
            out[:, i] = _eval_table(table, z, cache)
        return out

    def component(self, i: int) -> "PolySymbol":
        """Scalar symbol made of component i; inherits the parent certificate."""
        return PolySymbol(n_in=self.n_in, components=(self.components[i],), certificate=self.certificate)

    # -- calculus ----------------------------------------------------------

    def jacobian(self, z) -> np.ndarray:
        """Exact Jacobian matrix (n_out x n_in) at a point."""
        z = np.asarray(z, dtype=complex)
        if z.shape != (self.n_in,):
            raise DimensionMismatch(f"point has shape {z.shape}, expected ({self.n_in},)")
        return self.jacobian_batch(z[None, :])[0]

    def jacobian_batch(self, z: np.ndarray) -> np.ndarray:
        """Jacobians at an (N, n_in) batch; returns (N, n_out, n_in)."""
        z = np.asarray(z, dtype=complex)
        if z.ndim != 2 or z.shape[1] != self.n_in:
            raise DimensionMismatch(f"batch has shape {z.shape}, expected (N, {self.n_in})")
        out = np.empty((z.shape[0], self.n_out, self.n_in), dtype=complex)
        cache: dict[tuple[int, int], np.ndarray] = {}
        for i, table in enumerate(self.components):
            for j in range(self.n_in):
                out[:, i, j] = _eval_table(_derivative_table_cached(table, j), z, cache)
        return out

    # -- structure introspection --------------------------------------------

    def depends_on(self, j: int) -> bool:
        return any(a[j] > 0 for t in self.components for a, _ in t)

    def monomial_structure(self, i: int = 0) -> tuple[complex, tuple[int, ...]] | None:
        """If component i is a single monomial c*z^alpha, return (c, alpha)."""
        table = self.components[i]
        if len(table) != 1:
            return None
        alpha, c = table[0]
        return (c, alpha)

    def require_certificate(self) -> SelfMapCertificate:
        if self.certificate is None:
            raise SymbolNotCertified("operation requires a certified self-map symbol")
        return self.certificate


def _eval_table(table: MonomialTable, z: np.ndarray, cache: dict) -> np.ndarray:
    acc = np.zeros(z.shape[0], dtype=complex)
    for alpha, c in table:
        term = None
        for j, e in enumerate(alpha):
            if e == 0:
                continue
            key = (j, e)
            p = cache.get(key)
            if p is None:
                p = z[:, j] if e == 1 else z[:, j] ** e  # the column itself: no copy
                cache[key] = p
            term = p if term is None else term * p
        acc += c if term is None else c * term
    return acc


@lru_cache(maxsize=4096)
def _derivative_table_cached(table: MonomialTable, j: int) -> MonomialTable:
    out: dict[tuple[int, ...], complex] = {}
    for alpha, c in table:
        if alpha[j] == 0:
            continue
        beta = list(alpha)
        beta[j] -= 1
        beta = tuple(beta)
        out[beta] = out.get(beta, 0j) + c * alpha[j]
    return tuple(sorted(out.items(), key=lambda t: t[0]))


def cert_grid_res(n: int) -> int:
    """Self-map certification grid resolution per angle."""
    table = {1: 256, 2: 96, 3: 64, 4: 24, 5: 12, 6: 8}
    if n not in table:
        raise ValueError(f"certification grid undefined for n={n}")
    return table[n]


_GRID_BLOCK = 1 << 16  # grid rows evaluated per _eval_table call


def _torus_modulus_grid(table: MonomialTable, n: int, res: int, dtype) -> np.ndarray:
    """|polynomial| over the res^n torus grid of angles 2 pi k / res, shaped to broadcast.

    Axis j has length res if the table depends on z_j and length 1 otherwise,
    so only the live axes are walked, _GRID_BLOCK rows at a time.
    ``_eval_table`` never reads a variable whose exponents are all zero, so
    every value has the same bits as in the full res^n evaluation.
    """
    live = [j for j in range(n) if any(alpha[j] for alpha, _ in table)]
    ring = np.exp(1j * (2.0 * math.pi * np.arange(res) / res))
    cells = res ** len(live)
    out = np.empty(cells, dtype=dtype)
    for start in range(0, cells, _GRID_BLOCK):
        flat = np.arange(start, min(start + _GRID_BLOCK, cells))
        z = np.ones((len(flat), n), dtype=complex)
        if live:  # a constant or empty table is one cell with no index
            for j, i in zip(live, np.unravel_index(flat, (res,) * len(live))):
                z[:, j] = ring[i]
        out[start : start + len(flat)] = np.abs(_eval_table(table, z, {}))
    return out.reshape([res if j in live else 1 for j in range(n)])


def _torus_grid_bound(tables: Iterable[MonomialTable], n: int, res: int) -> tuple[float, float]:
    """(grid max, Lipschitz margin) of max_i |P_i| over the res^n torus grid.

    Each distinct table is evaluated once, in float64.  Between grid points
    no table's modulus exceeds the grid max by more than the margin, a
    per-cell bound from coefficient norms.
    """
    distinct = set(tables)
    grid_max = float(np.max([_torus_modulus_grid(t, n, res, np.float64).max() for t in distinct]))
    h = 2.0 * math.pi / res
    margin = max(sum(abs(c) * a_j for alpha, c in t for a_j in alpha) * h / 2.0 for t in distinct)
    return grid_max, margin


def certify_self_map(sym: PolySymbol) -> PolySymbol:
    """Torus-grid self-map screen; rejects symbols with grid max above 1 + CERT_TOL.

    Polynomial moduli peak on T^n, so a grid maximum above the tolerance is a
    sound rejection, and so is one that is not finite (a power that overflows
    on the grid).  The per-cell Lipschitz margin upgrades the certificate to
    ``strong`` when even inter-grid spikes are excluded.
    """
    res = cert_grid_res(sym.n_in)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        grid_max, margin = _torus_grid_bound(sym.components, sym.n_in, res)
    if not grid_max <= 1.0 + CERT_TOL:  # NaN compares false
        raise SymbolNotSelfMap(
            f"torus grid max {grid_max:.12g} is not within 1 + CERT_TOL ({1.0 + CERT_TOL:.12g})"
        )
    cert = SelfMapCertificate(
        grid_max=grid_max,
        grid_res=res,
        lipschitz_margin=margin,
        strong=(grid_max + margin <= 1.0 + CERT_TOL),
    )
    return PolySymbol(n_in=sym.n_in, components=sym.components, certificate=cert)
