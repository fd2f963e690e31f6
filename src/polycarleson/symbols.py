"""Sparse multivariate polynomial maps of the polydisc and exact calculus on them.

A map D^n -> C^m is stored per component as a table of (multi-index, complex
coefficient) pairs.  Differentiation is exact (coefficient shift on the
multi-indices); evaluation is a plain monomial sum with cached powers, which is
fast enough for vectorized Monte Carlo batches of ~10^6 points.

Maps used as composition-operator symbols must be self-maps of the polydisc.
By the maximum principle the modulus of a polynomial over the closed polydisc
peaks on the torus, so construction certifies ``max |Phi_i| <= 1 + CERT_TOL``
on a dense torus grid and records a Lipschitz bound for the gap between grid
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .config import CERT_TOL, cert_grid_res


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
    already stays below 1 + cert_tol, i.e. the bound is proven everywhere and
    not only at grid points.
    """

    grid_max: float
    grid_res: int
    lipschitz_margin: float
    cert_tol: float
    strong: bool


@dataclass(frozen=True)
class TorusPoint:
    """Point of the torus T^n stored by its angles; |zeta_j| = 1 by construction."""

    angles: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(a) % (2.0 * math.pi) for a in self.angles))

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
        certify: bool = True,
    ) -> "PolySymbol":
        comps = tuple(_normalize_table(t, n_in) for t in tables)
        if not comps:
            raise ValueError("symbol needs at least one component")
        sym = PolySymbol(n_in=n_in, components=comps)
        if certify:
            sym = certify_self_map(sym)
        return sym

    @staticmethod
    def from_literal(rows: list[list[list[float]]], certify: bool = True) -> "PolySymbol":
        """Build from the config-file literal format.

        One list per component, each a list of ``[coeff_re, coeff_im, a_1, ..., a_n]``
        rows.
        """
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
        return PolySymbol.from_tables(tables, n_in, certify=certify)

    @staticmethod
    def monomial(n: int, alpha: Iterable[int], coeff: complex = 1.0, certify: bool = True) -> "PolySymbol":
        return PolySymbol.from_tables([[(tuple(alpha), coeff)]], n, certify=certify)

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

    def derivative_table(self, i: int, j: int) -> MonomialTable:
        """Exact table of d(component i)/dz_j."""
        return _derivative_table_cached(self.components[i], j)

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
        for i in range(self.n_out):
            for j in range(self.n_in):
                out[:, i, j] = _eval_table(self.derivative_table(i, j), z, cache)
        return out

    def restrict(self, fixed: Mapping[int, complex]) -> "PolySymbol":
        """Fold a partial variable assignment into the coefficients exactly.

        Remaining variables keep their original relative order.  The result is
        re-certified quietly: a restriction of a certified self-map to values
        inside the closed disc is again a self-map, but certification is only
        attached when the grid screen passes.
        """
        fixed = {int(j): complex(v) for j, v in fixed.items()}
        for j in fixed:
            if not 0 <= j < self.n_in:
                raise DimensionMismatch(f"fixed variable index {j} out of range")
        free = [j for j in range(self.n_in) if j not in fixed]
        if not free:
            raise ValueError("restriction must leave at least one free variable")
        tables = []
        for table in self.components:
            entries = []
            for alpha, c in table:
                factor = c
                for j, v in fixed.items():
                    if alpha[j]:
                        factor *= v ** alpha[j]
                entries.append((tuple(alpha[j] for j in free), factor))
            tables.append(entries)
        sym = PolySymbol.from_tables(tables, len(free), certify=False)
        if self.certificate is not None and all(abs(v) <= 1.0 + self.certificate.cert_tol for v in fixed.values()):
            try:
                sym = certify_self_map(sym, self.certificate.cert_tol)
            except SymbolNotSelfMap:
                pass
        return sym

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


def certify_self_map(sym: PolySymbol, cert_tol: float = CERT_TOL) -> PolySymbol:
    """Torus-grid self-map screen; rejects symbols with grid max above 1 + cert_tol.

    Polynomial moduli peak on T^n, so a grid maximum above the tolerance is a
    sound rejection.  The per-cell Lipschitz bound (from coefficient norms)
    upgrades the certificate to ``strong`` when even inter-grid spikes are
    excluded.
    """
    res = cert_grid_res(sym.n_in)
    theta = 2.0 * math.pi * np.arange(res) / res
    ring = np.exp(1j * theta)
    grids = np.meshgrid(*([ring] * sym.n_in), indexing="ij")
    z = np.stack([g.reshape(-1) for g in grids], axis=1)
    vals = sym.evaluate_batch(z)
    grid_max = float(np.abs(vals).max())

    h = 2.0 * math.pi / res
    margin = 0.0
    for table in sym.components:
        comp_margin = sum(abs(c) * a_j for alpha, c in table for a_j in alpha) * h / 2.0
        margin = max(margin, comp_margin)

    if grid_max > 1.0 + cert_tol:
        raise SymbolNotSelfMap(
            f"torus grid max {grid_max:.12g} exceeds 1 + cert_tol ({1.0 + cert_tol:.12g})"
        )
    cert = SelfMapCertificate(
        grid_max=grid_max,
        grid_res=res,
        lipschitz_margin=margin,
        cert_tol=cert_tol,
        strong=(grid_max + margin <= 1.0 + cert_tol),
    )
    return PolySymbol(n_in=sym.n_in, components=sym.components, certificate=cert)
