"""Deterministic parallel Monte Carlo batching.

A run is split into a fixed batch layout that depends only on (budget,
batch size); the batch size defaults to ``BUNDLE_POINTS`` = 2^16 points, the
size of one worker call.  Each batch draws from its own RNG stream derived as
``SeedSequence(entropy=seed, spawn_key=(crc32(label), batch_index))``, and the
per-batch results are reduced in batch order.  Thread count therefore never
influences the output: it only schedules which batch runs when.

The leakage audit runs i.i.d. draws in these default batches.  Randomised
quasi-Monte Carlo uses the same machinery with one batch per replicate:
``replicate_layout`` splits a budget into R >= 64 replicates of 2^k points,
and each batch scrambles its own Sobol point set from its stream
(``sobol_points``).  The replicates are independent and each is unbiased, so
their spread gives the standard error.  A worker call evaluates a bundle of
consecutive replicates, at most ``BUNDLE_POINTS`` points (``replicate_bundle``),
each still from its own stream.
"""

from __future__ import annotations

import functools
import os
import zlib
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

import numpy as np


T = TypeVar("T")

ENV_THREADS = "POLYCARLESON_THREADS"


def resolve_threads(threads: int | None) -> int:
    """Explicit value wins; then the POLYCARLESON_THREADS env var; then 1."""
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get(ENV_THREADS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def stream(seed: int, label: str, batch_index: int) -> np.random.Generator:
    """Independent generator for one batch: label and batch index mixed into the seed."""
    key = zlib.crc32(label.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(key, batch_index)))


# points per worker call: an i.i.d. batch, or a bundle of Sobol replicates
# (see ``replicate_bundle`` for why 2^16)
BUNDLE_POINTS = 1 << 16


def batch_layout(total: int, batch_size: int = BUNDLE_POINTS) -> list[int]:
    """Batch sizes for a budget; depends only on (total, batch_size)."""
    if total <= 0:
        raise ValueError("sample budget must be positive")
    full, rem = divmod(total, batch_size)
    sizes = [batch_size] * full
    if rem:
        sizes.append(rem)
    return sizes


MIN_REPLICATES = 64


def replicate_layout(budget: int) -> tuple[int, int]:
    """(R, 2^k) for a budget: the largest 2^k that leaves R = budget // 2^k >= 64.

    R then lies in [64, 127], so R * 2^k draws at least 64/65 of the budget.
    Budgets below 64 give single-point replicates.  A stderr from R
    replicates makes (estimate - truth)/stderr Student t with R - 1 degrees
    of freedom; at R >= 64 its tail beyond 3 is within 1.5x of the normal
    one (0.39 % against 0.27 %), so checks written with normal thresholds
    keep close to their stated odds.  Fewer, larger replicates would give
    smaller errors but heavier tails.
    """
    if budget <= 0:
        raise ValueError("sample budget must be positive")
    size = 1 << max((budget // MIN_REPLICATES).bit_length() - 1, 0)
    return budget // size, size


def replicate_bundle(size: int) -> int:
    """Replicates of ``size`` points per ``run_batches`` call: as many as fit in 2^16 points.

    Each array operation on a bundle then runs long enough with the GIL
    released that the worker threads seldom wait for each other.  One
    replicate of 2^14 points per call made them hand the GIL over some
    hundred times per replicate, so two threads ran hardly faster than one
    and wall time followed the machine's scheduling.  Bundles of 2^17 points
    no longer fit the per-core cache and ran slower.
    """
    return max(1, BUNDLE_POINTS // size)


SOBOL_BITS = 30  # digits per coordinate, as in scipy.stats.qmc.Sobol
_DIGIT_BITS = np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)  # digit i sits at bit 29 - i
_DIAG = np.arange(SOBOL_BITS)
_DIGIT_WEIGHTS = np.uint32(1) << np.arange(SOBOL_BITS, dtype=np.uint32)  # shift bit k is 2^k


@functools.lru_cache(maxsize=None)
def _sobol_digits(dim: int, m: int) -> np.ndarray:
    """(dim, SOBOL_BITS, m) binary digits of the first m unscrambled Sobol direction numbers.

    Read once from ``scipy.stats.qmc.Sobol``'s unscrambled points, which run
    in Gray-code order: point 2^(b+1) - 1 is direction number b.  Digit i,
    the most significant first, is the coefficient of 2^-(i+1).
    """
    from scipy.stats import qmc  # imported on first use: scipy.stats costs ~0.5 s to load

    x = qmc.Sobol(dim, scramble=False, bits=SOBOL_BITS).random_base2(m)
    v = np.rint(x[(2 << np.arange(m)) - 1] * 2.0**SOBOL_BITS).astype(np.uint32).T
    return ((v[:, None, :] >> _DIGIT_BITS[:, None]) & 1).astype(float)


def sobol_points(rng: np.random.Generator | Sequence[np.random.Generator], dim: int,
                 count: int) -> np.ndarray:
    """Scrambled Sobol replicates of ``count`` (a power of two) points in [0, 1)^dim.

    One replicate per generator: ``rng`` is one generator or a sequence of
    them, and the (replicates * count, dim) result lists the replicates in
    order.  Each replicate holds the points of ``scipy.stats.qmc.Sobol(dim,
    scramble=True, rng=generator).random_base2(m)``, in its order: a linear
    matrix scramble and a digital shift (Matousek's) drawn from a child of the
    generator, so every point is uniform and each replicate is a (t, m, s)-net.
    The scramble acts on the m direction numbers, and the points are their XOR
    span in Gray-code order, built by doubling for all replicates at once.
    A scipy engine per replicate costs ~1 ms of interpreter time instead.
    """
    m = count.bit_length() - 1
    if count != 1 << m:
        raise ValueError(f"a Sobol replicate needs a power-of-two size, not {count}")
    rngs = [rng] if isinstance(rng, np.random.Generator) else list(rng)
    shift = np.empty((len(rngs), dim), dtype=np.uint32)
    ltm = np.empty((len(rngs), dim, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32)
    for i, g in enumerate(rngs):
        child = g.spawn(1)[0]  # the engine scrambles from a child, leaving g's own stream
        shift[i] = child.integers(0, 2, size=(dim, SOBOL_BITS), dtype=np.uint32) @ _DIGIT_WEIGHTS
        ltm[i] = child.integers(0, 2, size=(dim, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32)
    # lower unit triangular: output digit i depends on input digits <= i
    ltm = np.tril(ltm, -1).astype(float)
    ltm[..., _DIAG, _DIAG] = 1.0
    digits = (ltm @ _sobol_digits(dim, m)).astype(np.uint32) & 1
    v = np.bitwise_or.reduce(digits << _DIGIT_BITS[:, None], axis=-2)  # (replicates, dim, m)
    points = np.empty((len(rngs), dim, count), dtype=np.uint32)
    points[..., 0] = shift
    for b in range(m):  # Gray code: points 2^b .. 2^(b+1) - 1 mirror the first 2^b, plus v_b
        points[..., 1 << b:2 << b] = points[..., (1 << b) - 1::-1] ^ v[..., b:b + 1]
    u = np.empty((dim, len(rngs), count))  # one contiguous column per uniform
    np.multiply(points.swapaxes(0, 1), 2.0**-SOBOL_BITS, out=u)
    return u.reshape(dim, -1).T


def run_batches(
    total: int,
    seed: int,
    label: str,
    worker: Callable[[np.random.Generator, int], T],
    threads: int | None = None,
    batch_size: int = BUNDLE_POINTS,
    bundle: int | None = None,
) -> list[T]:
    """Run ``worker(rng, count)`` over the batch layout; results in batch order.

    With ``bundle`` = g, one call takes g consecutive batches (the last call
    may take fewer): ``worker(rngs, count)`` gets their streams as a list, in
    batch order, and their total count, and its results come back in call
    order.  Every batch still draws from its own stream, so a vectorised
    worker returns what it would one batch at a time, in fewer and larger
    array operations.
    """
    sizes = batch_layout(total, batch_size)
    threads = resolve_threads(threads)
    step = bundle or 1

    def one(start):
        if bundle is None:
            return worker(stream(seed, label, start), sizes[start])
        idx = range(start, min(start + step, len(sizes)))
        return worker([stream(seed, label, i) for i in idx], sum(sizes[i] for i in idx))

    starts = range(0, len(sizes), step)
    if threads == 1 or len(starts) == 1:
        return [one(s) for s in starts]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, starts))


def sum_counts(results: Sequence[tuple]) -> tuple:
    """Reduce per-batch tuples of integers by exact (order-free) summation."""
    return tuple(int(sum(col)) for col in zip(*results))
