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

import ctypes
import functools
import os
import sys
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


SOBOL_BITS = 30  # binary digits per coordinate; a replicate holds at most 2^30 points
_DIGIT_BITS = np.arange(SOBOL_BITS - 1, -1, -1, dtype=np.uint32)  # digit i sits at bit 29 - i
_DIAG = np.arange(SOBOL_BITS)
_DIGIT_WEIGHTS = np.uint32(1) << np.arange(SOBOL_BITS, dtype=np.uint32)  # shift bit k is 2^k

# Sobol direction numbers v_b * 2^30: row d - 1 for dimension d, column b for b < 30
_DIRECTIONS = np.array([
    [536870912, 268435456, 134217728, 67108864, 33554432, 16777216, 8388608, 4194304, 2097152,
     1048576, 524288, 262144, 131072, 65536, 32768, 16384, 8192, 4096, 2048, 1024, 512, 256, 128,
     64, 32, 16, 8, 4, 2, 1],
    [536870912, 805306368, 671088640, 1006632960, 570425344, 855638016, 713031680, 1069547520,
     538968064, 808452096, 673710080, 1010565120, 572653568, 858980352, 715816960, 1073725440,
     536879104, 805318656, 671098880, 1006648320, 570434048, 855651072, 713042560, 1069563840,
     538976288, 808464432, 673720360, 1010580540, 572662306, 858993459],
    [536870912, 805306368, 402653184, 603979776, 973078528, 385875968, 595591168, 826277888,
     438304768, 657457152, 999817216, 358875136, 538574848, 807862272, 406552576, 605372416,
     975183872, 389033984, 597170176, 828646400, 437926400, 656873216, 1002152832, 357921088,
     536885792, 805312304, 402662296, 603992420, 973085210, 385885991],
    [536870912, 805306368, 134217728, 335544320, 1040187392, 486539264, 679477248, 616562688,
     908066816, 156237824, 376963072, 968097792, 503447552, 755171328, 545292288, 817971200,
     136568832, 340905984, 1056606208, 494291968, 673276416, 609457408, 922347392, 158784320,
     371195936, 961544240, 511180808, 766771220, 537002046, 805503005],
    [536870912, 268435456, 134217728, 738197504, 1040187392, 922746880, 511705088, 658505728,
     379584512, 200278016, 676855808, 1009516544, 916586496, 468779008, 542670848, 271499264,
     144826368, 754085888, 1054435328, 929870848, 503351808, 654495488, 377744768, 188970688,
     681697312, 1022521360, 920217608, 460108844, 536906302, 268619575],
    [536870912, 268435456, 402653184, 201326592, 838860800, 150994944, 360710144, 1052770304,
     941621248, 470810624, 706215936, 84672512, 665976832, 935919616, 766869504, 586072064,
     301998080, 419434496, 226498560, 851446784, 169882112, 353372416, 1066931584, 1003241152,
     529676320, 735648784, 128821784, 669173004, 900859826, 784934857],
    [536870912, 805306368, 671088640, 872415232, 369098752, 620756992, 260046848, 952107008,
     799014912, 149946368, 126353408, 1019478016, 295567360, 434176000, 504463360, 555335680,
     832446464, 702623744, 907126784, 354022400, 664679936, 216077568, 965846912, 769248448,
     138287520, 68230640, 1041866760, 287174660, 429918270, 502268945],
    [536870912, 268435456, 671088640, 335544320, 570425344, 150994944, 75497472, 188743680,
     497025024, 663748608, 34078720, 419692544, 747241472, 524615680, 1068007424, 781336576,
     109649920, 306630656, 825059328, 954000384, 1033896448, 932184320, 705168000, 218366272,
     243925536, 373620880, 992510024, 634536116, 455680474, 903271033],
    [536870912, 268435456, 671088640, 335544320, 167772160, 889192448, 444596224, 473956352,
     236978176, 370147328, 981991424, 205783040, 640286720, 34930688, 814383104, 961101824,
     1017946112, 508694528, 1051265024, 794608640, 103416320, 303366400, 411730560, 759775552,
     917282976, 726799184, 606669224, 857523652, 134873826, 67436641],
    [536870912, 268435456, 939524096, 738197504, 637534208, 620756992, 578813952, 381681664,
     216006656, 913309696, 478674944, 264503296, 812515328, 700121088, 350322688, 175980544,
     42901504, 113946624, 887404544, 444587008, 982385152, 717947136, 317293440, 1064911552,
     402694752, 1006744144, 504183336, 151428460, 76456654, 868921959],
    [536870912, 268435456, 671088640, 67108864, 33554432, 452984832, 662700032, 146800640,
     367001600, 728760320, 535298048, 611581952, 308412416, 867500032, 570589184, 184795136,
     260268032, 214298624, 401348608, 813575168, 946037248, 750121216, 126098048, 415902784,
     1038180896, 795930800, 502175992, 1065217228, 903873406, 997196295],
    [536870912, 268435456, 134217728, 201326592, 369098752, 721420288, 629145600, 180355072,
     891289600, 38797312, 950534144, 345243648, 327811072, 835125248, 413630464, 77185024,
     461692928, 1036808192, 245770240, 798041088, 1041162752, 923496704, 998353024, 768140480,
     111805280, 597099440, 672105176, 470663276, 504291890, 655061653],
    [536870912, 805306368, 671088640, 335544320, 1040187392, 587202560, 947912704, 213909504,
     65011712, 139460608, 627572736, 396099584, 906100736, 118030336, 780500992, 1003339776,
     90284032, 664530944, 503764992, 319628288, 277062144, 415429376, 1038834304, 727508288,
     501219808, 458228016, 904397064, 257687948, 199361502, 744030901],
    [536870912, 805306368, 402653184, 603979776, 234881024, 822083584, 276824064, 683671552,
     1012924416, 714080256, 1060634624, 558104576, 939655168, 335740928, 369197056, 352468992,
     511762432, 432214016, 752945152, 38964224, 56346112, 198617344, 121238400, 893719616,
     771751968, 16777264, 142606360, 213909540, 845152270, 462422065],
    [536870912, 268435456, 134217728, 1006632960, 704643072, 352321536, 645922816, 658505728,
     127926272, 389021696, 524812288, 591659008, 153223168, 477167616, 988315648, 494387200,
     451452928, 225726464, 317253632, 829731840, 954751488, 611771136, 510377088, 53989440,
     432709664, 335892496, 109078536, 927167548, 262208042, 724742933],
    [536870912, 805306368, 134217728, 872415232, 905969664, 822083584, 293601280, 557842432,
     694157312, 498073600, 728236032, 447479808, 191496192, 716111872, 57311232, 514605056,
     896131072, 800018432, 619247616, 250430464, 227175936, 324837120, 652269696, 166802880,
     764046880, 593272624, 786487432, 1039218164, 462056982, 308059905],
], dtype=np.uint32)


@functools.lru_cache(maxsize=None)
def _sobol_digits(dim: int, m: int) -> np.ndarray:
    """(dim, SOBOL_BITS, m) binary digits of the first m Sobol direction numbers.

    The numbers are ``_DIRECTIONS``: Joe and Kuo's (2008) new-joe-kuo-6.21201
    set for dimensions 1..16, copied from scipy 1.17.1 as
    ``scipy.stats.qmc.Sobol(16, scramble=False, bits=30)._sv``.  That engine's
    unscrambled points run in Gray-code order, so its point 2^(b+1) - 1 is
    direction number b; the tests compare the table with those points.
    Digit i, the most significant first, is the coefficient of 2^-(i+1).
    """
    if not 1 <= dim <= len(_DIRECTIONS):
        raise ValueError(f"Sobol points are tabled for dimensions 1..{len(_DIRECTIONS)}, "
                         f"not {dim}")
    if m > SOBOL_BITS:
        raise ValueError(f"a Sobol replicate holds at most 2^{SOBOL_BITS} points, not 2^{m}")
    v = _DIRECTIONS[:dim, :m]
    return ((v[:, None, :] >> _DIGIT_BITS[:, None]) & 1).astype(float)


def sobol_points(rngs: Sequence[np.random.Generator], dim: int, count: int) -> np.ndarray:
    """Scrambled Sobol replicates of ``count`` (a power of two) points in [0, 1)^dim.

    One replicate per generator of ``rngs``, and the (replicates * count,
    dim) result lists the replicates in order.  Each replicate holds the
    points of ``scipy.stats.qmc.Sobol(dim, scramble=True,
    rng=generator).random_base2(m)``, in its order: a linear matrix scramble
    and a digital shift (Matousek's) drawn from a child of the generator, so
    every point is uniform and each replicate is a (t, m, s)-net.
    The scramble acts on the m direction numbers, and the points are their XOR
    span in Gray-code order, built by doubling for all replicates at once.
    A scipy engine per replicate costs ~1 ms of interpreter time instead.
    """
    m = count.bit_length() - 1
    if count != 1 << m:
        raise ValueError(f"a Sobol replicate needs a power-of-two size, not {count}")
    directions = _sobol_digits(dim, m)  # checks dim and m before any draw
    shift = np.empty((len(rngs), dim), dtype=np.uint32)
    ltm = np.empty((len(rngs), dim, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32)
    for i, g in enumerate(rngs):
        child = g.spawn(1)[0]  # the engine scrambles from a child, leaving g's own stream
        shift[i] = child.integers(0, 2, size=(dim, SOBOL_BITS), dtype=np.uint32) @ _DIGIT_WEIGHTS
        ltm[i] = child.integers(0, 2, size=(dim, SOBOL_BITS, SOBOL_BITS), dtype=np.uint32)
    # lower unit triangular: output digit i depends on input digits <= i
    ltm = np.tril(ltm, -1).astype(float)
    ltm[..., _DIAG, _DIAG] = 1.0
    digits = (ltm @ directions).astype(np.uint32) & 1
    v = np.bitwise_or.reduce(digits << _DIGIT_BITS[:, None], axis=-2)  # (replicates, dim, m)
    points = np.empty((len(rngs), dim, count), dtype=np.uint32)
    points[..., 0] = shift
    for b in range(m):  # Gray code: points 2^b .. 2^(b+1) - 1 mirror the first 2^b, plus v_b
        points[..., 1 << b:2 << b] = points[..., (1 << b) - 1::-1] ^ v[..., b:b + 1]
    u = np.empty((dim, len(rngs), count))  # one contiguous column per uniform
    np.multiply(points.swapaxes(0, 1), 2.0**-SOBOL_BITS, out=u)
    return u.reshape(dim, -1).T


@functools.cache
def _bundle_arrays_on_heap() -> None:
    """Have glibc serve bundle-sized arrays (0.5 to 4 MiB) from its heap.

    Above its mmap threshold (128 KiB at start) glibc maps each block afresh
    and unmaps it when freed, so every such array pays its page faults again.
    glibc raises the threshold itself only after freeing a larger mapped
    block, so without this a run's speed would depend on what the process
    had allocated before.  The values are where glibc's own adjustment stops
    on 64-bit systems; other C libraries lack ``mallopt`` or ignore it.
    """
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if sys.platform == "linux" else None
    if mallopt is not None:
        mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
        mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD


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
    _bundle_arrays_on_heap()
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
