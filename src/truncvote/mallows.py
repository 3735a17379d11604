"""Mallows phi-model over rankings, with an exact repeated-insertion sampler.

The probability of a ranking r is phi**d(r) / Z, where d(r) is the Kendall
tau distance from r to the identity (0, ..., m-1), the reference ranking,
and Z the usual product normalization; phi = 1 is Impartial Culture.
Sampling uses repeated insertion (exact), driven by numpy's PCG64 generator
so that a given seed reproduces the same profiles on every platform;
:func:`sample_ranks` codes whole blocks of voters at once and decodes only
the distinct codes, into the tally's rank matrix; for m! <= ``_CHUNK_ROWS``
it counts them in one m!-bin table and reads the rows, in code order, from a
cached decode. A voter's insertion slot at each step is the count of that
step's cdf values <= its uniform: that equals the ``bisect_right`` of the
one-ranking-at-a-time insertion sampler the tests keep as its oracle
(``tests/reference_rules.py``), because the cdf is non-decreasing and ends at
1.0, and every uniform is below 1.
Per-trial sub-streams are derived as ``default_rng([base_seed, trial_index])``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Sequence

import numpy as np

from .ballots import DomainError, Profile, _orders, _validate_permutation


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def trial_rng(base_seed: int, trial_index: int) -> np.random.Generator:
    """Independent per-trial stream; parallelism cannot change results."""
    return np.random.default_rng([base_seed, trial_index])


@dataclass(frozen=True)
class MallowsModel:
    m: int
    phi: float

    def __post_init__(self) -> None:
        if self.m < 1:
            raise DomainError(f"m must be >= 1, got {self.m}")
        if not 0 < self.phi <= 1:
            raise DomainError(f"phi must be in (0, 1], got {self.phi}")


def kendall_tau(r1: Sequence[int], r2: Sequence[int]) -> int:
    """Number of discordant pairs between two rankings."""
    m = len(r1)
    _validate_permutation(r1, m)
    _validate_permutation(r2, m)
    pos = {c: i for i, c in enumerate(r2)}
    seq = [pos[c] for c in r1]
    return sum(1 for i in range(m) for j in range(i + 1, m) if seq[i] > seq[j])


def normalization(m: int, phi):
    """Z = prod_{j=1..m} (1 + phi + ... + phi^(j-1)).

    Exact when phi is a Fraction, float otherwise.
    """
    if m < 1 or phi <= 0:
        raise DomainError("normalization needs m >= 1 and phi > 0")
    z = phi ** 0
    for j in range(1, m + 1):
        z *= sum(phi ** i for i in range(j))
    return z


def pmf(model: MallowsModel, r: Sequence[int], phi=None):
    """Probability mass of ranking r; pass an exact `phi` to get a Fraction."""
    p = model.phi if phi is None else phi
    return p ** kendall_tau(r, range(model.m)) / normalization(model.m, p)


@lru_cache(maxsize=64)
def _insertion_cdfs(m: int, phi: float) -> tuple[tuple[float, ...], ...]:
    """Normalized cumulative insertion weights for steps j = 2..m.

    At step j, inserting candidate j-1 at (top-based) position i leaves j - i
    of the better candidates below it, so the weight is phi**(j - i).
    """
    cdfs = []
    for j in range(2, m + 1):
        weights = [phi ** (j - i) for i in range(1, j + 1)]
        total = sum(weights)
        acc, cum = 0.0, []
        for w in weights:
            acc += w / total
            cum.append(acc)
        cum[-1] = 1.0
        cdfs.append(tuple(cum))
    return tuple(cdfs)


# rows of uniforms drawn at a time; bounds the sampler's memory for any n
_CHUNK_ROWS = 1 << 14
# slot codes lie below m!, and 20! < 2**63 < 21!: int64 codes up to m = 20,
# Python ints (numpy object arrays) above
_MAX_CODED_M = 20


def _slot_codes(model: MallowsModel, uniforms: np.ndarray) -> np.ndarray:
    """Each row's insertion slots as one mixed-radix code: step j's slot
    (0..j+1) is the digit of radix j + 2, step 0 the most significant.

    The slot is the count of step j's cdf values that are <= u, compared
    branch-free over the whole column. That count is ``bisect_right(cdf, u)``,
    because the cdf is non-decreasing; and as it ends at 1.0 while every
    uniform is below 1, only its first j + 1 values need comparing."""
    codes = np.zeros(len(uniforms), dtype=np.int64 if model.m <= _MAX_CODED_M else object)
    slot_dtype = np.min_scalar_type(model.m)  # a slot is at most m - 1
    for j, cdf in enumerate(_insertion_cdfs(model.m, float(model.phi))):
        below = np.array(cdf[:-1])[:, None] <= np.ascontiguousarray(uniforms[:, j])
        codes = codes * (j + 2) + below.sum(axis=0, dtype=slot_dtype)
    return codes


def _decode(m: int, codes: np.ndarray) -> np.ndarray:
    """The rank matrix of the rankings with these slot codes: ``ranks[i, c]``
    is the position of candidate c in ranking i."""
    slots = []
    for j in reversed(range(m - 1)):
        slots.append((codes % (j + 2)).astype(np.int64))
        codes = codes // (j + 2)
    ranks = np.zeros((len(codes), m), dtype=np.min_scalar_type(m))
    for c, slot in enumerate(reversed(slots), start=1):
        # inserting candidate c at `slot` moves everyone at or below it down one
        ranks[:, :c] += ranks[:, :c] >= slot[:, None]
        ranks[:, c] = slot
    return ranks


@lru_cache(maxsize=None)
def _decoded(m: int) -> np.ndarray:
    """The read-only rank matrix of every code below m!; row i has code i."""
    ranks = _decode(m, np.arange(factorial(m)))
    ranks.flags.writeable = False
    return ranks


def sample_ranks(model: MallowsModel, n: int, rng: np.random.Generator) -> tuple[np.ndarray, list[int]]:
    """n i.i.d. draws as (ranks, counts): the rank matrix of the distinct
    rankings, each once, and how many voters drew each.

    Draws the same uniforms, in the same order, as ``rng.random((n, m - 1))``,
    in blocks of at most ``_CHUNK_ROWS`` voters; each block becomes slot
    codes. For m! <= ``_CHUNK_ROWS`` (m <= 7) one m!-bin ``np.bincount`` table
    counts them, and the rows, in ascending code order, come from
    :func:`_decoded`. For larger m a ``Counter`` merges each block's ``np.unique``
    and only the distinct codes are decoded, in first-seen order.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    table = np.zeros(factorial(model.m), dtype=np.int64) if factorial(model.m) <= _CHUNK_ROWS else None
    counter: Counter = Counter()
    for start in range(0, n, _CHUNK_ROWS):
        codes = _slot_codes(model, rng.random((min(_CHUNK_ROWS, n - start), model.m - 1)))
        if table is not None:
            table += np.bincount(codes, minlength=len(table))
        else:
            codes, counts = np.unique(codes, return_counts=True)
            counter.update(dict(zip(codes.tolist(), counts.tolist())))
    if table is not None:
        distinct = np.flatnonzero(table)
        return _decoded(model.m)[distinct], table[distinct].tolist()
    distinct = np.array(list(counter), dtype=codes.dtype)  # every block's code dtype
    return _decode(model.m, distinct), list(counter.values())


def sample_profile(model: MallowsModel, n: int, rng: np.random.Generator) -> Profile:
    """n i.i.d. draws aggregated into a weighted profile (see :func:`sample_ranks`)."""
    ranks, counts = sample_ranks(model, n, rng)
    return Profile.from_ballots(model.m, zip(_orders(model.m, ranks), counts))
