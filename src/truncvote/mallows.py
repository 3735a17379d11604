"""Mallows phi-model over rankings, with an exact repeated-insertion sampler.

The probability of a ranking r is phi**d(r, sigma) / Z, where d is the
Kendall tau distance and Z the usual product normalization; phi = 1 is
Impartial Culture. Sampling uses repeated insertion (exact), driven by
numpy's PCG64 generator so that a given seed reproduces the same profiles
on every platform; :func:`sample_ballots` maps whole blocks of voters at
once and builds only the distinct rankings. Per-trial sub-streams are
derived as ``default_rng([base_seed, trial_index])``.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .ballots import Ballot, DomainError, Profile, _validate_permutation


def make_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def trial_rng(base_seed: int, trial_index: int) -> np.random.Generator:
    """Independent per-trial stream; parallelism cannot change results."""
    return np.random.default_rng([base_seed, trial_index])


@dataclass(frozen=True)
class MallowsModel:
    m: int
    phi: float
    sigma: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if self.sigma is None:
            object.__setattr__(self, "sigma", tuple(range(self.m)))
        _validate_permutation(self.sigma, self.m)
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
    return p ** kendall_tau(r, model.sigma) / normalization(model.m, p)


@lru_cache(maxsize=64)
def _insertion_cdfs(m: int, phi: float) -> tuple[tuple[float, ...], ...]:
    """Normalized cumulative insertion weights for steps j = 2..m.

    At step j, inserting sigma_j at (top-based) position i leaves j - i of
    the better candidates below it, so the weight is phi**(j - i).
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


def _insert_at(model: MallowsModel, slots: Sequence[int]) -> Ballot:
    """The ranking built by inserting sigma_{j+2} at top-based slot slots[j]."""
    out = [model.sigma[0]]
    for step, slot in enumerate(slots):
        out.insert(slot, model.sigma[step + 1])
    return tuple(out)


def _insert_from_uniforms(model: MallowsModel, uniforms: Sequence[float]) -> Ballot:
    cdfs = _insertion_cdfs(model.m, float(model.phi))
    return _insert_at(model, [bisect_right(cdfs[step], u) for step, u in enumerate(uniforms)])


def sample(model: MallowsModel, rng: np.random.Generator) -> Ballot:
    """One exact draw from the Mallows distribution."""
    return _insert_from_uniforms(model, rng.random(model.m - 1))


# rows of uniforms drawn at a time; bounds the sampler's memory for any n
_CHUNK_ROWS = 1 << 14
# the slot row of a ranking packs into a code below m!, and 20! < 2**63 < 21!
_MAX_CODED_M = 20


def _insertion_slots(model: MallowsModel, uniforms: np.ndarray) -> np.ndarray:
    """slots[i, j] = bisect_right(cdf of step j, uniforms[i, j]), as in
    :func:`_insert_from_uniforms`."""
    slots = np.empty(uniforms.shape, dtype=np.min_scalar_type(model.m))
    for j, cdf in enumerate(_insertion_cdfs(model.m, float(model.phi))):
        slots[:, j] = np.searchsorted(np.array(cdf), uniforms[:, j], side="right")
    return slots


def _distinct_rows(slots: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a slot matrix (column j holds 0..j+1) and how
    often each occurs."""
    width = slots.shape[1]
    if width + 1 > _MAX_CODED_M:
        return np.unique(slots, axis=0, return_counts=True)
    codes = np.zeros(len(slots), dtype=np.int64)
    for j in range(width):  # mixed radix, below (width + 1)!
        codes = codes * (j + 2) + slots[:, j]
    codes, counts = np.unique(codes, return_counts=True)
    rows = np.empty((len(codes), width), dtype=np.int64)
    for j in reversed(range(width)):
        codes, rows[:, j] = np.divmod(codes, j + 2)
    return rows, counts


def sample_ballots(model: MallowsModel, n: int, rng: np.random.Generator) -> list[tuple[Ballot, int]]:
    """n i.i.d. draws as (ranking, count) pairs, each distinct ranking once.

    Draws the same uniforms, in the same order, as ``rng.random((n, m - 1))``,
    in blocks of at most ``_CHUNK_ROWS`` voters. Each column is mapped to its
    insertion slot with ``searchsorted(side="right")`` (the ``bisect_right``
    of :func:`sample`), and only the distinct slot rows are turned into
    rankings.
    """
    if n < 1:
        raise DomainError("n must be >= 1")
    counter: Counter = Counter()
    for start in range(0, n, _CHUNK_ROWS):
        uniforms = rng.random((min(_CHUNK_ROWS, n - start), model.m - 1))
        rows, counts = _distinct_rows(_insertion_slots(model, uniforms))
        counter.update(dict(zip(map(tuple, rows.tolist()), counts.tolist())))
    return [(_insert_at(model, row), count) for row, count in counter.items()]


def sample_profile(model: MallowsModel, n: int, rng: np.random.Generator) -> Profile:
    """n i.i.d. draws aggregated into a weighted profile (see :func:`sample_ballots`)."""
    return Profile.from_ballots(model.m, sample_ballots(model, n, rng))
