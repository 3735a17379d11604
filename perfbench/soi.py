"""Seeded synthetic SOI election for the ``real_sweep`` workload.

The generator is owned by the benchmark and shares no code with the
program's Mallows sampler, so a change to ``truncvote.mallows`` cannot
change this input. It resembles the Dublin North 2002 file: 12 candidates,
about 40k voters, Mallows phi = 0.8 around a seeded reference order, and
ballot lengths 1..12 skewed towards short ballots.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

M = 12
VOTERS = 40_000
PHI = 0.8
# P(length = l) is proportional to LENGTH_DECAY ** (l - 1)
LENGTH_DECAY = 0.9


def mallows_rankings(rng: np.random.Generator, n: int, m: int, phi: float) -> np.ndarray:
    """n x m array of rankings (best first) by repeated insertion.

    Item j (0-based) is inserted at top-based position i with weight
    phi ** (j - i), over positions 0..j, around the identity order.
    """
    ranks = np.zeros((n, 1), dtype=np.int64)
    uniforms = rng.random((n, m - 1))
    for j in range(1, m):
        weights = phi ** (j - np.arange(j + 1, dtype=float))
        cdf = np.cumsum(weights) / weights.sum()
        cdf[-1] = 1.0
        pos = np.searchsorted(cdf, uniforms[:, j - 1], side="right")[:, None]
        cols = np.arange(j + 1)[None, :]
        pad = np.zeros((n, 1), dtype=np.int64)
        keep = np.concatenate([ranks, pad], axis=1)
        shifted = np.concatenate([pad, ranks], axis=1)
        ranks = np.where(cols < pos, keep, np.where(cols == pos, j, shifted))
    return ranks


def synthetic_ballots(seed: int, voters: int = VOTERS) -> list[tuple[tuple[int, ...], int]]:
    """Weighted incomplete ballots (0-based candidate ids), sorted."""
    rng = np.random.default_rng([seed, M])
    sigma = rng.permutation(M)
    ranks = sigma[mallows_rankings(rng, voters, M, PHI)]
    probs = LENGTH_DECAY ** np.arange(M, dtype=float)
    lengths = rng.choice(M, size=voters, p=probs / probs.sum()) + 1
    counts = Counter(tuple(row[:length].tolist()) for row, length in zip(ranks, lengths))
    return sorted(counts.items())
