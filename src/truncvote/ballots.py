"""Core data model: candidates, ballots, profiles, tallies.

Candidates are dense integer ids ``0..m-1``. Profiles are weighted multisets
of ballots (ballot, count), so electorates with millions of voters but few
distinct ballots stay cheap. Everything here is immutable and every
operation is a pure function; tallies are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

Ballot = tuple[int, ...]


class DomainError(ValueError):
    """An operation was called outside its defined domain."""


def _validate_permutation(order: Sequence[int], m: int) -> None:
    if len(order) != m or set(order) != set(range(m)):
        raise DomainError(f"not a permutation of 0..{m - 1}: {order!r}")


def _validate_prefix(order: Sequence[int], m: int) -> None:
    if not order:
        raise DomainError("empty ballot")
    if len(set(order)) != len(order):
        raise DomainError(f"repeated candidate in ballot {order!r}")
    if any(not 0 <= c < m for c in order):
        raise DomainError(f"candidate id out of range in {order!r}")


def _merge_ballots(ballots: Iterable[tuple[Sequence[int], int]]) -> tuple[tuple[Ballot, int], ...]:
    """Aggregate duplicate ballots; canonical (sorted) entry order."""
    acc: dict[Ballot, int] = {}
    for order, count in ballots:
        if count <= 0:
            raise DomainError(f"ballot count must be positive, got {count}")
        key = tuple(order)
        acc[key] = acc.get(key, 0) + count
    return tuple(sorted(acc.items()))


@dataclass(frozen=True)
class TieBreak:
    """A fixed priority permutation; earlier entries win every tie."""

    priority: tuple[int, ...]

    def __post_init__(self) -> None:
        _validate_permutation(self.priority, len(self.priority))
        object.__setattr__(self, "_rank", {c: i for i, c in enumerate(self.priority)})

    @classmethod
    def by_index(cls, m: int) -> "TieBreak":
        return cls(tuple(range(m)))

    def rank(self, candidate: int) -> int:
        return self._rank[candidate]  # type: ignore[attr-defined]

    def best(self, candidates: Iterable[int]) -> int:
        return min(candidates, key=self.rank)

    def worst(self, candidates: Iterable[int]) -> int:
        return max(candidates, key=self.rank)


@dataclass(frozen=True)
class Profile:
    """Weighted multiset of complete rankings over m candidates."""

    m: int
    entries: tuple[tuple[Ballot, int], ...]

    @classmethod
    def from_ballots(cls, m: int, ballots: Iterable[tuple[Sequence[int], int]]) -> "Profile":
        entries = _merge_ballots(ballots)
        if not entries:
            raise DomainError("profile must contain at least one ballot")
        for order, _ in entries:
            _validate_permutation(order, m)
        return cls(m, entries)

    @property
    def n(self) -> int:
        return sum(count for _, count in self.entries)


@dataclass(frozen=True)
class TopKProfile:
    """Weighted multiset of top-k prefixes.

    Ballots shorter than k are allowed: real-world (SOI) ballots may be
    incomplete to begin with, and truncation leaves them untouched.
    """

    m: int
    k: int
    entries: tuple[tuple[Ballot, int], ...]

    @classmethod
    def from_ballots(
        cls, m: int, k: int, ballots: Iterable[tuple[Sequence[int], int]]
    ) -> "TopKProfile":
        if not 1 <= k <= m - 1:
            raise DomainError(f"k must be in [1, m-1], got k={k}, m={m}")
        entries = _merge_ballots(ballots)
        if not entries:
            raise DomainError("top-k profile must contain at least one ballot")
        for order, _ in entries:
            _validate_prefix(order, m)
            if len(order) > k:
                raise DomainError(f"ballot {order!r} longer than k={k}")
        return cls(m, k, entries)

    @property
    def n(self) -> int:
        return sum(count for _, count in self.entries)


@dataclass(frozen=True)
class PairwiseTally:
    """m x m matrix of preference/dominance counts; diagonal is zero."""

    m: int
    n: int
    counts: tuple[tuple[int, ...], ...]


def truncate(profile: Profile, k: int) -> TopKProfile:
    """Top-k truncation: keep the length-k prefix of every ranking."""
    if not 1 <= k <= profile.m - 1:
        raise DomainError(f"k must be in [1, m-1], got k={k}, m={profile.m}")
    return TopKProfile.from_ballots(
        profile.m, k, ((order[:k], count) for order, count in profile.entries)
    )


def pairwise_tally(profile: Profile) -> PairwiseTally:
    """counts[a][b] = number of voters ranking a above b."""
    m = profile.m
    counts = [[0] * m for _ in range(m)]
    for order, weight in profile.entries:
        for i, a in enumerate(order):
            row = counts[a]
            for b in order[i + 1 :]:
                row[b] += weight
    return PairwiseTally(m, profile.n, tuple(tuple(row) for row in counts))


def dominance_tally(topk: TopKProfile) -> PairwiseTally:
    """counts[a][b] = voters for whom a dominates b.

    a dominates b in a ballot if a is ranked above b, or a is ranked while b
    is unranked. Ballots ranking neither candidate contribute nothing.
    """
    m = topk.m
    counts = [[0] * m for _ in range(m)]
    for order, weight in topk.entries:
        ranked = set(order)
        unranked = [c for c in range(m) if c not in ranked]
        for i, a in enumerate(order):
            row = counts[a]
            for b in order[i + 1 :]:
                row[b] += weight
            for b in unranked:
                row[b] += weight
    return PairwiseTally(m, topk.n, tuple(tuple(row) for row in counts))

