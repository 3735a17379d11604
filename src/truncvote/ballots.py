"""Core data model: candidates, ballots, weighted ballot lists, truncation.

Candidates are dense integer ids ``0..m-1`` and a ballot is a non-empty
prefix of distinct ids. A :class:`BallotList` keeps a weighted multiset of
ballots as the rank matrix of its distinct ballots, built by the one ballot
check, and their counts, so electorates with millions of voters but few
distinct ballots stay cheap, and the tally reads the matrix as it is
(:mod:`truncvote.tally` builds every :class:`PairwiseTally`). Everything
here is immutable and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

Ballot = tuple[int, ...]
Entries = tuple[tuple[Ballot, int], ...]
WeightedBallots = Iterable[tuple[Sequence[int], int]]  # (ballot, count) pairs


class DomainError(ValueError):
    """An operation was called outside its defined domain."""


def _check_k(k: int, m: int) -> None:
    """Reject a truncation depth outside [1, m-1]."""
    if not 1 <= k <= m - 1:
        raise DomainError(f"k must be in [1, m-1], got k={k}, m={m}")


def _check_priority(priority: Sequence[int], m: int) -> None:
    """Reject a tie-break priority that does not have one entry per candidate."""
    if len(priority) != m:
        raise DomainError(f"tie-break priority needs m = {m} entries, got {len(priority)}")


def _validate_permutation(order: Sequence[int], m: int) -> None:
    if len(order) != m or set(order) != set(range(m)):
        raise DomainError(f"not a permutation of 0..{m - 1}: {order!r}")


def _position_matrix(m: int, orders: Sequence[Sequence[int]]) -> np.ndarray:
    """The rank matrix of the ballots: ``pos[i, c]`` is the 0-based position
    of candidate c in ballot i, and m if the ballot leaves c unranked.

    Rejects an empty ballot, an id outside 0..m-1 and a repeated candidate.
    """
    pos = np.full((len(orders), m), m, dtype=np.min_scalar_type(m))
    by_length: dict[int, list[int]] = {}
    for i, order in enumerate(orders):
        by_length.setdefault(len(order), []).append(i)
    for length, rows in by_length.items():
        if length == 0:
            raise DomainError("empty ballot")
        ids = np.array([orders[i] for i in rows], dtype=np.int64)
        if ids.min() < 0 or ids.max() >= m:
            raise DomainError(f"candidate id out of range 0..{m - 1}")
        index = np.array(rows)
        pos[index[:, None], ids] = np.arange(length)
        if ((pos[index] < m).sum(axis=1) != length).any():
            raise DomainError("repeated candidate in a ballot")
    return pos


def _orders(m: int, ranks: np.ndarray) -> list[Ballot]:
    """The ballots of a rank matrix, the inverse of :func:`_position_matrix`."""
    lengths = (ranks < m).sum(axis=1).tolist()
    return [tuple(row[:n]) for row, n in zip(ranks.argsort(axis=1).tolist(), lengths)]


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


@dataclass(frozen=True, eq=False)
class BallotList:
    """Weighted multiset of ballots over m candidates: the rank matrix
    (:func:`_position_matrix`) of the distinct ballots, in canonical (sorted)
    order, and each one's positive count.

    :meth:`from_ballots` checks the ballots and builds the matrix; the
    constructor takes a matrix an earlier check built. A subclass adds its
    own fields after ``counts`` and checks its own rule in ``__post_init__``.
    """

    m: int
    ranks: np.ndarray
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", sum(self.counts))

    @classmethod
    def from_ballots(cls, m: int, *fields_then_ballots):
        """The list of (ballot, count) pairs given last, duplicates merged; the
        arguments before it are the subclass's own fields (``TopKProfile``'s k,
        say). Rejects a count <= 0 and an empty list."""
        *own, ballots = fields_then_ballots
        acc: dict[Ballot, int] = {}
        for order, count in ballots:
            if count <= 0:
                raise DomainError(f"ballot count must be positive, got {count}")
            key = tuple(order)
            acc[key] = acc.get(key, 0) + count
        if not acc:
            raise DomainError("a ballot list needs at least one ballot")
        entries = sorted(acc.items())
        ranks = _position_matrix(m, [order for order, _ in entries])
        return cls(m, ranks, tuple(count for _, count in entries), *own)

    @property
    def entries(self) -> Entries:
        """The distinct ballots with their counts, decoded on every access."""
        return tuple(zip(_orders(self.m, self.ranks), self.counts))

    def _key(self) -> tuple:
        own = (getattr(self, f.name) for f in fields(self) if f.name != "ranks")
        return type(self), self.ranks.tobytes(), *own

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BallotList) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


class Profile(BallotList):
    """Weighted multiset of complete rankings over m candidates."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (self.ranks < self.m).all():
            raise DomainError(f"every ballot must rank all {self.m} candidates")


@dataclass(frozen=True, eq=False)
class TopKProfile(BallotList):
    """Weighted multiset of top-k prefixes: ``from_ballots(m, k, ballots)``.

    Ballots shorter than k are allowed: real-world (SOI) ballots may be
    incomplete to begin with, and truncation leaves them untouched.
    """

    k: int

    def __post_init__(self) -> None:
        super().__post_init__()
        _check_k(self.k, self.m)
        if (self.ranks == self.k).any():  # some ballot fills position k
            raise DomainError(f"a ballot is longer than k={self.k}")


@dataclass(frozen=True)
class PairwiseTally:
    """m x m matrix of preference/dominance counts; diagonal is zero."""

    m: int
    n: int
    counts: tuple[tuple[int, ...], ...]


def truncate(profile: Profile, k: int) -> TopKProfile:
    """Top-k truncation: keep the length-k prefix of every ranking."""
    return TopKProfile.from_ballots(
        profile.m, k, ((order[:k], count) for order, count in profile.entries)
    )
