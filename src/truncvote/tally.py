"""Exact integer counts of one weighted ballot list, shared by every rule and every k.

An :class:`IntegerTally` is built once per ballot list, complete or
prefix/SOI, from its rank matrix and counts as they are: those of a
:class:`~truncvote.ballots.BallotList`, the rows a real-data trial draws of
its dataset's, or the Mallows sampler's
(:func:`truncvote.mallows.sample_ranks`). It holds two count tables, as
numpy arrays:

- the position counts ``C[c, p]``: total weight of the ballots that rank
  candidate c at position p (0-based, p < m);
- the cumulative dominance tensor ``D[k-1, a, b]`` for k = 1..m: total
  weight of the ballots whose top-k prefix ranks a above b or ranks a and
  not b. On complete ballots ``D[m-1]`` is the pairwise table.

:func:`pairwise_tally` and :func:`dominance_tally` read one layer of it as a
:class:`~truncvote.ballots.PairwiseTally`: ``D[m-1]`` of a complete profile,
``D[k-1]`` of a top-k profile.

:meth:`IntegerTally.winners` gives one rule's winner at every requested k
(None for the ground truth) in one call. PSR scores at all those levels are
one integer product of the scaled vectors with ``C``; Copeland and Maximin
read the stacked layers ``D[k-1]``; each level's winner is its top scorer of
best priority. Ranked Pairs locks the pairs of the same stacked layers,
each layer's pairs ordered by one stable argsort. STV runs over the rank
matrix: a call eliminates once at the deepest level, and a run at depth k
shares that run's first k rounds and plays only the rounds after them.
Scores are exact integers: int64 where an overflow check allows, Python
ints (object arrays) otherwise. Their ratios equal the ratios of the
``Fraction`` reference scores the tests keep.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Sequence

import numpy as np

from .ballots import (
    DomainError, PairwiseTally, Profile, TieBreak, TopKProfile, _check_k, _check_priority,
)
from .rules import SCORED_FAMILIES, RuleId, _validate_head, completion_score, scoring_vector

# counts never exceed the total weight n, so int64 holds every partial sum
# when n does; above that the tables use Python ints (numpy object arrays)
_INT64_MAX = 2**63 - 1
_INT32_MAX = np.iinfo(np.int32).max


def _scaled_head(head: Sequence[Fraction], s_star: Fraction) -> tuple[int, tuple[int, ...]]:
    """(L * s_star, [L * (s - s_star) for s in head]), L the lcm of all the
    denominators, after the checks of ``_validate_head``."""
    _validate_head(head, s_star)
    s_star = Fraction(s_star)
    reduced = [Fraction(s) - s_star for s in head]
    scale = lcm(s_star.denominator, *(s.denominator for s in reduced))
    return int(s_star * scale), tuple(int(s * scale) for s in reduced)


@lru_cache(maxsize=256)
def _rule_weights(rule: RuleId, m: int, k: int | None) -> tuple[int, tuple[int, ...]]:
    """Scaled completion score and head of a PSR at k (the whole vector and
    s_star = 0 when k is None), computed once per rule and k."""
    vector = scoring_vector(rule, m)
    if k is None:
        return _scaled_head(vector, Fraction(0))
    return _scaled_head(vector[:k], completion_score(vector, k, rule.policy))


def _ranked_pairs(counts: np.ndarray, tb: TieBreak) -> list[int]:
    """Ranked Pairs winner of each layer of an (L, m, m) stack of pairwise
    counts: lock pairs by descending count, skipping any pair that closes a
    cycle; the winner is the highest-priority candidate no locked pair beats.

    The pairs are listed once in lexicographic (winner, loser) priority
    order, and a stable sort of each layer's counts keeps that order among
    equal counts. Bit d of ``reach[c]`` is set exactly when c reaches d
    through locked pairs, so locking a over b closes a cycle exactly when
    ``reach[b]`` has bit a; otherwise every c whose ``reach[c]`` has bit a
    gains ``reach[b]``. Locking stops once m-1 candidates are beaten: a later
    pair beating the last one would leave every candidate beaten, which needs
    a locked cycle.
    """
    m = counts.shape[1]
    order = np.array(tb.priority, dtype=np.intp)
    first, second = (order[i] for i in np.nonzero(~np.eye(m, dtype=bool)))
    ranked = np.argsort(-counts[:, first, second], axis=1, kind="stable")
    winners = []
    for pairs in zip(first[ranked].tolist(), second[ranked].tolist()):
        reach = [1 << c for c in range(m)]
        beaten, losers = 0, 0
        for a, b in zip(*pairs):
            if losers == m - 1:
                break
            if not reach[b] >> a & 1:
                reach = [row | reach[b] if row >> a & 1 else row for row in reach]
                losers += not beaten >> b & 1
                beaten |= 1 << b
        winners.append(next(c for c in tb.priority if not beaten >> c & 1))
    return winners


class IntegerTally:
    """Position counts and cumulative dominance counts of a weighted ballot list,
    from its rank matrix (``BallotList.ranks``, one row per distinct ballot)
    and each row's positive int count.

    A k of None in :meth:`winners` is the ground truth of the ballots: the
    complete rule when every ballot is complete, else the rule read to depth
    m-1 (what the ballots allow). An integer k evaluates the top-k rule on
    the ballots cut to their length-min(k, len) prefix, as
    ``effective_truncate`` does. :meth:`winner` and :meth:`scores` read one k.
    """

    def __init__(self, ranks: np.ndarray, counts: Sequence[int]) -> None:
        if len(counts) == 0:
            raise DomainError("a tally needs at least one ballot")
        if min(counts) <= 0:
            raise DomainError("ballot counts must be positive")
        self.m = m = ranks.shape[1]
        self.n = sum(counts)
        self.complete = bool((ranks < m).all())
        dtype = np.int64 if self.n <= _INT64_MAX else object
        w = np.array(counts, dtype=dtype)
        self._pos = ranks
        self._weights = w
        columns, layers = [], []
        dominance = np.zeros((m, m), dtype=dtype)
        for p in range(m):
            # weight of each ballot on the candidate it ranks at position p
            at_p = (ranks == p) * w[:, None]
            columns.append(at_p.sum(axis=0))
            dominance = dominance + at_p.T @ (ranks > p)
            layers.append(dominance)
        self._positions = np.stack(columns, axis=1)  # C, m x m
        self._dominance = np.stack(layers)  # D, m x m x m

    def _level(self, k: int | None) -> int:
        """The number of leading positions a rule at k reads; for k None, m
        on complete ballots and m-1 otherwise."""
        if k is None:
            return self.m if self.complete else self.m - 1
        _check_k(k, self.m)
        return k

    def pairwise(self, k: int | None = None) -> PairwiseTally:
        """``D[k-1]`` as a tally; the pairwise table when k is None and the
        ballots are complete."""
        counts = self._dominance[self._level(k) - 1].tolist()
        return PairwiseTally(self.m, self.n, tuple(map(tuple, counts)))

    def psr(self, head: Sequence[Fraction], s_star: Fraction = Fraction(0)) -> list[int]:
        """PSR scores scaled to integers: every ballot gives head[p] to its
        candidate at position p < len(head), and s_star to each candidate it
        does not rank there. The scale is the lcm of the denominators of the
        head and s_star, so score ratios are exact."""
        if not 1 <= len(head) <= self.m:
            raise DomainError(f"head length must be in [1, {self.m}], got {len(head)}")
        return self._psr([_scaled_head(head, s_star)])[0].tolist()

    def scores(self, rule: RuleId, k: int | None) -> list[int]:
        """Integer score table of a PSR, Copeland or Maximin rule at k."""
        return self._scores(rule, [self._level(k)])[0].tolist()

    def winner(self, rule: RuleId, k: int | None, tb: TieBreak) -> int:
        """Resolute winner of the rule's family at k; ``rule.k`` is ignored."""
        return self.winners(rule, (k,), tb)[0]

    def winners(self, rule: RuleId, ks: Sequence[int | None], tb: TieBreak) -> list[int]:
        """Resolute winner of the rule's family at each k of `ks`, in order;
        ``rule.k`` is ignored. Only the levels `ks` asks for are read, so a
        call raises what a call per k would."""
        m = self.m
        _check_priority(tb.priority, m)
        levels = [self._level(k) for k in ks]
        if rule.family in SCORED_FAMILIES:
            table = self._scores(rule, levels)
            # each level's co-winner of lowest priority rank
            rank = np.where(table == table.max(axis=1, keepdims=True), np.argsort(tb.priority), m)
            return rank.argmin(axis=1).tolist()
        if rule.family == "rp":
            return _ranked_pairs(self._dominance[np.array(levels, dtype=np.intp) - 1], tb)
        # STV: the deepest requested run once, and each shallower level
        # replays from it; levels m-1 and m elect alike
        deep = max(levels, default=1)
        runs = self._eliminate(deep, list(range(m)), tb)
        return [runs[-1][0] if level >= min(deep, m - 1)
                else self._eliminate(level, runs[level], tb)[-1][0]
                for level in levels]

    def _scores(self, rule: RuleId, levels: Sequence[int]) -> np.ndarray:
        """Integer score tables of a PSR, Copeland or Maximin rule, one row per
        level. They order the candidates as the ``Fraction`` scores do: PSR
        scores are scaled by a positive integer per level, Copeland scores
        are 2·wins + ties."""
        if rule.family not in SCORED_FAMILIES:
            raise DomainError(f"{rule.family} has no score table")
        m = self.m
        if rule.family == "psr":
            return self._psr([_rule_weights(rule, m, k if k < m else None) for k in levels])
        counts = self._dominance[np.array(levels, dtype=np.intp) - 1]
        if rule.family == "copeland":
            against = counts.transpose(0, 2, 1)
            return (m - 1) + (counts > against).sum(axis=2) - (counts < against).sum(axis=2)
        if m < 2:
            raise DomainError("maximin needs m >= 2")
        others = np.flatnonzero(~np.eye(m, dtype=bool)).reshape(m, m - 1) % m
        return counts[:, np.arange(m)[:, None], others].min(axis=2)

    def _psr(self, weights: Sequence[tuple[int, tuple[int, ...]]]) -> np.ndarray:
        """Integer PSR scores, one row per scaled (base, steps) pair of
        ``_scaled_head``: ``base * n + steps @ C.T``."""
        m = self.m
        # every step is >= 0 and a candidate's position counts sum to n,
        # so n * (base + sum(steps)) bounds each row's scores
        peak = max((base + sum(steps) for base, steps in weights), default=0)
        dtype = np.int64 if self.n * peak <= _INT64_MAX else object
        bases = np.array([base for base, _ in weights], dtype=dtype)
        steps = np.array([steps + (0,) * (m - len(steps)) for _, steps in weights], dtype=dtype)
        return bases[:, None] * self.n + steps.reshape(-1, m) @ self._positions.T

    @cached_property
    def _stv_key(self) -> tuple[int, np.ndarray]:
        """(M, key): ``key[i, c] = pos[i, c] * M + c``, M the least power of two
        >= m, so the min of a row's keys over some candidates is the one it
        ranks first among them, at position ``min // M``, and ``min % M`` is it."""
        size = 1 << (self.m - 1).bit_length()
        return size, self._pos.astype(np.int32) * size + np.arange(self.m, dtype=np.int32)

    def _eliminate(self, level: int, active: list[int], tb: TieBreak) -> list[list[int]]:
        """The active sets of STV on the top-`level` prefixes from `active`,
        one before each round and the last one the winner alone: each round
        eliminates the active candidate with the lowest first-choice weight
        (ties: the lowest priority), and a ballot ranking no active candidate
        is exhausted.

        A run at a lower level shares the deepest run's first `level` rounds:
        after r - 1 < level eliminations each ballot's top active candidate
        sits at position <= r - 1, which both runs see, and a short ballot
        exhausts in the same round in both. So it starts from the deep run's
        active set after `level` eliminations.

        A round is one min over the run's own copy of the key columns of
        `active`; an eliminated candidate's column becomes the int32 maximum,
        which no live key reaches."""
        size, key = self._stv_key
        keys, columns = key[:, active], active
        history = [active]
        while len(active) > 1:
            top = keys.min(axis=1)
            live = top < level * size
            counts = np.zeros(self.m, dtype=self._weights.dtype)
            np.add.at(counts, top[live] % size, self._weights[live])
            tally = counts[active].tolist()
            least = min(tally)
            loser = tb.worst(c for c, count in zip(active, tally) if count == least)
            keys[:, columns.index(loser)] = _INT32_MAX
            active = [c for c in active if c != loser]
            history.append(active)
        return history


def pairwise_tally(profile: Profile) -> PairwiseTally:
    """counts[a][b] = number of voters ranking a above b; complete ballots only."""
    tally = IntegerTally(profile.ranks, profile.counts)
    if not tally.complete:
        raise DomainError(f"a pairwise tally needs every ballot to rank all {profile.m} candidates")
    return tally.pairwise()


def dominance_tally(topk: TopKProfile) -> PairwiseTally:
    """counts[a][b] = voters for whom a dominates b: a is ranked above b, or
    a is ranked and b is not. Ballots ranking neither contribute nothing."""
    return IntegerTally(topk.ranks, topk.counts).pairwise(topk.k)
