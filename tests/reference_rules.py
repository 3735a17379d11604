"""Every loop oracle the package's array code is tested against.

Plain loops over a profile's ballots: the pairwise and dominance tallies,
``Fraction`` positional scores complete and top-k, the score table of any
score-based rule, STV by repeated first-choice counts, and Ranked Pairs by a
fresh graph search per pair; and the Mallows sampler that draws one ranking
at a time by repeated insertion. Nothing in the package calls them; the
tally, rule and sampler tests compare against them.
"""

from bisect import bisect_right
from fractions import Fraction
from typing import Sequence

import numpy as np

from truncvote import (
    DomainError,
    MallowsModel,
    PairwiseTally,
    Profile,
    TieBreak,
    TopKProfile,
    completion_score,
    copeland_scores,
    maximin_scores,
    scoring_vector,
    truncate,
)
from truncvote.ballots import Ballot
from truncvote.mallows import _insertion_cdfs


def pairwise_by_loop(profile: Profile) -> PairwiseTally:
    """counts[a][b] = number of voters ranking a above b."""
    m = profile.m
    counts = [[0] * m for _ in range(m)]
    for order, weight in profile.entries:
        for i, a in enumerate(order):
            row = counts[a]
            for b in order[i + 1 :]:
                row[b] += weight
    return PairwiseTally(m, profile.n, tuple(tuple(row) for row in counts))


def dominance_by_loop(topk: TopKProfile) -> PairwiseTally:
    """counts[a][b] = voters for whom a dominates b: a is ranked above b, or
    a is ranked and b is not. Ballots ranking neither contribute nothing."""
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


def insert_from_uniforms(model: MallowsModel, uniforms: Sequence[float]) -> Ballot:
    """The ranking that inserts candidate j+1 at top-based slot
    ``bisect_right(cdf of step j, uniforms[j])``, for j = 0..m-2."""
    out = [0]
    for j, (cdf, u) in enumerate(zip(_insertion_cdfs(model.m, float(model.phi)), uniforms)):
        out.insert(bisect_right(cdf, u), j + 1)
    return tuple(out)


def sample_ranking(model: MallowsModel, rng: np.random.Generator) -> Ballot:
    """One exact draw from the Mallows distribution."""
    return insert_from_uniforms(model, rng.random(model.m - 1))
from truncvote.rules import (
    SCORED_FAMILIES,
    RuleId,
    ScoreTable,
    ScoringVector,
    _check_input,
    _validate_head,
)


def psr_scores(profile: Profile, vector: ScoringVector) -> ScoreTable:
    if len(vector) != profile.m:
        raise DomainError("scoring vector length must equal m")
    _validate_head(vector, Fraction(0))
    scores = [Fraction(0)] * profile.m
    for order, weight in profile.entries:
        for pos, c in enumerate(order):
            scores[c] += vector[pos] * weight
    return scores


def topk_psr_scores(topk: TopKProfile, head: Sequence[Fraction], s_star: Fraction) -> ScoreTable:
    """Top-k PSR scores; every unranked candidate gets s_star per ballot.

    Ballots shorter than k give s_star to all of their unranked candidates.
    """
    if len(head) != topk.k:
        raise DomainError("head length must equal the profile's k")
    _validate_head(head, s_star)
    n = topk.n
    scores = [s_star * n for _ in range(topk.m)]
    for order, weight in topk.entries:
        for pos, c in enumerate(order):
            scores[c] += (head[pos] - s_star) * weight
    return scores


def rule_scores(rule: RuleId, profile: Profile | TopKProfile) -> ScoreTable:
    """Score table of a score-based rule (PSR, Copeland, Maximin).

    Accepts the same profiles as ``apply_rule``; the rule's winner is the
    highest-priority candidate of ``co_winners(rule_scores(...))``.
    """
    if rule.family not in SCORED_FAMILIES:
        raise DomainError(f"{rule.family} has no score table")
    m = profile.m
    _check_input(rule, profile)
    if rule.k is None:
        if rule.family == "psr":
            return psr_scores(profile, scoring_vector(rule, m))
        tally = pairwise_by_loop(profile)
    else:
        topk = truncate(profile, rule.k) if isinstance(profile, Profile) else profile
        if rule.family == "psr":
            vector = scoring_vector(rule, m)
            s_star = completion_score(vector, rule.k, rule.policy)
            return topk_psr_scores(topk, vector[: rule.k], s_star)
        tally = dominance_by_loop(topk)
    if rule.family == "copeland":
        return copeland_scores(tally)
    return maximin_scores(tally)


def stv_winner(profile: Profile | TopKProfile, tb: TieBreak) -> int:
    """Eliminate the lowest current-top count until one candidate remains.

    Ballots whose ranked candidates are all eliminated are exhausted and
    ignored. Ties eliminate the lowest-priority candidate.
    """
    active = set(range(profile.m))
    entries = profile.entries  # decoded once, not once per round
    while len(active) > 1:
        counts = {c: 0 for c in active}
        for order, weight in entries:
            for c in order:
                if c in active:
                    counts[c] += weight
                    break
        least = min(counts.values())
        active.remove(tb.worst(c for c in active if counts[c] == least))
    return active.pop()


def ranked_pairs_by_search(tally: PairwiseTally, tb: TieBreak) -> int:
    """Reference Ranked Pairs: a fresh graph search over the locked pairs for
    every pair, then the highest-priority candidate with no locked pair into it."""
    m = tally.m
    pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
    pairs.sort(key=lambda p: (-tally.counts[p[0]][p[1]], tb.rank(p[0]), tb.rank(p[1])))
    locked = [[False] * m for _ in range(m)]

    def reaches(src, dst):
        stack, seen = [src], {src}
        while stack:
            u = stack.pop()
            if u == dst:
                return True
            for v in range(m):
                if locked[u][v] and v not in seen:
                    seen.add(v)
                    stack.append(v)
        return False

    for a, b in pairs:
        if not reaches(b, a):
            locked[a][b] = True
    return tb.best(c for c in range(m) if not any(locked[d][c] for d in range(m)))
