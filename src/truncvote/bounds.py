"""Worst-case price of top-k truncation: closed-form bounds and the
pathological profiles that witness them.

Everything here is exact: bounds are rationals, and a profile's price of
truncation is the Fraction of two integer scores from its
:class:`~truncvote.tally.IntegerTally`. Adversarial profiles are built with
integer ballot weights by clearing denominators, so attainment checks are
exact equalities, not tolerances.

A ratio is a ``Fraction`` or :data:`INFINITY`, which is ``math.inf``: the
Copeland ratio is unbounded, and a price is infinite when the top-k winner's
complete score is zero. Comparisons with it are exact, since a ``Fraction``
compares with an infinite float without being converted to a float (so
``Fraction(10**400) < INFINITY`` holds and raises no ``OverflowError``), and
``INFINITY > INFINITY`` is false. No code does arithmetic on a ratio before
:func:`is_infinite` has filtered the infinite ones out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import inf
from typing import Sequence

from .ballots import DomainError, Profile, TieBreak, _check_k
from .rules import (
    SCORED_FAMILIES, RuleId, ScoringVector, _validate_head, completion_score,
    scoring_vector,
)
from .tally import IntegerTally


class UnsupportedRuleError(ValueError):
    """The rule has no score, so score ratios are undefined for it."""


class ConstructionInapplicableError(ValueError):
    """The pathological construction needs weights that would be negative."""


INFINITY = inf

Ratio = Fraction | float  # a Fraction, or INFINITY


def is_infinite(value: Ratio) -> bool:
    return value == INFINITY


@dataclass(frozen=True)
class RatioBound:
    lower: Ratio
    upper: Ratio

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise DomainError("lower bound exceeds upper bound")


@dataclass(frozen=True)
class AdversarialInstance:
    """A profile witnessing a worst-case ratio.

    x1 wins the truncated election, x2 the complete one, and the complete
    rule's score ratio S(x2)/S(x1) equals claimed_ratio.
    """

    profile: Profile
    k: int
    x1: int
    x2: int
    claimed_ratio: Ratio


def _reduced_vector(s: ScoringVector, k: int, s_star: Fraction) -> list[Fraction]:
    """s'_i = s_i - s_star for the top k positions."""
    _check_k(k, len(s))
    _validate_head(s[:k], s_star)
    return [s[i] - s_star for i in range(k)]


def psr_bounds(s: ScoringVector, k: int, s_star: Fraction) -> RatioBound:
    """Worst-case score-ratio bounds for a top-k PSR with completion s_star.

    Lower and upper coincide when s_star = 0. The bound is tight only when
    s_star = 0 and s_m = 0 as well: for s_m > 0 (e.g. the harmonic vector)
    `lower` is not in general attained, so it is not a lower bound on the
    worst case (harmonic, m=4, k=2: the worst case is 4/3, lower is 14/9).

    Exactly 1 at k = m-1 when s_star = s_m (tail-average completion, say): a
    top-(m-1) ballot gives its one unranked candidate s_m, so the top-(m-1)
    rule is the complete rule.
    """
    m = len(s)
    sp = _reduced_vector(s, k, s_star)
    if k == m - 1 and s_star == s[m - 1]:
        return RatioBound(Fraction(1), Fraction(1))
    head_sum = sum(sp)
    s_next = s[k]
    lower = 1 - s_next / s[0] + (s_next / s[0]) * (m * sp[0]) / head_sum
    upper = 1 - s_next / sp[0] + (1 + s_star / sp[0]) * (m * s_next) / head_sum
    return RatioBound(Fraction(lower), Fraction(upper))


def psr_adversarial(s: ScoringVector, k: int, s_star: Fraction) -> AdversarialInstance:
    """Pathological profile where all candidates tie in the truncation.

    Blocks: for each ordered (k-1)-list L over {x3..xm}, alpha votes "x1 L"
    and alpha votes "x2 L"; for each ordered k-list L', beta votes "L'".
    Completions: "x1 L" -> x1 L x2 rest; "x2 L" -> x2 L rest x1;
    "L'" -> L' x2 rest x1, with "rest" in ascending index order.
    """
    m = len(s)
    if k < 2 or m < k + 2:
        raise DomainError(f"construction needs k >= 2 and m >= k+2, got m={m}, k={k}")
    sp = _reduced_vector(s, k, s_star)
    head_sum = sum(sp)
    alpha_q = Fraction((m - k - 1) * head_sum)
    beta_q = Fraction((m - 2) * sp[0] - 2 * sum(sp[1:]))
    if beta_q < 0:
        raise ConstructionInapplicableError(
            f"beta would be negative for this vector (m={m}, k={k})"
        )
    # the smallest integer weights in the ratio alpha_q : beta_q
    alpha, beta = (1, 0) if beta_q == 0 else (alpha_q / beta_q).as_integer_ratio()

    others = list(range(2, m))
    ballots = []
    for lead in permutations(others, k - 1):
        rest = sorted(set(others) - set(lead))
        ballots.append(((0,) + lead + (1,) + tuple(rest), alpha))
        ballots.append(((1,) + lead + tuple(rest) + (0,), alpha))
    if beta > 0:
        for lead in permutations(others, k):
            rest = sorted(set(others) - set(lead))
            ballots.append((tuple(lead) + (1,) + tuple(rest) + (0,), beta))
    profile = Profile.from_ballots(m, ballots)

    # exact score ratio of x2 over x1 in the completed profile under the
    # complete rule; coincides with the closed-form bound when s_star = 0 and
    # s_m = 0. For s_m > 0 it falls short of the bound, and it is not the
    # worst case either: other profiles reach a higher ratio in some cells
    scores = IntegerTally(profile.ranks, profile.counts).psr(s)
    return AdversarialInstance(profile, k, x1=0, x2=1, claimed_ratio=Fraction(scores[1], scores[0]))


def maximin_bounds(m: int, k: int) -> RatioBound:
    _check_k(k, m)
    if k == m - 1:  # exact, see copeland_bounds
        return RatioBound(Fraction(1), Fraction(1))
    return RatioBound(Fraction(m - k), Fraction(m - k + 1))


def copeland_bounds(m: int, k: int) -> RatioBound:
    """Unbounded at k <= m-2: the top-k winner can be a Condorcet loser (see
    :func:`copeland_adversarial`). Exactly 1 at k = m-1, for Maximin too: a
    top-(m-1) ballot leaves only its last candidate unranked, so the depth-(m-1)
    dominance table is the pairwise table and the top-(m-1) winner is the
    complete one. Its score is never 0: a Copeland tie earns half a point,
    and the top of any ballot has N(a, b) >= 1."""
    _check_k(k, m)
    if k == m - 1:
        return RatioBound(Fraction(1), Fraction(1))
    return RatioBound(INFINITY, INFINITY)


def maximin_adversarial(m: int, k: int) -> AdversarialInstance:
    """Cyclic profile, with x1 pushed last and x2 pulled to position k+1
    wherever they are not already in the top k. Ratio is exactly m - k."""
    if not 2 <= k <= m - 2:
        raise DomainError(f"construction needs 2 <= k <= m-2, got m={m}, k={k}")
    votes = []
    for start in range(m):
        vote = [(start + t) % m for t in range(m)]
        if 0 not in vote[:k]:
            vote.remove(0)
            vote.append(0)
        if 1 not in vote[:k]:
            vote.remove(1)
            vote.insert(k, 1)
        votes.append((tuple(vote), 1))
    return AdversarialInstance(
        Profile.from_ballots(m, votes), k, x1=0, x2=1, claimed_ratio=Fraction(m - k)
    )


def copeland_adversarial(m: int, k: int) -> AdversarialInstance:
    """2k+1 votes x1 x2 .. xm, then for each cyclic rotation of x2..xm one
    vote of it and one of its reverse, each with x1 last: 2m-1 ballots (3 at m = 3).
    x1 is above each y in 2k+1 of the 2k+2m-1 votes, a minority for k <= m-2,
    so it is a Condorcet loser with Copeland score 0. In the top k it beats
    each y by 2k+1 to 2k, so it is the top-k Condorcet winner under any
    priority (at k = 1: x1 tops 3 votes, every y tops 2). A rotation and its
    reverse tie every pair among x2..xm, so the 2k+1 votes make x2 the
    Condorcet winner, with score m-1. The ratio is infinite."""
    if not 1 <= k <= m - 2:
        raise DomainError(f"construction needs 1 <= k <= m-2, got m={m}, k={k}")
    ballots = [(tuple(range(m)), 2 * k + 1)]
    for start in range(1, m):
        rotation = tuple(range(start, m)) + tuple(range(1, start))
        ballots += [(rotation + (0,), 1), (rotation[::-1] + (0,), 1)]
    return AdversarialInstance(
        Profile.from_ballots(m, ballots), k, x1=0, x2=1, claimed_ratio=INFINITY
    )


def _check_depthless(rule: RuleId) -> None:
    """Bounds and witnesses read a complete rule at the k they are given."""
    if rule.k is not None:
        raise DomainError(f"{rule}: bounds and witnesses take no @k; the depth comes from k (--k)")


def rule_bound(rule: RuleId, m: int, k: int) -> RatioBound:
    """The worst-case bounds of a PSR, Maximin or Copeland rule at (m, k)."""
    _check_depthless(rule)
    if rule.family == "psr":
        vector = scoring_vector(rule, m)
        return psr_bounds(vector, k, completion_score(vector, k, rule.policy))
    if rule.family == "maximin":
        return maximin_bounds(m, k)
    if rule.family == "copeland":
        return copeland_bounds(m, k)
    raise UnsupportedRuleError(f"no score-ratio bounds for {rule.family}")


def rule_adversarial(rule: RuleId, m: int, k: int) -> AdversarialInstance:
    """The witness profile of a PSR, Maximin or Copeland rule at (m, k)."""
    _check_depthless(rule)
    if rule.family == "psr":
        vector = scoring_vector(rule, m)
        return psr_adversarial(vector, k, completion_score(vector, k, rule.policy))
    if rule.family == "maximin":
        return maximin_adversarial(m, k)
    if rule.family == "copeland":
        return copeland_adversarial(m, k)
    raise UnsupportedRuleError(f"no adversarial construction for {rule.family}")


def truncation_prices(
    tally: IntegerTally, rule: RuleId, k_values: Sequence[int], tb: TieBreak
) -> list[Ratio]:
    """Price of truncation at each k: the complete scores once, the complete
    winner's score their max, and every top-k winner from one ``winners`` call.

    Both scores of a ratio come from one integer table under one scale, so
    the ratio is the same Fraction as the ratio of the ``Fraction`` scores."""
    if rule.family not in SCORED_FAMILIES:
        raise UnsupportedRuleError(f"{rule.family} is not score-based")
    scores = tally.scores(rule, None)
    full = max(scores)
    truncated = [scores[w] for w in tally.winners(rule, k_values, tb)]
    return [INFINITY if score == 0 else Fraction(full, score) for score in truncated]


def price_of_truncation(
    profile: Profile, rule: RuleId, k: int, tb: TieBreak | None = None
) -> Ratio:
    """Per-profile score ratio S(f(P)) / S(f_k(P_k)), scores under the
    complete rule on the complete profile. Infinite when the truncated
    winner's complete score is zero (Copeland only, in practice)."""
    if tb is None:
        tb = TieBreak.by_index(profile.m)
    return truncation_prices(IntegerTally(profile.ranks, profile.counts), rule, (k,), tb)[0]
