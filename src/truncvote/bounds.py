"""Worst-case price of top-k truncation: closed-form bounds and the
pathological profiles that witness them.

Everything here is exact: bounds are rationals, and a profile's price of
truncation is the Fraction of two integer scores from its
:class:`~truncvote.tally.IntegerTally`. Adversarial profiles are built with
integer ballot weights by clearing denominators, so attainment checks are
exact equalities, not tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd, lcm, perm
from typing import Sequence

from .ballots import DomainError, Profile, TieBreak
from .rules import RuleId, ScoringVector, _validate_head, co_winners
from .tally import IntegerTally


class UnsupportedRuleError(ValueError):
    """The rule has no score, so score ratios are undefined for it."""


class ConstructionInapplicableError(ValueError):
    """The pathological construction needs weights that would be negative."""


class InfiniteRatio:
    """Distinct infinity value for unbounded score ratios (not a float)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"

    def __eq__(self, other) -> bool:
        return isinstance(other, InfiniteRatio)

    def __hash__(self) -> int:
        return hash("truncvote.InfiniteRatio")

    def __gt__(self, other) -> bool:
        return not isinstance(other, InfiniteRatio)

    def __ge__(self, other) -> bool:
        return True

    def __lt__(self, other) -> bool:
        return False

    def __le__(self, other) -> bool:
        return isinstance(other, InfiniteRatio)


INFINITY = InfiniteRatio()

Ratio = Fraction | InfiniteRatio


def is_infinite(value: Ratio) -> bool:
    return isinstance(value, InfiniteRatio)


@dataclass(frozen=True)
class RatioBound:
    lower: Fraction
    upper: Ratio

    def __post_init__(self) -> None:
        if not is_infinite(self.upper) and self.lower > self.upper:
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
    m = len(s)
    if not 1 <= k <= m - 1:
        raise DomainError(f"k must be in [1, m-1], got k={k}, m={m}")
    _validate_head(s[:k], s_star)
    return [s[i] - s_star for i in range(k)]


def psr_bounds(s: ScoringVector, k: int, s_star: Fraction) -> RatioBound:
    """Worst-case score-ratio bounds for a top-k PSR with completion s_star.

    Lower and upper coincide when s_star = 0. The bound is tight only when
    s_star = 0 and s_m = 0 as well: for s_m > 0 (e.g. the harmonic vector)
    `lower` is not in general attained, so it is not a lower bound on the
    worst case (harmonic, m=4, k=2: the worst case is 4/3, lower is 14/9).
    """
    m = len(s)
    sp = _reduced_vector(s, k, s_star)
    head_sum = sum(sp)
    s_next = s[k]
    lower = 1 - s_next / s[0] + (s_next / s[0]) * (m * sp[0]) / head_sum
    upper = 1 - s_next / sp[0] + (1 + s_star / sp[0]) * (m * s_next) / head_sum
    return RatioBound(Fraction(lower), Fraction(upper))


def _integer_weights(alpha_q: Fraction, beta_q: Fraction) -> tuple[int, int]:
    scale = lcm(alpha_q.denominator, beta_q.denominator)
    alpha, beta = int(alpha_q * scale), int(beta_q * scale)
    common = gcd(alpha, beta)
    return alpha // common, beta // common


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
    alpha, beta = _integer_weights(alpha_q, beta_q)

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
    scores = IntegerTally.of(profile.m, profile.entries).psr(s)
    return AdversarialInstance(profile, k, x1=0, x2=1, claimed_ratio=Fraction(scores[1], scores[0]))


def maximin_bounds(m: int, k: int) -> RatioBound:
    if not 1 <= k <= m - 1:
        raise DomainError(f"k must be in [1, m-1], got k={k}, m={m}")
    return RatioBound(Fraction(m - k), Fraction(m - k + 1))


def copeland_bounds(m: int, k: int) -> RatioBound:
    """Unbounded at every valid k: the top-k winner can be a Condorcet loser
    (see :func:`copeland_adversarial`)."""
    if not 1 <= k <= m - 1:
        raise DomainError(f"k must be in [1, m-1], got k={k}, m={m}")
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
    """Two votes x1 x2 .. xk plus one vote per ordered k-list of candidates,
    completed with x2 at position k+1 and x1 last where unranked. x1 becomes
    a Condorcet loser (Copeland score 0), so the ratio is infinite."""
    if not 2 <= k <= m - 2:
        raise DomainError(f"construction needs 2 <= k <= m-2, got m={m}, k={k}")
    # the k-lists avoiding both x1 and x2 must strictly outnumber the seed
    # votes, or x1/x2 end up pairwise-tied instead of losing/winning; at
    # (m, k) = (4, 2) there are only 2 such lists, so seed with 1 vote there
    neither = perm(m - 2, k)
    seed = 2 if neither > 2 else 1

    def complete(lead: Sequence[int]) -> tuple[int, ...]:
        vote = list(lead)
        if 1 not in vote:
            vote.append(1)
        vote.extend(sorted(set(range(m)) - set(vote) - {0}))
        if 0 not in vote:
            vote.append(0)
        return tuple(vote)

    ballots = [(complete(range(k)), seed)]
    for lead in permutations(range(m), k):
        ballots.append((complete(lead), 1))
    return AdversarialInstance(
        Profile.from_ballots(m, ballots), k, x1=0, x2=1, claimed_ratio=INFINITY
    )


def truncation_prices(
    tally: IntegerTally, rule: RuleId, k_values: Sequence[int], tb: TieBreak
) -> list[Ratio]:
    """Price of truncation at each k, with the complete scores computed once.

    Both scores of a ratio come from one integer table under one scale, so
    the ratio is the same Fraction as the ratio of ``rule_scores`` values."""
    if rule.family in ("rp", "stv"):
        raise UnsupportedRuleError(f"{rule.family} is not score-based")
    scores = tally.scores(rule, None)
    truncated = [scores[tally.winner(rule, k, tb)] for k in k_values]
    full = scores[tb.best(co_winners(scores))]
    return [INFINITY if score == 0 else Fraction(full, score) for score in truncated]


def price_of_truncation(
    profile: Profile, rule: RuleId, k: int, tb: TieBreak | None = None
) -> Ratio:
    """Per-profile score ratio S(f(P)) / S(f_k(P_k)), scores under the
    complete rule on the complete profile. Infinite when the truncated
    winner's complete score is zero (Copeland only, in practice)."""
    if tb is None:
        tb = TieBreak.by_index(profile.m)
    return truncation_prices(IntegerTally.of(profile.m, profile.entries), rule, (k,), tb)[0]
