"""Voting rules in complete and top-k form.

Positional scoring rules (Borda, Harmonic, k'-approval), Copeland, Maximin,
Ranked Pairs, and STV with ballot exhaustion. Ties are resolved everywhere
by a single explicit priority permutation (see
:class:`truncvote.ballots.TieBreak`).

:func:`apply_rule` computes winners from the exact integer counts of
:class:`truncvote.tally.IntegerTally`. The score functions here
(:func:`psr_scores`, :func:`topk_psr_scores`, :func:`copeland_scores`,
:func:`maximin_scores`, :func:`rule_scores`) keep ``Fraction`` results: they
are the reference the integer path is tested against, and the form in which
bounds and reported ratios are stated.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .ballots import (
    DomainError,
    PairwiseTally,
    Profile,
    TieBreak,
    TopKProfile,
    dominance_tally,
    pairwise_tally,
    truncate,
)

ScoringVector = tuple[Fraction, ...]
ScoreTable = list[Fraction]


class RuleParseError(ValueError):
    """A rule string did not match the rule grammar."""


# ---------------------------------------------------------------------------
# scoring vectors


def borda_vector(m: int) -> ScoringVector:
    if m < 2:
        raise DomainError("borda vector needs m >= 2")
    return tuple(Fraction(m - 1 - j) for j in range(m))


def harmonic_vector(m: int) -> ScoringVector:
    if m < 2:
        raise DomainError("harmonic vector needs m >= 2")
    return tuple(Fraction(1, j + 1) for j in range(m))


def approval_vector(m: int, width: int) -> ScoringVector:
    """k'-approval: 1 point to the first `width` positions, 0 after."""
    if not 1 <= width <= m:
        raise DomainError(f"approval width must be in [1, m], got {width}")
    return tuple(Fraction(1) if j < width else Fraction(0) for j in range(m))


def completion_score(vector: ScoringVector, k: int, policy: str) -> Fraction:
    """Points awarded to every unranked candidate of a top-k ballot."""
    m = len(vector)
    if not 1 <= k <= m - 1:
        raise DomainError(f"k must be in [1, m-1], got k={k}, m={m}")
    if policy == "zero":
        return Fraction(0)
    if policy == "avg":
        return sum(vector[k:], Fraction(0)) / (m - k)
    raise DomainError(f"unknown completion policy {policy!r}")


def _validate_head(head: Sequence[Fraction], s_star: Fraction) -> None:
    """Checks of a top-k head with completion score s_star (s_star = 0 and the
    whole vector for the complete rule)."""
    if not head or s_star < 0 or head[0] <= s_star or head[-1] < s_star:
        raise DomainError("need head_1 > s_star and head_k >= s_star >= 0")
    if any(head[j] < head[j + 1] for j in range(len(head) - 1)):
        raise DomainError("head must be non-increasing")


# ---------------------------------------------------------------------------
# scores


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


def copeland_scores(tally: PairwiseTally) -> ScoreTable:
    """Pairwise wins plus half a point per pairwise tie.

    a beats b when counts[a][b] > counts[b][a]. On a complete tally
    counts[a][b] + counts[b][a] = n, so this is the strict majority
    2·counts[a][b] > n; on a dominance tally it is the top-k majority.
    """
    counts, m = tally.counts, tally.m
    scores = []
    for a in range(m):
        wins = sum(1 for b in range(m) if counts[a][b] > counts[b][a])
        ties = sum(1 for b in range(m) if b != a and counts[a][b] == counts[b][a])
        scores.append(Fraction(wins) + Fraction(ties, 2))
    return scores


def maximin_scores(tally: PairwiseTally) -> ScoreTable:
    if tally.m < 2:
        raise DomainError("maximin needs m >= 2")
    return [
        Fraction(min(tally.counts[a][b] for b in range(tally.m) if b != a))
        for a in range(tally.m)
    ]


def co_winners(scores: Sequence[Fraction]) -> list[int]:
    """Every candidate with the top score, in index order."""
    if not scores:
        raise DomainError("empty score table")
    top = max(scores)
    return [c for c, s in enumerate(scores) if s == top]


# ---------------------------------------------------------------------------
# order-based rules


def ranked_pairs_winner(tally: PairwiseTally, tb: TieBreak) -> int:
    """Lock pairs by descending tally, skipping any pair that closes a cycle.

    Equal tallies are ordered lexicographically by (winner, loser) priority.
    """
    m = tally.m
    if m == 1:
        return 0
    pairs = [(a, b) for a in range(m) for b in range(m) if a != b]
    pairs.sort(key=lambda p: (-tally.counts[p[0]][p[1]], tb.rank(p[0]), tb.rank(p[1])))
    locked = [[False] * m for _ in range(m)]

    def reaches(src: int, dst: int) -> bool:
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
    sources = [c for c in range(m) if not any(locked[d][c] for d in range(m))]
    return tb.best(sources)


def stv_winner(profile: Profile | TopKProfile, tb: TieBreak) -> int:
    """Eliminate the lowest current-top count until one candidate remains.

    Ballots whose ranked candidates are all eliminated are exhausted and
    ignored. Ties eliminate the lowest-priority candidate.
    """
    active = set(range(profile.m))
    while len(active) > 1:
        counts = {c: 0 for c in active}
        for order, weight in profile.entries:
            for c in order:
                if c in active:
                    counts[c] += weight
                    break
        least = min(counts.values())
        active.remove(tb.worst(c for c in active if counts[c] == least))
    return active.pop()


# ---------------------------------------------------------------------------
# rule identifiers


_PSR_BASES = ("borda", "harmonic", "approval")
_FAMILIES = ("psr", "copeland", "maximin", "rp", "stv")


@dataclass(frozen=True)
class RuleId:
    """A voting rule, optionally in top-k form.

    ``k is None`` means the complete-information rule. ``policy`` is the
    completion policy for top-k PSRs (ignored by the other families).
    """

    family: str
    base: str | None = None
    width: int | None = None  # k' for approval
    k: int | None = None
    policy: str = "zero"

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise RuleParseError(f"unknown rule family {self.family!r}")
        if self.family == "psr":
            if self.base not in _PSR_BASES:
                raise RuleParseError(f"unknown scoring rule {self.base!r}")
            if (self.base == "approval") != (self.width is not None):
                raise RuleParseError("approval rules need a width, others must not have one")
        elif self.base is not None or self.width is not None:
            raise RuleParseError(f"{self.family} takes no base vector")
        if self.policy not in ("zero", "avg"):
            raise RuleParseError(f"unknown completion policy {self.policy!r}")
        if self.k is not None and self.k < 1:
            raise RuleParseError("k must be >= 1")

    @property
    def label(self) -> str:
        """Rule name without the @k part (CSV column value)."""
        return self._name("")

    def __str__(self) -> str:
        return self._name("" if self.k is None else f"@k={self.k}")

    def _name(self, at_k: str) -> str:
        if self.family != "psr":
            return self.family + at_k
        name = f"approval{self.width}" if self.base == "approval" else self.base
        return f"{name}{at_k}:{self.policy}"

    def at_k(self, k: int | None) -> "RuleId":
        return replace(self, k=k)


_RULE_RE = re.compile(
    r"(?P<name>[a-z]+)(?P<width>\d+)?(?:@k=(?P<k>\d+))?(?::(?P<policy>[a-z]+))?"
)


def parse_rule(text: str) -> RuleId:
    """Parse the canonical rule syntax.

    Examples: ``borda``, ``borda@k=2:avg``, ``harmonic:zero``, ``approval3``,
    ``plurality``, ``copeland@k=2``, ``maximin``, ``rp@k=3``, ``stv@k=2``.
    """
    match = _RULE_RE.fullmatch(text.strip())
    if not match:
        raise RuleParseError(f"cannot parse rule string {text!r}")
    name = match.group("name")
    width = int(match.group("width")) if match.group("width") else None
    k = int(match.group("k")) if match.group("k") else None
    policy = match.group("policy")
    if name == "plurality":
        if width is not None:
            raise RuleParseError("plurality takes no width")
        name, width = "approval", 1
    if name in _PSR_BASES:
        if name == "approval" and width is None:
            raise RuleParseError("approval needs a width, e.g. approval2")
        if name != "approval" and width is not None:
            raise RuleParseError(f"{name} takes no width")
        return RuleId("psr", base=name, width=width, k=k, policy=policy or "zero")
    if name in ("copeland", "maximin", "rp", "stv"):
        if width is not None or policy is not None:
            raise RuleParseError(f"{name} takes no width or completion policy")
        return RuleId(name, k=k)
    raise RuleParseError(f"unknown rule {name!r}")


def scoring_vector(rule: RuleId, m: int) -> ScoringVector:
    if rule.family != "psr":
        raise DomainError(f"{rule} is not a positional scoring rule")
    if rule.base == "borda":
        return borda_vector(m)
    if rule.base == "harmonic":
        return harmonic_vector(m)
    return approval_vector(m, rule.width)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# dispatch

SCORED_FAMILIES = ("psr", "copeland", "maximin")


def _check_input(rule: RuleId, profile: Profile | TopKProfile) -> None:
    """A complete rule needs a complete profile; a top-k rule a complete
    profile or a top-k profile with the same k."""
    if rule.k is None:
        if not isinstance(profile, Profile):
            raise DomainError(f"complete rule {rule} needs a complete profile")
        return
    if rule.k > profile.m - 1:
        raise DomainError(f"rule {rule} needs k <= m-1 = {profile.m - 1}")
    if isinstance(profile, TopKProfile) and profile.k != rule.k:
        raise DomainError(f"profile has k={profile.k}, rule wants k={rule.k}")


def rule_scores(rule: RuleId, profile: Profile | TopKProfile) -> ScoreTable:
    """Score table of a score-based rule (PSR, Copeland, Maximin).

    Accepts the same profiles as :func:`apply_rule`; the rule's winner is
    the highest-priority candidate of ``co_winners(rule_scores(...))``.
    """
    if rule.family not in SCORED_FAMILIES:
        raise DomainError(f"{rule.family} has no score table")
    m = profile.m
    _check_input(rule, profile)
    if rule.k is None:
        if rule.family == "psr":
            return psr_scores(profile, scoring_vector(rule, m))
        tally = pairwise_tally(profile)
    else:
        topk = truncate(profile, rule.k) if isinstance(profile, Profile) else profile
        if rule.family == "psr":
            vector = scoring_vector(rule, m)
            s_star = completion_score(vector, rule.k, rule.policy)
            return topk_psr_scores(topk, vector[: rule.k], s_star)
        tally = dominance_tally(topk)
    if rule.family == "copeland":
        return copeland_scores(tally)
    return maximin_scores(tally)


def apply_rule(rule: RuleId, profile: Profile | TopKProfile, tb: TieBreak | None = None) -> int:
    """Resolute winner of `rule` on `profile`.

    Top-k rules accept a TopKProfile with matching k, or a complete Profile,
    whose ballots the rule reads to depth k only. Complete rules require a
    complete Profile. The winner comes from the profile's integer tally.
    """
    from .tally import IntegerTally  # tally.py builds on this module

    if tb is None:
        tb = TieBreak.by_index(profile.m)
    _check_input(rule, profile)
    return IntegerTally.of(profile).winner(rule, rule.k, tb)
