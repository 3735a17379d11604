"""Voting rules in complete and top-k form: names, vectors and dispatch.

Positional scoring rules (Borda, Harmonic, k'-approval), Copeland, Maximin,
Ranked Pairs, and STV with ballot exhaustion. A :class:`RuleId` names one,
and its constructor is the one rule check; :func:`parse_rule` only reads
the rule-string grammar. Ties are resolved everywhere by a single explicit
priority permutation (see :class:`truncvote.ballots.TieBreak`).

Every winner, Ranked Pairs and STV included, comes from the exact integer
counts of :class:`truncvote.tally.IntegerTally`; :func:`apply_rule` asks it
for one. :func:`copeland_scores` and :func:`maximin_scores` keep
``Fraction`` results on a pairwise tally, the form in which bounds and
reported ratios are stated. The loop tallies, ``Fraction`` positional
scores, STV and graph-search Ranked Pairs that the tally is checked against
are in ``tests/reference_rules.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import cached_property
from fractions import Fraction
from typing import Sequence

from .ballots import (
    DomainError,
    PairwiseTally,
    Profile,
    TieBreak,
    TopKProfile,
    _check_k,
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
    _check_k(k, m)
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
# rule identifiers


_PSR_BASES = ("borda", "harmonic", "approval")
_RULE_NAMES = (*_PSR_BASES, "copeland", "maximin", "rp", "stv")


@dataclass(frozen=True)
class RuleId:
    """A voting rule by name, optionally in top-k form; the one rule check.

    ``name`` is a scoring base (borda, harmonic, approval) or an order rule
    (copeland, maximin, rp, stv); ``width`` is k' of approval, else None.
    ``k is None`` means the complete-information rule. ``policy`` is a
    scoring rule's completion policy ("zero" unless given), else None.
    """

    name: str
    width: int | None = None  # k' for approval
    k: int | None = None
    policy: str | None = None

    def __post_init__(self) -> None:
        if self.name not in _RULE_NAMES:
            raise RuleParseError(f"unknown rule {self.name!r}")
        if self.name in _PSR_BASES:
            if self.name != "approval":
                if self.width is not None:
                    raise RuleParseError(f"{self.name} takes no width")
            elif self.width is None:
                raise RuleParseError("approval needs a width, e.g. approval2")
            elif self.width < 1:
                raise RuleParseError(f"approval width must be >= 1, got {self.width}")
            if self.policy is None:
                object.__setattr__(self, "policy", "zero")
            elif self.policy not in ("zero", "avg"):
                raise RuleParseError(f"unknown completion policy {self.policy!r}")
        elif self.width is not None or self.policy is not None:
            raise RuleParseError(f"{self.name} takes no width or completion policy")
        if self.k is not None and self.k < 1:
            raise RuleParseError(f"k must be >= 1, got {self.k}")

    @cached_property  # read per (rule, k) in every trial
    def family(self) -> str:
        """"psr" for the scoring bases, else the name."""
        return "psr" if self.name in _PSR_BASES else self.name

    @property
    def label(self) -> str:
        """Rule name without the @k part (CSV column value)."""
        return self._name("")

    def __str__(self) -> str:
        return self._name("" if self.k is None else f"@k={self.k}")

    def _name(self, at_k: str) -> str:
        width = "" if self.width is None else str(self.width)
        policy = "" if self.policy is None else f":{self.policy}"
        return f"{self.name}{width}{at_k}{policy}"

    def at_k(self, k: int | None) -> "RuleId":
        return replace(self, k=k)


_RULE_RE = re.compile(
    r"(?P<name>[a-z]+)(?P<width>\d+)?(?:@k=(?P<k>\d+))?(?::(?P<policy>[a-z]+))?"
)


def parse_rule(text: str) -> RuleId:
    """Parse the canonical rule syntax; :class:`RuleId` checks the parts.

    Examples: ``borda``, ``borda@k=2:avg``, ``harmonic:zero``, ``approval3``,
    ``plurality``, ``copeland@k=2``, ``maximin``, ``rp@k=3``, ``stv@k=2``.
    """
    match = _RULE_RE.fullmatch(text.strip())
    if not match:
        raise RuleParseError(f"cannot parse rule string {text!r}")
    name, width, k, policy = match.group("name", "width", "k", "policy")
    if name == "plurality":
        if width is not None:
            raise RuleParseError("plurality takes no width")
        name, width = "approval", "1"
    width, k = (None if digits is None else int(digits) for digits in (width, k))
    return RuleId(name, width, k, policy)


def scoring_vector(rule: RuleId, m: int) -> ScoringVector:
    if rule.family != "psr":
        raise DomainError(f"{rule} is not a positional scoring rule")
    if rule.name == "borda":
        return borda_vector(m)
    if rule.name == "harmonic":
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
    if isinstance(profile, TopKProfile) and profile.k != rule.k:
        raise DomainError(f"profile has k={profile.k}, rule wants k={rule.k}")


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
    return IntegerTally(profile.ranks, profile.counts).winner(rule, rule.k, tb)
