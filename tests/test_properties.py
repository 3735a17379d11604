from fractions import Fraction
from itertools import permutations

from hypothesis import given, strategies as st

from truncvote import (
    Profile,
    TieBreak,
    apply_rule,
    co_winners,
    dominance_tally,
    is_infinite,
    kendall_tau,
    pairwise_tally,
    parse_rule,
    price_of_truncation,
    truncate,
)
from truncvote.mallows import MallowsModel, normalization, pmf
from truncvote.rules import borda_vector
from reference_rules import psr_scores, rule_scores


@st.composite
def profiles(draw, min_m=3, max_m=5, max_n=12):
    m = draw(st.integers(min_m, max_m))
    n = draw(st.integers(1, max_n))
    ballots = [tuple(draw(st.permutations(range(m)))) for _ in range(n)]
    return Profile.from_ballots(m, ((b, 1) for b in ballots))


ALL_RULES = ("borda:zero", "borda:avg", "harmonic:avg", "copeland", "maximin", "rp", "stv")
SCORE_RULES = ("borda:zero", "maximin", "copeland")


@given(profiles())
def test_top1_of_every_rule_is_plurality(profile):
    plurality = apply_rule(parse_rule("plurality"), profile)
    for text in ALL_RULES:
        assert apply_rule(parse_rule(text).at_k(1), profile) == plurality, text


@given(profiles())
def test_top_m_minus_1_equals_complete_rule(profile):
    # holds for every rule whose scoring vector ends in 0 or whose completion
    # reinstates it; harmonic with the zero policy is the known exception
    for text in ALL_RULES:
        rule = parse_rule(text)
        assert apply_rule(rule.at_k(profile.m - 1), profile) == apply_rule(rule, profile), text


@given(profiles(), st.integers(1, 4), st.randoms())
def test_winner_is_best_co_winner_of_score_table(profile, k, rnd):
    k = min(k, profile.m - 1)
    priority = list(range(profile.m))
    rnd.shuffle(priority)
    tb = TieBreak(tuple(priority))
    for text in ("borda:zero", "harmonic:avg", "approval2", "copeland", "maximin"):
        for rule in (parse_rule(text), parse_rule(text).at_k(k)):
            tops = co_winners(rule_scores(rule, profile))
            assert apply_rule(rule, profile, tb) == tb.best(tops), rule


@given(profiles(), st.integers(1, 4))
def test_topk_winner_ignores_ballot_tails(profile, k):
    k = min(k, profile.m - 1)
    scrambled = Profile.from_ballots(
        profile.m,
        ((order[:k] + order[k:][::-1], count) for order, count in profile.entries),
    )
    for text in ("borda:zero", "harmonic:avg", "copeland", "stv"):
        rule = parse_rule(text).at_k(k)
        assert apply_rule(rule, profile) == apply_rule(rule, scrambled), text


@given(profiles(), st.integers(1, 4))
def test_price_of_truncation_at_least_one(profile, k):
    k = min(k, profile.m - 1)
    for text in SCORE_RULES:
        rule = parse_rule(text)
        ratio = price_of_truncation(profile, rule, k)
        assert is_infinite(ratio) or ratio >= 1
        if apply_rule(rule, profile) == apply_rule(rule.at_k(k), profile):
            assert ratio == 1


@given(profiles())
def test_dominance_at_m_minus_1_equals_pairwise(profile):
    full = pairwise_tally(profile)
    dom = dominance_tally(truncate(profile, profile.m - 1))
    assert dom.counts == full.counts


@given(profiles(), st.integers(1, 4))
def test_truncate_keeps_exact_prefixes(profile, k):
    k = min(k, profile.m - 1)
    topk = truncate(profile, k)
    assert topk.n == profile.n
    prefixes = {}
    for order, count in profile.entries:
        prefixes[order[:k]] = prefixes.get(order[:k], 0) + count
    assert dict(topk.entries) == prefixes


@given(profiles())
def test_borda_scores_conserve_total(profile):
    total = sum(psr_scores(profile, borda_vector(profile.m)), Fraction(0))
    assert total == profile.n * profile.m * (profile.m - 1) // 2


@given(st.integers(2, 5), st.data())
def test_kendall_tau_is_a_metric(m, data):
    r1 = tuple(data.draw(st.permutations(range(m))))
    r2 = tuple(data.draw(st.permutations(range(m))))
    r3 = tuple(data.draw(st.permutations(range(m))))
    assert kendall_tau(r1, r2) == kendall_tau(r2, r1)
    assert (kendall_tau(r1, r2) == 0) == (r1 == r2)
    assert kendall_tau(r1, r3) <= kendall_tau(r1, r2) + kendall_tau(r2, r3)


@given(st.integers(2, 4), st.fractions(min_value=Fraction(1, 10), max_value=1))
def test_mallows_pmf_sums_to_one(m, phi):
    model = MallowsModel(m, float(phi))
    assert sum(pmf(model, r, phi) for r in permutations(range(m))) == 1
    assert normalization(m, phi) > 0


RULE_STRINGS = st.one_of(
    st.sampled_from(["borda", "harmonic", "copeland", "maximin", "rp", "stv"]),
    st.builds(lambda w: f"approval{w}", st.integers(1, 9)),
)


@given(RULE_STRINGS, st.one_of(st.none(), st.integers(1, 9)),
       st.sampled_from(["zero", "avg"]))
def test_rule_string_round_trip(base, k, policy):
    text = base
    if k is not None:
        text += f"@k={k}"
    if base in ("borda", "harmonic") or base.startswith("approval"):
        text += f":{policy}"
    rule = parse_rule(text)
    assert parse_rule(str(rule)) == rule
