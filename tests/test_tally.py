"""IntegerTally against the Fraction oracle, and the block sampler against
the one-ballot-at-a-time sampler."""

from bisect import bisect_right
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from truncvote import (
    INFINITY,
    DomainError,
    MallowsModel,
    Profile,
    TieBreak,
    co_winners,
    dominance_tally,
    effective_truncate,
    pairwise_tally,
    parse_rule,
    price_of_truncation,
    ranked_pairs_winner,
    rule_scores,
    sample_profile,
    stv_winner,
    topk_psr_scores,
    truncate,
)
from truncvote import mallows
from truncvote.rules import psr_scores
from truncvote.tally import IntegerTally

SCORED = ("borda:zero", "borda:avg", "harmonic:zero", "harmonic:avg", "copeland", "maximin")


@st.composite
def elections(draw, complete: bool, max_weight: int = 2**40):
    """(m, ballots, tie-break): distinct complete rankings, or prefixes of
    random lengths (SOI), each with a weight up to max_weight."""
    m = draw(st.integers(2, 8))
    orders = draw(st.lists(st.permutations(range(m)), min_size=1, max_size=8))
    ballots = {}
    for order in orders:
        length = m if complete else draw(st.integers(1, m))
        # small weights make tied scores common, large ones test exactness
        weight = st.one_of(st.integers(1, 3), st.integers(1, max_weight))
        ballots[tuple(order[:length])] = draw(weight)
    tb = TieBreak(tuple(draw(st.permutations(range(m)))))
    return m, tuple(ballots.items()), tb


def _rules(m: int, width: int) -> list:
    rules = [parse_rule(text) for text in (*SCORED, "rp", "stv")]
    return rules + [parse_rule(f"approval{width}:{policy}") for policy in ("zero", "avg")]


def _check_against_oracle(tally, rule, k, profile, tb):
    """Winner (and scores for score rules) of the tally at k against the
    Fraction functions on ``profile``, the election the rule at k sees. Where
    the oracle rejects the rule (approval-m with avg completion gives
    s_star = head_1), the tally must reject it too."""
    if rule.family in ("rp", "stv"):
        winner = tally.winner(rule, k, tb)
    else:
        try:
            fractions = rule_scores(rule.at_k(k), profile)
        except DomainError:
            with pytest.raises(DomainError):
                tally.winner(rule, k, tb)
            return
        winner = tally.winner(rule, k, tb)
    if rule.family == "rp":
        assert winner == ranked_pairs_winner(pairwise_tally(profile) if k is None
                                             else dominance_tally(profile), tb), (rule, k)
    elif rule.family == "stv":
        assert winner == stv_winner(profile, tb), (rule, k)
    else:
        scores = tally.scores(rule, k)
        # one positive scale for every candidate: same order, same ratios
        scale = {Fraction(i) / f for i, f in zip(scores, fractions) if f}
        assert len(scale) == 1 and min(scale) > 0, (rule, k)
        assert all(i == 0 for i, f in zip(scores, fractions) if not f), (rule, k)
        assert winner == tb.best(co_winners(fractions)), (rule, k)


@given(elections(complete=True), st.integers(1, 8))
def test_complete_profiles_match_the_fraction_rules(election, width):
    m, ballots, tb = election
    profile = Profile.from_ballots(m, ballots)
    tally = IntegerTally.of(profile)
    assert tally.pairwise() == pairwise_tally(profile)
    for rule in _rules(m, min(width, m)):
        _check_against_oracle(tally, rule, None, profile, tb)
        for k in range(1, m):
            _check_against_oracle(tally, rule, k, truncate(profile, k), tb)


@given(elections(complete=False), st.integers(1, 8))
def test_soi_ballots_match_the_fraction_rules(election, width):
    m, ballots, tb = election
    tally = IntegerTally(m, ballots)
    for k in range(1, m):
        topk = effective_truncate(ballots, k, m)
        assert tally.pairwise(k) == dominance_tally(topk)
        for rule in _rules(m, min(width, m)):
            _check_against_oracle(tally, rule, k, topk, tb)


@given(elections(complete=True))
def test_price_of_truncation_is_the_fraction_score_ratio(election):
    m, ballots, tb = election
    profile = Profile.from_ballots(m, ballots)
    for text in ("borda:zero", "harmonic:avg", "approval2:zero", "copeland", "maximin"):
        rule = parse_rule(text)
        full = rule_scores(rule, profile)
        full_winner = tb.best(co_winners(full))
        for k in range(1, m):
            topk_winner = tb.best(co_winners(rule_scores(rule.at_k(k), truncate(profile, k))))
            expected = INFINITY if full[topk_winner] == 0 else full[full_winner] / full[topk_winner]
            assert price_of_truncation(profile, rule, k, tb) == expected, (text, k)


def test_counts_above_int64_stay_exact():
    big = 2**62
    ballots = (((0, 1, 2), big), ((1, 2, 0), big), ((2, 0, 1), big - 1), ((0, 2, 1), 3))
    profile = Profile.from_ballots(3, ballots)
    tally = IntegerTally.of(profile)
    assert tally.n == 3 * big + 2
    assert tally.pairwise() == pairwise_tally(profile)
    tb = TieBreak.by_index(3)
    for text in (*SCORED, "approval2:avg"):
        rule = parse_rule(text)
        _check_against_oracle(tally, rule, None, profile, tb)
        for k in (1, 2):
            _check_against_oracle(tally, rule, k, truncate(profile, k), tb)
    for rule in (parse_rule("rp"), parse_rule("stv")):
        _check_against_oracle(tally, rule, None, profile, tb)
    borda = psr_scores(profile, (Fraction(2), Fraction(1), Fraction(0)))
    assert tally.psr((2, 1, 0)) == [int(s) for s in borda]


@pytest.mark.parametrize("head, s_star", [
    ((Fraction(1), Fraction(2)), Fraction(0)),     # increasing
    ((Fraction(1), Fraction(1, 2)), Fraction(-1)),  # negative completion
    ((Fraction(1), Fraction(1)), Fraction(1)),     # head_1 == s_star
    ((Fraction(2), Fraction(1, 2)), Fraction(1)),  # head_k < s_star
])
def test_psr_rejects_what_topk_psr_scores_rejects(head, s_star):
    ballots = (((0, 1), 2), ((2,), 1))
    with pytest.raises(DomainError):
        topk_psr_scores(effective_truncate(ballots, 2, 4), head, s_star)
    with pytest.raises(DomainError):
        IntegerTally(4, ballots).psr(head, s_star)


def test_k_range_and_complete_rule_checks():
    tally = IntegerTally(4, (((0, 1), 2), ((2, 3, 1, 0), 1)))
    tb = TieBreak.by_index(4)
    for rule in ("borda", "copeland", "maximin", "rp", "stv"):
        for k in (0, 4):
            with pytest.raises(DomainError):
                tally.winner(parse_rule(rule), k, tb)
        with pytest.raises(DomainError, match="complete ballots"):
            tally.winner(parse_rule(rule), None, tb)
    with pytest.raises(DomainError):
        tally.winner(parse_rule("borda"), 2, TieBreak.by_index(3))
    with pytest.raises(DomainError):
        tally.scores(parse_rule("stv"), 2)


@pytest.mark.parametrize("ballots", [
    (),
    (((0, 0), 1),),
    (((0, 4), 1),),
    (((), 1),),
    (((0, 1), 0),),
    (((0, 1, 2, 3, 0), 1),),
])
def test_invalid_ballots_are_rejected(ballots):
    with pytest.raises(DomainError):
        IntegerTally(4, ballots)


def _one_by_one(model: MallowsModel, n: int, seed: int) -> Profile:
    rows = mallows.make_rng(seed).random((n, model.m - 1))
    counts = Counter(mallows._insert_from_uniforms(model, row) for row in rows)
    return Profile.from_ballots(model.m, counts.items())


@given(st.integers(2, 9), st.integers(1, 400), st.floats(0.05, 1.0), st.integers(0, 2**32))
def test_sampler_equals_one_ballot_at_a_time(m, n, phi, seed):
    model = MallowsModel(m, phi)
    profile = sample_profile(model, n, mallows.make_rng(seed))
    assert profile == _one_by_one(model, n, seed)
    # the trial path's ballots: each ranking listed once, the same profile
    ballots = mallows.sample_ballots(model, n, mallows.make_rng(seed))
    assert len({order for order, _ in ballots}) == len(ballots)
    assert Profile.from_ballots(m, ballots) == profile


def test_insertion_slots_are_bisect_right():
    model = MallowsModel(6, 0.6)
    cdfs = mallows._insertion_cdfs(6, 0.6)
    # every cdf value itself, where bisect_right and bisect_left differ
    columns = [sorted({0.0, *cdfs[-1][:-1], *cdf[:-1], 0.5, 1 - 2**-53}) for cdf in cdfs]
    rows = len(columns[-1])
    uniforms = np.array([[col[i % len(col)] for col in columns] for i in range(rows)])
    expected = [[bisect_right(cdfs[j], u) for j, u in enumerate(row)] for row in uniforms]
    assert mallows._insertion_slots(model, uniforms).tolist() == expected


@pytest.mark.parametrize("m", [20, 21, 23])
def test_sampler_beyond_int64_codes(m):
    # m! passes 2**63 at m = 21: those rows are deduplicated without a code
    model = MallowsModel(m, 0.9)
    assert sample_profile(model, 300, mallows.make_rng(4)) == _one_by_one(model, 300, 4)


@pytest.mark.parametrize("m, n", [(2, 50), (5, 101), (9, 64), (22, 40)])
def test_chunked_sampling_keeps_the_stream(monkeypatch, m, n):
    model = MallowsModel(m, 0.7)
    whole = sample_profile(model, n, mallows.make_rng(9))
    monkeypatch.setattr(mallows, "_CHUNK_ROWS", 7)
    rng = mallows.make_rng(9)
    assert sample_profile(model, n, rng) == whole == _one_by_one(model, n, 9)
    # the chunked sampler consumed exactly n * (m - 1) uniforms
    after = mallows.make_rng(9)
    after.random(n * (m - 1))
    assert rng.random() == after.random()
