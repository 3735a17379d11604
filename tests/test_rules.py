from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest
from hypothesis import given, strategies as st

from truncvote import (
    DomainError,
    PairwiseTally,
    Profile,
    RuleId,
    RuleParseError,
    TieBreak,
    TopKProfile,
    apply_rule,
    approval_vector,
    borda_vector,
    co_winners,
    completion_score,
    copeland_scores,
    dominance_tally,
    harmonic_vector,
    maximin_scores,
    pairwise_tally,
    parse_rule,
    scoring_vector,
    truncate,
)
from truncvote.tally import _ranked_pairs
from reference_rules import psr_scores, ranked_pairs_by_search, stv_winner, topk_psr_scores

F = Fraction


def test_scoring_vectors():
    assert borda_vector(4) == (F(3), F(2), F(1), F(0))
    assert harmonic_vector(4) == (F(1), F(1, 2), F(1, 3), F(1, 4))
    assert approval_vector(4, 2) == (F(1), F(1), F(0), F(0))
    with pytest.raises(DomainError):
        approval_vector(4, 5)
    with pytest.raises(DomainError):
        borda_vector(1)


def test_completion_score():
    s = borda_vector(4)
    assert completion_score(s, 2, "zero") == 0
    assert completion_score(s, 2, "avg") == F(1, 2)
    assert completion_score(harmonic_vector(4), 1, "avg") == F(13, 36)
    with pytest.raises(DomainError):
        completion_score(s, 2, "median")
    with pytest.raises(DomainError):
        completion_score(s, 4, "zero")


def test_borda_scores_on_fixture(example1):
    assert psr_scores(example1, borda_vector(4)) == [F(77), F(45), F(119), F(131)]
    assert TieBreak.by_index(4).best(co_winners(psr_scores(example1, borda_vector(4)))) == 3


def test_psr_scores_validation(example1):
    with pytest.raises(DomainError):
        psr_scores(example1, (F(3), F(2), F(1)))
    with pytest.raises(DomainError):
        psr_scores(example1, (F(1), F(2), F(3), F(4)))


def test_top1_borda_average_scores(example1):
    # head (3,), every unranked candidate gets the tail average 1
    t = truncate(example1, 1)
    scores = topk_psr_scores(t, (F(3),), F(1))
    assert scores == [F(102), F(82), F(92), F(96)]
    assert apply_rule(parse_rule("borda@k=1:avg"), example1) == 0


def test_topk_psr_short_ballots_get_s_star_for_unranked():
    t = TopKProfile.from_ballots(3, 2, [((0,), 1), ((1, 2), 1)])
    scores = topk_psr_scores(t, (F(2), F(1)), F(1, 2))
    assert scores == [F(2) + F(1, 2), F(1, 2) + F(2), F(1, 2) + F(1)]


def test_topk_psr_head_validation(example1):
    t = truncate(example1, 2)
    with pytest.raises(DomainError):
        topk_psr_scores(t, (F(3),), F(0))
    with pytest.raises(DomainError):
        topk_psr_scores(t, (F(1), F(2)), F(0))
    with pytest.raises(DomainError):
        topk_psr_scores(t, (F(1), F(1)), F(1))


def test_copeland_and_maximin_on_fixture(example1):
    tally = pairwise_tally(example1)
    assert copeland_scores(tally) == [F(1), F(0), F(2), F(3)]
    assert maximin_scores(tally) == [F(20), F(10), F(25), F(37)]
    # cut to k=2, d still beats everyone and a still beats only b
    assert copeland_scores(dominance_tally(truncate(example1, 2))) == [F(1), F(0), F(2), F(3)]


def test_copeland_half_point_for_ties():
    p = Profile.from_ballots(2, [((0, 1), 1), ((1, 0), 1)])
    scores = copeland_scores(pairwise_tally(p))
    assert scores == [F(1, 2), F(1, 2)]


def _ranked_pairs_winner(counts, tb):
    """Ranked Pairs winner of one layer of pairwise counts."""
    return _ranked_pairs(np.array([counts]), tb)[0]


def test_ranked_pairs_on_fixture(example1):
    assert _ranked_pairs_winner(pairwise_tally(example1).counts, TieBreak.by_index(4)) == 3


def test_ranked_pairs_skips_cycles():
    # 3-cycle a>b>c>a with margins 5, 4, 3: lock a>b and b>c, skip c>a
    p = Profile.from_ballots(
        3, [((0, 1, 2), 4), ((1, 2, 0), 3), ((2, 0, 1), 2)]
    )
    assert _ranked_pairs_winner(pairwise_tally(p).counts, TieBreak.by_index(3)) == 0


# counts drawn from 0..3, so equal counts, and hence priority-ordered ties, are common
@st.composite
def rp_cases(draw):
    m = draw(st.integers(1, 9))
    counts = [[0 if a == b else draw(st.integers(0, 3)) for b in range(m)] for a in range(m)]
    tb = TieBreak(tuple(draw(st.permutations(range(m)))))
    return counts, tb


def _tally(counts):
    return PairwiseTally(len(counts), 2 * max(map(max, counts)),
                         tuple(tuple(row) for row in counts))


@given(rp_cases())
def test_ranked_pairs_equals_search_oracle(case):
    counts, tb = case
    assert _ranked_pairs_winner(counts, tb) == ranked_pairs_by_search(_tally(counts), tb)


def test_ranked_pairs_equals_search_oracle_on_every_small_tally():
    off_diagonal = [(a, b) for a in range(3) for b in range(3) if a != b]
    for values in product(range(3), repeat=len(off_diagonal)):
        counts = [[0] * 3 for _ in range(3)]
        for (a, b), value in zip(off_diagonal, values):
            counts[a][b] = value
        tally = _tally(counts)
        for priority in permutations(range(3)):
            tb = TieBreak(priority)
            assert _ranked_pairs_winner(counts, tb) == ranked_pairs_by_search(tally, tb)


@given(rp_cases(), st.data())
def test_ranked_pairs_elects_the_candidate_beating_every_rival(case, data):
    counts, tb = case
    m = len(counts)
    winner = data.draw(st.integers(0, m - 1))
    for rival in range(m):
        if rival != winner:
            counts[winner][rival] = counts[rival][winner] + data.draw(st.integers(1, 3))
    assert _ranked_pairs_winner(counts, tb) == winner


@given(st.integers(1, 9).flatmap(lambda m: st.tuples(
    st.lists(st.lists(st.lists(st.integers(0, 3), min_size=m, max_size=m),
                      min_size=m, max_size=m), min_size=2, max_size=4),
    st.permutations(range(m)))), st.data())
def test_ranked_pairs_on_a_stack_of_layers_equals_search_oracle(drawn, data):
    # one call over several layers; one layer's counts pass 2**63 and differ
    # only in their last bits, so the stack is an object array of Python ints
    layers, priority = drawn
    m, tb = len(priority), TieBreak(tuple(priority))
    big = data.draw(st.integers(0, len(layers) - 1))
    layers[big] = [[count + 2**63 for count in row] for row in layers[big]]
    for layer in layers:
        for c in range(m):
            layer[c][c] = 0
    counts = np.array(layers, dtype=object)
    expected = [ranked_pairs_by_search(_tally(layer), tb) for layer in layers]
    assert _ranked_pairs(counts, tb) == expected


def test_stv_on_fixture(example1):
    # b out first (10), transfers to c; a out next (20 vs 25/17+20); c beats d
    assert apply_rule(parse_rule("stv"), example1) == 2


def test_stv_exhaustion():
    # both ballots ranking 0 exhaust once 0 is eliminated
    t = TopKProfile.from_ballots(3, 1, [((0,), 2), ((1,), 3), ((2,), 4)])
    assert stv_winner(t, TieBreak.by_index(3)) == 2


def test_winner_tie_breaking():
    scores = [F(5), F(5), F(2)]
    assert TieBreak.by_index(3).best(co_winners(scores)) == 0
    assert TieBreak((1, 0, 2)).best(co_winners(scores)) == 1


def test_parse_rule_round_trips():
    for text in (
        "borda",
        "borda@k=2:avg",
        "harmonic:zero",
        "approval3",
        "copeland@k=2",
        "maximin",
        "rp@k=3",
        "stv@k=2",
    ):
        rule = parse_rule(text)
        assert parse_rule(str(rule)) == rule


def test_parse_rule_plurality_alias():
    assert parse_rule("plurality") == parse_rule("approval1")


def test_parse_rule_errors():
    # faults of the grammar itself; RULE_FAULTS below holds those RuleId finds
    for bad in ("", "Borda", "borda@k", "borda:", "borda@k=2@k=3", "plurality2"):
        with pytest.raises(RuleParseError):
            parse_rule(bad)


# each fault has one message, whether the rule comes from a string or is built directly
RULE_FAULTS = [
    ("bogus", ("bogus",), "unknown rule 'bogus'"),
    ("approval", ("approval",), "approval needs a width, e.g. approval2"),
    ("approval0", ("approval", 0), "approval width must be >= 1, got 0"),
    ("borda3", ("borda", 3), "borda takes no width"),
    ("borda:median", ("borda", None, None, "median"), "unknown completion policy 'median'"),
    ("borda@k=0", ("borda", None, 0), "k must be >= 1, got 0"),
    ("copeland:zero", ("copeland", None, None, "zero"),
     "copeland takes no width or completion policy"),
    ("copeland:avg", ("copeland", None, None, "avg"),
     "copeland takes no width or completion policy"),
    ("rp2", ("rp", 2), "rp takes no width or completion policy"),
]


@pytest.mark.parametrize("text, fields, message", RULE_FAULTS, ids=[f[0] for f in RULE_FAULTS])
def test_rule_faults_fail_alike_from_a_string_and_from_rule_id(text, fields, message):
    for build in (lambda: parse_rule(text), lambda: RuleId(*fields)):
        with pytest.raises(RuleParseError) as err:
            build()
        assert str(err.value) == message


def test_rule_id_fields_and_family():
    texts = ("borda", "harmonic", "approval2", "copeland", "maximin", "rp", "stv")
    assert {t: parse_rule(t).family for t in texts} == {
        "borda": "psr", "harmonic": "psr", "approval2": "psr", "copeland": "copeland",
        "maximin": "maximin", "rp": "rp", "stv": "stv",
    }
    assert parse_rule("approval2@k=3:avg") == RuleId("approval", 2, 3, "avg")
    assert RuleId("borda") == parse_rule("borda:zero") and RuleId("borda").policy == "zero"
    assert RuleId("stv").policy is None and str(RuleId("stv", k=2)) == "stv@k=2"
    with pytest.raises(RuleParseError, match="plurality takes no width"):
        parse_rule("plurality2")


def test_scoring_vector_dispatch():
    assert scoring_vector(parse_rule("borda"), 3) == borda_vector(3)
    assert scoring_vector(parse_rule("approval2"), 4) == approval_vector(4, 2)
    with pytest.raises(DomainError):
        scoring_vector(parse_rule("copeland"), 3)


def test_apply_rule_profile_kind_checks(example1):
    t = truncate(example1, 2)
    with pytest.raises(DomainError):
        apply_rule(parse_rule("borda"), t)  # complete rule, truncated profile
    with pytest.raises(DomainError):
        apply_rule(parse_rule("borda@k=3"), t)  # k mismatch
    with pytest.raises(DomainError):
        apply_rule(parse_rule("borda@k=4"), example1)  # k > m-1
    with pytest.raises(DomainError):
        apply_rule(parse_rule("borda"), example1, TieBreak.by_index(3))


def test_topk_rule_accepts_profile_or_truncation(example1):
    rule = parse_rule("copeland@k=2")
    assert apply_rule(rule, example1) == apply_rule(rule, truncate(example1, 2))


def test_fixture_winners_per_rule(example1):
    winners = {
        "borda": 3,
        "harmonic": 3,
        "plurality": 0,
        "copeland": 3,
        "maximin": 3,
        "rp": 3,
        "stv": 2,
    }
    for text, expected in winners.items():
        assert apply_rule(parse_rule(text), example1) == expected, text
