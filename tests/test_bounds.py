from fractions import Fraction
from math import gcd, inf

import pytest

from truncvote import (
    INFINITY,
    ConstructionInapplicableError,
    DomainError,
    Profile,
    RatioBound,
    TieBreak,
    UnsupportedRuleError,
    apply_rule,
    copeland_adversarial,
    copeland_bounds,
    copeland_scores,
    is_infinite,
    maximin_adversarial,
    maximin_bounds,
    maximin_scores,
    pairwise_tally,
    parse_rule,
    price_of_truncation,
    psr_adversarial,
    psr_bounds,
    rule_adversarial,
    rule_bound,
    truncate,
)
from truncvote.rules import approval_vector, borda_vector, completion_score, harmonic_vector

F = Fraction


def test_infinity_is_math_inf_and_compares_exactly():
    assert INFINITY is inf
    assert is_infinite(INFINITY)
    assert not is_infinite(F(3)) and not is_infinite(F(10**400))
    # a Fraction too large for a float compares without being converted to one
    assert F(10**400) < INFINITY and not F(10**400) >= INFINITY
    for x in (F(0), F(1, 3), F(10**400), F(-(10**400))):
        assert x != INFINITY
    assert INFINITY >= INFINITY and INFINITY <= INFINITY and not INFINITY > INFINITY
    assert max([F(2), INFINITY, F(5)]) is INFINITY


def test_ratio_bound_ordering_checked():
    RatioBound(F(1), F(2))
    RatioBound(F(1), INFINITY)
    RatioBound(INFINITY, INFINITY)  # copeland's
    with pytest.raises(DomainError):
        RatioBound(F(3), F(2))
    with pytest.raises(DomainError):
        RatioBound(INFINITY, F(1))


def test_borda_zero_bounds_m4_k2():
    b = psr_bounds(borda_vector(4), 2, F(0))
    assert b.lower == b.upper == F(22, 15)


def test_harmonic_zero_bounds_m4_k2():
    b = psr_bounds(harmonic_vector(4), 2, F(0))
    assert b.lower == b.upper == F(14, 9)


def test_bounds_split_when_completion_positive():
    s = borda_vector(5)
    s_star = (s[2] + s[3] + s[4]) / 3  # avg policy at k=2
    b = psr_bounds(s, 2, s_star)
    assert b.lower < b.upper


def test_approval_bound_is_m_over_k():
    # width-k approval, zero completion: both bounds collapse to m/k
    for m, k in ((5, 2), (6, 3), (8, 2)):
        b = psr_bounds(approval_vector(m, k + 1), k, F(0))
        assert b.lower == b.upper == F(m, k)


def test_reduced_vector_domain_checks():
    s = borda_vector(4)
    with pytest.raises(DomainError):
        psr_bounds(s, 4, F(0))
    with pytest.raises(DomainError):
        psr_bounds(s, 2, F(-1))
    with pytest.raises(DomainError):
        psr_bounds(s, 2, F(3))  # s_star above s_k


def test_psr_adversarial_borda_m5_k3_matches_reference_profile():
    inst = psr_adversarial(borda_vector(5), 3, F(0))
    # 2 blocks of 6 ordered 2-lists plus 6 ordered 3-lists: 18 distinct votes
    assert len(inst.profile.entries) == 18
    tb = TieBreak.by_index(5)
    rule = parse_rule("borda:zero")
    assert apply_rule(rule.at_k(3), inst.profile, tb) == inst.x1 == 0
    assert apply_rule(rule, inst.profile, tb) == inst.x2 == 1
    assert inst.claimed_ratio == psr_bounds(borda_vector(5), 3, F(0)).upper
    assert price_of_truncation(inst.profile, rule, 3, tb) == inst.claimed_ratio


def test_psr_adversarial_weights_are_reduced_integers():
    inst = psr_adversarial(borda_vector(6), 2, F(0))
    counts = sorted({c for _, c in inst.profile.entries})
    assert gcd(*counts) == 1 if len(counts) > 1 else counts == [1]


def test_psr_adversarial_domain_checks():
    with pytest.raises(DomainError):
        psr_adversarial(borda_vector(4), 1, F(0))
    with pytest.raises(DomainError):
        psr_adversarial(borda_vector(4), 3, F(0))


def test_psr_adversarial_negative_beta_rejected():
    # width-3 approval at m=5, k=3: (m-2)s'_1 - 2(s'_2 + s'_3) = 3 - 4 < 0
    with pytest.raises(ConstructionInapplicableError):
        psr_adversarial(approval_vector(5, 3), 3, F(0))


def test_maximin_bounds():
    assert maximin_bounds(12, 3) == RatioBound(F(9), F(10))
    assert maximin_bounds(12, 11) == RatioBound(F(1), F(1))
    with pytest.raises(DomainError):
        maximin_bounds(4, 0)


def test_copeland_bounds_unbounded_below_m_minus_1():
    for k in (1, 2, 3):
        assert copeland_bounds(5, k) == RatioBound(INFINITY, INFINITY)
    assert copeland_bounds(5, 4) == RatioBound(F(1), F(1))
    with pytest.raises(DomainError):
        copeland_bounds(5, 5)


def test_maximin_adversarial_m5_k2_exact_profile():
    inst = maximin_adversarial(5, 2)
    expected = {
        (0, 1, 2, 3, 4): 1,
        (1, 2, 3, 4, 0): 1,
        (2, 3, 1, 4, 0): 1,
        (3, 4, 1, 2, 0): 1,
        (4, 0, 1, 2, 3): 1,
    }
    assert dict(inst.profile.entries) == expected
    scores = maximin_scores(pairwise_tally(inst.profile))
    assert scores[0] == 1 and scores[1] == 3
    assert inst.claimed_ratio == F(3)
    assert price_of_truncation(inst.profile, parse_rule("maximin"), 2) == F(3)


def test_copeland_adversarial_m5_k2():
    inst = copeland_adversarial(5, 2)
    # 2k+1 = 5 votes x1..xm; each rotation of x2..xm and its reverse, x1 last
    assert dict(inst.profile.entries) == {
        (0, 1, 2, 3, 4): 5,
        (1, 2, 3, 4, 0): 1,
        (4, 3, 2, 1, 0): 1,
        (2, 3, 4, 1, 0): 1,
        (1, 4, 3, 2, 0): 1,
        (3, 4, 1, 2, 0): 1,
        (2, 1, 4, 3, 0): 1,
        (4, 1, 2, 3, 0): 1,
        (3, 2, 1, 4, 0): 1,
    }
    scores = copeland_scores(pairwise_tally(inst.profile))
    assert scores[0] == 0 and scores[1] == 4
    assert apply_rule(parse_rule("copeland@k=2"), inst.profile) == 0
    assert is_infinite(inst.claimed_ratio)
    assert is_infinite(price_of_truncation(inst.profile, parse_rule("copeland"), 2))


@pytest.mark.parametrize("m", range(3, 13))
def test_copeland_adversarial_has_2m_minus_1_ballots_and_infinite_price(m):
    rule = parse_rule("copeland")
    for k in range(1, m - 1):
        inst = copeland_adversarial(m, k)
        # at m = 3 each rotation of x2, x3 is the other's reverse, so they merge
        assert len(inst.profile.counts) == (2 * m - 1 if m > 3 else 3)
        assert sum(inst.profile.counts) == 2 * k + 2 * m - 1
        scores = copeland_scores(pairwise_tally(inst.profile))
        assert scores[0] == 0 and scores[1] == m - 1
        for tb in (TieBreak.by_index(m), TieBreak(tuple(reversed(range(m))))):
            assert apply_rule(rule.at_k(k), inst.profile, tb) == 0
            assert is_infinite(price_of_truncation(inst.profile, rule, k, tb))


def test_adversarial_domain_checks():
    with pytest.raises(DomainError):
        maximin_adversarial(4, 1)
    copeland_adversarial(4, 1)  # Copeland's witness covers k = 1 too
    for fn in (maximin_adversarial, copeland_adversarial):
        with pytest.raises(DomainError):
            fn(4, 3)


def test_price_is_one_when_winners_agree(example1):
    # borda full and top-3 winners on the fixture both come out d
    assert price_of_truncation(example1, parse_rule("borda"), 3) == 1


def test_price_uses_complete_scores(example1):
    # top-1 borda-zero winner is a (plurality-like), full winner is d
    ratio = price_of_truncation(example1, parse_rule("borda"), 1)
    assert ratio == F(131, 77)


def test_random_profiles_never_exceed_upper_bound():
    # seeded random search: no sampled profile's ratio beats the stated upper
    # bound, and at k = m-1 Copeland's and Maximin's price is exactly their bound 1
    import numpy as np

    from truncvote import sample_profile
    from truncvote.mallows import MallowsModel

    rng = np.random.default_rng(7)
    rules = [parse_rule(name) for name in ("borda:zero", "harmonic:zero", "maximin", "copeland")]
    exact = 0
    for _ in range(2000):
        m = int(rng.integers(3, 6))
        n = int(rng.integers(1, 21))
        phi = float(rng.choice([0.5, 1.0]))
        profile = sample_profile(MallowsModel(m, phi), n, rng)
        k = int(rng.integers(1, m))
        for rule in rules:
            bound = rule_bound(rule, m, k)
            ratio = price_of_truncation(profile, rule, k)
            assert is_infinite(ratio) or ratio <= bound.upper
            if rule.family != "psr" and k == m - 1:
                assert ratio == bound.lower == bound.upper == 1
                exact += 1
    assert exact > 0


@pytest.mark.parametrize("text", ["harmonic:avg", "borda:avg", "approval2:avg"])
def test_psr_bound_is_one_at_m_minus_1_when_the_completion_is_s_m(text):
    # a top-(m-1) ballot gives its one unranked candidate s_star = s_m, the
    # score the complete rule gives it: the top-(m-1) rule is the complete one
    import numpy as np

    from truncvote import sample_profile
    from truncvote.mallows import MallowsModel

    rule = parse_rule(text)
    rng = np.random.default_rng(11)
    for m in range(3, 9):
        assert rule_bound(rule, m, m - 1) == RatioBound(F(1), F(1)), m
        for phi in (0.5, 1.0):
            profile = sample_profile(MallowsModel(m, phi), int(rng.integers(1, 40)), rng)
            assert price_of_truncation(profile, rule, m - 1) == 1, (m, phi)


def test_price_rejects_non_score_rules(example1):
    with pytest.raises(UnsupportedRuleError):
        price_of_truncation(example1, parse_rule("rp"), 2)
    with pytest.raises(UnsupportedRuleError):
        price_of_truncation(example1, parse_rule("stv"), 2)


def test_rule_dispatch_equals_the_direct_calls():
    harmonic = harmonic_vector(6)
    avg = completion_score(harmonic, 3, "avg")
    assert rule_bound(parse_rule("harmonic:avg"), 6, 3) == psr_bounds(harmonic, 3, avg)
    assert rule_bound(parse_rule("maximin"), 6, 3) == maximin_bounds(6, 3)
    assert rule_bound(parse_rule("copeland"), 6, 3) == copeland_bounds(6, 3)
    assert rule_adversarial(parse_rule("harmonic:avg"), 6, 3) == psr_adversarial(harmonic, 3, avg)
    assert rule_adversarial(parse_rule("maximin"), 6, 3) == maximin_adversarial(6, 3)
    assert rule_adversarial(parse_rule("copeland"), 6, 3) == copeland_adversarial(6, 3)


@pytest.mark.parametrize("rule", ["borda@k=2", "maximin@k=1", "copeland@k=3"])
def test_rule_dispatch_rejects_a_rule_with_k(rule):
    # the depth is the k argument; a second one in the rule is not ignored
    with pytest.raises(DomainError, match="take no @k; the depth comes from k"):
        rule_bound(parse_rule(rule), 6, 3)
    with pytest.raises(DomainError, match="take no @k; the depth comes from k"):
        rule_adversarial(parse_rule(rule), 6, 3)


@pytest.mark.parametrize("rule", ["rp", "stv"])
def test_rule_dispatch_rejects_order_rules(rule):
    with pytest.raises(UnsupportedRuleError, match=f"no score-ratio bounds for {rule}"):
        rule_bound(parse_rule(rule), 6, 3)
    with pytest.raises(UnsupportedRuleError, match=f"no adversarial construction for {rule}"):
        rule_adversarial(parse_rule(rule), 6, 3)
