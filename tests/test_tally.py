"""IntegerTally against the loop and Fraction oracles, and the block sampler
and its rank matrix against the one-ballot-at-a-time sampler."""

from bisect import bisect_right
from collections import Counter
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from truncvote import (
    INFINITY,
    BallotList,
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
    sample_profile,
    truncate,
)
from truncvote import mallows
from truncvote.experiments import TIE_CONVENTIONS, ExperimentConfig, _success_trial
from truncvote.rules import SCORED_FAMILIES
from truncvote.tally import IntegerTally
from reference_rules import (
    dominance_by_loop, insert_from_uniforms, pairwise_by_loop, psr_scores,
    ranked_pairs_by_search, rule_scores, stv_winner, topk_psr_scores,
)

SCORED = ("borda:zero", "borda:avg", "harmonic:zero", "harmonic:avg", "copeland", "maximin")


def _tally_of(m, ballots):
    """The tally of a weighted ballot list, complete or not, after its one check."""
    ballot_list = BallotList.from_ballots(m, ballots)
    return IntegerTally(ballot_list.ranks, ballot_list.counts)


@st.composite
def elections(draw, complete: bool, max_weight: int = 2**40, max_m: int = 8):
    """(m, ballots, tie-break): distinct complete rankings, or prefixes of
    random lengths (SOI), each with a weight up to max_weight."""
    m = draw(st.integers(2, max_m))
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
        assert winner == ranked_pairs_by_search(pairwise_by_loop(profile) if k is None
                                                else dominance_by_loop(profile), tb), (rule, k)
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
    tally = IntegerTally(profile.ranks, profile.counts)
    assert tally.pairwise() == pairwise_by_loop(profile)
    for rule in _rules(m, min(width, m)):
        _check_against_oracle(tally, rule, None, profile, tb)
        for k in range(1, m):
            _check_against_oracle(tally, rule, k, truncate(profile, k), tb)


@given(elections(complete=False), st.integers(1, 8))
def test_soi_ballots_match_the_fraction_rules(election, width):
    m, ballots, tb = election
    tally = _tally_of(m, ballots)
    for k in range(1, m):
        topk = effective_truncate(ballots, k, m)
        assert tally.pairwise(k) == dominance_by_loop(topk)
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


@given(elections(complete=True, max_m=6))
def test_truth_on_complete_ballots_is_the_top_m_minus_1_rule(election):
    # a zero-completion PSR with s_m > 0 is the one exception: its top-(m-1)
    # form drops the points of the last position (approval-m with average
    # completion is no top-(m-1) rule at all)
    m, ballots, tb = election
    tally = _tally_of(m, ballots)
    psrs = ["borda", "harmonic"] + [f"approval{w}" for w in range(1, m + 1)]
    texts = [f"{base}:{policy}" for base in psrs for policy in ("zero", "avg")]
    exceptions = {"harmonic:zero", f"approval{m}:zero", f"approval{m}:avg"}
    for text in [t for t in texts if t not in exceptions] + ["copeland", "maximin", "rp", "stv"]:
        rule = parse_rule(text)
        assert tally.winner(rule, None, tb) == tally.winner(rule, m - 1, tb), text


def test_counts_above_int64_stay_exact():
    big = 2**62
    ballots = (((0, 1, 2), big), ((1, 2, 0), big), ((2, 0, 1), big - 1), ((0, 2, 1), 3))
    profile = Profile.from_ballots(3, ballots)
    tally = IntegerTally(profile.ranks, profile.counts)
    assert tally.n == 3 * big + 2
    assert tally.pairwise() == pairwise_by_loop(profile)
    # the public wrappers read the object-dtype tables through .tolist()
    assert pairwise_tally(profile) == pairwise_by_loop(profile)
    for k in (1, 2):
        topk = truncate(profile, k)
        assert dominance_tally(topk) == tally.pairwise(k) == dominance_by_loop(topk)
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


def _reference_winners(m, ballots, rule, tb):
    """(winners, tied): the reference winner of `rule` at k None and at each
    k in 1..m-1, and whether the truth has several top scorers; None where
    the reference rejects the rule at some depth."""
    if all(len(order) == m for order, _ in ballots):
        truth = (rule, Profile.from_ballots(m, ballots))
    else:
        truth = (rule.at_k(m - 1), effective_truncate(ballots, m - 1, m))
    winners, tied = [], False
    for at_k, profile in [truth] + [(rule.at_k(k), effective_truncate(ballots, k, m))
                                    for k in range(1, m)]:
        if rule.family == "rp":
            counts = pairwise_by_loop(profile) if at_k.k is None else dominance_by_loop(profile)
            winners.append(ranked_pairs_by_search(counts, tb))
        elif rule.family == "stv":
            winners.append(stv_winner(profile, tb))
        else:
            try:
                top = co_winners(rule_scores(at_k, profile))
            except DomainError:
                return None
            if not winners:  # the truth
                tied = len(top) > 1
            winners.append(tb.best(top))
    return winners, tied


class _Replay:
    """A trial source that hands every trial the tally of the same ballots."""

    def __init__(self, m, ballots):
        self.m, self.ballots = m, ballots

    def tally(self, rng):
        return _tally_of(self.m, self.ballots)


def _check_winners(m, ballots, tb, width):
    """One ``winners`` call per rule for k None and 1..m-1 against the
    reference winners, and a trial's hits under each tie convention against
    the ones the reference winners give."""
    tally = _tally_of(m, ballots)
    ks = (None, *range(1, m))
    checked = []
    for rule in _rules(m, width):
        reference = _reference_winners(m, ballots, rule, tb)
        if reference is None:
            with pytest.raises(DomainError):
                tally.winners(rule, ks, tb)
            continue
        assert tally.winners(rule, ks, tb) == reference[0], rule
        checked.append((rule, reference))
    for ties in TIE_CONVENTIONS:
        cases = [(rule, reference) for rule, reference in checked
                 if ties == "priority" or rule.family in SCORED_FAMILIES]
        cfg = ExperimentConfig(_Replay(m, ballots), tuple(rule for rule, _ in cases), ks[1:],
                               1, 0, tb, ties)
        hits = []
        for rule, ((truth, *topk), tied) in cases:
            if ties == "fail-on-true-tie" and tied:
                truth = None
            hits += [winner == truth for winner in topk]
        assert _success_trial(cfg, 0) == tuple(hits), ties


@given(elections(complete=False, max_m=12), st.integers(1, 12))
def test_winners_at_every_depth_equal_the_references(election, width):
    m, ballots, tb = election
    _check_winners(m, ballots, tb, min(width, m))


def test_winners_beyond_int64_equal_the_references():
    # counts summing past 2**63: every table, score and STV count is a Python int
    ballots = (((0, 1, 2, 3, 4), 2**62 + 1), ((1, 2), 2**62), ((2, 0, 4), 2**62 - 5),
               ((3,), 7), ((4, 3, 2, 1, 0), 3))
    assert _tally_of(5, ballots)._weights.dtype == object
    _check_winners(5, ballots, TieBreak((2, 0, 4, 1, 3)), 2)
    borda = [0] * 5
    for order, count in ballots:
        for p, c in enumerate(order):
            borda[c] += (4 - p) * count
    assert _tally_of(5, ballots).psr((4, 3, 2, 1, 0)) == borda
    # int64 tables whose harmonic scores, scaled by lcm(1..12), pass 2**63
    ballots = tuple((tuple(range(c, 12)) + tuple(range(c)), 2**56 + c) for c in range(5))
    tally = _tally_of(12, ballots)
    assert tally._weights.dtype == np.int64
    assert tally._scores(parse_rule("harmonic"), [12]).dtype == object
    _check_winners(12, ballots, TieBreak(tuple(reversed(range(12)))), 3)


def _stv_from_scratch(tally, level, tb):
    """Reference STV on the top-`level` prefixes: the whole elimination, from
    every candidate active, on the tally's rank matrix."""
    m = tally.m
    rank = np.where(tally._pos < level, tally._pos, m)
    active = list(range(m))
    while len(active) > 1:
        current = rank[:, active]
        top = current.argmin(axis=1)
        live = current.min(axis=1) < m
        counts = np.zeros(len(active), dtype=tally._weights.dtype)
        np.add.at(counts, top[live], tally._weights[live])
        tally_counts = counts.tolist()
        least = min(tally_counts)
        active.remove(tb.worst(c for c, count in zip(active, tally_counts) if count == least))
    return active[0]


@st.composite
def stv_requests(draw):
    """(m, ballots, complete, requests): an election, complete or SOI, whose
    counts reach past int64 half of the time, and every (tie-break, k) pair
    for k None and 1..m-1 under two different priorities, in a drawn order."""
    complete, beyond_int64 = draw(st.booleans()), draw(st.booleans())
    m, ballots, tb = draw(elections(complete))
    if beyond_int64:
        (order, count), *rest = ballots
        ballots = ((order, count + 2**63), *rest)
    other = TieBreak(draw(st.permutations(range(m)).map(tuple).filter(lambda p: p != tb.priority)))
    pairs = [(t, k) for t in (tb, other) for k in (None, *range(1, m))]
    return m, ballots, complete, draw(st.permutations(pairs))


@given(stv_requests())
def test_stv_at_every_depth_equals_the_whole_elimination(drawn):
    m, ballots, complete, requests = drawn
    tally = _tally_of(m, ballots)
    assert (tally._weights.dtype == object) == (tally.n > 2**63 - 1)
    stv = parse_rule("stv")
    for tb, k in requests:
        winner = tally.winner(stv, k, tb)
        assert winner == _stv_from_scratch(_tally_of(m, ballots), tally._level(k), tb), (tb, k)
        profile = (Profile.from_ballots(m, ballots) if k is None and complete
                   else effective_truncate(ballots, k or m - 1, m))
        assert winner == stv_winner(profile, tb), (tb, k)


@pytest.fixture
def stv_rounds(monkeypatch):
    """``rounds(tally, ks, tb)``: the STV rounds one winners call plays. Each
    round breaks its tie for last place with one TieBreak.worst call."""
    calls = []
    worst = TieBreak.worst
    monkeypatch.setattr(TieBreak, "worst", lambda tb, cs: calls.append(1) or worst(tb, cs))

    def rounds(tally, ks, tb):
        calls.clear()
        tally.winners(parse_rule("stv"), ks, tb)
        return len(calls)

    return rounds


def test_stv_rounds_are_shared_across_depths(stv_rounds):
    # one winners call over every depth plays the deepest run's m-1 rounds
    # and, for each k, only the m-1-k rounds after its own k
    complete = sample_profile(MallowsModel(7, 1.0), 200, mallows.make_rng(1))
    tally = IntegerTally(complete.ranks, complete.counts)
    every = (None, *range(1, 7))
    assert stv_rounds(tally, every, TieBreak.by_index(7)) == 21
    assert stv_rounds(tally, every, TieBreak(tuple(reversed(range(7))))) == 21
    full = sample_profile(MallowsModel(12, 0.8), 50, mallows.make_rng(2))
    ballots = [(order[: 1 + i % 12], count) for i, (order, count) in enumerate(full.entries)]
    soi = _tally_of(12, ballots)
    assert not soi.complete
    assert stv_rounds(soi, (None, *range(1, 12)), TieBreak.by_index(12)) == 66


def test_stv_runs_at_the_deepest_requested_level(stv_rounds):
    # a single depth plays m-1 rounds, not a deeper run's first and then its
    # own; a lower depth beside it replays only the rounds after its own k
    complete = sample_profile(MallowsModel(7, 1.0), 200, mallows.make_rng(1))
    tally = IntegerTally(complete.ranks, complete.counts)
    tb = TieBreak.by_index(7)
    stv = parse_rule("stv")
    every = tally.winners(stv, (None, *range(1, 7)), tb)
    for k, winner in zip((None, *range(1, 7)), every):
        assert stv_rounds(tally, (k,), tb) == 6, k
        assert tally.winner(stv, k, tb) == winner, k
    assert stv_rounds(tally, (3, 1), tb) == 6 + 5
    assert tally.winners(stv, (3, 1), tb) == [every[3], every[1]]


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
        _tally_of(4, ballots).psr(head, s_star)


def test_k_range_and_complete_rule_checks():
    tally = _tally_of(4, (((0, 1), 2), ((2, 3, 1, 0), 1)))
    tb = TieBreak.by_index(4)
    for rule in ("borda", "copeland", "maximin", "rp", "stv"):
        for k in (0, 4):
            with pytest.raises(DomainError):
                tally.winner(parse_rule(rule), k, tb)
        # incomplete ballots: the truth is the rule read to depth m-1
        assert tally.winner(parse_rule(rule), None, tb) == tally.winner(parse_rule(rule), 3, tb)
    with pytest.raises(DomainError, match="tie-break priority needs m = 4 entries, got 3"):
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
        _tally_of(4, ballots)


def _one_by_one(model: MallowsModel, n: int, seed: int) -> Profile:
    rows = mallows.make_rng(seed).random((n, model.m - 1))
    counts = Counter(insert_from_uniforms(model, row) for row in rows)
    return Profile.from_ballots(model.m, counts.items())


@given(st.integers(2, 9), st.integers(1, 400), st.floats(0.05, 1.0), st.integers(0, 2**32))
def test_sampler_equals_one_ballot_at_a_time(m, n, phi, seed):
    model = MallowsModel(m, phi)
    profile = sample_profile(model, n, mallows.make_rng(seed))
    assert profile == _one_by_one(model, n, seed)
    # the trial path's rank matrix: each ranking listed once, every row a
    # permutation of the positions 0..m-1
    ranks, counts = mallows.sample_ranks(model, n, mallows.make_rng(seed))
    assert len({tuple(row) for row in ranks.tolist()}) == len(ranks) == len(counts)
    assert (np.sort(ranks, axis=1) == np.arange(m)).all()
    assert sum(counts) == n


def _check_decoded_ranks(model: MallowsModel, n: int, seed: int) -> None:
    """The tally of the decoded rank matrix against the same draws made one
    ranking tuple at a time: equal position counts, ``D[k-1]`` for every k
    against the loop tallies, and every rule's winner at every k against the
    tally of the ranking tuples."""
    m = model.m
    sampled = IntegerTally(*mallows.sample_ranks(model, n, mallows.make_rng(seed)))
    profile = _one_by_one(model, n, seed)
    oracle = IntegerTally(profile.ranks, profile.counts)
    assert sampled.n == oracle.n and np.array_equal(sampled._positions, oracle._positions)
    assert sampled.pairwise(None) == pairwise_by_loop(profile)
    for k in range(1, m):
        assert sampled.pairwise(k) == dominance_by_loop(truncate(profile, k))
    tb = TieBreak.by_index(m)
    for rule in _rules(m, max(1, m // 2)):
        for k in (None, *range(1, m)):
            try:
                expected = oracle.winner(rule, k, tb)
            except DomainError:
                with pytest.raises(DomainError):
                    sampled.winner(rule, k, tb)
                continue
            assert sampled.winner(rule, k, tb) == expected, (rule, k)


@given(st.integers(1, 9), st.integers(1, 300), st.floats(0.05, 1.0), st.integers(0, 2**32))
def test_decoded_ranks_tally_like_the_ranking_tuples(m, n, phi, seed):
    _check_decoded_ranks(MallowsModel(m, phi), n, seed)


@pytest.mark.parametrize("m", [21])
def test_decoded_ranks_beyond_int64_codes(m):
    _check_decoded_ranks(MallowsModel(m, 0.9), 200, 5)


@pytest.mark.parametrize("m, phi", [(2, 0.5), (6, 0.6), (12, 1.0), (21, 0.9), (9, 1e-300)])
def test_insertion_slots_are_bisect_right(m, phi):
    # phi = 1 weighs every slot alike; phi = 1e-300 underflows, so the step
    # cdfs start with repeated 0.0 values; m = 21 codes need Python ints
    model = MallowsModel(m, phi)
    cdfs = mallows._insertion_cdfs(m, phi)
    # every cdf value, where bisect_right and bisect_left differ, the float
    # just below it, and both ends of rng.random's range [0, 1)
    values = {0.0, 1 - 2**-53}
    for cdf in cdfs:
        values.update(c for c in cdf if c < 1)
        values.update(float(np.nextafter(c, 0)) for c in cdf)
    values = np.array(sorted(values))
    # step j sees every value, shifted by j rows so that rows mix them
    uniforms = np.stack([np.roll(values, j) for j in range(m - 1)], axis=1)
    expected = []
    for row in uniforms:
        code = 0
        for j, u in enumerate(row):  # step j's slot is the digit of radix j + 2
            code = code * (j + 2) + bisect_right(cdfs[j], u)
        expected.append(code)
    codes = mallows._slot_codes(model, uniforms)
    assert codes.dtype == (object if m > mallows._MAX_CODED_M else np.int64)
    assert codes.tolist() == expected


@pytest.mark.parametrize("m", [20, 21, 23])
def test_sampler_beyond_int64_codes(m):
    # m! passes 2**63 at m = 21: from there the slot codes are Python ints
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


def _slot_code(ranks_row) -> int:
    """The slot code of a rank-matrix row: candidate c was inserted below
    the candidates 0..c-1 it is ranked under, a digit of radix c + 1."""
    code = 0
    for c in range(1, len(ranks_row)):
        code = code * (c + 1) + sum(ranks_row[d] < ranks_row[c] for d in range(c))
    return code


@pytest.mark.parametrize("m, seed", [(1, 21), (2, 22), (5, 23), (7, 24), (8, 25)])
def test_block_merge_equals_one_ballot_at_a_time(m, seed):
    # three blocks, the last of 7 voters: m <= 7 adds each block to the
    # m!-bin table, m = 8 merges each block's np.unique in a Counter
    n = 2 * mallows._CHUNK_ROWS + 7
    model = MallowsModel(m, 0.8)
    assert sample_profile(model, n, mallows.make_rng(seed)) == _one_by_one(model, n, seed)
    rng = mallows.make_rng(seed)
    ranks, counts = mallows.sample_ranks(model, n, rng)
    assert (np.sort(ranks, axis=1) == np.arange(m)).all()
    codes = [_slot_code(row) for row in ranks.tolist()]
    assert len(set(codes)) == len(codes) == len(counts)
    if factorial(m) <= mallows._CHUNK_ROWS:
        assert codes == sorted(codes)
    assert sum(counts) == n
    after = mallows.make_rng(seed)
    after.random(n * (m - 1))
    assert rng.random() == after.random()


@pytest.mark.parametrize("m", range(1, 8))
def test_cached_decode_is_each_codes_decode(m):
    table = mallows._decoded(m)
    assert table.shape == (factorial(m), m)
    for code, row in enumerate(table.tolist()):
        assert row == mallows._decode(m, np.array([code])).tolist()[0]
    with pytest.raises(ValueError):
        table[0, 0] = 1


@pytest.mark.parametrize("rows, counts, message", [
    (np.zeros((0, 3), dtype=np.int64), [], "a tally needs at least one ballot"),
    (np.array([[0, 1, 2], [2, 1, 0]]), [2, 0], "ballot counts must be positive"),
], ids=["no_ballots", "zero_count"])
def test_tally_rejects_no_ballots_and_non_positive_counts(rows, counts, message):
    with pytest.raises(DomainError, match=message):
        IntegerTally(rows, counts)
