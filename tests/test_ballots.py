import pytest
from hypothesis import given, settings, strategies as st

from truncvote import (
    BallotList,
    DomainError,
    ElectionDataset,
    Profile,
    TieBreak,
    TopKProfile,
    dominance_tally,
    apply_rule,
    pairwise_tally,
    parse_rule,
    price_of_truncation,
    rule_adversarial,
    truncate,
)
from truncvote import ballots as ballots_mod
from truncvote import experiments as exp
from truncvote.ballots import _orders, _position_matrix
from truncvote.cli import main

# pairwise tally of the 62-voter fixture, computed by hand from the four
# ballot blocks
EXAMPLE1_PAIRWISE = (
    (0, 37, 20, 20),
    (25, 0, 10, 10),
    (42, 52, 0, 25),
    (42, 52, 37, 0),
)

# dominance tally of its top-2 truncation (a dominates b when ranked above
# b or ranked while b is unranked)
EXAMPLE1_DOMINANCE_K2 = (
    (0, 20, 20, 20),
    (10, 0, 10, 10),
    (42, 32, 0, 25),
    (32, 52, 37, 0),
)


def test_profile_merges_duplicate_ballots():
    p = Profile.from_ballots(3, [((0, 1, 2), 2), ((0, 1, 2), 3), ((2, 1, 0), 1)])
    assert p.entries == (((0, 1, 2), 5), ((2, 1, 0), 1))
    assert p.n == 6


def test_profile_rejects_non_permutations():
    with pytest.raises(DomainError):
        Profile.from_ballots(3, [((0, 1), 1)])
    with pytest.raises(DomainError):
        Profile.from_ballots(3, [((0, 1, 1), 1)])
    with pytest.raises(DomainError):
        Profile.from_ballots(3, [((0, 1, 3), 1)])


def test_profile_rejects_bad_counts_and_emptiness():
    with pytest.raises(DomainError):
        Profile.from_ballots(3, [((0, 1, 2), 0)])
    with pytest.raises(DomainError):
        Profile.from_ballots(3, [((0, 1, 2), -2)])
    with pytest.raises(DomainError):
        Profile.from_ballots(3, [])


def test_topk_profile_accepts_short_ballots_but_not_long_ones():
    t = TopKProfile.from_ballots(4, 2, [((0,), 1), ((1, 2), 3)])
    assert t.n == 4
    with pytest.raises(DomainError):
        TopKProfile.from_ballots(4, 2, [((0, 1, 2), 1)])
    with pytest.raises(DomainError):
        TopKProfile.from_ballots(4, 4, [((0, 1), 1)])


def test_truncate_keeps_prefixes(example1):
    t = truncate(example1, 2)
    assert t.k == 2
    assert dict(t.entries) == {(0, 3): 20, (1, 2): 10, (2, 3): 15, (3, 2): 17}
    with pytest.raises(DomainError):
        truncate(example1, 4)
    with pytest.raises(DomainError):
        truncate(example1, 0)


def test_pairwise_tally_matches_hand_count(example1):
    tally = pairwise_tally(example1)
    assert tally.counts == EXAMPLE1_PAIRWISE
    assert tally.n == 62
    # every off-diagonal pair of a complete profile sums to n
    for a in range(4):
        for b in range(4):
            if a != b:
                assert tally.counts[a][b] + tally.counts[b][a] == 62


def test_dominance_tally_matches_hand_count(example1):
    tally = dominance_tally(truncate(example1, 2))
    assert tally.counts == EXAMPLE1_DOMINANCE_K2


def test_dominance_ignores_ballots_ranking_neither():
    t = TopKProfile.from_ballots(4, 1, [((0,), 5), ((1,), 3)])
    tally = dominance_tally(t)
    assert tally.counts[2][3] == 0 and tally.counts[3][2] == 0
    assert tally.counts[0][1] == 5 and tally.counts[1][0] == 3


def test_pairwise_tally_rejects_ballots_that_are_not_complete():
    # a top-k or SOI list has no pairwise table: its dominance tally is read
    # at a depth, and (0,) dominates both unranked candidates
    topk = truncate(Profile.from_ballots(3, [((0, 1, 2), 1)]), 1)
    assert dominance_tally(topk).counts[0] == (0, 1, 1)
    for ballots in (topk, BallotList.from_ballots(3, [((0, 1, 2), 2), ((1, 0), 1)])):
        with pytest.raises(DomainError, match="pairwise tally needs every ballot to rank all 3"):
            pairwise_tally(ballots)


def test_tiebreak_priority():
    tb = TieBreak((2, 0, 1))
    assert tb.rank(2) == 0
    assert tb.best([0, 1]) == 0
    assert tb.best([1, 2]) == 2
    assert tb.worst([0, 1, 2]) == 1
    assert TieBreak.by_index(3).priority == (0, 1, 2)
    with pytest.raises(DomainError):
        TieBreak((0, 0, 1))


# The per-ballot rules the containers once applied, kept as the oracle of
# the one numpy check every weighted ballot list now goes through.


def _oracle_permutation(order, m):
    if len(order) != m or set(order) != set(range(m)):
        raise DomainError(f"not a permutation of 0..{m - 1}: {order!r}")


def _oracle_prefix(order, m):
    if not order:
        raise DomainError("empty ballot")
    if len(set(order)) != len(order):
        raise DomainError(f"repeated candidate in ballot {order!r}")
    if any(not 0 <= c < m for c in order):
        raise DomainError(f"candidate id out of range in {order!r}")


def _oracle_merge(ballots):
    acc = {}
    for order, count in ballots:
        if count <= 0:
            raise DomainError(f"ballot count must be positive, got {count}")
        key = tuple(order)
        acc[key] = acc.get(key, 0) + count
    return tuple(sorted(acc.items()))


def _oracle_entries(ballots, check):
    """The oracle's merged entries, or None where it rejects the list."""
    try:
        entries = _oracle_merge(ballots)
        if not entries:
            raise DomainError("empty ballot list")
        for order, _ in entries:
            check(order)
    except DomainError:
        return None
    return entries


def _accepted(build, field="entries"):
    """The field of what build() returns, or None where it raises DomainError."""
    try:
        return getattr(build(), field)
    except DomainError:
        return None


@st.composite
def ballot_lists(draw):
    """m in 1..6 and 0-6 weighted ballots with ids in -1..m, lengths 0..m+1
    and counts in -1..3. Three ballots in four are non-empty prefixes of a
    permutation with a positive count, so valid lists are common."""
    m = draw(st.integers(1, 6))
    prefix = st.tuples(st.permutations(range(m)), st.integers(1, m)).map(lambda p: p[0][: p[1]])
    anything = st.tuples(st.lists(st.integers(-1, m), max_size=m + 1), st.integers(-1, 3))
    entry = st.integers(0, 3).flatmap(
        lambda i: anything if i == 0 else st.tuples(prefix, st.integers(1, 3))
    )
    return m, draw(st.lists(entry, max_size=6))


@settings(max_examples=500)
@given(ballot_lists())
def test_one_check_rejects_what_the_per_ballot_rules_reject(drawn):
    m, ballots = drawn

    def longest(k):
        def check(order):
            _oracle_prefix(order, m)
            if len(order) > k:
                raise DomainError(f"ballot {order!r} longer than k={k}")
        return check

    assert _accepted(lambda: Profile.from_ballots(m, ballots)) == _oracle_entries(
        ballots, lambda order: _oracle_permutation(order, m)
    )
    for k in range(1, m):
        assert _accepted(lambda: TopKProfile.from_ballots(m, k, ballots)) == (
            _oracle_entries(ballots, longest(k))
        )
    names = [str(c) for c in range(m)]
    dataset = _accepted(lambda: ElectionDataset.from_ballots(m, names, ballots))
    assert dataset == _oracle_entries(ballots, lambda order: _oracle_prefix(order, m))
    assert _accepted(lambda: BallotList.from_ballots(m, ballots)) == dataset


@st.composite
def prefix_lists(draw):
    """m on both sides of 255, so that both uint8 and uint16 rank matrices
    occur, and 0-5 non-empty prefixes of permutations of 0..m-1."""
    m = draw(st.one_of(st.integers(1, 6), st.integers(250, 260)))
    prefix = st.tuples(st.permutations(range(m)), st.integers(1, m)).map(
        lambda p: tuple(p[0][: p[1]])
    )
    return m, draw(st.lists(prefix, max_size=5))


@settings(max_examples=200)
@given(prefix_lists())
def test_orders_inverts_the_position_matrix(drawn):
    m, orders = drawn
    assert _orders(m, _position_matrix(m, orders)) == list(orders)


def test_each_ballot_list_is_checked_once(monkeypatch, tmp_path, example1):
    # a list's rank matrix is built by its one check and then only read: by
    # the tally of every rule, a witness's price, a fixed-source trial, and
    # the dataset the CLI writes a sampled or witness profile through
    calls = []

    def counted(m, orders):
        calls.append(len(orders))
        return _position_matrix(m, orders)

    monkeypatch.setattr(ballots_mod, "_position_matrix", counted)
    rule = parse_rule("borda:zero")
    witness = rule_adversarial(rule, 6, 3)
    assert calls == [len(witness.profile.counts)]
    price_of_truncation(witness.profile, rule, 3)
    apply_rule(rule.at_k(2), witness.profile)
    apply_rule(rule, example1)
    exp.run_success_rate(exp.ExperimentConfig(exp.FixedSource(example1), (rule,), (1, 2), 3, 1))
    assert len(calls) == 1
    for argv in (["sample", "--m", "5", "--n", "40", "--phi", "0.8", "--seed", "1"],
                 ["adversarial", "--rule", "maximin", "--m", "5", "--k", "2"]):
        assert main([*argv, "--out", str(tmp_path / "out.soc")]) == 0
    assert len(calls) == 3
