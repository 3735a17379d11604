import pytest

from truncvote import (
    DomainError,
    Profile,
    TieBreak,
    TopKProfile,
    dominance_tally,
    pairwise_tally,
    truncate,
)

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


def test_tiebreak_priority():
    tb = TieBreak((2, 0, 1))
    assert tb.rank(2) == 0
    assert tb.best([0, 1]) == 0
    assert tb.best([1, 2]) == 2
    assert tb.worst([0, 1, 2]) == 1
    assert TieBreak.by_index(3).priority == (0, 1, 2)
    with pytest.raises(DomainError):
        TieBreak((0, 0, 1))
