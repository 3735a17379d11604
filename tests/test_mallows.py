from collections import Counter
from fractions import Fraction
from itertools import permutations

import pytest

from truncvote import (
    DomainError,
    MallowsModel,
    kendall_tau,
    make_rng,
    normalization,
    pmf,
    sample_profile,
    trial_rng,
)
from reference_rules import sample_ranking

F = Fraction


def test_kendall_tau_basics():
    assert kendall_tau((0, 1, 2), (0, 1, 2)) == 0
    assert kendall_tau((2, 1, 0), (0, 1, 2)) == 3
    assert kendall_tau((1, 0, 2), (0, 1, 2)) == 1
    for r in permutations(range(4)):
        assert kendall_tau(r, (0, 1, 2, 3)) == kendall_tau((0, 1, 2, 3), r)


def test_kendall_tau_rejects_non_permutations():
    with pytest.raises(DomainError):
        kendall_tau((0, 1), (0, 1, 2))


def test_normalization_exact():
    # m=3: 1 * (1 + 1/2) * (1 + 1/2 + 1/4)
    assert normalization(3, F(1, 2)) == F(21, 8)
    assert normalization(4, F(1)) == 24
    with pytest.raises(DomainError):
        normalization(0, F(1, 2))


def test_pmf_sums_to_one_exactly():
    model = MallowsModel(4, 0.3)
    total = sum(pmf(model, r, F(3, 10)) for r in permutations(range(4)))
    assert total == 1


def test_pmf_uniform_at_phi_one():
    model = MallowsModel(3, 1.0)
    assert pmf(model, (2, 0, 1), F(1)) == F(1, 6)


def test_model_validation():
    with pytest.raises(DomainError):
        MallowsModel(3, 0.0)
    with pytest.raises(DomainError):
        MallowsModel(3, 1.5)
    with pytest.raises(DomainError, match="m must be >= 1, got 0"):
        MallowsModel(0, 0.5)


def test_sample_is_a_permutation_and_deterministic():
    model = MallowsModel(5, 0.6)
    a = [sample_ranking(model, make_rng(7)) for _ in range(10)]
    b = [sample_ranking(model, make_rng(7)) for _ in range(10)]
    assert a == b
    for r in a:
        assert sorted(r) == list(range(5))


def test_sample_profile_deterministic_and_aggregated():
    model = MallowsModel(4, 0.8)
    p1 = sample_profile(model, 200, make_rng(11))
    p2 = sample_profile(model, 200, make_rng(11))
    assert p1 == p2
    assert p1.n == 200


def test_trial_streams_are_independent_of_each_other():
    model = MallowsModel(4, 0.8)
    profiles = [sample_profile(model, 50, trial_rng(3, t)) for t in range(4)]
    assert len({p.entries for p in profiles}) > 1
    again = [sample_profile(model, 50, trial_rng(3, t)) for t in range(4)]
    assert profiles == again


def test_empirical_frequencies_track_pmf():
    # coarse check; the tight 2e5-draw version lives in the acceptance suite
    model = MallowsModel(3, 0.5)
    rng = make_rng(123)
    counts = Counter(sample_ranking(model, rng) for _ in range(30000))
    for r in permutations(range(3)):
        expected = float(pmf(model, r, F(1, 2)))
        assert abs(counts[r] / 30000 - expected) < 0.01


def test_low_phi_concentrates_on_sigma():
    model = MallowsModel(4, 0.1)
    rng = make_rng(5)
    counts = Counter(sample_ranking(model, rng) for _ in range(5000))
    assert counts[(0, 1, 2, 3)] > 0.6 * 5000


def test_sample_profile_rejects_bad_n():
    with pytest.raises(DomainError):
        sample_profile(MallowsModel(3, 0.5), 0, make_rng(1))
