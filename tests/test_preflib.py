import pickle

import pytest

from truncvote import (
    DomainError,
    ElectionDataset,
    PreflibParseError,
    effective_truncate,
    load,
    parse_preflib,
    resample,
    serialize_classic,
)
from truncvote.mallows import make_rng

from conftest import EXAMPLE1_CLASSIC, TOY_MODERN


def test_parse_classic():
    ds = parse_preflib(EXAMPLE1_CLASSIC)
    assert ds.m == 4
    assert ds.candidate_names == ("a", "b", "c", "d")
    assert ds.n == 62
    assert ((0, 3, 2, 1), 20) in ds.entries


def test_parse_modern():
    ds = parse_preflib(TOY_MODERN)
    assert ds.m == 3
    assert ds.candidate_names == ("red", "green", "blue")
    assert ds.n == 7
    assert dict(ds.entries) == {(0, 1): 4, (2, 0, 1): 2, (1,): 1}


def test_parse_bytes_and_load(tmp_path, example1_soc):
    assert parse_preflib(EXAMPLE1_CLASSIC.encode()) == parse_preflib(EXAMPLE1_CLASSIC)
    assert load(example1_soc).n == 62


def test_classic_round_trip():
    ds = parse_preflib(EXAMPLE1_CLASSIC)
    assert parse_preflib(serialize_classic(ds)) == ds
    copy = pickle.loads(pickle.dumps(ds))
    assert copy == ds and hash(copy) == hash(ds)


def test_round_trip_preserves_incomplete_ballots():
    ds = parse_preflib(TOY_MODERN)
    assert parse_preflib(serialize_classic(ds)) == ds
    copy = pickle.loads(pickle.dumps(ds))
    assert copy == ds and hash(copy) == hash(ds)


def test_tie_groups_rejected_with_line_number():
    text = "2\n1,a\n2,b\n3,3,1\n3,{1,2}\n"
    with pytest.raises(PreflibParseError) as err:
        parse_preflib(text)
    assert err.value.line == 5
    assert "strict orders" in str(err.value)


def test_declared_count_mismatch():
    bad = EXAMPLE1_CLASSIC.replace("62,62,4", "61,62,4")
    with pytest.raises(PreflibParseError, match="declared"):
        parse_preflib(bad)
    bad = EXAMPLE1_CLASSIC.replace("62,62,4", "62,62,5")
    with pytest.raises(PreflibParseError, match="unique"):
        parse_preflib(bad)


def test_non_utf8_bytes_are_a_parse_error():
    with pytest.raises(PreflibParseError, match="not UTF-8 text"):
        parse_preflib(b"3\n1,a\xff\n2,b\n3,c\n1,1,1\n1,1,2,3\n")


def test_out_of_range_and_duplicate_candidates():
    with pytest.raises(PreflibParseError, match="out of range"):
        parse_preflib("2\n1,a\n2,b\n1,1,1\n1,1,3\n")
    with pytest.raises(PreflibParseError, match="duplicate"):
        parse_preflib("2\n1,a\n2,b\n1,1,1\n1,1,1\n")


CLASSIC_HEAD = "2\n1,a\n2,b\n"


@pytest.mark.parametrize("text, message, line", [
    (CLASSIC_HEAD + "1,1,1\n1,1,x\n", "malformed ballot '1,x'", 5),
    (CLASSIC_HEAD + "1,1,1\n1,\n", "empty ballot", 5),
    (CLASSIC_HEAD + "1,1,1\n5\n", "malformed ballot line '5'", 5),
    (CLASSIC_HEAD + "1,1,1\nx,1\n", "malformed count 'x'", 5),
    (CLASSIC_HEAD + "0,0,1\n0,1\n", "ballot count must be positive, got 0", 5),
    ("x\n1,a\n", "expected candidate count, got 'x'", 1),
    ("0\n1,1,1\n", "candidate count must be positive", 1),
    ("2\nx,a\n2,b\n", "malformed candidate line 'x,a'", 2),
    ("2\n1,a\n1,b\n", "duplicate candidate id 1", 3),
    ("2\n1,a\n3,b\n1,1,1\n1,1\n", "candidate ids must be exactly 1..2", None),
    (CLASSIC_HEAD + "1,1\n1,1\n", "expected 'n,sum,unique', got '1,1'", 4),
    (CLASSIC_HEAD + "1,x,1\n1,1\n", "expected 'n,sum,unique', got '1,x,1'", 4),
    ("# TITLE: t\n1: 1\n", "missing or malformed '# NUMBER ALTERNATIVES' metadata", None),
    ("# NUMBER ALTERNATIVES: 2\n", "no ballots found", None),
    ("# NUMBER ALTERNATIVES: 2\n# NUMBER VOTERS: x\n1: 1,2\n",
     "malformed '# NUMBER VOTERS' metadata", None),
], ids=["ballot", "empty_ballot", "separator", "count", "count_zero", "m", "m_zero",
        "candidate_line", "duplicate_id", "id_range", "header_parts", "header_int",
        "modern_m", "modern_no_ballots", "modern_voters"])
def test_malformed_input_names_the_fault_and_line(text, message, line):
    with pytest.raises(PreflibParseError) as err:
        parse_preflib(text)
    assert err.value.line == line
    assert str(err.value) == (message if line is None else f"line {line}: {message}")


def test_dataset_needs_one_name_per_candidate():
    with pytest.raises(DomainError, match="need one name per candidate"):
        ElectionDataset.from_ballots(2, ["a"], [((0, 1), 1)])


def test_modern_voter_count_checked():
    bad = TOY_MODERN.replace("NUMBER VOTERS: 7", "NUMBER VOTERS: 8")
    with pytest.raises(PreflibParseError, match="voters"):
        parse_preflib(bad)


def test_empty_and_truncated_input():
    with pytest.raises(PreflibParseError):
        parse_preflib("")
    with pytest.raises(PreflibParseError, match="unexpected end"):
        parse_preflib("3\n1,a\n2,b\n")


def test_resample_all_voters_is_identity():
    ds = parse_preflib(EXAMPLE1_CLASSIC)
    picked = resample(ds, ds.n, make_rng(0))
    assert dict(picked) == dict(ds.entries)


def test_resample_counts_and_determinism():
    ds = parse_preflib(EXAMPLE1_CLASSIC)
    a = resample(ds, 20, make_rng(42))
    b = resample(ds, 20, make_rng(42))
    assert a == b
    assert sum(c for _, c in a) == 20
    for order, count in a:
        assert count <= dict(ds.entries)[order]
    with pytest.raises(DomainError):
        resample(ds, 63, make_rng(0))


def test_resample_with_replacement_can_exceed_block_counts():
    ds = ElectionDataset.from_ballots(2, ("a", "b"), [((0, 1), 1), ((1, 0), 9)])
    picked = resample(ds, 10, make_rng(7), with_replacement=True)
    assert sum(c for _, c in picked) == 10


def test_effective_truncate():
    ballots = [((0, 1, 2, 3), 2), ((1,), 3)]
    t = effective_truncate(ballots, 2, 4)
    assert t.k == 2
    assert dict(t.entries) == {(0, 1): 2, (1,): 3}
    # k at or above m-1 clamps to m-1
    t = effective_truncate(ballots, 9, 4)
    assert t.k == 3
    assert dict(t.entries) == {(0, 1, 2): 2, (1,): 3}
    with pytest.raises(DomainError):
        effective_truncate(ballots, 0, 4)
