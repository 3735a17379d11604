import io
import os
import pickle
from concurrent.futures.process import BrokenProcessPool

import pytest

from truncvote import (
    DomainError,
    ElectionDataset,
    ExperimentConfig,
    FixedSource,
    MallowsSource,
    PreflibSource,
    Profile,
    TieBreak,
    min_k_search,
    parse_preflib,
    parse_rule,
    run_ratio,
    run_success_rate,
    sweep_real_data,
    write_csv,
)
from truncvote import experiments as exp
from truncvote import tally as tally_mod
from truncvote.experiments import (
    MIN_K_COLUMNS,
    RATIO_COLUMNS,
    REAL_SWEEP_COLUMNS,
    SUCCESS_COLUMNS,
)

from conftest import EXAMPLE1_CLASSIC, TOY_MODERN


def _fixed_cfg(example1, rules, k_values, trials=3):
    return ExperimentConfig(
        FixedSource(example1),
        tuple(parse_rule(r) for r in rules),
        tuple(k_values),
        trials,
        base_seed=0,
    )


def test_config_validation(example1):
    with pytest.raises(DomainError):
        _fixed_cfg(example1, ["borda"], [1], trials=0)
    with pytest.raises(DomainError):
        _fixed_cfg(example1, ["borda"], [4])
    with pytest.raises(DomainError):
        _fixed_cfg(example1, ["borda"], [0])
    with pytest.raises(DomainError, match=r"no k in \[1, m-1\] for m = 4"):
        _fixed_cfg(example1, ["borda"], [])
    with pytest.raises(DomainError, match="tie-break priority"):
        ExperimentConfig(FixedSource(example1), (parse_rule("borda"),), (1,), 3, 0,
                         TieBreak((0, 1, 2)))
    with pytest.raises(DomainError, match="base_seed must be >= 0, got -1"):
        ExperimentConfig(FixedSource(example1), (parse_rule("borda"),), (1,), 3, -1)


def test_config_strips_k_from_rules(example1):
    cfg = _fixed_cfg(example1, ["copeland@k=2"], [1])
    assert cfg.rules[0].k is None


def test_default_tiebreak_is_built_once(example1):
    cfg = _fixed_cfg(example1, ["rp"], [1])
    assert cfg.tb is cfg.tb and cfg.tb == TieBreak.by_index(4)


def test_success_rate_on_fixed_profile(example1):
    # copeland full winner is d; top-1 gives a, top-2 and top-3 give d
    cfg = _fixed_cfg(example1, ["copeland"], [1, 2, 3])
    rows = run_success_rate(cfg)
    assert [row["rate"] for row in rows] == ["0.0000", "1.0000", "1.0000"]
    assert rows[0]["rule"] == "copeland"
    assert [row["k"] for row in rows] == ["1", "2", "3"]
    assert rows[0]["phi"] == "" and rows[0]["n"] == "62"


def test_success_rate_row_order_is_rule_major(example1):
    cfg = _fixed_cfg(example1, ["copeland", "maximin"], [1, 3])
    rows = run_success_rate(cfg)
    assert [(r["rule"], r["k"]) for r in rows] == [
        ("copeland", "1"),
        ("copeland", "3"),
        ("maximin", "1"),
        ("maximin", "3"),
    ]


def test_ratio_on_fixed_profile(example1):
    cfg = _fixed_cfg(example1, ["borda:zero"], [1, 3])
    rows = run_ratio(cfg)
    assert rows[0]["mean_ratio"] == f"{131 / 77:.6f}"
    assert rows[1]["mean_ratio"] == "1.000000"
    assert rows[0]["inf_count"] == "0"


def test_ratio_rejects_order_based_rules(example1):
    with pytest.raises(DomainError):
        run_ratio(_fixed_cfg(example1, ["rp"], [2]))


@pytest.mark.parametrize("workers", [1, 2])
def test_ratio_rejects_real_data_before_any_trial(monkeypatch, workers):
    # a complete dataset too: the complete profile of a real election is unknown
    cfg = ExperimentConfig(
        PreflibSource(parse_preflib(EXAMPLE1_CLASSIC), n_star=30),
        (parse_rule("borda:zero"),), (1, 2), trials=4, base_seed=0,
    )
    monkeypatch.setattr(exp, "_map_trials", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises(DomainError, match="need complete profiles"):
        run_ratio(cfg, workers)


def test_min_k_search(example1):
    cfg = _fixed_cfg(example1, ["copeland", "borda:zero"], [1, 2, 3])
    rows = min_k_search(cfg)
    assert rows[0]["min_k"] == "2"  # copeland agrees from k=2 on
    assert rows[1]["min_k"] == "2"  # borda zero: top-1 elects a, top-2 elects d
    with pytest.raises(DomainError):
        min_k_search(_fixed_cfg(example1, ["copeland"], [1, 3]))


# both complete elections tie: 0 and 1 share the top borda, copeland and
# maximin score; at k = m-1 the top-k rule is the complete rule
TIED = Profile.from_ballots(3, [((0, 1, 2), 1), ((1, 0, 2), 1)])
SCORED = ("borda:zero", "copeland", "maximin")


def test_tied_complete_election_under_each_tie_convention():
    for ties, rate in (("priority", "1.0000"), ("fail-on-true-tie", "0.0000")):
        cfg = ExperimentConfig(
            FixedSource(TIED), tuple(parse_rule(r) for r in SCORED), (2,), 2, 0, ties=ties)
        assert [row["rate"] for row in run_success_rate(cfg)] == [rate] * 3, ties


def test_fail_on_true_tie_keeps_unique_winners(example1):
    cfg = ExperimentConfig(
        FixedSource(example1), (parse_rule("copeland"),), (1, 2, 3), 3, 0,
        ties="fail-on-true-tie")
    assert [row["rate"] for row in run_success_rate(cfg)] == ["0.0000", "1.0000", "1.0000"]


def test_fail_on_true_tie_needs_a_score_table(example1):
    for rule in ("rp", "stv"):
        with pytest.raises(DomainError, match=rule):
            ExperimentConfig(
                FixedSource(example1), (parse_rule("borda"), parse_rule(rule)), (1,), 1, 0,
                ties="fail-on-true-tie")
    with pytest.raises(DomainError):
        ExperimentConfig(FixedSource(example1), (parse_rule("borda"),), (1,), 1, 0, ties="bogus")


def test_default_tie_convention_is_priority_byte_for_byte():
    def render(**extra):
        cfg = ExperimentConfig(
            MallowsSource(m=5, n=30, phi=1.0),
            tuple(parse_rule(r) for r in ("borda:avg", "copeland", "maximin", "rp", "stv")),
            (1, 2, 4),
            trials=20,
            base_seed=7,
            **extra,
        )
        buf = io.StringIO()
        write_csv(run_success_rate(cfg), buf, SUCCESS_COLUMNS)
        return buf.getvalue().encode()

    assert render() == render(ties="priority")


def test_real_data_under_fail_on_true_tie():
    ds = parse_preflib(EXAMPLE1_CLASSIC)
    rows = sweep_real_data(ds, [62], [1, 2], [parse_rule("copeland")], 2, 1,
                           ties="fail-on-true-tie")
    # all 62 voters drawn without replacement: the fixture, whose copeland
    # winner d is unique; top-1 elects a, top-2 elects d
    assert [r["rate"] for r in rows] == ["0.0000", "1.0000"]


def test_mallows_experiment_is_deterministic():
    cfg = ExperimentConfig(
        MallowsSource(m=5, n=30, phi=0.8),
        (parse_rule("borda:zero"), parse_rule("maximin")),
        (1, 2),
        trials=20,
        base_seed=99,
    )
    assert run_success_rate(cfg) == run_success_rate(cfg)
    assert run_ratio(cfg) == run_ratio(cfg)


@pytest.fixture
def fresh_pool():
    """Workers copy module state when the pool starts, so a test that patches
    module state and runs in parallel gets a pool started after its patches
    and shut down before they are undone."""
    exp.shutdown_pool()
    yield
    exp.shutdown_pool()


def test_mallows_trial_builds_no_ranking_tuple(monkeypatch, fresh_pool, example1):
    # the sampler's rank matrix goes straight into the tally; only ballots
    # given as ranking tuples pass through the encoder
    cfg = ExperimentConfig(
        MallowsSource(m=5, n=40, phi=0.8),
        (parse_rule("borda:zero"), parse_rule("copeland"), parse_rule("maximin")),
        (1, 2, 3),
        trials=6,
        base_seed=7,
    )
    expected = run_success_rate(cfg), run_ratio(cfg)

    def encode(*args):
        raise AssertionError("ranking tuples were encoded")

    monkeypatch.setattr(tally_mod, "_position_matrix", encode)
    for workers in (1, 2):
        assert (run_success_rate(cfg, workers), run_ratio(cfg, workers)) == expected
        with pytest.raises(AssertionError, match="encoded"):
            run_success_rate(_fixed_cfg(example1, ["borda:zero"], [1]), workers)


def test_worker_count_does_not_change_results():
    cfg = ExperimentConfig(
        MallowsSource(m=5, n=9, phi=1.0),
        (parse_rule("copeland"), parse_rule("borda:avg")),
        (1, 2, 3, 4),
        trials=12,
        base_seed=5,
    )
    ds = parse_preflib(TOY_MODERN)
    runs = {
        "success": lambda workers: run_success_rate(cfg, workers),
        "ratio": lambda workers: run_ratio(cfg, workers),
        "min-k": lambda workers: min_k_search(cfg, workers),
        "real-sweep": lambda workers: sweep_real_data(
            ds, [4, 7], [1, 2], [parse_rule("maximin"), parse_rule("borda")], 6, 3,
            workers=workers,
        ),
    }
    for mode, run in runs.items():
        assert run(1) == run(2), mode


def _mallows_cfg(seed):
    return ExperimentConfig(
        MallowsSource(m=5, n=9, phi=0.8),
        (parse_rule("stv"), parse_rule("borda:avg")),
        (1, 2, 3),
        trials=10,
        base_seed=seed,
    )


def test_parallel_calls_reuse_one_pool():
    cfg = _mallows_cfg(11)
    serial = run_success_rate(cfg)
    assert run_success_rate(cfg, 2) == serial
    pool = exp._pool
    assert pool is not None
    assert run_success_rate(_mallows_cfg(12), 2) == run_success_rate(_mallows_cfg(12))
    assert exp._pool is pool


def test_new_worker_count_replaces_the_pool():
    cfg = _mallows_cfg(13)
    serial = run_success_rate(cfg)
    pools = []
    for workers in (2, 3, 2):
        assert run_success_rate(cfg, workers) == serial, workers
        pools.append(exp._pool)
    assert pools[0] is not pools[1] and pools[1] is not pools[2] and pools[0] is not pools[2]
    assert exp._pool_workers == 2


def _kill_worker(cfg, t):
    os._exit(1)


def test_dead_worker_raises_and_the_next_call_starts_a_fresh_pool():
    cfg = _mallows_cfg(14)
    run_success_rate(cfg, 2)
    broken = exp._pool
    with pytest.raises(BrokenProcessPool):
        exp._map_trials(_kill_worker, cfg, 2)
    assert exp._pool is None
    assert run_success_rate(cfg, 2) == run_success_rate(cfg)
    assert exp._pool is not broken


def test_worker_unpickles_a_config_only_when_it_changes(monkeypatch):
    monkeypatch.setattr(exp, "_worker_config", (b"", None))
    loads, real_loads = [], pickle.loads
    monkeypatch.setattr(pickle, "loads", lambda blob: loads.append(blob) or real_loads(blob))
    # pickled before any trial fills a cached property
    first, second = [(cfg, pickle.dumps(cfg)) for cfg in (_mallows_cfg(15), _mallows_cfg(16))]
    for cfg, blob in (first, first, second, first):
        # a fresh bytes object per task, as a worker receives it
        blob = bytes(bytearray(blob))
        expected = [exp._success_trial(cfg, t) for t in range(2, 5)]
        assert exp._run_range(exp._success_trial, blob, range(2, 5)) == expected
    # only the repeat of the last config is a hit
    assert len(loads) == 3


def test_parallel_sweeps_never_reuse_a_stale_config():
    # two datasets of the same shape, so their configs differ only in content
    first = parse_preflib(EXAMPLE1_CLASSIC)
    second = ElectionDataset.from_ballots(
        first.m, first.candidate_names, [(b[::-1], count) for b, count in first.ballots]
    )
    rules = [parse_rule("borda"), parse_rule("copeland")]

    def sweep(ds, workers):
        return sweep_real_data(ds, [30, 62], [1, 2], rules, 8, 3, workers=workers)

    datasets = (first, second)
    serial = [sweep(ds, 1) for ds in datasets]
    assert serial[0] != serial[1]
    for i in (0, 1, 0):
        assert sweep(datasets[i], 2) == serial[i]


def test_preflib_source_success():
    ds = parse_preflib(EXAMPLE1_CLASSIC)
    cfg = ExperimentConfig(
        PreflibSource(ds, n_star=62),
        (parse_rule("copeland"),),
        (2,),
        trials=2,
        base_seed=1,
    )
    # resampling all 62 voters reproduces the fixture; copeland_2 agrees
    rows = run_success_rate(cfg)
    assert rows[0]["rate"] == "1.0000"
    assert rows[0]["n"] == "62"


def test_sweep_real_data():
    ds = parse_preflib(EXAMPLE1_CLASSIC)
    rows = sweep_real_data(ds, [20, 62], [1, 2], [parse_rule("maximin")], 5, 7)
    assert [(r["n_star"], r["k"]) for r in rows] == [
        ("20", "1"),
        ("20", "2"),
        ("62", "1"),
        ("62", "2"),
    ]
    assert all(set(r) == set(REAL_SWEEP_COLUMNS) for r in rows)
    with pytest.raises(DomainError):
        sweep_real_data(ds, [100], [1], [parse_rule("maximin")], 2, 7)


def test_write_csv_formatting(example1):
    rows = run_success_rate(_fixed_cfg(example1, ["copeland"], [2]))
    buf = io.StringIO()
    write_csv(rows, buf, SUCCESS_COLUMNS)
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(SUCCESS_COLUMNS)
    assert text.endswith("\n") and "\r" not in text
    assert text.splitlines()[1].endswith(",1.0000")


def test_write_csv_to_path(tmp_path, example1):
    rows = run_ratio(_fixed_cfg(example1, ["borda:zero"], [1]))
    out = tmp_path / "ratios.csv"
    write_csv(rows, out, RATIO_COLUMNS)
    assert out.read_text().splitlines()[0] == ",".join(RATIO_COLUMNS)


def test_write_csv_empty_rows_need_columns():
    buf = io.StringIO()
    write_csv([], buf, MIN_K_COLUMNS)
    assert buf.getvalue() == ",".join(MIN_K_COLUMNS) + "\n"
    with pytest.raises(DomainError):
        write_csv([], io.StringIO())


def test_mallows_source_rejects_empty_electorate():
    with pytest.raises(DomainError, match="n must be >= 1"):
        MallowsSource(m=4, n=0, phi=0.5)
