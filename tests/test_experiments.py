import io
import os
import pickle
from concurrent.futures.process import BrokenProcessPool
from itertools import permutations
from multiprocessing.reduction import ForkingPickler

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
    copeland_adversarial,
    parse_preflib,
    parse_rule,
    price_of_truncation,
    rule_adversarial,
    run_success_rate,
    sweep_real_data,
    write_csv,
)
from truncvote import experiments as exp
from truncvote import ballots as ballots_mod
from truncvote import preflib as preflib_mod
from truncvote.experiments import (
    MIN_K_COLUMNS,
    RATIO_COLUMNS,
    REAL_SWEEP_COLUMNS,
    SUCCESS_COLUMNS,
    TIE_CONVENTIONS,
)
from truncvote.tally import IntegerTally

from conftest import EXAMPLE1_CLASSIC, HARMONIC_SPLIT_BALLOTS, TOY_MODERN


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


def test_config_rejects_rules_with_k(example1):
    with pytest.raises(DomainError, match=r"copeland@k=2: .*k_values"):
        _fixed_cfg(example1, ["copeland@k=2"], [1])


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
    rows = exp.run("ratio", [cfg])
    assert rows[0]["mean_ratio"] == f"{131 / 77:.6f}"
    assert rows[1]["mean_ratio"] == "1.000000"
    assert rows[0]["inf_count"] == "0"


def test_ratio_counts_infinite_prices_across_workers():
    # the witness's top-k winner at k = 1, 2 is a Condorcet loser with Copeland
    # score 0, so every trial's price there is infinite: counted, not averaged,
    # and the same rows when the infinite ratios come back from the pool
    cfg = ExperimentConfig(
        FixedSource(copeland_adversarial(5, 2).profile), (parse_rule("copeland"),), (1, 2, 3),
        trials=4, base_seed=0,
    )
    rows = exp.run("ratio", [cfg])
    assert [(r["k"], r["mean_ratio"], r["max_ratio"], r["inf_count"]) for r in rows] == [
        ("1", "nan", "nan", "4"), ("2", "nan", "nan", "4"), ("3", "1.000000", "1.000000", "0"),
    ]
    assert exp.run("ratio", [cfg], 2) == rows


def test_ratio_rejects_order_based_rules(example1):
    with pytest.raises(DomainError):
        exp.run("ratio", [_fixed_cfg(example1, ["rp"], [2])])


@pytest.mark.parametrize("workers", [1, 2])
def test_ratio_rejects_real_data_before_any_trial(monkeypatch, workers):
    # a complete dataset too: the complete profile of a real election is unknown
    cfg = ExperimentConfig(
        PreflibSource(parse_preflib(EXAMPLE1_CLASSIC), n_star=30),
        (parse_rule("borda:zero"),), (1, 2), trials=4, base_seed=0,
    )
    monkeypatch.setattr(exp, "_map_trials", lambda *args: pytest.fail("a trial ran"))
    with pytest.raises(DomainError, match="need complete profiles"):
        exp.run("ratio", [cfg], workers)


def test_run_checks_every_config_before_any_trial(monkeypatch, example1):
    # the config that fails comes last, so a run that checked as it went would
    # already have run the first one's trials
    monkeypatch.setattr(exp, "_map_trials", lambda *args: pytest.fail("a trial ran"))
    rules = (parse_rule("borda:zero"),)
    mallows = ExperimentConfig(MallowsSource(4, 20, 0.8), rules, (1, 2), 2, 0)
    real = ExperimentConfig(
        PreflibSource(parse_preflib(EXAMPLE1_CLASSIC), 30), rules, (1, 2), 2, 0)
    with pytest.raises(DomainError, match="need complete profiles"):
        exp.run("ratio", [mallows, real])
    full = _fixed_cfg(example1, ["copeland"], [1, 2, 3])
    with pytest.raises(DomainError, match="spanning 1..m-1"):
        exp.run("min-k", [full, _fixed_cfg(example1, ["copeland"], [1, 2])])
    with pytest.raises(DomainError, match="needs real-data sources"):
        exp.run("real-sweep", [real, mallows])


def test_min_k_search(example1):
    cfg = _fixed_cfg(example1, ["copeland", "borda:zero"], [1, 2, 3])
    rows = exp.run("min-k", [cfg])
    assert rows[0]["min_k"] == "2"  # copeland agrees from k=2 on
    assert rows[1]["min_k"] == "2"  # borda zero: top-1 elects a, top-2 elects d
    with pytest.raises(DomainError):
        exp.run("min-k", [_fixed_cfg(example1, ["copeland"], [1, 3])])


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


@pytest.mark.parametrize("ties", TIE_CONVENTIONS)
def test_a_trial_makes_one_winners_call_per_rule(monkeypatch, ties):
    # every k of a rule comes from one call, not one per (rule, k)
    calls = []
    winners = IntegerTally.winners
    monkeypatch.setattr(IntegerTally, "winners", lambda tally, rule, ks, tb: (
        calls.append((rule, tuple(ks))) or winners(tally, rule, ks, tb)))
    scored = tuple(parse_rule(r) for r in ("borda:avg", "harmonic:zero", "copeland", "maximin"))
    rules = scored + (() if ties != "priority" else (parse_rule("rp"), parse_rule("stv")))
    cfg = ExperimentConfig(MallowsSource(6, 50, 0.8), rules, (1, 2, 3, 5), 1, 0, ties=ties)
    exp._success_trial(cfg, 0)
    # under fail-on-true-tie the truth comes from its score table, not winners
    depths = (None, 1, 2, 3, 5) if ties == "priority" else (1, 2, 3, 5)
    assert calls == [(rule, depths) for rule in rules]
    calls.clear()
    exp._ratio_trial(ExperimentConfig(MallowsSource(6, 50, 0.8), scored, (2, 4), 1, 0), 0)
    assert calls == [(rule, (2, 4)) for rule in scored]


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
    assert exp.run("ratio", [cfg]) == exp.run("ratio", [cfg])


@pytest.fixture
def fresh_pool():
    """Workers copy module state when the pool starts, so a test that patches
    module state and runs in parallel gets a pool started after its patches
    and shut down before they are undone."""
    exp.shutdown_pool()
    yield
    exp.shutdown_pool()


def test_mallows_trial_builds_no_ranking_tuple(monkeypatch, fresh_pool, example1):
    # the sampler's rank matrix, the rows a real-data trial draws of its
    # dataset's, and the matrix a profile's ballot check built go straight
    # into the tally: no trial encodes or decodes ballots, and neither does
    # pricing a witness profile
    rules = (parse_rule("borda:zero"), parse_rule("copeland"), parse_rule("maximin"))
    cfg = ExperimentConfig(
        MallowsSource(m=5, n=40, phi=0.8), rules, (1, 2, 3), trials=6, base_seed=7
    )
    real = ExperimentConfig(
        PreflibSource(parse_preflib(EXAMPLE1_CLASSIC), 30), rules, (1, 2), trials=6, base_seed=7
    )
    fixed = _fixed_cfg(example1, ["borda:zero", "copeland"], [1, 2])
    witness = rule_adversarial(rules[0], 6, 3)
    expected = (run_success_rate(cfg), exp.run("ratio", [cfg]), run_success_rate(real),
                run_success_rate(fixed), exp.run("ratio", [fixed]))
    price = price_of_truncation(witness.profile, rules[0], 3)

    def encode(*args):
        raise AssertionError("ranking tuples were encoded")

    def decode(*args):
        raise AssertionError("ballots were decoded")

    monkeypatch.setattr(ballots_mod, "_position_matrix", encode)
    monkeypatch.setattr(ballots_mod, "_orders", decode)
    monkeypatch.setattr(preflib_mod, "_orders", decode)
    for workers in (1, 2):
        assert (run_success_rate(cfg, workers), exp.run("ratio", [cfg], workers),
                run_success_rate(real, workers), run_success_rate(fixed, workers),
                exp.run("ratio", [fixed], workers)) == expected
    assert price_of_truncation(witness.profile, rules[0], 3) == price


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
        "ratio": lambda workers: exp.run("ratio", [cfg], workers),
        "min-k": lambda workers: exp.run("min-k", [cfg], workers),
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
        exp._map_trials(_kill_worker, [cfg], 2)
    assert exp._pool is None
    assert run_success_rate(cfg, 2) == run_success_rate(cfg)
    assert exp._pool is not broken


def test_parallel_sweeps_never_reuse_a_stale_config():
    # two datasets of the same shape, so their configs differ only in content
    first = parse_preflib(EXAMPLE1_CLASSIC)
    second = ElectionDataset.from_ballots(
        first.m, first.candidate_names, [(b[::-1], count) for b, count in first.entries]
    )
    rules = [parse_rule("borda"), parse_rule("copeland")]

    def sweep(ds, workers):
        return sweep_real_data(ds, [30, 62], [1, 2], rules, 8, 3, workers=workers)

    datasets = (first, second)
    serial = [sweep(ds, 1) for ds in datasets]
    assert serial[0] != serial[1]
    for i in (0, 1, 0):
        assert sweep(datasets[i], 2) == serial[i]


def _wide_dataset():
    # every ranking of 7 candidates once: its pickle is about 86 KB
    names = [f"c{i}" for i in range(7)]
    return ElectionDataset.from_ballots(7, names, [(order, 1) for order in permutations(range(7))])


def test_pool_tasks_name_the_held_dataset(fresh_pool):
    ds = _wide_dataset()
    rules = [parse_rule("borda"), parse_rule("stv")]
    cfg = ExperimentConfig(PreflibSource(ds, 50), tuple(rules), (1, 2), 4, 1)
    assert len(ForkingPickler.dumps(cfg)) > 4096  # no pool holds ds yet

    def sweep():
        return sweep_real_data(ds, [20, 50], [1, 2], rules, 4, 1, workers=2)

    first = sweep()
    pool = exp._pool
    assert first == sweep_real_data(ds, [20, 50], [1, 2], rules, 4, 1)
    # a task names the held dataset; plain pickle still carries it
    assert len(ForkingPickler.dumps(cfg)) < 4096
    assert pickle.loads(ForkingPickler.dumps(cfg)).source.dataset is ds
    assert len(pickle.dumps(cfg)) > 4096
    assert pickle.loads(pickle.dumps(cfg)).source.dataset == ds
    assert sweep() == first and exp._pool is pool
    exp.shutdown_pool()
    assert exp._held is None
    assert len(ForkingPickler.dumps(cfg)) > 4096


def test_a_run_on_another_dataset_restarts_the_pool_and_mallows_keeps_it(fresh_pool):
    ds = parse_preflib(EXAMPLE1_CLASSIC)
    rules = [parse_rule("copeland")]
    sweep_real_data(ds, [30], [1, 2], rules, 4, 1, workers=2)
    pool = exp._pool
    cfg = _mallows_cfg(15)
    assert run_success_rate(cfg, 2) == run_success_rate(cfg)
    assert exp._pool is pool and exp._held is ds
    other = _wide_dataset()
    sweep_real_data(other, [30], [1, 2], rules, 4, 1, workers=2)
    assert exp._pool is not pool and exp._held is other


def _trial_id(cfg, t):
    return cfg.source.n_star, t


@pytest.mark.parametrize("workers", [2, 3])
def test_one_map_deals_the_trial_grid_round_robin_and_merges_it_in_order(workers):
    # 3 n* cells of 5 trials: 15 tasks, a multiple of neither worker count
    ds = parse_preflib(EXAMPLE1_CLASSIC)
    rules = [parse_rule("stv"), parse_rule("borda"), parse_rule("maximin")]

    def sweep(w):
        return sweep_real_data(ds, [10, 30, 62], [1, 2, 3], rules, 5, 4, workers=w)

    assert sweep(workers) == sweep(1)
    cfgs = [
        ExperimentConfig(PreflibSource(ds, n_star), tuple(rules), (1,), trials, 4)
        for n_star, trials in ((10, 5), (30, 3), (62, 1))
    ]
    expected = [[(cfg.source.n_star, t) for t in range(cfg.trials)] for cfg in cfgs]
    assert exp._map_trials(_trial_id, cfgs, workers) == expected
    assert exp._map_trials(_trial_id, cfgs, 1) == expected


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


def test_real_data_on_complete_ballots_has_the_fixed_source_truth():
    # every resample of all 9 voters is complete, so its truth is the complete
    # rule, as for the same ballots replayed as a fixed profile
    names = ["a", "b", "c", "d"]
    ds = ElectionDataset.from_ballots(4, names, HARMONIC_SPLIT_BALLOTS)
    rule = parse_rule("harmonic:zero")
    real = sweep_real_data(ds, [9], [1, 2, 3], [rule], 1, 1)
    fixed = run_success_rate(ExperimentConfig(
        FixedSource(Profile.from_ballots(4, HARMONIC_SPLIT_BALLOTS)), (rule,), (1, 2, 3), 1, 1
    ))
    assert [(r["k"], r["rate"]) for r in real] == [(r["k"], r["rate"]) for r in fixed] == [
        ("1", "1.0000"), ("2", "0.0000"), ("3", "0.0000")
    ]


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
    rows = exp.run("ratio", [_fixed_cfg(example1, ["borda:zero"], [1])])
    out = tmp_path / "ratios.csv"
    write_csv(rows, out, RATIO_COLUMNS)
    assert out.read_text().splitlines()[0] == ",".join(RATIO_COLUMNS)


def test_write_csv_empty_rows_need_columns():
    buf = io.StringIO()
    write_csv([], buf, MIN_K_COLUMNS)
    assert buf.getvalue() == ",".join(MIN_K_COLUMNS) + "\n"


def test_mallows_source_rejects_empty_electorate():
    with pytest.raises(DomainError, match="n must be >= 1"):
        MallowsSource(m=4, n=0, phi=0.5)
