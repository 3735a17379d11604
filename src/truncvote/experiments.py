"""Monte-Carlo harness: success rate, score-ratio, minimal-k search, and
real-data sweeps, with seeded deterministic parallel trials and CSV output.
Each mode is one entry of :data:`MODES`, and :func:`run` runs any of them.

Trial t always uses the stream ``trial_rng(base_seed, t)`` and results are
merged in trial order, so the worker count never changes the output.

Parallel runs share one process pool that lives as long as the process: the
first call with ``workers > 1`` starts it, later calls with the same count
reuse it, and a different count replaces it. The workers hold the run's
dataset from the moment they start, so a real-data task names it instead of
carrying it, and a run on a different dataset restarts them; a Mallows or
fixed-profile run keeps whatever pool is running. A run is one map: its whole
(config, trial) grid is dealt round-robin, one task per worker. Workers copy
the module state of the moment the pool starts, so a later change to it (a
patched function, say) reaches them only after :func:`shutdown_pool`, which
also frees the workers and the dataset they hold.

Every source runs through one trial loop. A source's ``tally(rng)`` hands
over one :class:`~truncvote.tally.IntegerTally` per trial: a Mallows sample's
rank matrix goes straight in (no ranking tuple is built), a real-data trial
hands over the rows its voters cast of its dataset's rank matrix, and a fixed
profile hands over the rank matrix its ballot check built. That tally serves
the ground truth and every (rule, k), one ``IntegerTally.winners`` call per
rule: no ballot list is encoded, merged, sorted, truncated or re-validated,
and every score is an exact integer. ``Fraction`` appears only in the
reported score ratios.

A trial succeeds when the top-k winner equals the ground truth, the winner
the tally gives for k None: the complete rule when every ballot of the trial
is complete (always for Mallows and fixed sources), the rule read to depth
m-1 otherwise, so one ballot list has one truth whatever its source.
``ExperimentConfig.ties`` says what a tie for the complete election's
top score means (see :data:`TIE_CONVENTIONS`).
"""

from __future__ import annotations

import csv
import io
from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, repeat
from multiprocessing.reduction import ForkingPickler
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .ballots import DomainError, Profile, TieBreak, _check_k, _check_priority
from .bounds import Ratio, is_infinite, truncation_prices
from .mallows import MallowsModel, sample_ranks, trial_rng
from .preflib import ElectionDataset, _draw
from .rules import SCORED_FAMILIES, RuleId, co_winners
from .tally import IntegerTally, _rule_weights

SUCCESS_COLUMNS = ("rule", "k", "phi", "n", "trials", "seed", "rate")
RATIO_COLUMNS = ("rule", "k", "phi", "n", "trials", "seed", "mean_ratio", "max_ratio", "inf_count")
MIN_K_COLUMNS = ("rule", "phi", "n", "trials", "seed", "min_k")
REAL_SWEEP_COLUMNS = ("rule", "k", "n_star", "trials", "seed", "rate")

# How a trial whose complete election has several co-winners counts:
# "priority": both elections are made resolute by the one tie-break priority
#   and their winners compared;
# "fail-on-true-tie": the trial fails unless the complete election has exactly
#   one top-scoring candidate (score-based rules only).
TIE_CONVENTIONS = ("priority", "fail-on-true-tie")


@dataclass(frozen=True)
class MallowsSource:
    m: int
    n: int
    phi: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError(f"n must be >= 1, got {self.n}")
        self.model  # a bad m or phi fails here, before any trial or pool starts

    @cached_property
    def model(self) -> MallowsModel:
        return MallowsModel(self.m, self.phi)

    def tally(self, rng: np.random.Generator) -> IntegerTally:
        return IntegerTally(*sample_ranks(self.model, self.n, rng))


@dataclass(frozen=True)
class PreflibSource:
    dataset: ElectionDataset
    n_star: int

    def __post_init__(self) -> None:
        if not 1 <= self.n_star <= self.dataset.n:
            raise DomainError(f"n_star must be in [1, {self.dataset.n}], got {self.n_star}")

    @property
    def m(self) -> int:
        return self.dataset.m

    def tally(self, rng: np.random.Generator) -> IntegerTally:
        rows, counts = _draw(self.dataset, self.n_star, rng)
        return IntegerTally(self.dataset.ranks[rows], counts)


@dataclass(frozen=True)
class FixedSource:
    """Replays one fixed profile in every trial (testing/cross-checks)."""

    profile: Profile

    @property
    def m(self) -> int:
        return self.profile.m

    def tally(self, rng: np.random.Generator) -> IntegerTally:
        return IntegerTally(self.profile.ranks, self.profile.counts)


ProfileSource = MallowsSource | PreflibSource | FixedSource


@dataclass(frozen=True)
class ExperimentConfig:
    source: ProfileSource
    rules: tuple[RuleId, ...]
    k_values: tuple[int, ...]
    trials: int
    base_seed: int
    tiebreak: TieBreak | None = None
    ties: str = "priority"

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if self.base_seed < 0:
            raise DomainError(f"base_seed must be >= 0, got {self.base_seed}")
        for rule in self.rules:
            if rule.k is not None:
                raise DomainError(
                    f"{rule}: experiment rules take no @k; the depths come from k_values (--k)"
                )
        if self.ties not in TIE_CONVENTIONS:
            raise DomainError(f"unknown tie convention {self.ties!r}")
        if self.ties == "fail-on-true-tie":
            for rule in self.rules:
                if rule.family not in SCORED_FAMILIES:
                    raise DomainError(
                        f"{rule.label} has no score table; fail-on-true-tie needs "
                        f"one of {', '.join(SCORED_FAMILIES)}"
                    )
        m = self.source.m
        if not self.k_values:
            raise DomainError(f"no k in [1, m-1] for m = {m}")
        for k in self.k_values:
            _check_k(k, m)
        # every PSR head a trial reads is checked before any trial or pool starts
        depths = list(self.k_values)
        if isinstance(self.source, PreflibSource):
            depths.append(m - 1)  # the truth of a real-data draw with a short ballot
        for rule in (rule for rule in self.rules if rule.family == "psr"):
            for k in depths:
                try:
                    _rule_weights(rule, m, k)
                except DomainError as err:
                    raise DomainError(f"{rule.at_k(k)}: {err}") from None
        if self.tiebreak is not None:
            _check_priority(self.tiebreak.priority, m)

    @cached_property
    def tb(self) -> TieBreak:
        return self.tiebreak or TieBreak.by_index(self.source.m)


def _success_trial(cfg: ExperimentConfig, t: int) -> tuple[bool, ...]:
    """Whether each (rule, k)'s top-k winner of trial t is the true winner.

    The ground truth is the tally's reading of k None, whatever the source:
    the complete rule when every drawn ballot is complete, else the rule on
    the (possibly incomplete) ballots read to depth m-1. One ``winners`` call
    per rule gives every k, and the truth too unless ties fail, when the
    truth's score table gives it.
    """
    tally = cfg.source.tally(trial_rng(cfg.base_seed, t))
    hits = []
    for rule in cfg.rules:
        if cfg.ties == "fail-on-true-tie":
            top = co_winners(tally.scores(rule, None))
            truth = top[0] if len(top) == 1 else None  # no top-k winner matches a tied truth
            topk = tally.winners(rule, cfg.k_values, cfg.tb)
        else:
            truth, *topk = tally.winners(rule, (None, *cfg.k_values), cfg.tb)
        hits.extend(winner == truth for winner in topk)
    return tuple(hits)


def _ratio_trial(cfg: ExperimentConfig, t: int) -> tuple[Ratio, ...]:
    tally = cfg.source.tally(trial_rng(cfg.base_seed, t))
    return tuple(
        ratio
        for rule in cfg.rules
        for ratio in truncation_prices(tally, rule, cfg.k_values, cfg.tb)
    )


# The process's one pool, its worker count and the dataset its workers hold;
# started by the first parallel call, replaced when the count changes, a run
# brings another dataset or a worker dies. In a worker, ``_held`` is the
# dataset that worker holds.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
_held: ElectionDataset | None = None


def _hold(dataset: ElectionDataset | None) -> None:
    global _held
    _held = dataset


def _held_source(n_star: int) -> PreflibSource:
    return PreflibSource(_held, n_star)


def _reduce_source(source: PreflibSource) -> tuple:
    """How the pool's queues pickle a real-data source: by name when the
    workers hold its dataset, else in full. Plain ``pickle`` is untouched."""
    if source.dataset is _held:
        return _held_source, (source.n_star,)
    return PreflibSource, (source.dataset, source.n_star)


ForkingPickler.register(PreflibSource, _reduce_source)


def _executor(workers: int, dataset: ElectionDataset | None) -> ProcessPoolExecutor:
    """The pool for a run; `dataset` None keeps whatever dataset is held."""
    global _pool, _pool_workers
    if (_pool is None or _pool_workers != workers
            or (dataset is not None and dataset is not _held)):
        shutdown_pool()
        _pool = ProcessPoolExecutor(max_workers=workers, initializer=_hold, initargs=(dataset,))
        _pool_workers = workers
        _hold(dataset)
    return _pool


def shutdown_pool() -> None:
    """Stop the workers of parallel runs and drop the dataset they hold; the
    next parallel call starts a fresh pool from the module state of that
    moment."""
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None
    _hold(None)


def _run_tasks(fn: Callable, tasks: list[tuple[ExperimentConfig, int]]) -> list:
    return [fn(cfg, t) for cfg, t in tasks]


def _map_trials(fn: Callable, cfgs: Sequence[ExperimentConfig], workers: int) -> list[list]:
    """``fn(cfg, t)`` for every trial of every config: one result list per
    config, in trial order, whatever the worker count."""
    if workers <= 1:
        return [[fn(cfg, t) for t in range(cfg.trials)] for cfg in cfgs]
    dataset = next(
        (cfg.source.dataset for cfg in cfgs if isinstance(cfg.source, PreflibSource)), None
    )
    pool = _executor(workers, dataset)
    tasks = [(cfg, t) for cfg in cfgs for t in range(cfg.trials)]
    try:
        # one task per worker, the (config, trial) grid dealt round-robin
        parts = list(pool.map(
            _run_tasks, repeat(fn), [tasks[w::workers] for w in range(workers)]
        ))
    except BrokenProcessPool:
        shutdown_pool()  # so the next call starts a fresh pool
        raise
    merged = (parts[i % workers][i // workers] for i in range(len(tasks)))
    return [list(islice(merged, cfg.trials)) for cfg in cfgs]


def _source_fields(source: ProfileSource) -> dict[str, str]:
    if isinstance(source, MallowsSource):
        return {"phi": f"{source.phi:g}", "n": str(source.n)}
    if isinstance(source, FixedSource):
        return {"phi": "", "n": str(source.profile.n)}
    return {"phi": "", "n": str(source.n_star), "n_star": str(source.n_star)}


def _rows(cfg: ExperimentConfig, results: list, cells: Callable) -> list[dict]:
    """One config's rows, rule-major: ``cells(cfg, by_k)`` turns a rule's (k,
    per-trial outcomes) pairs into (k, columns) pairs, each row led by the
    rule, its k (unless None), the source's fields, the trials and the seed."""
    fields = {**_source_fields(cfg.source), "trials": str(cfg.trials), "seed": str(cfg.base_seed)}
    # one outcome sequence per (rule, k), rule-major, as the trials return them
    outcomes = iter(zip(*results))
    rows = []
    for rule in cfg.rules:
        for k, columns in cells(cfg, [(k, next(outcomes)) for k in cfg.k_values]):
            k_field = {} if k is None else {"k": str(k)}
            rows.append({"rule": rule.label, **k_field, **fields, **columns})
    return rows


def _rate_cells(cfg: ExperimentConfig, by_k: list) -> list:
    return [(k, {"rate": f"{sum(hits) / cfg.trials:.4f}"}) for k, hits in by_k]


def _ratio_cells(cfg: ExperimentConfig, by_k: list) -> list:
    """Mean and max score ratio per k; infinities counted, not averaged."""
    cells = []
    for k, ratios in by_k:
        finite = [r for r in ratios if not is_infinite(r)]
        mean = float(sum(finite, Fraction(0)) / len(finite)) if finite else float("nan")
        peak = float(max(finite)) if finite else float("nan")
        cells.append((k, {"mean_ratio": f"{mean:.6f}", "max_ratio": f"{peak:.6f}",
                          "inf_count": str(len(ratios) - len(finite))}))
    return cells


def _min_k_cells(cfg: ExperimentConfig, by_k: list) -> list:
    """The least k whose top-k winner is right in every trial, else m-1."""
    min_k = min((k for k, hits in by_k if all(hits)), default=cfg.source.m - 1)
    return [(None, {"min_k": str(min_k)})]


def _check_ratio(cfg: ExperimentConfig) -> None:
    for rule in cfg.rules:
        if rule.family not in SCORED_FAMILIES:
            raise DomainError(f"{rule.family} is not score-based; no ratio experiment")
    if isinstance(cfg.source, PreflibSource):
        raise DomainError("score-ratio experiments need complete profiles")


def _check_min_k(cfg: ExperimentConfig) -> None:
    if tuple(sorted(cfg.k_values)) != tuple(range(1, cfg.source.m)):
        raise DomainError("min-k search needs k_values spanning 1..m-1")


def _check_real(cfg: ExperimentConfig) -> None:
    if not isinstance(cfg.source, PreflibSource):
        raise DomainError("a real-data sweep needs real-data sources")


# Each experiment mode by its CLI name: its trial, the check every config
# passes before any trial runs (None: the config's own suffices), the row
# columns of one rule's (k, outcomes) pairs, and the CSV columns of its rows.
Mode = namedtuple("Mode", "trial check cells columns")
MODES = {
    "success": Mode(_success_trial, None, _rate_cells, SUCCESS_COLUMNS),
    "ratio": Mode(_ratio_trial, _check_ratio, _ratio_cells, RATIO_COLUMNS),
    "min-k": Mode(_success_trial, _check_min_k, _min_k_cells, MIN_K_COLUMNS),
    "real-sweep": Mode(_success_trial, _check_real, _rate_cells, REAL_SWEEP_COLUMNS),
}


def run(mode: str, cfgs: Sequence[ExperimentConfig], workers: int = 1) -> list[dict]:
    """Every config's rows in one mode: all checked first, all trials one map."""
    spec = MODES[mode]
    if spec.check:
        for cfg in cfgs:
            spec.check(cfg)
    results = _map_trials(spec.trial, cfgs, workers)
    return [
        {column: row[column] for column in spec.columns}
        for cfg, outcomes in zip(cfgs, results)
        for row in _rows(cfg, outcomes, spec.cells)
    ]


def run_success_rate(cfg: ExperimentConfig, workers: int = 1) -> list[dict]:
    """Winner-agreement rate per (rule, k); rows ready for CSV."""
    return run("success", [cfg], workers)


def sweep_real_data(
    ds: ElectionDataset,
    n_star_grid: Sequence[int],
    k_grid: Sequence[int],
    rules: Sequence[RuleId],
    trials: int,
    seed: int,
    tiebreak: TieBreak | None = None,
    workers: int = 1,
    ties: str = "priority",
) -> list[dict]:
    """Success rate over resampled sub-elections for each (n*, rule, k)."""
    return run("real-sweep", [
        ExperimentConfig(
            PreflibSource(ds, n_star), tuple(rules), tuple(k_grid), trials, seed, tiebreak, ties
        )
        for n_star in n_star_grid
    ], workers)


def write_csv(rows: Sequence[dict], destination, columns: Sequence[str]) -> None:
    """UTF-8, LF-terminated, RFC-4180-style CSV; header always written.

    The full text is rendered before any I/O, so a failure never leaves a
    partial file behind.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    text = buf.getvalue()
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text, encoding="utf-8")
