"""Monte-Carlo harness: success rate, score-ratio, minimal-k search, and
real-data sweeps, with seeded deterministic parallel trials and CSV output.

Trial t always uses the stream ``trial_rng(base_seed, t)`` and results are
merged in trial order, so the worker count never changes the output.

Parallel runs share one process pool that lives as long as the process: the
first call with ``workers > 1`` starts it, later calls with the same count
reuse it, and a different count replaces it. A call pickles its config once
and sends the bytes with each range of trials; a worker keeps the last config
it unpickled and unpickles again only when the bytes differ. Workers copy the
module state of the moment the pool starts, so a later change to it (a
patched function, say) reaches them only after :func:`shutdown_pool`, which
also frees the workers.

Every source runs through one trial loop. A source's ``tally(rng)`` hands
over one :class:`~truncvote.tally.IntegerTally` per trial: a Mallows sample's
rank matrix goes straight in (no ranking tuple is built), and a real-data
resample or a fixed profile's entries are encoded and checked by
``IntegerTally.of``. That tally serves the ground truth and every (rule, k):
no ballot list is merged, sorted, truncated or re-validated, and every score
is an exact integer. ``Fraction`` appears only in the reported score ratios.

A trial succeeds when the top-k winner equals the complete election's
winner. ``ExperimentConfig.ties`` says what a tie for the complete election's
top score means (see :data:`TIE_CONVENTIONS`).
"""

from __future__ import annotations

import csv
import io
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .ballots import DomainError, Profile, TieBreak
from .bounds import Ratio, is_infinite, truncation_prices
from .mallows import MallowsModel, sample_ranks, trial_rng
from .preflib import ElectionDataset, resample
from .rules import SCORED_FAMILIES, RuleId, co_winners
from .tally import IntegerTally

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
        return IntegerTally.of(self.m, resample(self.dataset, self.n_star, rng))


@dataclass(frozen=True)
class FixedSource:
    """Replays one fixed profile in every trial (testing/cross-checks)."""

    profile: Profile

    @property
    def m(self) -> int:
        return self.profile.m

    def tally(self, rng: np.random.Generator) -> IntegerTally:
        return IntegerTally.of(self.m, self.profile.entries)


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
        if any(not 1 <= k <= m - 1 for k in self.k_values):
            raise DomainError(f"k values must lie in [1, {m - 1}]")
        if self.tiebreak is not None and len(self.tiebreak.priority) != m:
            raise DomainError(
                f"tie-break priority needs m = {m} entries, got {len(self.tiebreak.priority)}"
            )
        object.__setattr__(self, "rules", tuple(r.at_k(None) for r in self.rules))

    @cached_property
    def tb(self) -> TieBreak:
        return self.tiebreak or TieBreak.by_index(self.source.m)


def _true_winner(cfg: ExperimentConfig, tally: IntegerTally, rule: RuleId, k: int | None) -> int | None:
    """The complete election's winner; None when no top-k winner can match it."""
    if cfg.ties == "priority":
        return tally.winner(rule, k, cfg.tb)
    top = co_winners(tally.scores(rule, k))
    return top[0] if len(top) == 1 else None


def _success_trial(cfg: ExperimentConfig, t: int) -> tuple[bool, ...]:
    """Whether each (rule, k)'s top-k winner of trial t is the true winner.

    The ground truth is the complete rule on a complete profile (Mallows or
    fixed source), or, on real data, the rule on the resampled voters' own
    (possibly incomplete) ballots read to depth m-1.
    """
    tally = cfg.source.tally(trial_rng(cfg.base_seed, t))
    truth_k = cfg.source.m - 1 if isinstance(cfg.source, PreflibSource) else None
    true = {rule: _true_winner(cfg, tally, rule, truth_k) for rule in cfg.rules}
    return tuple(
        tally.winner(rule, k, cfg.tb) == true[rule] for rule in cfg.rules for k in cfg.k_values
    )


def _ratio_trial(cfg: ExperimentConfig, t: int) -> tuple[Ratio, ...]:
    tally = cfg.source.tally(trial_rng(cfg.base_seed, t))
    return tuple(
        ratio
        for rule in cfg.rules
        for ratio in truncation_prices(tally, rule, cfg.k_values, cfg.tb)
    )


# The process's one pool and its worker count; started by the first parallel
# call, replaced when the count changes or a worker dies.
_pool: ProcessPoolExecutor | None = None
_pool_workers = 0
# In each worker: the pickled bytes of the last config it ran, and that
# config. The bytes themselves are compared, so a new config is never taken
# for the last one.
_worker_config: tuple[bytes, ExperimentConfig | None] = (b"", None)


def _executor(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_workers
    if _pool is None or _pool_workers != workers:
        shutdown_pool()
        _pool, _pool_workers = ProcessPoolExecutor(max_workers=workers), workers
    return _pool


def shutdown_pool() -> None:
    """Stop the workers of parallel runs; the next parallel call starts a
    fresh pool from the module state of that moment."""
    global _pool
    if _pool is not None:
        _pool.shutdown()
        _pool = None


def _run_range(fn: Callable, blob: bytes, trials: range) -> list:
    """``fn`` over ``trials`` of the config pickled as ``blob``; run in a
    worker, which unpickles the config only when it differs from the last."""
    global _worker_config
    if _worker_config[0] != blob:
        _worker_config = (blob, pickle.loads(blob))
    cfg = _worker_config[1]
    return [fn(cfg, t) for t in trials]


def _map_trials(fn: Callable, cfg: ExperimentConfig, workers: int) -> list:
    if workers <= 1:
        return [fn(cfg, t) for t in range(cfg.trials)]
    blob = pickle.dumps(cfg, pickle.HIGHEST_PROTOCOL)
    chunk = max(1, cfg.trials // (workers * 4))
    ranges = [range(start, min(start + chunk, cfg.trials)) for start in range(0, cfg.trials, chunk)]
    pool = _executor(workers)
    try:
        parts = pool.map(_run_range, repeat(fn), repeat(blob), ranges)
        return [result for part in parts for result in part]
    except BrokenProcessPool:
        shutdown_pool()  # so the next call starts a fresh pool
        raise


def _source_fields(source: ProfileSource) -> tuple[str, str]:
    if isinstance(source, MallowsSource):
        return f"{source.phi:g}", str(source.n)
    if isinstance(source, FixedSource):
        return "", str(source.profile.n)
    return "", str(source.n_star)


def _rows(cfg: ExperimentConfig, results: list, cell: Callable[[list], list]) -> list[dict]:
    """The CSV rows of one config, rule-major.

    ``cell`` gets one rule's outcomes as (k, per-trial outcomes) pairs in
    ``cfg.k_values`` order and returns that rule's rows as (k, columns)
    pairs; each row gets the rule, its k unless that is None, the config's
    phi, n, trials and seed, then its own columns.
    """
    phi, n = _source_fields(cfg.source)
    fields = {"phi": phi, "n": n, "trials": str(cfg.trials), "seed": str(cfg.base_seed)}
    # one outcome sequence per (rule, k), rule-major, as the trials return them
    outcomes = iter(zip(*results))
    rows = []
    for rule in cfg.rules:
        for k, columns in cell([(k, next(outcomes)) for k in cfg.k_values]):
            k_field = {} if k is None else {"k": str(k)}
            rows.append({"rule": rule.label, **k_field, **fields, **columns})
    return rows


def run_success_rate(cfg: ExperimentConfig, workers: int = 1) -> list[dict]:
    """Winner-agreement rate per (rule, k); rows ready for CSV."""
    results = _map_trials(_success_trial, cfg, workers)
    return _rows(cfg, results, lambda by_k: [
        (k, {"rate": f"{sum(hits) / cfg.trials:.4f}"}) for k, hits in by_k
    ])


def _ratio_columns(ratios: Sequence[Ratio]) -> dict:
    finite = [r for r in ratios if not is_infinite(r)]
    mean = float(sum(finite, Fraction(0)) / len(finite)) if finite else float("nan")
    peak = float(max(finite)) if finite else float("nan")
    return {
        "mean_ratio": f"{mean:.6f}",
        "max_ratio": f"{peak:.6f}",
        "inf_count": str(len(ratios) - len(finite)),
    }


def run_ratio(cfg: ExperimentConfig, workers: int = 1) -> list[dict]:
    """Per-(rule, k) mean and max score ratio; infinities counted, not averaged."""
    for rule in cfg.rules:
        if rule.family in ("rp", "stv"):
            raise DomainError(f"{rule.family} is not score-based; no ratio experiment")
    if isinstance(cfg.source, PreflibSource):
        raise DomainError("score-ratio experiments need complete profiles")
    results = _map_trials(_ratio_trial, cfg, workers)
    return _rows(cfg, results, lambda by_k: [(k, _ratio_columns(r)) for k, r in by_k])


def min_k_search(cfg: ExperimentConfig, workers: int = 1) -> list[dict]:
    """Smallest k whose top-k winner agrees with the true winner in every
    trial; m-1 if no smaller k qualifies. k_values must span 1..m-1."""
    m = cfg.source.m
    if tuple(sorted(cfg.k_values)) != tuple(range(1, m)):
        raise DomainError("min-k search needs k_values spanning 1..m-1")
    results = _map_trials(_success_trial, cfg, workers)
    return _rows(cfg, results, lambda by_k: [
        (None, {"min_k": str(min((k for k, hits in by_k if all(hits)), default=m - 1))})
    ])


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
    """Success rate over resampled sub-elections for each (n*, rule, k). Every
    n* cell's config is built, and so checked, before any trial runs."""
    configs = [
        ExperimentConfig(
            PreflibSource(ds, n_star), tuple(rules), tuple(k_grid), trials, seed, tiebreak, ties
        )
        for n_star in n_star_grid
    ]
    return [
        {column: row["n" if column == "n_star" else column] for column in REAL_SWEEP_COLUMNS}
        for cfg in configs
        for row in run_success_rate(cfg, workers)
    ]


def write_csv(rows: Sequence[dict], destination, columns: Sequence[str] | None = None) -> None:
    """UTF-8, LF-terminated, RFC-4180-style CSV; header always written.

    The full text is rendered before any I/O, so a failure never leaves a
    partial file behind.
    """
    if columns is None:
        if not rows:
            raise DomainError("empty row set needs explicit columns")
        columns = list(rows[0].keys())
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
