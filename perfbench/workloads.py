"""The benchmark's four workloads, driven through truncvote's public API.

Each workload builds its inputs from the seed when constructed (that is
the timed set-up), then runs fixed *passes*. A pass is the same work every
time, so pass times differ only by machine noise, and every pass must
write the same CSV. ``run(workers)`` is the untraced pass; ``traced``
repeats the pass's loops call by call inside spans.

- ``table1``: the paper's Table-1 row. Fraction PSR scoring and one
  re-truncation per (rule, k) dominate, so the rules/tally core shows here.
- ``large_n``: n = 100000 but at most 120 distinct ballots, so sampling and
  profile merging dominate and the rules cost almost nothing.
- ``bounds_grid``: every valid (rule, m, k) bounds cell for m = 4..8; no RNG.
- ``real_sweep``: a seeded synthetic SOI file, so incomplete ballots go
  through ``effective_truncate`` and the top-(m-1) ground-truth path.
"""

from __future__ import annotations

import csv
import gc
import io
import multiprocessing
import time
import traceback
from contextlib import nullcontext
from fractions import Fraction
from multiprocessing import resource_tracker
from pathlib import Path

import truncvote as tv
from truncvote import experiments as exp

import soi
from gate import bounds_row_check, success_row_check
from tracing import Tracer

TABLE1_RULES = ("borda:zero", "borda:avg", "harmonic:avg", "copeland", "maximin", "rp", "stv")
LARGE_N_RULES = ("plurality", "borda:avg", "copeland", "stv")
BOUNDS_RULES = ("borda:zero", "borda:avg", "harmonic:zero", "harmonic:avg", "maximin", "copeland")
BOUNDS_COLUMNS = ("rule", "m", "k", "lower", "upper", "attained", "claimed")

# (full, tiny) sizes; tiny is for the smoke test only
SIZES = {
    "table1": {"full": {"n": (100, 500, 2000), "trials": 2}, "tiny": {"n": (20, 50), "trials": 2}},
    "large_n": {"full": {"n": 100_000, "trials": 8}, "tiny": {"n": 2_000, "trials": 2}},
    "bounds_grid": {"full": {"m_max": 8}, "tiny": {"m_max": 5}},
    "real_sweep": {
        "full": {"voters": soi.VOTERS, "n_star": (100, 1000), "trials": 2},
        "tiny": {"voters": 3_000, "n_star": (50, 200), "trials": 2},
    },
}


def _span(tracer: Tracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _csv(rows: list[dict], columns) -> str:
    buf = io.StringIO()
    exp.write_csv(rows, buf, columns)
    return buf.getvalue()


def _rules(names) -> tuple[tv.RuleId, ...]:
    return tuple(tv.parse_rule(name) for name in names)


def _with_rates(reference: str, rates: list[str], tracer: Tracer, columns) -> str:
    """The reference CSV with its rate column replaced by traced rates."""
    rows = [dict(row) for row in csv.DictReader(io.StringIO(reference))]
    if len(rates) != len(rows):
        raise ValueError(f"traced {len(rates)} rates for {len(rows)} CSV rows")
    for row, rate in zip(rows, rates):
        row["rate"] = rate
    with tracer.span("experiments.csv"):
        return _csv(rows, columns)


def _rate(hits: int, trials: int) -> str:
    return f"{hits / trials:.4f}"


class Workload:
    """Defaults: the unit of work is a trial, and the inputs depend on the seed."""

    unit = "trial"
    seeded = True

    def prepare(self, workers: int) -> None:
        """Start what parallel passes need; called before any pass is timed."""

    def close(self) -> None:
        """Stop what prepare started."""


class _MallowsWorkload(Workload):
    """Success-rate cells on Mallows profiles, one ExperimentConfig each."""

    def __init__(self, m: int, rules, k_values, cells, trials: int, seed: int) -> None:
        self.configs = [
            exp.ExperimentConfig(exp.MallowsSource(m, n, phi), _rules(rules), tuple(k_values), trials, seed)
            for phi, n in cells
        ]
        self.work_per_pass = trials * len(self.configs)
        self.rows_per_pass = len(self.configs) * len(rules) * len(k_values)
        self.row_check = success_row_check(m)

    def run(self, workers: int) -> str:
        rows = []
        for cfg in self.configs:
            rows += exp.run_success_rate(cfg, workers)
        return _csv(rows, exp.SUCCESS_COLUMNS)

    def traced(self, tracer: Tracer, reference: str) -> str:
        """Replays experiments._trial_winners for Mallows sources."""
        rates = []
        for cfg in self.configs:
            src, tb = cfg.source, cfg.tb
            hits = {(rule, k): 0 for rule in cfg.rules for k in cfg.k_values}
            for t in range(cfg.trials):
                tracer.new_trace()
                with tracer.span("experiments.trial"):
                    rng = tv.trial_rng(cfg.base_seed, t)
                    with tracer.span("mallows.sample_profile"):
                        profile = tv.sample_profile(src.model, src.n, rng)
                    tracer.count("mallows.profiles")
                    tracer.count("mallows.ballots", src.n)
                    tracer.count("mallows.distinct_ballots", len(profile.entries))
                    true = {}
                    for rule in cfg.rules:
                        with tracer.span(f"rules.{rule.family}.full"):
                            true[rule] = tv.apply_rule(rule, profile, tb)
                    with tracer.span("ballots.pairwise_tally"):
                        tv.pairwise_tally(profile)
                    for k in cfg.k_values:
                        for rule in cfg.rules:
                            # apply_rule truncates a complete profile itself;
                            # doing it here splits the same work into its span
                            with tracer.span("ballots.truncate"):
                                topk = tv.truncate(profile, k)
                            with tracer.span(f"rules.{rule.family}.topk"):
                                winner = tv.apply_rule(rule.at_k(k), topk, tb)
                            hits[(rule, k)] += winner == true[rule]
                        with tracer.span("ballots.dominance_tally"):
                            tv.dominance_tally(topk)
            rates += [_rate(hits[(rule, k)], cfg.trials) for rule in cfg.rules for k in cfg.k_values]
        return _with_rates(reference, rates, tracer, exp.SUCCESS_COLUMNS)


class Table1(_MallowsWorkload):
    def __init__(self, seed: int, size: dict, out_dir: Path, tracer: Tracer | None = None) -> None:
        cells = [(phi, n) for phi in (0.7, 1.0) for n in size["n"]]
        super().__init__(7, TABLE1_RULES, range(1, 7), cells, size["trials"], seed)


class LargeN(_MallowsWorkload):
    def __init__(self, seed: int, size: dict, out_dir: Path, tracer: Tracer | None = None) -> None:
        super().__init__(5, LARGE_N_RULES, range(1, 5), [(0.9, size["n"])], size["trials"], seed)


class RealSweep(Workload):
    """experiments.sweep_real_data on a synthetic SOI file read back from disk."""

    def __init__(self, seed: int, size: dict, out_dir: Path, tracer: Tracer | None = None) -> None:
        names = [f"c{i + 1}" for i in range(soi.M)]
        ballots = soi.synthetic_ballots(seed, size["voters"])
        text = tv.serialize_classic(tv.ElectionDataset.from_ballots(soi.M, names, ballots))
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"real_sweep-seed{seed}.soi"
        path.write_text(text, encoding="utf-8")
        self.file_bytes = len(text.encode("utf-8"))
        with _span(tracer, "preflib.parse"):
            self.dataset = tv.load(path)
        self.seed = seed
        self.n_star = size["n_star"]
        self.trials = size["trials"]
        self.rules = _rules(TABLE1_RULES)
        self.k_values = tuple(range(1, soi.M))
        self.work_per_pass = self.trials * len(self.n_star)
        self.rows_per_pass = len(self.n_star) * len(self.rules) * len(self.k_values)
        self.row_check = success_row_check(soi.M)

    def run(self, workers: int) -> str:
        rows = exp.sweep_real_data(
            self.dataset, self.n_star, self.k_values, self.rules, self.trials, self.seed, workers=workers
        )
        return _csv(rows, exp.REAL_SWEEP_COLUMNS)

    def traced(self, tracer: Tracer, reference: str) -> str:
        """Replays experiments._trial_winners for PrefLib sources."""
        ds, m = self.dataset, self.dataset.m
        tb = tv.TieBreak.by_index(m)
        rates = []
        for n_star in self.n_star:
            hits = {(rule, k): 0 for rule in self.rules for k in self.k_values}
            for t in range(self.trials):
                tracer.new_trace()
                with tracer.span("experiments.trial"):
                    rng = tv.trial_rng(self.seed, t)
                    with tracer.span("preflib.resample"):
                        ballots = tv.resample(ds, n_star, rng, False)
                    with tracer.span("preflib.effective_truncate"):
                        reference_profile = tv.effective_truncate(ballots, m - 1, m)
                    true = {}
                    for rule in self.rules:
                        with tracer.span(f"rules.{rule.family}.full"):
                            true[rule] = tv.apply_rule(
                                rule.at_k(reference_profile.k), reference_profile, tb
                            )
                    for k in self.k_values:
                        with tracer.span("preflib.effective_truncate"):
                            topk = tv.effective_truncate(ballots, k, m)
                        for rule in self.rules:
                            with tracer.span(f"rules.{rule.family}.topk"):
                                winner = tv.apply_rule(rule.at_k(topk.k), topk, tb)
                            hits[(rule, k)] += winner == true[rule]
                        with tracer.span("ballots.dominance_tally"):
                            tv.dominance_tally(topk)
            rates += [_rate(hits[(rule, k)], self.trials) for rule in self.rules for k in self.k_values]
        return _with_rates(reference, rates, tracer, exp.REAL_SWEEP_COLUMNS)


def _fmt_ratio(value) -> str:
    return "inf" if tv.is_infinite(value) else str(Fraction(value))


def _closed_form(rule: tv.RuleId, m: int, k: int) -> tv.RatioBound:
    if rule.family == "psr":
        vector = tv.scoring_vector(rule, m)
        return tv.psr_bounds(vector, k, tv.completion_score(vector, k, rule.policy))
    if rule.family == "maximin":
        return tv.maximin_bounds(m, k)
    return tv.RatioBound(tv.INFINITY, tv.INFINITY)  # copeland: unbounded


def _construct(rule: tv.RuleId, m: int, k: int) -> tv.AdversarialInstance:
    if rule.family == "psr":
        vector = tv.scoring_vector(rule, m)
        return tv.psr_adversarial(vector, k, tv.completion_score(vector, k, rule.policy))
    if rule.family == "maximin":
        return tv.maximin_adversarial(m, k)
    return tv.copeland_adversarial(m, k)


def bounds_row(cell: tuple[str, int, int], tracer: Tracer | None = None) -> dict:
    """One bounds cell: closed form, adversarial profile, witness price."""
    name, m, k = cell
    row = {"rule": name, "m": str(m), "k": str(k)}
    try:
        rule = tv.parse_rule(name)
        with _span(tracer, "bounds.closed_form"):
            bound = _closed_form(rule, m, k)
        with _span(tracer, "bounds.construct"):
            inst = _construct(rule, m, k)
        with _span(tracer, "bounds.price"):
            attained = tv.price_of_truncation(inst.profile, rule, k)
    except Exception:  # the gate fails this cell alone and the pass goes on
        traceback.print_exc()
        return row | {"lower": "error", "upper": "error", "attained": "error", "claimed": "error"}
    if tracer is not None:
        tracer.count("bounds.witness_ballots", len(inst.profile.entries))
        if not tv.is_infinite(bound.upper) and attained < bound.upper:
            tracer.count("bounds.unattained_cells")
    return row | {
        "rule": rule.label,
        "lower": _fmt_ratio(bound.lower),
        "upper": _fmt_ratio(bound.upper),
        "attained": _fmt_ratio(attained),
        "claimed": _fmt_ratio(inst.claimed_ratio),
    }


def _worker_ready(_: int) -> None:
    time.sleep(0.2)


class BoundsGrid(Workload):
    """Every valid cell with k = 2..m-2. Parallel passes spread the cells
    over a spawn pool, started before timing and reused by every pass."""

    unit = "cell"
    seeded = False

    def __init__(self, seed: int, size: dict, out_dir: Path, tracer: Tracer | None = None) -> None:
        # largest witnesses first, so a parallel pass ends with small cells
        self.cells = [
            (rule, m, k)
            for m in range(size["m_max"], 3, -1)
            for k in range(m - 2, 1, -1)
            for rule in BOUNDS_RULES
        ]
        self.work_per_pass = len(self.cells)
        self.rows_per_pass = len(self.cells)
        self.row_check = bounds_row_check
        self._pool = None

    def prepare(self, workers: int) -> None:
        if workers > 1 and self._pool is None:
            self._pool = multiprocessing.get_context("spawn").Pool(workers)
            self._pool.map(_worker_ready, range(workers), chunksize=1)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None
            # the spawn context also started a resource tracker process; stop
            # it once the pool's semaphores are gone, so that none outlives us
            gc.collect()
            resource_tracker._resource_tracker._stop()

    def run(self, workers: int) -> str:
        if workers > 1:
            rows = self._pool.map(bounds_row, self.cells, chunksize=1)
        else:
            rows = [bounds_row(cell) for cell in self.cells]
        return _csv(rows, BOUNDS_COLUMNS)

    def traced(self, tracer: Tracer, reference: str) -> str:
        rows = []
        for cell in self.cells:
            tracer.new_trace()
            with tracer.span("experiments.trial"):
                rows.append(bounds_row(cell, tracer))
        with tracer.span("experiments.csv"):
            return _csv(rows, BOUNDS_COLUMNS)


WORKLOADS = {"table1": Table1, "large_n": LargeN, "bounds_grid": BoundsGrid, "real_sweep": RealSweep}
