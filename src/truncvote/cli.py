"""Command-line interface.

Subcommands: winner, truncate, sample, bounds, adversarial, parse-check, and
experiment {success, ratio, min-k, real-sweep}. Profiles on disk always use
the classic PrefLib layout, synthetic ones included. Every randomized
command requires an explicit --seed. CSV goes to stdout or --out; exit code
2 for usage/parse/file errors, 1 for domain errors.

Grid options take a comma list or an inclusive 'a:b[:c]' range (--phi: lists
only); a Mallows experiment runs its (phi, n) cells phi outer, n inner.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Callable

from . import bounds as bounds_mod
from . import experiments as exp
from .ballots import DomainError, TieBreak
from .bounds import (
    ConstructionInapplicableError,
    UnsupportedRuleError,
    copeland_adversarial,
    copeland_bounds,
    is_infinite,
    maximin_adversarial,
    maximin_bounds,
    price_of_truncation,
    psr_adversarial,
    psr_bounds,
)
from .mallows import MallowsModel, make_rng, sample_profile
from .preflib import ElectionDataset, PreflibParseError, load, serialize_classic
from .rules import RuleId, RuleParseError, completion_score, parse_rule, scoring_vector
from .tally import IntegerTally


class UsageError(ValueError):
    """Option values that parse but that the command cannot use."""


def _parse_list(text: str, convert: Callable = float) -> list:
    """argparse type: a non-empty comma list, of floats unless ``convert`` says otherwise."""
    try:
        values = [convert(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma list of {convert.__name__}s, got {text!r}"
        ) from None
    if not values:
        raise argparse.ArgumentTypeError("empty list")
    return values


def _parse_priority(text: str) -> list[int]:
    """argparse type: a tie-break priority, a comma list of 0-based ids."""
    return _parse_list(text, int)


def _int_at_least(low: int) -> Callable[[str], int]:
    """argparse type: an integer >= low; argparse itself reports a non-integer."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def _parse_int_list(text: str) -> list[int]:
    """argparse type: comma list '1,2,3' or inclusive range 'start:stop[:step]'."""
    if ":" not in text:
        return _parse_list(text, int)
    parts = text.split(":")
    if len(parts) == 2:
        parts.append("1")
    try:
        start, stop, step = map(int, parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"a range is start:stop[:step], got {text!r}") from None
    if step < 1 or start > stop:
        raise argparse.ArgumentTypeError(f"empty range {text!r}: needs start <= stop, step >= 1")
    return list(range(start, stop + 1, step))


def _tiebreak(priority: list[int] | None, m: int) -> TieBreak:
    return TieBreak.by_index(m) if priority is None else TieBreak(tuple(priority))


def _parse_rules(texts: list[str]) -> tuple[RuleId, ...]:
    rules = []
    for text in texts:
        for piece in text.split(","):
            if piece.strip():
                rules.append(parse_rule(piece))
    if not rules:
        raise RuleParseError("no rules given")
    return tuple(rules)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _write_rows(rows: list[dict], columns, out: str | None) -> None:
    exp.write_csv(rows, sys.stdout if out is None else out, columns)


def _cmd_winner(args) -> int:
    ds = load(args.profile)
    rule = parse_rule(args.rule)
    tb = _tiebreak(args.tiebreak, ds.m)
    tally = IntegerTally.of(ds.m, ds.ballots)
    if rule.k is not None:
        k = min(rule.k, ds.m - 1)
    else:
        # incomplete real data: the ballots themselves, read to depth m-1, are
        # the ground truth
        k = None if tally.complete else ds.m - 1
    print(ds.candidate_names[tally.winner(rule, k, tb)])
    return 0


def _cmd_truncate(args) -> int:
    ds = load(args.profile)
    truncated = [(order[: min(args.k, len(order))], count) for order, count in ds.ballots]
    if args.k < 1:
        raise DomainError(f"k must be >= 1, got {args.k}")
    _emit(
        serialize_classic(ElectionDataset.from_ballots(ds.m, ds.candidate_names, truncated)),
        args.out,
    )
    return 0


def _cmd_sample(args) -> int:
    profile = sample_profile(MallowsModel(args.m, args.phi), args.n, make_rng(args.seed))
    names = [f"c{i + 1}" for i in range(args.m)]
    ds = ElectionDataset.from_ballots(args.m, names, profile.entries)
    _emit(serialize_classic(ds), args.out)
    return 0


def _fmt_ratio(value) -> str:
    return "inf" if is_infinite(value) else str(Fraction(value))


def _bounds_for(rule: RuleId, m: int, k: int) -> bounds_mod.RatioBound:
    if rule.family == "psr":
        vector = scoring_vector(rule, m)
        return psr_bounds(vector, k, completion_score(vector, k, rule.policy))
    if rule.family == "maximin":
        return maximin_bounds(m, k)
    if rule.family == "copeland":
        return copeland_bounds(m, k)
    raise UnsupportedRuleError(f"no score-ratio bounds for {rule.family}")


def _adversarial_for(rule: RuleId, m: int, k: int) -> bounds_mod.AdversarialInstance:
    if rule.family == "psr":
        vector = scoring_vector(rule, m)
        return psr_adversarial(vector, k, completion_score(vector, k, rule.policy))
    if rule.family == "maximin":
        return maximin_adversarial(m, k)
    if rule.family == "copeland":
        return copeland_adversarial(m, k)
    raise UnsupportedRuleError(f"no adversarial construction for {rule.family}")


def _attained(rule: RuleId, m: int, k: int) -> str:
    """The ratio the adversarial profile attains; empty where no construction applies."""
    try:
        inst = _adversarial_for(rule, m, k)
    except (DomainError, ConstructionInapplicableError):
        return ""
    return _fmt_ratio(price_of_truncation(inst.profile, rule.at_k(None), k))


def _cmd_bounds(args) -> int:
    rule = parse_rule(args.rule)
    if args.csv:
        rows = []
        for m in args.m:
            for k in (k for k in args.k if k < m):  # no bound is defined at k >= m
                try:
                    bound = _bounds_for(rule, m, k)
                except DomainError:  # nor where the rule itself has none at this m
                    continue
                rows.append({"rule": rule.label, "m": str(m), "k": str(k),
                             "lower": _fmt_ratio(bound.lower), "upper": _fmt_ratio(bound.upper),
                             "attained": _attained(rule, m, k) if args.attained else ""})
        _write_rows(rows, ("rule", "m", "k", "lower", "upper", "attained"), args.out)
        return 0
    if len(args.m) != 1 or len(args.k) != 1:
        raise UsageError("--m and --k need one value each without --csv")
    bound = _bounds_for(rule, args.m[0], args.k[0])
    print(f"lower={_fmt_ratio(bound.lower)} upper={_fmt_ratio(bound.upper)}")
    return 0


def _cmd_adversarial(args) -> int:
    rule = parse_rule(args.rule)
    inst = _adversarial_for(rule, args.m, args.k)
    print(f"x1={inst.x1} x2={inst.x2} k={inst.k} ratio={_fmt_ratio(inst.claimed_ratio)}")
    if args.out:
        names = [f"x{i + 1}" for i in range(args.m)]
        ds = ElectionDataset.from_ballots(args.m, names, inst.profile.entries)
        _emit(serialize_classic(ds), args.out)
    return 0


def _cmd_parse_check(args) -> int:
    ds = load(args.path)
    print(f"m={ds.m} n={ds.n} unique_ballots={len(ds.ballots)}")
    return 0


_MALLOWS_MODES = {
    "success": (exp.run_success_rate, exp.SUCCESS_COLUMNS),
    "ratio": (exp.run_ratio, exp.RATIO_COLUMNS),
    "min-k": (exp.min_k_search, exp.MIN_K_COLUMNS),
}


def _mallows_configs(args) -> list[exp.ExperimentConfig]:
    """One config per (phi, n) cell, phi outer and n inner."""
    rules, tb = _parse_rules(args.rule), _tiebreak(args.tiebreak, args.m)
    k_values = tuple(args.k or range(1, args.m))  # min-k defaults to 1..m-1
    return [
        exp.ExperimentConfig(
            exp.MallowsSource(args.m, n, phi), rules, k_values, args.trials, args.seed, tb,
            args.ties,
        )
        for phi in args.phi
        for n in args.n
    ]


def _cmd_experiment(args) -> int:
    if args.mode == "real-sweep":
        ds = load(args.data)
        rows = exp.sweep_real_data(
            ds, args.n_star, args.k, _parse_rules(args.rule), args.trials, args.seed,
            _tiebreak(args.tiebreak, ds.m), args.workers, ties=args.ties,
        )
        _write_rows(rows, exp.REAL_SWEEP_COLUMNS, args.out)
        return 0
    run, columns = _MALLOWS_MODES[args.mode]
    rows = [row for cfg in _mallows_configs(args) for row in run(cfg, args.workers)]
    _write_rows(rows, columns, args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="truncvote",
        description="Voting rules on top-k truncated ballots: winners, bounds, experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("winner", help="compute the winner of a rule on a profile file")
    p.add_argument("--rule", required=True, help="rule string, e.g. copeland@k=2")
    p.add_argument("--profile", required=True, help="profile file (classic PrefLib layout)")
    p.add_argument("--tiebreak", type=_parse_priority,
                   help="priority as 0-based indices, e.g. 3,0,1,2")
    p.set_defaults(func=_cmd_winner)

    p = sub.add_parser("truncate", help="truncate a profile file to top-k prefixes")
    p.add_argument("--profile", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_truncate)

    p = sub.add_parser("sample", help="sample a Mallows profile to a classic-layout file")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--seed", type=_int_at_least(0), required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("bounds", help="print worst-case truncation-ratio bounds")
    p.add_argument("--rule", required=True, help="e.g. borda:zero, harmonic:avg, maximin")
    p.add_argument("--m", type=_parse_int_list, required=True,
                   help="single value; with --csv, a comma list or a:b[:c] range")
    p.add_argument("--k", type=_parse_int_list, required=True,
                   help="single value; with --csv, a comma list or a:b[:c] range")
    p.add_argument("--csv", action="store_true", help="emit a CSV table")
    p.add_argument("--attained", action="store_true", help="include the adversarial ratio")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("adversarial", help="build a worst-case profile and report its ratio")
    p.add_argument("--rule", required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", help="write the profile in classic layout")
    p.set_defaults(func=_cmd_adversarial)

    p = sub.add_parser("parse-check", help="parse a PrefLib file and print a summary")
    p.add_argument("path")
    p.set_defaults(func=_cmd_parse_check)

    p = sub.add_parser("experiment", help="run a Monte-Carlo experiment, output CSV")
    mode = p.add_subparsers(dest="mode", required=True)

    def common(q, mallows: bool, ties: bool = True) -> None:
        q.add_argument("--rule", action="append", required=True,
                       help="rule string; repeat or comma-separate")
        q.add_argument("--trials", type=_int_at_least(1), required=True)
        q.add_argument("--seed", type=_int_at_least(0), required=True)
        q.add_argument("--workers", type=_int_at_least(1), default=1)
        q.add_argument("--tiebreak", type=_parse_priority,
                       help="priority as 0-based indices, e.g. 3,0,1,2")
        if ties:
            q.add_argument("--ties", choices=exp.TIE_CONVENTIONS, default="priority",
                           help="how a tie for the complete election's top score counts: "
                                "priority (resolve it by the tie-break) or fail-on-true-tie "
                                "(the trial fails; score-based rules only)")
        else:
            q.set_defaults(ties="priority")
        q.add_argument("--out")
        if mallows:
            q.add_argument("--m", type=int, required=True)
            q.add_argument("--n", type=_parse_int_list, required=True,
                           help="electorate sizes: comma list or a:b[:c] range")
            q.add_argument("--phi", type=_parse_list, required=True,
                           help="Mallows dispersions: comma list (no ranges); rows run "
                                "phi outer, n inner")

    q = mode.add_parser("success", help="winner-agreement rate on Mallows profiles")
    q.add_argument("--k", type=_parse_int_list, required=True, help="comma list or a:b[:c] range")
    common(q, mallows=True)
    q.set_defaults(func=_cmd_experiment)

    q = mode.add_parser("ratio", help="score-ratio statistics on Mallows profiles")
    q.add_argument("--k", type=_parse_int_list, required=True, help="comma list or a:b[:c] range")
    common(q, mallows=True, ties=False)
    q.set_defaults(func=_cmd_experiment)

    q = mode.add_parser("min-k", help="minimal k with perfect agreement across trials")
    q.add_argument("--k", type=_parse_int_list, help="defaults to 1:m-1")
    common(q, mallows=True)
    q.set_defaults(func=_cmd_experiment)

    q = mode.add_parser("real-sweep", help="success-rate sweep over resampled real data")
    q.add_argument("--data", required=True, help="PrefLib SOC/SOI file")
    q.add_argument("--n-star", type=_parse_int_list, required=True, dest="n_star",
                   help="grid: comma list or a:b[:c] range")
    q.add_argument("--k", type=_parse_int_list, required=True, help="comma list or a:b[:c] range")
    common(q, mallows=False)
    q.set_defaults(func=_cmd_experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, RuleParseError, PreflibParseError, FileNotFoundError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (DomainError, UnsupportedRuleError, ConstructionInapplicableError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
