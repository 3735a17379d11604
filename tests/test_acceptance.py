"""Acceptance gate: nine checks at stated tolerances, one reported line each.

Each check prints a single PASS/FAIL line (bypassing pytest capture, so the
lines always show up in the run log) and then asserts.
"""

import os
import time
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from truncvote import (
    ConstructionInapplicableError,
    ExperimentConfig,
    MallowsModel,
    MallowsSource,
    Profile,
    PreflibSource,
    TieBreak,
    apply_rule,
    copeland_adversarial,
    copeland_scores,
    is_infinite,
    load,
    maximin_adversarial,
    maximin_scores,
    pairwise_tally,
    parse_rule,
    price_of_truncation,
    psr_adversarial,
    psr_bounds,
    run_success_rate,
    sample_profile,
    trial_rng,
    truncate,
    write_csv,
)
from truncvote.experiments import SUCCESS_COLUMNS
from truncvote.mallows import pmf
from truncvote.rules import borda_vector, harmonic_vector

from conftest import EXAMPLE1_BALLOTS

F = Fraction
GRID = [(m, k) for m in range(4, 9) for k in range(2, m - 1)]


# one line per executed check; conftest echoes these in the terminal summary
REPORT_LINES: list[str] = []


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {number}: {name}"
    if detail:
        line += f" [{detail}]"
    REPORT_LINES.append(line)
    print(line, flush=True)
    assert ok, line


def _attainment_gap(vector_fn, rule_text):
    """(m, k, attained, bound) of the cell whose constructed profile misses the
    bound by the most (largest bound - attained), or None if none misses."""
    misses = []
    for m, k in GRID:
        s = vector_fn(m)
        bound = psr_bounds(s, k, F(0))
        try:
            inst = psr_adversarial(s, k, F(0))
        except ConstructionInapplicableError:
            continue  # beta < 0: the construction does not apply here
        price = price_of_truncation(inst.profile, parse_rule(rule_text), k)
        if price != bound.upper:
            misses.append((m, k, price, bound.upper))
    return max(misses, key=lambda miss: miss[3] - miss[2], default=None)


def test_criterion_1_borda_bound_attained_exactly():
    start = time.perf_counter()
    gap = _attainment_gap(borda_vector, "borda:zero")
    elapsed = time.perf_counter() - start
    report(1, "exact bound attainment (borda, s*=0)",
           gap is None and elapsed < 10, f"{elapsed:.1f}s")


def test_criterion_1_harmonic_bound_attained_exactly():
    # fails, by a program fault: psr_bounds reports lower = upper (a tight
    # bound) whenever s_star = 0, but that holds only when s_m = 0 too, and
    # the harmonic vector has s_m = 1/m. An LP over all m! ranking weights
    # (scipy/HiGHS, m <= 7) gives the true worst case: at m=4, k=2 it is
    # 4/3 against the stated 14/9 (psr_adversarial's profile reaches 56/51);
    # the closed form is reached at (5,3), (6,4), (7,4) and (7,5), but by
    # profiles other than psr_adversarial, which attains the bound in no
    # harmonic cell. The mending is an exact worst-case oracle for s_m > 0.
    start = time.perf_counter()
    gap = _attainment_gap(harmonic_vector, "harmonic:zero")
    elapsed = time.perf_counter() - start
    detail = f"{elapsed:.1f}s" if gap is None else \
        f"m={gap[0]} k={gap[1]} ratio={gap[2]} bound={gap[3]}"
    report(1, "exact bound attainment (harmonic, s*=0)", gap is None, detail)


def test_criterion_2_borda_closed_form():
    ok = all(
        psr_bounds(borda_vector(m), k, F(0)).upper
        == F(k, m - 1) + F(2 * m * (m - k - 1), k * (2 * m - k - 1))
        for m, k in GRID
    )
    report(2, "borda closed-form bound", ok)


def test_criterion_3_maximin_adversarial_grid():
    ok, detail = True, ""
    for m, k in GRID:
        inst = maximin_adversarial(m, k)
        scores = maximin_scores(pairwise_tally(inst.profile))
        winner = apply_rule(parse_rule(f"maximin@k={k}"), inst.profile, TieBreak.by_index(m))
        if not (winner == 0 and scores[0] == 1 and scores[1] == m - k
                and price_of_truncation(inst.profile, parse_rule("maximin"), k) == m - k):
            ok, detail = False, f"m={m} k={k}"
            break
    report(3, "maximin adversarial grid", ok, detail)


def test_criterion_4_copeland_adversarial_grid():
    ok, detail = True, ""
    for m, k in GRID:
        inst = copeland_adversarial(m, k)
        scores = copeland_scores(pairwise_tally(inst.profile))
        winner = apply_rule(parse_rule(f"copeland@k={k}"), inst.profile, TieBreak.by_index(m))
        if not (scores[0] == 0 and scores[1] == m - 1 and winner == 0):
            ok, detail = False, f"m={m} k={k}"
            break
    report(4, "copeland adversarial grid", ok, detail)


def test_criterion_5_reference_profile_winners():
    profile = Profile.from_ballots(4, EXAMPLE1_BALLOTS)
    a, d = 0, 3
    checks = [
        (apply_rule(parse_rule("copeland@k=1"), profile), a),
        (apply_rule(parse_rule("maximin@k=1"), profile), a),
        (apply_rule(parse_rule("rp@k=1"), profile), a),
        (apply_rule(parse_rule("borda@k=1:avg"), profile), a),
        (apply_rule(parse_rule("copeland@k=3"), profile), d),
        (apply_rule(parse_rule("maximin@k=3"), profile), d),
        (apply_rule(parse_rule("rp@k=3"), profile), d),
        (apply_rule(parse_rule("copeland@k=2"), profile), d),
        (apply_rule(parse_rule("maximin@k=2"), profile), d),
    ]
    ok = all(got == want for got, want in checks)
    report(5, "62-voter reference profile winners", ok, str(checks) if not ok else "")


def test_criterion_6_structural_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(20260823)
    plurality = parse_rule("plurality")
    stable = [parse_rule(t) for t in
              ("borda:zero", "borda:avg", "harmonic:avg", "copeland", "maximin", "rp", "stv")]
    score_rules = [parse_rule(t) for t in ("borda:zero", "maximin")]
    ok, detail = True, ""
    for trial in range(1000):
        m = int(rng.integers(3, 8))
        n = int(rng.integers(1, 52))
        phi = float(rng.choice([0.5, 0.8, 1.0]))
        profile = sample_profile(MallowsModel(m, phi), n, rng)
        k = int(rng.integers(1, m))
        base = apply_rule(plurality, profile)
        scrambled = Profile.from_ballots(
            m, ((o[:k] + o[k:][::-1], c) for o, c in profile.entries))
        for rule in stable:
            if apply_rule(rule.at_k(1), profile) != base:
                ok, detail = False, f"trial {trial}: {rule} top-1 != plurality"
            if apply_rule(rule.at_k(m - 1), profile) != apply_rule(rule, profile):
                ok, detail = False, f"trial {trial}: {rule} top-(m-1) != complete"
        for rule in score_rules:
            if apply_rule(rule.at_k(k), profile) != apply_rule(rule.at_k(k), scrambled):
                ok, detail = False, f"trial {trial}: {rule} tail-sensitive at k={k}"
            ratio = price_of_truncation(profile, rule, k)
            agree = apply_rule(rule, profile) == apply_rule(rule.at_k(k), profile)
            if not (is_infinite(ratio) or ratio >= 1) or (agree and ratio != 1):
                ok, detail = False, f"trial {trial}: bad ratio {ratio} for {rule}"
        if not ok:
            break
    elapsed = time.perf_counter() - start
    report(6, "structural properties on 1000 random profiles",
           ok and elapsed < 60, detail or f"{elapsed:.1f}s")


def test_criterion_7_mallows_sampler_exactness():
    start = time.perf_counter()
    draws = 200_000
    rankings = list(permutations(range(4)))
    ok, detail = True, ""
    for phi, exact in ((0.5, F(1, 2)), (0.8, F(4, 5)), (1.0, F(1))):
        model = MallowsModel(4, phi)
        profile = sample_profile(model, draws, np.random.default_rng(2 * 10**5 + int(phi * 10)))
        counts = dict(profile.entries)
        expected = np.array([float(pmf(model, r, exact)) * draws for r in rankings])
        observed = np.array([counts.get(r, 0) for r in rankings])
        dev = float(np.max(np.abs(observed / draws - expected / draws)))
        p_value = stats.chisquare(observed, expected).pvalue
        if dev > 0.004 or p_value <= 0.001:
            ok, detail = False, f"phi={phi}: dev={dev:.4f} p={p_value:.4g}"
            break
    elapsed = time.perf_counter() - start
    report(7, "mallows sampler frequencies", ok and elapsed < 30,
           detail or f"{elapsed:.1f}s")


def _success(rule_text, k, phi, n, ties, trials=1000, seed=1):
    cfg = ExperimentConfig(
        MallowsSource(m=7, n=n, phi=phi), (parse_rule(rule_text),), (k,), trials, seed,
        ties=ties)
    return float(run_success_rate(cfg, workers=os.cpu_count() or 1)[0]["rate"])


def test_criterion_8_borda_cell():
    start = time.perf_counter()
    rate = _success("borda:avg", 1, 0.7, 500, ties="fail-on-true-tie")
    elapsed = time.perf_counter() - start
    report(8, "borda cell (phi=0.7, n=500, ties=fail-on-true-tie)",
           rate >= 0.99 and elapsed < 300, f"rate={rate:.3f} {elapsed:.0f}s")


def test_criterion_8_harmonic_cell():
    start = time.perf_counter()
    rate = _success("harmonic:avg", 1, 1.0, 100, ties="fail-on-true-tie")
    elapsed = time.perf_counter() - start
    report(8, "harmonic cell (phi=1, n=100, ties=fail-on-true-tie)",
           abs(rate - 0.725) <= 0.06 and elapsed < 300, f"rate={rate:.3f} {elapsed:.0f}s")


def test_criterion_8_copeland_cell():
    # Copeland's complete election has a tied top score in 15.4% of these
    # trials. Under the shared tie-break priority part of them count as
    # successes and the rate is 0.411; independent random tie-breaks give
    # 0.409, so correlated tie resolution is not the cause. Counting a tied
    # complete election as a failure gives 0.365 here and leaves the borda
    # (0.999) and harmonic (0.711) cells where they were, so one success
    # definition holds across the whole row (counting a tie in either
    # election as a failure gives 0.332 here, but 0.642 for harmonic, outside
    # its tolerance). The abstract does not say which convention the paper
    # used. Copeland's pairwise-tie credit
    # alpha (1/2 here) is not the cause either: under the priority
    # convention every alpha in {0, 1/2, 1} gives 0.397-0.411.
    start = time.perf_counter()
    rate = _success("copeland", 1, 1.0, 100, ties="fail-on-true-tie")
    elapsed = time.perf_counter() - start
    report(8, "copeland cell (phi=1, n=100, ties=fail-on-true-tie)",
           abs(rate - 0.325) <= 0.06 and elapsed < 300, f"rate={rate:.3f} {elapsed:.0f}s")


def _dublin_path():
    env = os.environ.get("TRUNCVOTE_DUBLIN")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[1] / "data" / "dublin-north-2002.soi"


def test_criterion_8_dublin_cells():
    path = _dublin_path()
    if not path.is_file():
        pytest.skip(f"real election data not present at {path}; "
                    "set TRUNCVOTE_DUBLIN to enable")
    ds = load(path)
    assert ds.m == 12 and ds.n == 3662
    rates = {}
    for rule_text, want in (("harmonic:avg", 0.92), ("stv", 0.82)):
        cfg = ExperimentConfig(
            PreflibSource(ds, n_star=50), (parse_rule(rule_text),), (3,), 1000, 1)
        rates[rule_text] = float(run_success_rate(cfg, workers=os.cpu_count() or 1)[0]["rate"])
    ok = abs(rates["harmonic:avg"] - 0.92) <= 0.06 and abs(rates["stv"] - 0.82) <= 0.06
    report(8, "real-data cells (n*=50, k=3)", ok, str(rates))


def test_criterion_9_determinism():
    cfg = ExperimentConfig(
        MallowsSource(m=5, n=40, phi=0.8),
        (parse_rule("borda:zero"), parse_rule("copeland")),
        (1, 2, 3),
        trials=48,
        base_seed=2024,
    )
    import io

    def render(workers):
        buf = io.StringIO()
        write_csv(run_success_rate(cfg, workers), buf, SUCCESS_COLUMNS)
        return buf.getvalue().encode()

    once, again, parallel = render(1), render(1), render(8)
    ok = once == again == parallel
    report(9, "byte-identical CSV across reruns and worker counts", ok)
