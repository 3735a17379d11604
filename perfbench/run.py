"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload table1 --seed 3 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/``. A run
alternates serial passes (``--workers 1``) and parallel passes (nproc
workers) for ``--seconds`` and reports the median pass of each kind. With
``--trace 1`` the last third of the time replays the pass inside spans, and
the run reports per-layer metrics instead.
Metric names and units come from BENCHMARK.json. ``--workload all`` runs
each workload in a fresh process and prints every metric by name and unit.
The exit code is 1 if the correctness gate failed, 2 if the program is
missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("table1", "large_n", "bounds_grid", "real_sweep")
DEFAULT_SEED = 1
# caps the pool on large hosts; every worker holds its own interpreter
MAX_WORKERS = 8
# set-up is timed in this process and in this many fresh processes
SETUP_PROBES = 4
RULE_FAMILIES = ("psr", "copeland", "maximin", "rp", "stv")


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def untraced_phase(workload, workers: int, budget: float, gate):
    """Alternate serial and parallel passes until the next pair would overrun
    the budget. Alternating puts a burst of load from other processes on the
    host on both kinds of pass, not wholly on one of them."""
    serial: list[float] = []
    parallel: list[float] = []
    reference = None
    start = time.perf_counter()
    while True:
        for count, times in ((1, serial), (workers, parallel)):
            t = time.perf_counter()
            try:
                text = workload.run(count)
            except Exception:
                traceback.print_exc()
                gate.fail_pass(f"untraced pass at workers={count} raised")
                return serial, parallel, reference
            times.append(time.perf_counter() - t)
            gate.check_csv(text, reference)
            if reference is None:
                reference = text
        if time.perf_counter() - start + serial[-1] + parallel[-1] > budget:
            return serial, parallel, reference


def traced_phase(workload, tracer, budget: float, gate, reference: str) -> list[float]:
    walls: list[float] = []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        try:
            text = workload.traced(tracer, reference)
        except Exception:
            traceback.print_exc()
            gate.fail_pass("traced pass raised")
            break
        walls.append(time.perf_counter() - t)
        gate.check_csv(text, reference)
        if time.perf_counter() - start + walls[-1] > budget:
            break
    return walls


def setup_probe(args) -> float:
    """Set-up time of a fresh interpreter: imports plus input generation."""
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", "1", "--scale", args.scale, "--setup-only",
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def layer_metrics(workload, tracer, walls, serial_times, par_rate, serial_rate, workers) -> dict:
    passes = len(walls)
    self_time = tracer.self_times()
    counts = tracer.counts

    def per_pass(name: str) -> float:
        return self_time.get(name, 0.0) / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {
        "mallows.sample_profile_s": per_pass("mallows.sample_profile"),
        "mallows.ballots_per_s": ratio(counts["mallows.ballots"], self_time.get("mallows.sample_profile", 0.0)),
        "mallows.distinct_ballots": ratio(counts["mallows.distinct_ballots"], counts["mallows.profiles"]),
    }
    for name in ("ballots.truncate", "ballots.pairwise_tally", "ballots.dominance_tally"):
        out[f"{name}_s"] = per_pass(name)
    for family in RULE_FAMILIES:
        for form in ("full", "topk"):
            out[f"rules.{family}.{form}_s"] = per_pass(f"rules.{family}.{form}")
    out["rules.calls"] = sum(1 for span in tracer.spans if span[0].startswith("rules.")) / passes
    for name in ("bounds.closed_form", "bounds.construct", "bounds.price"):
        out[f"{name}_s"] = per_pass(name)
    out["bounds.witness_ballots"] = counts["bounds.witness_ballots"] / passes
    out["bounds.unattained_cells"] = counts["bounds.unattained_cells"] / passes
    parse_s = self_time.get("preflib.parse", 0.0)
    out["preflib.parse_s"] = parse_s
    out["preflib.parse_mb_per_s"] = ratio(getattr(workload, "file_bytes", 0) / 1e6, parse_s)
    for name in ("preflib.resample", "preflib.effective_truncate"):
        out[f"{name}_s"] = per_pass(name)
    out["experiments.self_s"] = per_pass("experiments.trial")
    out["experiments.csv_s"] = per_pass("experiments.csv")
    trial_ms = sorted(d * 1000 for d in tracer.durations("experiments.trial"))
    out["experiments.trial_samples"] = len(trial_ms)
    out["experiments.trial_ms_p50"] = statistics.median(trial_ms) if trial_ms else 0.0
    out["experiments.trial_ms_p90"] = (
        statistics.quantiles(trial_ms, n=10)[8] if len(trial_ms) > 1 else sum(trial_ms)
    )
    out["experiments.parallel_efficiency"] = ratio(par_rate, workers * serial_rate)
    # the tally spans are extra calls the untraced pass does not make
    probes = per_pass("ballots.pairwise_tally") + per_pass("ballots.dominance_tally")
    out["trace.overhead_frac"] = (statistics.median(walls) - probes) / statistics.median(serial_times) - 1
    return out


def run_one(args) -> int:
    if not (SRC / "truncvote" / "__init__.py").is_file():
        print(f"error: no truncvote package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(BENCH_DIR))
    start = time.perf_counter()
    import truncvote
    import workloads
    from gate import Gate
    from tracing import Tracer

    if not Path(truncvote.__file__).resolve().is_relative_to(SRC):
        print(f"error: truncvote imported from {truncvote.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    size = workloads.SIZES[args.workload][args.scale]
    workload = workloads.WORKLOADS[args.workload](args.seed, size, OUT_DIR, tracer)
    setup_main = time.perf_counter() - start
    if args.setup_only:
        print(repr(setup_main))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    digests = json.loads((BENCH_DIR / "digests.json").read_text(encoding="utf-8"))[args.scale]
    check_digest = args.seed == DEFAULT_SEED or not workload.seeded
    gate = Gate(workload.row_check, workload.rows_per_pass, digests[args.workload] if check_digest else None)
    cores = nproc()
    workers = min(cores, MAX_WORKERS)
    # a traced run gives a third of its time to the traced passes
    budget = args.seconds * (2 / 3 if args.trace else 1)

    try:
        workload.prepare(workers)
        serial_times, par_times, reference = untraced_phase(workload, workers, budget, gate)
    finally:
        workload.close()
    serial_rate = workload.work_per_pass / statistics.median(serial_times) if serial_times else 0.0
    par_rate = workload.work_per_pass / statistics.median(par_times) if par_times else 0.0

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "scale": args.scale,
        "nproc": cores, "workers": workers, "work_unit": workload.unit,
        "work_per_pass": workload.work_per_pass,
        "serial_pass_s": serial_times, "parallel_pass_s": par_times,
    }
    if args.trace:
        metric_specs = spec["per_layer"]
        walls = traced_phase(workload, tracer, args.seconds / 3, gate, reference) if reference else []
        if walls:
            values = layer_metrics(workload, tracer, walls, serial_times, par_rate, serial_rate, workers)
        else:  # the gate has failed already; report zeros rather than nothing
            values = {m["name"]: 0.0 for m in metric_specs}
    else:
        probes = [setup_probe(args) for _ in range(SETUP_PROBES)]
        values = {
            "work_per_s": serial_rate,
            "work_per_s_par": par_rate,
            "setup_s": statistics.median([setup_main, *probes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record["setup_samples_s"] = [setup_main, *probes]
        metric_specs = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    record.update(metrics=metrics, attempted=gate.attempted, failed=gate.failed, problems=gate.problems)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT_DIR / f"trace-{stem}.json", record)
    else:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        (OUT_DIR / f"result-{stem}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(f"{args.workload}: nproc={cores} workers={workers} serial passes={len(serial_times)} "
          f"parallel passes={len(par_times)}", file=sys.stderr)
    result = {"correct": gate.correct, "attempted": gate.attempted, "failed": gate.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if gate.correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process, so set-up and peak memory are its own."""
    results, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(BENCH_DIR / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale,
        ]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            print(f"{name}: exited {done.returncode} without a result", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        results[name] = result
        status = status or done.returncode
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(results))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes for the smoke test")
    parser.add_argument("--setup-only", action="store_true",
                        help="time imports plus input generation, print it, exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
