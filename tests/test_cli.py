import hashlib
import io
import os
import subprocess
import sys

import pytest

import truncvote
from truncvote import experiments as exp
from truncvote import parse_rule
from truncvote.cli import main

from conftest import EXAMPLE1_CLASSIC, HARMONIC_SPLIT_BALLOTS, TOY_MODERN


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_winner_complete_rule(capsys, example1_soc):
    code, out, _ = run(capsys, "winner", "--rule", "borda", "--profile", str(example1_soc))
    assert code == 0 and out.strip() == "d"


def test_winner_topk_rule(capsys, example1_soc):
    code, out, _ = run(capsys, "winner", "--rule", "copeland@k=2", "--profile", str(example1_soc))
    assert code == 0 and out.strip() == "d"


def test_winner_with_tiebreak(capsys, tmp_path):
    path = tmp_path / "tied.soc"
    path.write_text("2\n1,x\n2,y\n2,2,2\n1,1,2\n1,2,1\n", encoding="utf-8")
    code, out, _ = run(capsys, "winner", "--rule", "plurality", "--profile", str(path),
                       "--tiebreak", "1,0")
    assert code == 0 and out.strip() == "y"


def test_winner_on_a_complete_file_is_the_complete_rule(capsys, tmp_path):
    path = tmp_path / "split.soc"
    path.write_text(truncvote.serialize_classic(truncvote.ElectionDataset.from_ballots(
        4, ["c0", "c1", "c2", "c3"], HARMONIC_SPLIT_BALLOTS)), encoding="utf-8")
    for rule, name in (("harmonic:zero", "c1"), ("harmonic@k=3:zero", "c0")):
        code, out, _ = run(capsys, "winner", "--rule", rule, "--profile", str(path))
        assert code == 0 and out.strip() == name, rule


def test_winner_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "winner", "--rule", "borda", "--profile", "no-such-file")
    assert code == 2 and "error" in err


def test_winner_bad_rule_exits_2(capsys, example1_soc):
    code, _, err = run(capsys, "winner", "--rule", "bogus", "--profile", str(example1_soc))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("rule, message", [
    ("approval0", "approval width must be >= 1, got 0"),
    ("borda@k=0", "k must be >= 1, got 0"),
    ("copeland:zero", "copeland takes no width or completion policy"),
])
def test_bad_rule_strings_exit_2(capsys, example1_soc, rule, message):
    code, out, err = run(capsys, "winner", "--rule", rule, "--profile", str(example1_soc))
    assert code == 2 and out == "" and message in err


def test_empty_rule_list_exits_2(capsys):
    code, out, err = run(capsys, "experiment", "success", "--rule", ",", "--m", "4", "--k", "1",
                         "--n", "10", "--phi", "0.5", "--trials", "2", "--seed", "1")
    assert code == 2 and out == "" and "no rules given" in err


def test_winner_domain_error_exits_1(capsys, example1_soc):
    # tie-break priority of the wrong length is a domain error, not usage;
    # its length is named before its entries are checked
    for priority in ("0,1,2", "3,2,1"):
        code, out, err = run(capsys, "winner", "--rule", "borda", "--profile", str(example1_soc),
                             "--tiebreak", priority)
        assert code == 1 and out == ""
        assert "tie-break priority needs m = 4 entries, got 3" in err, priority


def test_experiment_tiebreak_of_the_wrong_length_exits_1(capsys):
    for priority in ("0,1,2", "3,2,1"):
        code, out, err = run(capsys, "experiment", "success", "--rule", "borda", "--m", "4",
                             "--k", "1", "--n", "10", "--phi", "0.5", "--trials", "2",
                             "--seed", "1", "--tiebreak", priority)
        assert code == 1 and out == ""
        assert "tie-break priority needs m = 4 entries, got 3" in err, priority


def test_bounds_single_line(capsys):
    code, out, _ = run(capsys, "bounds", "--rule", "borda:zero", "--m", "4", "--k", "2")
    assert code == 0
    assert out.strip() == "lower=22/15 upper=22/15"


def test_bounds_maximin(capsys):
    code, out, _ = run(capsys, "bounds", "--rule", "maximin", "--m", "12", "--k", "3")
    assert code == 0
    assert out.strip() == "lower=9 upper=10"


def test_bounds_csv_with_attained(capsys):
    code, out, _ = run(capsys, "bounds", "--rule", "borda:zero", "--m", "4:5", "--k", "2",
                       "--csv", "--attained")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rule,m,k,lower,upper,attained"
    assert lines[1] == "borda:zero,4,2,22/15,22/15,22/15"
    assert len(lines) == 3


def test_bounds_single_line_with_attained(capsys):
    for rule, m, k, line in (
        ("borda", "5", "2", "lower=27/14 upper=27/14 attained=27/14"),
        ("copeland", "5", "2", "lower=inf upper=inf attained=inf"),
        ("maximin", "5", "4", "lower=1 upper=1 attained="),  # exact, no construction at k = m-1
    ):
        code, out, _ = run(capsys, "bounds", "--rule", rule, "--m", m, "--k", k, "--attained")
        assert code == 0 and out == line + "\n", rule


def test_bounds_csv_grid_skips_undefined_cells(capsys):
    # the README example: k >= m has no bound, k = m-1 has no construction
    code, out, _ = run(capsys, "bounds", "--rule", "maximin", "--m", "4:8", "--k", "2:6",
                       "--csv", "--attained")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 19
    assert all(int(k) < int(m) for _, m, k, *_ in rows)
    assert [(m, k) for _, m, k, _, _, attained in rows if attained == ""] == [
        (str(m), str(m - 1)) for m in range(4, 8)
    ]
    # one cell without --csv still exits 1
    code, _, err = run(capsys, "bounds", "--rule", "maximin", "--m", "4", "--k", "4")
    assert code == 1 and "k must be in [1, m-1]" in err
    # --csv also leaves out cells where the rule itself has no bound:
    # approval3 needs m >= 3, and approval2:avg has no valid head at m = 2
    code, out, _ = run(capsys, "bounds", "--rule", "approval3", "--m", "2:5", "--k", "1:4",
                       "--csv")
    assert code == 0 and out == run(capsys, "bounds", "--rule", "approval3", "--m", "3:5",
                                    "--k", "1:4", "--csv")[1]
    code, out, _ = run(capsys, "bounds", "--rule", "approval2:avg", "--m", "2:4", "--k", "1:3",
                       "--csv", "--attained")
    assert code == 0 and all(line.split(",")[1] != "2" for line in out.splitlines())


def test_bounds_copeland_rejects_k_outside_range(capsys):
    # as maximin does: one cell exits 1, and --csv leaves the cell out
    for k in ("0", "4"):
        code, out, err = run(capsys, "bounds", "--rule", "copeland", "--m", "4", "--k", k)
        assert code == 1 and out == "" and "k must be in [1, m-1]" in err
    code, out, _ = run(capsys, "bounds", "--rule", "copeland", "--m", "4", "--k", "0:2", "--csv")
    assert code == 0
    assert out.splitlines() == [
        "rule,m,k,lower,upper,attained", "copeland,4,1,inf,inf,", "copeland,4,2,inf,inf,"
    ]


@pytest.mark.parametrize("rule, digest", [
    ("borda:zero", "133d46138fa7f458dee60a277a90a0ceab7db082056f9befff41d70c60cafce0"),
    ("borda:avg", "078890fc669ecac1c56965de32e1808de26b830437cd85147095475470b6e074"),
    ("harmonic:zero", "0e722957e1f50e22bf87905ebc7c1afe27de82fa116584897b6e0234bce25258"),
    # its k = m-1 rows, (m, k) = (4,3) .. (8,7), read lower = upper = 1
    ("harmonic:avg", "80bfb83bf7cadc52cf74d2dae340596f4486239ad6288bce978173eb95c83ac6"),
    ("maximin", "77079db26c7089e5eeccb9e47ae3966010280946296eec9b9aba9785eec82f0f"),
    # its k = 1 rows, m = 4..8, attain inf
    ("copeland", "b635cdb9f35fef1d07893deaf5e392df08d729791d683d9894b8103d479457a1"),
])
def test_bounds_witness_output_bytes_are_pinned(capsys, rule, digest):
    # every witness profile of m = 4..8 passes through the ballot check
    code, out, _ = run(capsys, "bounds", "--rule", rule, "--m", "4:8", "--k", "1:7", "--csv",
                       "--attained")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_bounds_unsupported_rule_exits_1(capsys):
    code, _, err = run(capsys, "bounds", "--rule", "stv", "--m", "4", "--k", "2")
    assert code == 1 and "error" in err


@pytest.mark.parametrize("argv", [
    ("bounds", "--rule", "borda@k=2", "--m", "5", "--k", "3"),
    ("bounds", "--rule", "borda@k=2", "--m", "4:6", "--k", "1:3", "--csv", "--attained"),
    ("bounds", "--rule", "copeland@k=2", "--m", "4", "--k", "5", "--csv"),  # no cell at all
    ("adversarial", "--rule", "maximin@k=1", "--m", "5", "--k", "3"),
])
def test_bounds_and_adversarial_reject_a_rule_with_k(capsys, argv):
    # the depth comes from --k; the --csv grid's per-cell skip does not hide the fault
    code, out, err = run(capsys, *argv)
    rule = str(parse_rule(argv[2]))
    assert code == 1 and out == ""
    assert f"{rule}: bounds and witnesses take no @k; the depth comes from k (--k)" in err


def test_adversarial_command(capsys, tmp_path):
    out_file = tmp_path / "adv.soc"
    code, out, _ = run(capsys, "adversarial", "--rule", "maximin", "--m", "5", "--k", "2",
                       "--out", str(out_file))
    assert code == 0
    assert out.strip() == "x1=0 x2=1 k=2 ratio=3"
    code, out, _ = run(capsys, "parse-check", str(out_file))
    assert code == 0 and out.strip() == "m=5 n=5 unique_ballots=5"


@pytest.mark.parametrize("rule, k, digest", [
    ("borda:zero", 2, "87710025deabee9bb69de1b88421edca9919683215d98011f135e5bea8826f29"),
    ("borda:zero", 3, "e545c28136ae6064cd905f137401b7b3e42e8675bd795cb64a53b93368b13486"),
    ("harmonic:avg", 2, "75110baf92e0962e5c682e87ba52609a46512e575a987aeb3d7bd98fc36a75e6"),
    ("harmonic:avg", 3, "aa47260b9c82225f42ef6ee436ac8bd3690d78ff491846bebe7d3ce2066a2e91"),
    ("maximin", 2, "9fabb81f64d04b3215d3d9767a6dbc001cf63a36ac6e33a92c5e55a95ef09189"),
    ("maximin", 3, "8b642660d0f2ad8abbdba44f564503f62c58f1d70cba0e115bac090dd88ea229"),
    ("copeland", 2, "0f223c77e44de61ad174cb03576d38bcd32a63148af02ab53b5e2c47e502fd7a"),
    ("copeland", 3, "5b2bd0d5beb1350ae8afd70e74960d2b538bf6f1001a1d1428dd113e7fc6d73d"),
])
def test_adversarial_out_file_bytes_are_pinned(capsys, tmp_path, rule, k, digest):
    out_file = tmp_path / "witness.soc"
    code, _, _ = run(capsys, "adversarial", "--rule", rule, "--m", "6", "--k", str(k),
                     "--out", str(out_file))
    assert code == 0 and hashlib.sha256(out_file.read_bytes()).hexdigest() == digest


def test_parse_check_rejects_a_non_positive_modern_candidate_count(capsys, tmp_path):
    path = tmp_path / "bad.soi"
    path.write_text("# NUMBER ALTERNATIVES: -2\n1: 1\n", encoding="utf-8")
    code, out, err = run(capsys, "parse-check", str(path))
    assert code == 2 and out == "" and "candidate count must be positive" in err


def test_package_imports_no_test_dependency():
    # scipy, hypothesis and pytest are test-only: neither the package nor the CLI loads them
    script = ("import sys, truncvote, truncvote.cli; print(sorted({name.split('.')[0] for name"
              " in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))")
    src = os.path.dirname(os.path.dirname(truncvote.__file__))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "[]"


def test_adversarial_copeland_reports_inf(capsys):
    code, out, _ = run(capsys, "adversarial", "--rule", "copeland", "--m", "5", "--k", "2")
    assert code == 0 and "ratio=inf" in out


def test_truncate_rejects_k_below_1(capsys, example1_soc):
    code, out, err = run(capsys, "truncate", "--profile", str(example1_soc), "--k", "0")
    assert code == 1 and out == "" and "k must be >= 1, got 0" in err


def test_parse_check_rejects_a_malformed_ballot(capsys, tmp_path):
    path = tmp_path / "bad.soc"
    path.write_text("2\n1,a\n2,b\n1,1,1\n1,1,x\n", encoding="utf-8")
    code, out, err = run(capsys, "parse-check", str(path))
    assert code == 2 and out == "" and "line 5: malformed ballot" in err


def test_parse_check_rejects_a_non_utf8_file(capsys, tmp_path):
    path = tmp_path / "bad.soc"
    path.write_bytes(b"3\n1,a\xff\n2,b\n3,c\n1,1,1\n1,1,2,3\n")
    code, out, err = run(capsys, "parse-check", str(path))
    assert code == 2 and out == "" and "not UTF-8 text" in err


def test_truncate_command(capsys, example1_soc, tmp_path):
    out_file = tmp_path / "trunc.soc"
    code, _, _ = run(capsys, "truncate", "--profile", str(example1_soc), "--k", "2",
                     "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.splitlines()[0] == "4"
    assert "20,1,4" in text and "20,1,4,3,2" not in text


def test_sample_command_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.soc", tmp_path / "b.soc"
    for path in (a, b):
        code, _, _ = run(capsys, "sample", "--m", "4", "--n", "30", "--phi", "0.8",
                         "--seed", "11", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    code, out, _ = run(capsys, "parse-check", str(a))
    assert code == 0 and "n=30" in out


@pytest.mark.parametrize("argv, digest", [
    ("--m 1 --n 5 --phi 0.5 --seed 1",
     "8a5cb8777ee1cbcca945bc2f3365a853556ff7cac214f5aca9061c326d0a3a5f"),
    ("--m 7 --n 2000 --phi 0.7 --seed 1",
     "9a9c3400bc984cd3a05f80126d07dba6adb0d8dd421176980fc955320ca0c11f"),
    ("--m 21 --n 300 --phi 0.9 --seed 4",
     "a2ac59de2d31c3acc1dcdddbb05b26a63bb758d7f00f22faecd0f90bfcaa0e31"),
])
def test_sample_output_bytes_are_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "sample", *argv.split())
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


RP_M15 = "experiment success --rule rp --m 15 --n 60 --phi 0.95 --k 1:14 --trials 40 --seed 5"


@pytest.mark.parametrize("extra, digest", [
    ("", "ffbc3e6f0eaccf6f397c75d3519ed53508e17f0fbe5bcb9b17ea65ae2d1ba452"),
    ("--workers 2", "ffbc3e6f0eaccf6f397c75d3519ed53508e17f0fbe5bcb9b17ea65ae2d1ba452"),
    ("--tiebreak 3,14,0,9,1,12,5,7,2,11,4,13,6,10,8",
     "365835b976f9ad63dadff7b9bf21e385ee53b50e75bde4553c69f5f2edf0e934"),
], ids=["serial", "workers2", "tiebreak"])
def test_ranked_pairs_output_bytes_are_pinned_at_m15(capsys, extra, digest):
    code, out, _ = run(capsys, *RP_M15.split(), *extra.split())
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_experiment_success_csv(capsys):
    code, out, _ = run(capsys, "experiment", "success", "--rule", "copeland,borda:zero",
                       "--k", "1,2", "--m", "4", "--n", "20", "--phi", "0.8",
                       "--trials", "5", "--seed", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rule,k,phi,n,trials,seed,rate"
    assert len(lines) == 5
    assert lines[1].startswith("copeland,1,0.8,20,5,3,")


def test_experiment_min_k_default_grid(capsys):
    code, out, _ = run(capsys, "experiment", "min-k", "--rule", "borda:zero",
                       "--m", "4", "--n", "15", "--phi", "0.9",
                       "--trials", "3", "--seed", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rule,phi,n,trials,seed,min_k"
    assert int(lines[1].rsplit(",", 1)[1]) in (1, 2, 3)


def test_experiment_real_sweep(capsys, example1_soc):
    code, out, _ = run(capsys, "experiment", "real-sweep", "--data", str(example1_soc),
                       "--n-star", "20,62", "--k", "1,2", "--rule", "maximin",
                       "--trials", "3", "--seed", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "rule,k,n_star,trials,seed,rate"
    assert len(lines) == 5


def test_experiment_seed_is_required(capsys):
    with pytest.raises(SystemExit) as err:
        main(["experiment", "success", "--rule", "borda", "--k", "1",
              "--m", "4", "--n", "10", "--phi", "0.5", "--trials", "2"])
    assert err.value.code == 2


SUCCESS_ARGS = ("experiment", "success", "--rule", "copeland,borda:avg,stv", "--k", "1,3",
                "--m", "5", "--n", "30", "--phi", "1.0", "--trials", "6", "--seed", "8")


def test_experiment_default_ties_is_priority(capsys, example1_soc):
    code, default, _ = run(capsys, *SUCCESS_ARGS)
    code2, explicit, _ = run(capsys, *SUCCESS_ARGS, "--ties", "priority")
    assert code == code2 == 0 and default == explicit
    sweep = ("experiment", "real-sweep", "--data", str(example1_soc), "--n-star", "20",
             "--k", "1,2", "--rule", "copeland", "--trials", "3", "--seed", "4")
    assert run(capsys, *sweep)[1] == run(capsys, *sweep, "--ties", "priority")[1]


def test_experiment_fail_on_true_tie(capsys):
    code, out, _ = run(capsys, "experiment", "min-k", "--rule", "copeland,maximin",
                       "--m", "4", "--n", "15", "--phi", "0.9", "--trials", "3", "--seed", "2",
                       "--ties", "fail-on-true-tie")
    assert code == 0 and len(out.splitlines()) == 3


def test_experiment_fail_on_true_tie_rejects_order_rules(capsys):
    for rule in ("rp", "stv"):
        code, _, err = run(capsys, "experiment", "success", "--rule", f"borda,{rule}",
                           "--k", "1", "--m", "4", "--n", "10", "--phi", "0.5",
                           "--trials", "2", "--seed", "1", "--ties", "fail-on-true-tie")
        assert code == 1 and rule in err


def test_experiment_unknown_ties_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(list(SUCCESS_ARGS) + ["--ties", "bogus"])
    assert err.value.code == 2


MALLOWS = ("--rule", "borda:zero,copeland", "--m", "4", "--trials", "3", "--seed", "5")
GRID = ((0.7, 20), (0.7, 30), (1.0, 20), (1.0, 30))  # --phi 0.7,1.0 --n 20,30


def mallows_cells(*cells):
    return [exp.MallowsSource(4, n, phi) for phi, n in cells]


def expected_csv(mode, sources, k_values=(1, 2, 3)):
    """write_csv of the concatenated rows of one config per cell's source."""
    rules = (parse_rule("borda:zero"), parse_rule("copeland"))
    rows = []
    for source in sources:
        rows += exp.run(mode, [exp.ExperimentConfig(source, rules, k_values, 3, 5)])
    buf = io.StringIO()
    exp.write_csv(rows, buf, exp.MODES[mode].columns)
    return buf.getvalue()


def test_experiment_success_grid_is_phi_outer_n_inner(capsys):
    code, out, _ = run(capsys, "experiment", "success", *MALLOWS, "--k", "1:3",
                       "--phi", "0.7,1.0", "--n", "20,30")
    assert code == 0
    assert out == expected_csv("success", mallows_cells(*GRID))


@pytest.mark.parametrize("mode", ["ratio", "min-k"])
def test_experiment_ratio_and_min_k_grid_over_n(capsys, mode):
    k = () if mode == "min-k" else ("--k", "1,2,3")
    code, out, _ = run(capsys, "experiment", mode, *MALLOWS, *k, "--phi", "0.8",
                       "--n", "20:30:10")
    assert code == 0
    assert out == expected_csv(mode, mallows_cells((0.8, 20), (0.8, 30)))


@pytest.mark.parametrize("mode", ["success", "ratio", "min-k"])
def test_experiment_single_cell_is_one_config(capsys, mode):
    k = () if mode == "min-k" else ("--k", "1,2,3")  # min-k reads every k in 1..m-1
    code, out, _ = run(capsys, "experiment", mode, *MALLOWS, *k, "--phi", "0.9", "--n", "25")
    assert code == 0
    assert out == expected_csv(mode, mallows_cells((0.9, 25)))


@pytest.mark.parametrize("mode", ["success", "ratio", "min-k", "real-sweep"])
def test_experiment_is_one_map_at_any_worker_count(capsys, monkeypatch, example1_soc, mode):
    # every cell's trials go to the pool in one map, not one map per cell
    calls = []
    map_trials = exp._map_trials
    monkeypatch.setattr(exp, "_map_trials", lambda fn, cfgs, workers: (
        calls.append(len(cfgs)) or map_trials(fn, cfgs, workers)))
    if mode == "real-sweep":
        argv = ("--rule", "borda:zero,copeland", "--trials", "3", "--seed", "5",
                "--data", str(example1_soc), "--n-star", "10,20,40,62")
        ds = truncvote.load(example1_soc)
        sources = [exp.PreflibSource(ds, n_star) for n_star in (10, 20, 40, 62)]
    else:
        argv = (*MALLOWS, "--phi", "0.7,1.0", "--n", "20,30")
        sources = mallows_cells(*GRID)
    k = () if mode == "min-k" else ("--k", "1:3")
    outs = []
    for workers in ("2", "1"):
        code, out, _ = run(capsys, "experiment", mode, *argv, *k, "--workers", workers)
        assert code == 0
        outs.append(out)
    assert calls == [4, 4]
    assert outs[0] == outs[1] == expected_csv(mode, sources)


def test_experiment_min_k_takes_no_k(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["experiment", "min-k", *MALLOWS, "--k", "1,2", "--phi", "0.9", "--n", "25"])
    assert stop.value.code == 2 and "--k" in capsys.readouterr().err


def test_experiment_rule_with_k_exits_1(capsys):
    code, out, err = run(capsys, "experiment", "success", "--rule", "borda@k=2", "--m", "4",
                         "--k", "1,3", "--n", "10", "--phi", "0.5", "--trials", "2", "--seed", "1")
    assert code == 1 and out == ""
    assert "borda@k=2:zero: experiment rules take no @k" in err and "--k" in err


SUCCESS_CELL = ("experiment", "success", "--rule", "borda", "--m", "4", "--trials", "2",
                "--seed", "1")


@pytest.mark.parametrize("argv, option", [
    (("bounds", "--rule", "borda:zero", "--m", "5:1", "--k", "2"), "--m"),
    (("bounds", "--rule", "borda:zero", "--m", "5", "--k", "1:5:0"), "--k"),
    (("bounds", "--rule", "borda:zero", "--m", "x", "--k", "2"), "--m"),
    (("bounds", "--rule", "borda:zero", "--m", "5", "--k", "1:2:3:4"), "--k"),
    (("bounds", "--rule", "borda:zero", "--m", ",", "--k", "2"), "--m"),
    (("bounds", "--rule", "borda:zero", "--csv", "--m", "5", "--k", "5:3"), "--k"),
    (("bounds", "--rule", "borda:zero", "--m", "4:5", "--k", "2"), "--m"),
    ((*SUCCESS_CELL, "--k", "3:1", "--n", "10", "--phi", "0.5"), "--k"),
    ((*SUCCESS_CELL, "--k", "1", "--n", "10:20:0", "--phi", "0.5"), "--n"),
    ((*SUCCESS_CELL, "--k", "1", "--n", "10", "--phi", "0.5:1.0"), "--phi"),
    ((*SUCCESS_CELL, "--k", "1", "--n", "10", "--phi", ""), "--phi"),
    (("experiment", "real-sweep", "--data", "unused.soi", "--n-star", "50:10", "--k", "1",
      "--rule", "borda", "--trials", "2", "--seed", "1"), "--n-star"),
    ((*SUCCESS_CELL, "--k", "1", "--n", "10", "--phi", "0.5", "--tiebreak", "x,y"), "--tiebreak"),
    (("winner", "--rule", "borda", "--profile", "unused.soc", "--tiebreak", "0,b"), "--tiebreak"),
    (("sample", "--m", "3", "--n", "5", "--phi", "0.5", "--seed", "-1"), "--seed"),
    (("experiment", "real-sweep", "--data", "unused.soi", "--n-star", "5", "--k", "1",
      "--rule", "borda", "--trials", "2", "--seed", "-2"), "--seed"),
])
def test_bad_list_exits_2_naming_the_option(capsys, argv, option):
    try:
        code = main(list(argv))
    except SystemExit as stop:
        code = stop.code
    err = capsys.readouterr().err
    assert code == 2 and option in err


@pytest.mark.parametrize("option, value", [
    ("--workers", "0"), ("--workers", "-3"), ("--workers", "two"),
    ("--trials", "0"), ("--trials", "-1"), ("--trials", "1.5"),
    ("--seed", "-1"), ("--seed", "x"),
])
def test_bad_count_exits_2_naming_the_option(capsys, option, value):
    argv = [*SUCCESS_CELL, "--k", "1", "--n", "10", "--phi", "0.5", option, value]
    with pytest.raises(SystemExit) as stop:
        main(argv)
    assert stop.value.code == 2 and option in capsys.readouterr().err


def test_zero_voters_rejected_before_any_trial(capsys):
    code, _, err = run(capsys, *SUCCESS_CELL, "--k", "1", "--n", "0", "--phi", "0.5",
                       "--workers", "2")
    assert code == 1 and "n must be >= 1" in err


@pytest.mark.parametrize("m", ["0", "-2"])
def test_sample_without_candidates_exits_1(capsys, m):
    code, out, err = run(capsys, "sample", "--m", m, "--n", "5", "--phi", "0.5", "--seed", "1")
    assert code == 1 and out == "" and f"m must be >= 1, got {m}" in err


@pytest.mark.parametrize("mode, k, m, phi, message", [
    ("success", ("--k", "1"), "4", "0.5,1.5", "phi must be in (0, 1], got 1.5"),
    ("success", ("--k", "1"), "0", "0.5", "m must be >= 1, got 0"),
    ("min-k", (), "1", "0.5", "no k in [1, m-1] for m = 1"),
], ids=["phi", "m", "no_k"])
def test_bad_mallows_cell_rejected_before_any_trial(capsys, monkeypatch, mode, k, m, phi,
                                                    message):
    monkeypatch.setattr(exp, "_map_trials", lambda *args: pytest.fail("a trial ran"))
    code, out, err = run(capsys, "experiment", mode, "--rule", "borda", "--m", m, *k,
                         "--n", "10", "--phi", phi, "--trials", "2", "--seed", "1")
    assert code == 1 and out == "" and message in err


@pytest.mark.parametrize("rule, cell, message", [
    ("approval5:avg", ("success", "--m", "5", "--n", "10", "--phi", "1", "--k", "1:4"),
     "approval5@k=1:avg: need head_1 > s_star"),
    ("approval6:avg", ("success", "--m", "5", "--n", "10", "--phi", "1", "--k", "2"),
     "approval6@k=2:avg: approval width must be in [1, m], got 6"),
    ("approval3:avg", ("real-sweep", "--n-star", "3", "--k", "1"),
     "approval3@k=1:avg: need head_1 > s_star"),
], ids=["mallows", "width", "real"])
def test_psr_without_a_valid_head_is_named_before_any_pool_starts(capsys, tmp_path, rule,
                                                                   cell, message):
    toy = tmp_path / "toy.soi"
    toy.write_text(TOY_MODERN, encoding="utf-8")
    data = ("--data", str(toy)) if cell[0] == "real-sweep" else ()
    exp.shutdown_pool()
    code, out, err = run(capsys, "experiment", *cell, *data, "--rule", f"borda,{rule}",
                         "--trials", "2", "--seed", "1", "--workers", "2")
    assert code == 1 and out == "" and message in err
    assert exp._pool is None


@pytest.mark.parametrize("n_star, message", [
    ("100,0", "n_star must be in [1, 120], got 0"),
    ("20,100000", "n_star must be in [1, 120], got 100000"),
], ids=["zero", "above_n"])
def test_bad_real_sweep_cell_rejected_before_any_trial(capsys, monkeypatch, tmp_path, n_star,
                                                       message):
    data = tmp_path / "sampled.soc"
    run(capsys, "sample", "--m", "4", "--n", "120", "--phi", "0.8", "--seed", "1",
        "--out", str(data))
    monkeypatch.setattr(exp, "_map_trials", lambda *args: pytest.fail("a trial ran"))
    code, out, err = run(capsys, "experiment", "real-sweep", "--data", str(data),
                         "--n-star", n_star, "--k", "1", "--rule", "borda", "--trials", "2",
                         "--seed", "1")
    assert code == 1 and out == "" and message in err
