import hashlib
import io

import pytest

from truncvote import experiments as exp
from truncvote import parse_rule
from truncvote.cli import main

from conftest import EXAMPLE1_CLASSIC


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


def test_winner_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "winner", "--rule", "borda", "--profile", "no-such-file")
    assert code == 2 and "error" in err


def test_winner_bad_rule_exits_2(capsys, example1_soc):
    code, _, err = run(capsys, "winner", "--rule", "bogus", "--profile", str(example1_soc))
    assert code == 2 and "error" in err


def test_winner_domain_error_exits_1(capsys, example1_soc):
    # tie-break priority of the wrong length is a domain error, not usage
    code, _, err = run(capsys, "winner", "--rule", "borda", "--profile", str(example1_soc),
                       "--tiebreak", "0,1,2")
    assert code == 1 and "error" in err


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
    ("harmonic:avg", "986758322c4c9c29ad0f649b098acfec421d8a4574401e70f60f1f79b006f833"),
    ("maximin", "328270418a55ddad2dd09275bef235ea15bbe6518386f88b54a11809598aa2c5"),
    ("copeland", "d217558d3af309e7b580ddb5447d1ebab8466caec02d0f231ca28bf08f7ac831"),
])
def test_bounds_witness_output_bytes_are_pinned(capsys, rule, digest):
    # every witness profile of m = 4..8 passes through the ballot check
    code, out, _ = run(capsys, "bounds", "--rule", rule, "--m", "4:8", "--k", "1:7", "--csv",
                       "--attained")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_bounds_unsupported_rule_exits_1(capsys):
    code, _, err = run(capsys, "bounds", "--rule", "stv", "--m", "4", "--k", "2")
    assert code == 1 and "error" in err


def test_adversarial_command(capsys, tmp_path):
    out_file = tmp_path / "adv.soc"
    code, out, _ = run(capsys, "adversarial", "--rule", "maximin", "--m", "5", "--k", "2",
                       "--out", str(out_file))
    assert code == 0
    assert out.strip() == "x1=0 x2=1 k=2 ratio=3"
    code, out, _ = run(capsys, "parse-check", str(out_file))
    assert code == 0 and out.strip() == "m=5 n=5 unique_ballots=5"


def test_adversarial_copeland_reports_inf(capsys):
    code, out, _ = run(capsys, "adversarial", "--rule", "copeland", "--m", "5", "--k", "2")
    assert code == 0 and "ratio=inf" in out


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


def expected_csv(run, columns, cells, k_values=(1, 2, 3)):
    """write_csv of the concatenated rows of one config per (phi, n) cell."""
    rules = (parse_rule("borda:zero"), parse_rule("copeland"))
    rows = []
    for phi, n in cells:
        cfg = exp.ExperimentConfig(exp.MallowsSource(4, n, phi), rules, k_values, 3, 5)
        rows += run(cfg)
    buf = io.StringIO()
    exp.write_csv(rows, buf, columns)
    return buf.getvalue()


def test_experiment_success_grid_is_phi_outer_n_inner(capsys):
    code, out, _ = run(capsys, "experiment", "success", *MALLOWS, "--k", "1:3",
                       "--phi", "0.7,1.0", "--n", "20,30")
    assert code == 0
    assert out == expected_csv(exp.run_success_rate, exp.SUCCESS_COLUMNS,
                               [(0.7, 20), (0.7, 30), (1.0, 20), (1.0, 30)])


@pytest.mark.parametrize("mode, fn, columns, k", [
    ("ratio", exp.run_ratio, exp.RATIO_COLUMNS, ("--k", "1,2,3")),
    ("min-k", exp.min_k_search, exp.MIN_K_COLUMNS, ()),
])
def test_experiment_ratio_and_min_k_grid_over_n(capsys, mode, fn, columns, k):
    code, out, _ = run(capsys, "experiment", mode, *MALLOWS, *k, "--phi", "0.8",
                       "--n", "20:30:10")
    assert code == 0
    assert out == expected_csv(fn, columns, [(0.8, 20), (0.8, 30)])


@pytest.mark.parametrize("mode, fn, columns", [
    ("success", exp.run_success_rate, exp.SUCCESS_COLUMNS),
    ("ratio", exp.run_ratio, exp.RATIO_COLUMNS),
    ("min-k", exp.min_k_search, exp.MIN_K_COLUMNS),
])
def test_experiment_single_cell_is_one_config(capsys, mode, fn, columns):
    code, out, _ = run(capsys, "experiment", mode, *MALLOWS, "--k", "1,2,3",
                       "--phi", "0.9", "--n", "25")
    assert code == 0
    assert out == expected_csv(fn, columns, [(0.9, 25)])


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
