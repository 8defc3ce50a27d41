"""End-to-end tests of the command-line front end via main(argv)."""

import contextlib
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from expander_bounds import (
    bollobas_eta,
    certificate_to_json,
    cli,
    graphlab,
    min_eta,
)
from expander_bounds.cli import main
from expander_bounds.graphlab import (
    brute_force_expansion,
    expansion_experiment,
    sample_pairing,
)
from test_graphlab import SIMULATE_ARGV, SIMULATE_GOLDEN_CSV


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bound_certified(capsys):
    code, out, err = run(capsys, "bound", "--delta", "6", "--eta", "0.648")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "# growth exponents delta=6 eta=0.648"
    assert lines[-1] == "verdict: certified"
    assert any("infeasible at this eta" in l for l in lines)  # the (1,5) pair
    assert all("NON-NEGATIVE" not in l for l in lines)


def test_bound_not_certified(capsys):
    code, out, _ = run(capsys, "bound", "--delta", "6", "--eta", "0.64")
    assert code == 1
    assert "NON-NEGATIVE" in out
    assert out.splitlines()[-1] == "verdict: not certified"


def test_bound_infeasible_everywhere(capsys):
    code, out, _ = run(capsys, "bound", "--delta", "6", "--eta", "0.0")
    assert code == 1
    lines = out.splitlines()
    assert all("infeasible at this eta" in l for l in lines[1:-1])
    assert lines[-1] == "verdict: not certified"


def test_bound_json_and_csv(capsys):
    code, out, _ = run(
        capsys, "bound", "--delta", "6", "--eta", "0.648", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["delta"] == 6 and doc["certified"] is True
    assert [p["d"] for p in doc["pairs"]] == [3, 2, 1]
    assert doc["pairs"][2]["feasible"] is False and doc["pairs"][2]["rhs"] is None
    code, out, _ = run(
        capsys, "bound", "--delta", "6", "--eta", "0.648", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "delta,eta,d,d_prime,feasible,rhs"
    assert lines[3] == "6,0.648,1,5,false,"


def test_table_text_and_csv(capsys):
    code, out, _ = run(capsys, "table", "--delta-min", "4", "--delta-max", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# bounds table delta=4..6 margin=1.0e-03 precision=3"
    heads = [l for l in lines if l.startswith("delta=")]
    assert len(heads) == 3
    assert heads[0].startswith("delta=4 eta=0.")
    assert "worst_pair=" in heads[0]

    code, out, _ = run(
        capsys, "table", "--delta-min", "4", "--delta-max", "6", "--format", "csv"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "delta,eta,bound,baseline_eta,baseline_bound,"
        "d,d_prime,vacuous,rhs,beta,gamma,beta_prime,gamma_prime"
    )
    # one row per pair: delta 4 and 5 have two pairs each, delta 6 has three
    assert len(lines) == 1 + 2 + 2 + 3
    assert all(len(l.split(",")) == 13 for l in lines)
    vacuous = [l for l in lines if ",true," in l]
    assert len(vacuous) == 1 and vacuous[0].startswith("6,")
    assert vacuous[0].endswith(",1,5,true,,,,,")


def test_table_output_is_reproducible(capsys):
    args = ("table", "--delta-min", "4", "--delta-max", "8", "--format", "json")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    docs = json.loads(first)
    assert [d["delta"] for d in docs] == [4, 5, 6, 7, 8]
    assert all(d["schema"] == "cert-v1" for d in docs)


def test_table_validation(capsys):
    code, out, err = run(capsys, "table", "--delta-min", "2", "--delta-max", "4")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_table_no_bound_exit(capsys):
    code, _, err = run(
        capsys, "table", "--delta-min", "3", "--delta-max", "3", "--margin", "10.0"
    )
    assert code == 1
    assert err.startswith("no bound:")


def test_rejected_certificates_exit_1_and_name_their_failed_checks(capsys):
    # Degrees whose certificate the verifier rejects (beta goes subnormal at
    # delta = 402; delta = 406 certifies above its baseline): table still
    # prints the certificate, byte for byte, and trend prints nothing.
    code, out, err = run(capsys, "table", "--delta-min", "402", "--delta-max", "402")
    assert code == 1
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == "0ab723c35c7d073b"
    assert err.startswith("rejected: delta=402 fails ")
    assert "pair-185-217-side-mass-residual" in err.split(", ")[0]
    code, out, err = run(capsys, "trend", "--deltas", "406")
    assert code == 1 and out == ""
    assert err.startswith("no bound: certificate for delta=406 fails ")
    assert "improves-on-baseline" in err
    # delta = 100's point is computed before 406 fails: nothing reaches stdout
    code, out, err = run(capsys, "trend", "--deltas", "100", "406")
    assert code == 1 and out == ""
    assert err.startswith("no bound: certificate for delta=406 fails ")


def test_certify_pass_tamper_and_malformed(tmp_path, capsys):
    path = tmp_path / "cert.json"
    text = certificate_to_json(min_eta(5))
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "certify", "--file", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "verdict: PASS"
    assert all(l.startswith(("#", "ok   ")) for l in lines[:-1])

    doc = json.loads(text)
    doc["expansion_bound"] = "1.2500000000000000e+00"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run(capsys, "certify", "--file", str(path))
    assert code == 1
    assert "FAIL expansion-bound-consistent" in out
    assert out.splitlines()[-1] == "verdict: FAIL"

    # A huge gamma overflows the residual weights: the verdict names the
    # failed checks, and numpy's overflow warning must not reach stderr.
    doc = json.loads(certificate_to_json(min_eta(6)))
    doc["pair_bounds"][0]["side"]["gamma"] = "1e308"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "certify", "--file", str(path))
    assert (code, err) == (1, "")
    assert [l.split(":")[0] for l in out.splitlines() if l.startswith("FAIL")] == [
        "FAIL pair-3-3-side-mass-residual",
        "FAIL pair-3-3-side-mean-residual",
        "FAIL pair-3-3-side-residual-fields-match",
        "FAIL pair-3-3-rhs-negative-with-margin",
        "FAIL pair-3-3-rhs-matches",
    ]
    assert out.splitlines()[-1] == "verdict: FAIL"

    # a delta no double can hold fails delta-valid instead of overflowing
    doc = json.loads(certificate_to_json(min_eta(6)))
    doc["delta"] = 10**400
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "certify", "--file", str(path))
    assert (code, err) == (1, "")
    assert [l.split(":")[0] for l in out.splitlines() if l.startswith("FAIL")] == [
        "FAIL delta-valid"]
    assert out.splitlines()[-1] == "verdict: FAIL"

    path.write_text("{not json", encoding="utf-8")
    code, out, _ = run(capsys, "certify", "--file", str(path))
    assert code == 1
    assert out.splitlines()[0].startswith("malformed certificate:")
    assert out.splitlines()[-1] == "verdict: FAIL"

    code, _, err = run(capsys, "certify", "--file", str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("error: cannot read")


def test_certify_fails_a_cap_above_the_degree(tmp_path, capsys):
    doc = json.loads(certificate_to_json(min_eta(6)))
    doc["pair_bounds"][0]["d"] = doc["pair_bounds"][0]["side"]["cap"] = 9
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "certify", "--file", str(path))
    assert (code, err) == (1, "")
    assert "FAIL pair-9-3-side-parameters-in-range" in out
    assert out.splitlines()[-1] == "verdict: FAIL"


def test_certify_csv_format(tmp_path, capsys):
    path = tmp_path / "cert.json"
    path.write_text(certificate_to_json(min_eta(4)), encoding="utf-8")
    code, out, _ = run(capsys, "certify", "--file", str(path), "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "name,passed,detail"
    assert all(l.split(",")[1] == "true" for l in lines[1:])


def test_baseline_formats(capsys):
    code, out, _ = run(capsys, "baseline", "--delta", "3")
    assert code == 0
    assert "note: for delta=3, stronger bounds are known from other methods" in out
    code, out, _ = run(capsys, "baseline", "--delta", "9", "--format", "csv")
    assert code == 0
    eta, bound = bollobas_eta(9)
    assert out.splitlines() == ["delta,eta,bound", f"9,{eta:.3f},2.0655"]
    code, out, _ = run(capsys, "baseline", "--delta", "9", "--format", "json")
    doc = json.loads(out)
    assert doc == {"delta": 9, "eta": eta, "bound": bound}
    code, _, err = run(capsys, "baseline", "--delta", "2")
    assert code == 2 and err.startswith("error:")


def test_trend_formats(capsys):
    code, out, _ = run(capsys, "trend", "--deltas", "6", "10")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# alpha trend (reference constant 1.66511)"
    assert lines[1].startswith("delta=6 eta=0.")
    assert lines[2].startswith("delta=10 eta=0.")
    code, out, _ = run(capsys, "trend", "--deltas", "6", "--format", "csv")
    lines = out.splitlines()
    assert lines[0] == "delta,eta,alpha,gamma,theta,p1"
    assert lines[1].startswith("6,0.")
    code, _, err = run(capsys, "trend", "--deltas", "7")
    assert code == 2 and err.startswith("error:")


def test_simulate_csv_matches_library(capsys):
    code, out, _ = run(capsys, *SIMULATE_ARGV, "--format", "csv")
    assert code == 0
    assert out == SIMULATE_GOLDEN_CSV
    summary = expansion_experiment(3, 12, trials=4, seed=99, restarts=2)
    for r, line in zip(summary.records, out.splitlines()[1:], strict=True):
        e = r.expansion
        assert line.split(",") == [
            str(x) for x in (r.index, 12, 3, e.numerator, e.denominator,
                             r.d, r.d_prime, r.swaps, 2)
        ]


def test_simulate_text_summary(capsys):
    code, out, _ = run(
        capsys,
        "simulate", "--delta", "3", "--n", "12", "--trials", "4",
        "--seed", "99", "--restarts", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# expansion experiment delta=3 n=12")
    assert lines[-1] == "summary: certified_bound=0.187500 met_in=1.000 flagged=[]"


def test_oracle_agrees_with_library(capsys):
    code, out, _ = run(capsys, "oracle", "--delta", "3", "--n", "8", "--seed", "1")
    assert code == 0
    value, argmin = brute_force_expansion(sample_pairing(3, 8, 1))
    lines = out.splitlines()
    assert lines[1] == (
        f"i(G) = {value.numerator}/{value.denominator} = {float(value):.6f}"
    )
    assert lines[2] == f"argmin S = {list(argmin)}"


def test_oracle_refuses_impossible_simple_graph(capsys):
    # no simple 4-regular graph on 4 vertices: diagnosed before any sampling
    code, out, err = run(capsys, "oracle", "--delta", "4", "--n", "4", "--simple")
    assert code == 2 and out == ""
    assert err.startswith("error: no simple 4-regular graph has 4 vertices")


def test_oracle_refuses_negative_seed(capsys):
    # random.Random(-1) seeds as random.Random(1): the oracle would print
    # seed 1's graph under seed=-1
    code, out, err = run(capsys, "oracle", "--delta", "3", "--n", "4", "--seed", "-1")
    assert code == 2 and out == ""
    assert err.startswith("error: seed must be 0 or more; -1 would repeat seed 1")
    # simulate derives a distinct seed per trial, negative seeds included
    code, out, err = run(capsys, "simulate", "--delta", "3", "--n", "10", "--trials", "1",
                         "--seed", "-1")
    assert code == 0 and err == "" and " seed=-1 " in out


def test_simulate_refuses_hopeless_simple_request(monkeypatch, capsys):
    # a 10-regular pairing is simple with probability about 2e-11: refused
    # before sampling instead of after 100,000 rejected attempts
    def no_sampling(rng, num_points):
        raise AssertionError("sampled a pairing")

    monkeypatch.setattr(graphlab, "_raw_matching", no_sampling)
    code, out, err = run(
        capsys, "simulate", "--delta", "10", "--n", "1000", "--trials", "1", "--simple"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: a 10-regular pairing is simple with probability")


def test_oracle_reports_spent_simple_attempts(monkeypatch, capsys):
    # a feasible --simple request that uses up the rejection attempts is an
    # error line and exit 2, as the up-front refusals are, not a traceback
    monkeypatch.setattr(graphlab, "_SIMPLE_ATTEMPT_LIMIT", 1)
    code, out, err = run(capsys, "oracle", "--delta", "3", "--n", "4", "--seed", "0", "--simple")
    assert (code, out) == (2, "")
    assert err == "error: no simple graph found in 1 attempts (delta=3, n=4)\n"


def test_margin_and_precision_validation(capsys):
    code, _, err = run(
        capsys, "table", "--delta-min", "4", "--delta-max", "4", "--margin", "-1"
    )
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "trend", "--deltas", "6", "--precision", "0")
    assert code == 2 and err.startswith("error:")
    # a grid of 10**309 is not a double: a usage error, not a traceback
    for argv in (("table", "--delta-min", "4", "--delta-max", "4"),
                 ("trend", "--deltas", "6"), ("baseline", "--delta", "9")):
        code, _, err = run(capsys, *argv, "--precision", "309")
        assert code == 2 and err == "error: precision must be at most 308\n", argv
    # only table, trend and baseline read these; elsewhere they are not options
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--delta", "3", "--n", "8", "--margin", "1"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--delta", "6", "--eta", "0.5", "--precision", "3"])
    assert exc.value.code == 2


def test_missing_arguments_exit_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--delta", "6"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--delta", "3", "--n", "12"])
    assert exc.value.code == 2


def test_shared_parser_formats_errors_at_call_time(monkeypatch, capsys):
    # The parser is built once per process; an argparse error must still be
    # wrapped to the COLUMNS of the call, as a fresh parser would wrap it.
    argv = ["table", "--delta-min", "4"]

    def error_text(fresh):
        if fresh:
            cli._build_parser.cache_clear()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return capsys.readouterr().err

    monkeypatch.setenv("COLUMNS", "40")
    narrow = error_text(fresh=True)
    monkeypatch.setenv("COLUMNS", "80")
    shared = error_text(fresh=False)
    assert shared == error_text(fresh=True)
    assert shared != narrow


def test_options_do_not_leak_into_the_next_call(capsys):
    assert main(["table", "--delta-min", "10", "--delta-max", "10", "--margin", "1e-6",
                 "--precision", "4"]) == 0
    assert "margin=1.0e-06 precision=4" in capsys.readouterr().out
    assert main(["table", "--delta-min", "10", "--delta-max", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "# bounds table delta=10..10 margin=1.0e-03 precision=3"
    # the default margin certifies 0.508 at delta = 10, the tight one 0.507
    assert lines[1].startswith("delta=10 eta=0.508 ")


# Byte fingerprints of every command in every format, and of the error paths:
# argv -> (exit code, sha256 of stdout, sha256 of stderr), each digest cut to
# its first 16 hex digits (EMPTY is the digest of no output). Certificate
# paths are relative to a scratch working directory holding the files
# `_write_certificates` makes, so the bytes do not depend on where the test
# runs.
EMPTY = "e3b0c44298fc1c14"
FINGERPRINTS = {
    "table --delta-min 4 --delta-max 6": (0, "1a494df145ee7d90", EMPTY),
    "table --delta-min 4 --delta-max 6 --format csv": (0, "7eb7b13e3025a6ae", EMPTY),
    "table --delta-min 4 --delta-max 6 --format json": (0, "965b4815237ca41f", EMPTY),
    "table --delta-min 7 --delta-max 7 --margin 1e-6 --precision 4":
        (0, "ab7d33fc76da09e4", EMPTY),
    "table --delta-min 7 --delta-max 7 --margin 1e-6 --precision 4 --format csv":
        (0, "4885b3575b113049", EMPTY),
    "table --delta-min 7 --delta-max 7 --margin 1e-6 --precision 4 --format json":
        (0, "d006c3bafa2f6f81", EMPTY),
    "table --delta-min 3 --delta-max 3 --margin 10.0": (1, EMPTY, "4199959fac2d425a"),
    "table --delta-min 3 --delta-max 3 --margin 10.0 --format json":
        (1, EMPTY, "4199959fac2d425a"),
    "table --delta-min 2 --delta-max 4 --format csv": (2, EMPTY, "c1e8daa428980c30"),
    "table --delta-min 4 --delta-max 4 --margin -1": (2, EMPTY, "e7c36e7988d7a6d4"),
    "table --delta-min 4 --delta-max 4 --margin 0 --format json":
        (2, EMPTY, "e7c36e7988d7a6d4"),
    "table --delta-min 4 --delta-max 4 --precision 0 --format csv":
        (2, EMPTY, "12ba52bd19840fba"),
    "table --delta-min 4": (2, EMPTY, "8c3af22fb9014ac8"),
    "table --delta-min 4 --delta-max 6 --format xml": (2, EMPTY, "1159f8440e0cb9ea"),
    "bound --delta 6 --eta 0.648": (0, "6256f73e1e258f11", EMPTY),
    "bound --delta 6 --eta 0.648 --format csv": (0, "6b53c8456651b42b", EMPTY),
    "bound --delta 6 --eta 0.648 --format json": (0, "9f4ae0b46f580272", EMPTY),
    "bound --delta 6 --eta 0.64": (1, "27de91363fc9b354", EMPTY),
    "bound --delta 6 --eta 0.64 --format csv": (1, "020030588f44af1f", EMPTY),
    "bound --delta 6 --eta 0.64 --format json": (1, "f1d74b7d069db1c1", EMPTY),
    "bound --delta 6 --eta 0.0": (1, "c064c262c98fba48", EMPTY),
    "bound --delta 6 --eta 0.0 --format json": (1, "758b039b0c099927", EMPTY),
    "bound --delta 1 --eta 0.5": (2, EMPTY, "e475a3300cd95692"),
    "bound --delta 6 --eta 1.0 --format csv": (2, EMPTY, "b2c74031d595e7d8"),
    "certify --file pass.json": (0, "b1cb13c038affdab", EMPTY),
    "certify --file pass.json --format csv": (0, "c874979a6ce4d2f5", EMPTY),
    "certify --file pass.json --format json": (0, "7c8da0068e273328", EMPTY),
    "certify --file tampered.json": (1, "8003cd199e8099c8", EMPTY),
    "certify --file tampered.json --format csv": (1, "967a7c4cb380ab2c", EMPTY),
    "certify --file tampered.json --format json": (1, "2b25cb482daaa331", EMPTY),
    "certify --file malformed.json": (1, "9a1e9a1027d811c4", EMPTY),
    "certify --file malformed.json --format csv": (1, "9a1e9a1027d811c4", EMPTY),
    "certify --file malformed.json --format json": (1, "9a1e9a1027d811c4", EMPTY),
    "certify --file missing.json": (2, EMPTY, "db89591770eb12c5"),
    "certify --file missing.json --format json": (2, EMPTY, "db89591770eb12c5"),
    "baseline --delta 3": (0, "317e669d83bdcb4b", EMPTY),
    "baseline --delta 3 --format csv": (0, "a0dca6b43f532080", EMPTY),
    "baseline --delta 3 --format json": (0, "d062a1253020d76e", EMPTY),
    "baseline --delta 9 --precision 5": (0, "5cf88923b816de61", EMPTY),
    "baseline --delta 9 --precision 5 --format csv": (0, "53c4bb7a0ac96496", EMPTY),
    "baseline --delta 9 --precision 5 --format json": (0, "8cf368004e1f2b0d", EMPTY),
    "baseline --delta 2": (2, EMPTY, "bcc53a976dee0e47"),
    "baseline --delta 9 --precision 0": (2, EMPTY, "12ba52bd19840fba"),
    "trend --deltas 6 10": (0, "6ef5bf264b98b640", EMPTY),
    "trend --deltas 6 10 --format csv": (0, "6b18c4a5203920db", EMPTY),
    "trend --deltas 6 10 --format json": (0, "705445e9f8980c8f", EMPTY),
    "trend --deltas 8 --margin 1e-6 --precision 4": (0, "26284f520666e959", EMPTY),
    "trend --deltas 8 --margin 1e-6 --precision 4 --format csv":
        (0, "d6eeddb08e12e693", EMPTY),
    # theta's ln C(8, 4) is read off the binomial row, 1 ulp off the direct
    # sum the pin was taken with: theta 0.032962143995103985 -> ...396
    "trend --deltas 8 --margin 1e-6 --precision 4 --format json":
        (0, "10d8bd8811691ca4", EMPTY),
    "trend --deltas 100 200 400": (0, "180f604e54f0598f", EMPTY),
    "trend --deltas 100 200 400 --format csv": (0, "07597ca6065225ea", EMPTY),
    "trend --deltas 100 200 400 --format json": (0, "27f9dad24f4f405d", EMPTY),
    "trend --deltas 7": (2, EMPTY, "9b0e2ad2323eb223"),
    "trend --deltas 6 --margin -1 --format csv": (2, EMPTY, "e7c36e7988d7a6d4"),
    "trend --deltas 6 --precision 0": (2, EMPTY, "12ba52bd19840fba"),
    "simulate --delta 3 --n 12 --trials 4 --seed 99 --restarts 2":
        (0, "81c2d7a63a3db162", EMPTY),
    "simulate --delta 3 --n 12 --trials 4 --seed 99 --restarts 2 --format csv":
        (0, "2a6be0b505839c7e", EMPTY),
    "simulate --delta 3 --n 12 --trials 4 --seed 99 --restarts 2 --format json":
        (0, "d07c8de07abcd380", EMPTY),
    "simulate --delta 4 --n 10 --trials 3 --seed 2 --simple"
    " --tie-rule first-improvement":
        (0, "0a9bde92193cc8bc", EMPTY),
    "simulate --delta 4 --n 10 --trials 3 --seed 2 --simple"
    " --tie-rule first-improvement --format csv":
        (0, "b1bcf6602b71bfb1", EMPTY),
    "simulate --delta 4 --n 10 --trials 3 --seed 2 --simple"
    " --tie-rule first-improvement --format json":
        (0, "d35b88733073e883", EMPTY),
    "simulate --delta 2 --n 8 --trials 2 --seed 1": (0, "427cc402ed879b98", EMPTY),
    "simulate --delta 2 --n 8 --trials 2 --seed 1 --format csv":
        (0, "e3dc5866b75837b9", EMPTY),
    "simulate --delta 2 --n 8 --trials 2 --seed 1 --format json":
        (0, "0c72a08d673b5498", EMPTY),
    "simulate --delta 3 --n 1 --trials 2": (2, EMPTY, "2043f9cbc95868cd"),
    "oracle --delta 3 --n 8 --seed 1": (0, "78fa3ec061754756", EMPTY),
    "oracle --delta 3 --n 8 --seed 1 --format csv": (0, "bdcf386f403c0b9d", EMPTY),
    "oracle --delta 3 --n 8 --seed 1 --format json": (0, "b799deb1a4e258e9", EMPTY),
    "oracle --delta 4 --n 7 --seed 3 --simple": (0, "3be6ee0cae4fd95c", EMPTY),
    "oracle --delta 4 --n 7 --seed 3 --simple --format csv":
        (0, "e3a886be12f662b2", EMPTY),
    "oracle --delta 4 --n 7 --seed 3 --simple --format json":
        (0, "735fdcfce2305eb4", EMPTY),
    "oracle --delta 4 --n 4 --simple": (2, EMPTY, "2746a028d50d4ce3"),
    "oracle --delta 3 --n 30 --format json": (2, EMPTY, "fca974b96e19bb05"),
}


# sha256 of the paper's table as JSON. The search's screen and refine must not
# move a byte: the certificates are those its solved verdicts give. The JSON
# prints each witness to 17 digits, which come from the root finder's last
# iterate; its csv and text renderings, rounded to 5 and 6 digits, are the
# ones the bracketed Brent solve printed.
PAPER_TABLE_ARGV = "table --delta-min 4 --delta-max 60 --margin 1e-6 --format json"
PAPER_TABLE_SHA256 = "25b8fd5111961ab6234a6a13f5bed051d58f848e7c1ce7312fdb304177bf6cbb"


def test_paper_table_bytes_are_pinned(capsys):
    assert main(PAPER_TABLE_ARGV.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == PAPER_TABLE_SHA256


class _HashingSink:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def test_paper_table_json_streams_in_bounded_memory():
    # A JSON run encodes its 0.31 MB document chunk by chunk and builds no csv
    # rows or text lines; joining the whole encoding and building both as
    # well peaks at about 3.1 MB.
    sink = _HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(PAPER_TABLE_ARGV.split())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert sink.sha.hexdigest() == PAPER_TABLE_SHA256
    assert peak < 2.0e6, f"tracemalloc peak {peak / 1e6:.2f} MB"


def test_text_and_csv_never_build_the_json_document(monkeypatch, capsys):
    def no_document(cert):
        raise AssertionError("built a JSON document")

    monkeypatch.setattr(cli, "certificate_to_dict", no_document)
    for argv in ("table --delta-min 4 --delta-max 6",
                 "table --delta-min 4 --delta-max 6 --format csv"):
        assert _fingerprint(capsys, argv) == FINGERPRINTS[argv]


def test_a_reader_that_stops_early_leaves_the_verdict():
    # `expander-cert ... | head` with stdout block-buffered, as in a shell: the
    # reader closes the pipe while the table streams, or before baseline's
    # one line is flushed
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parents[1])
    for argv, head in ((PAPER_TABLE_ARGV, 10), (PAPER_TABLE_ARGV.replace("json", "text"), 10),
                       ("baseline --delta 9", 0)):
        child = subprocess.Popen([sys.executable, "-m", "expander_bounds.cli", *argv.split()],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            assert len(child.stdout.read(head)) == head
            child.stdout.close()
            err = child.stderr.read()
            assert (child.wait(timeout=60), err) == (0, b""), argv
        finally:
            child.kill()
            child.stderr.close()


def _write_certificates(directory):
    text = certificate_to_json(min_eta(5))
    (directory / "pass.json").write_text(text, encoding="utf-8")
    doc = json.loads(text)
    doc["expansion_bound"] = "1.2500000000000000e+00"
    (directory / "tampered.json").write_text(json.dumps(doc), encoding="utf-8")
    (directory / "malformed.json").write_text("{not json", encoding="utf-8")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _fingerprint(capsys, argv):
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, _digest(captured.out), _digest(captured.err)


def test_stdout_fingerprints(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    _write_certificates(tmp_path)
    got = {argv: _fingerprint(capsys, argv) for argv in FINGERPRINTS}
    assert got == FINGERPRINTS
