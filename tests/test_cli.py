"""End-to-end tests of the command-line front end via main(argv)."""

import json

import pytest

from expander_bounds import (
    bollobas_eta,
    certificate_to_json,
    min_eta,
)
from expander_bounds.cli import main
from expander_bounds.graphlab import (
    brute_force_expansion,
    expansion_experiment,
    sample_pairing,
    summary_to_csv,
)


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

    path.write_text("{not json", encoding="utf-8")
    code, out, _ = run(capsys, "certify", "--file", str(path))
    assert code == 1
    assert out.splitlines()[0].startswith("malformed certificate:")
    assert out.splitlines()[-1] == "verdict: FAIL"

    code, _, err = run(capsys, "certify", "--file", str(tmp_path / "missing.json"))
    assert code == 2
    assert err.startswith("error: cannot read")


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
    code, out, _ = run(
        capsys,
        "simulate", "--delta", "3", "--n", "12", "--trials", "4",
        "--seed", "99", "--restarts", "2", "--format", "csv",
    )
    assert code == 0
    summary = expansion_experiment(3, 12, trials=4, seed=99, restarts=2)
    assert out == summary_to_csv(summary)


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


def test_margin_and_precision_validation(capsys):
    code, _, err = run(
        capsys, "bound", "--delta", "6", "--eta", "0.5", "--margin", "-1"
    )
    assert code == 2 and err.startswith("error:")
    code, _, err = run(
        capsys, "bound", "--delta", "6", "--eta", "0.5", "--precision", "0"
    )
    assert code == 2 and err.startswith("error:")


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
