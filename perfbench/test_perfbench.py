"""Tests of the benchmark's own machinery. No workload is run end to end."""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracer  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
REFERENCE = json.loads((HERE / "reference.json").read_text())


def test_self_times_subtract_children_and_folded_calls():
    spans = [
        Span("root", 0.0, -1, end=10.0),
        Span("a", 1.0, 0, end=4.0, folded_s=0.5),
        Span("b", 2.0, 1, end=3.0),
        Span("c", 3.5, 1, end=5.0),  # runs past its parent: only [3.5, 4] is covered
        Span("d", 6.0, 0, end=9.0),
        Span("e", 7.0, 4, end=8.0),
        Span("f", 7.5, 4, end=8.5),  # overlaps its sibling: the union is covered once
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.0, 1.0, 1.5, 1.5, 1.0, 1.0])


def test_self_times_of_nested_spans_sum_to_the_root():
    spans = [
        Span("root", 0.0, -1, end=8.0, folded_s=1.0),
        Span("a", 1.0, 0, end=5.0, folded_s=0.25),
        Span("b", 1.5, 1, end=2.0),
        Span("c", 2.0, 1, end=4.5),
        Span("d", 2.5, 3, end=3.0),
        Span("e", 6.0, 0, end=7.0),
    ]
    folded = sum(s.folded_s for s in spans)
    assert sum(self_times(spans)) + folded == pytest.approx(8.0)


def test_install_wraps_every_binding_and_restores_it():
    from expander_bounds import certifier, cli, side_solver

    original = side_solver.solve_side
    trace = Tracer()
    with tracer.install(trace):
        assert certifier.solve_side is side_solver.solve_side is not original
        t0 = tracer.clock()
        with trace.span(tracer.ROOT_SPAN):
            assert workloads.cli_call(cli, ["bound", "--delta", "6", "--eta", "0.7"])[0] == 0
        wall = tracer.clock() - t0
    assert certifier.solve_side is side_solver.solve_side is original
    m = tracer.layer_metrics(trace, swaps=0)
    assert m["cli.main.calls"] == 1 and m["side_solver.solve_side.calls"] > 0
    assert m["side_solver.solve_side.moment_calls"] > m["side_solver.solve_side.calls"]
    assert m["trace.self_sum_s"] == pytest.approx(wall, rel=0.05)


def _table_stdout(ref: dict, eta_shift: float = 0.0, rhs_shift: float = 0.0) -> str:
    docs = []
    for d in workloads.TABLE_DEGREES:
        pairs = [{"d": int(p.split("/")[0]), "d_prime": int(p.split("/")[1]),
                  "vacuous": False, "rhs": format(rhs + rhs_shift * (d == 9), ".16e")}
                 for p, rhs in ref["rhs"][str(d)].items()]
        eta = ref["eta"][str(d)] + eta_shift * (d == 7)
        docs.append({"delta": d, "eta": format(eta, ".16e"), "pair_bounds": pairs})
    return json.dumps(docs, indent=2)


def test_table_check_flags_a_perturbed_eta_and_rhs():
    ref = REFERENCE["table"]["table"]
    assert workloads.check_table((0, _table_stdout(ref)), ref) == []
    assert workloads.check_table((0, _table_stdout(ref, rhs_shift=1e-6)), ref) == []
    assert workloads.check_table((0, _table_stdout(ref, eta_shift=1e-3)), ref)
    assert workloads.check_table((0, _table_stdout(ref, eta_shift=1e-15)), ref)
    assert workloads.check_table((0, _table_stdout(ref, rhs_shift=1e-4)), ref)


def test_certify_check_flags_a_fail_verdict():
    assert workloads.check_certify((0, "ok   delta-valid\nverdict: PASS\n")) == []
    assert workloads.check_certify((1, "FAIL pairs-exhaustive: x\nverdict: FAIL\n"))
    assert workloads.check_certify((0, "verdict: FAIL\n"))


def test_lab_check_flags_a_changed_byte():
    text = "delta,n,seed\n3,20,0\n"
    want = {"lab": {"0": {"oracle": workloads.sha256(text)}}}
    run = workloads.Run(ops=[workloads.Op("oracle", (0, text))])
    assert workloads.check("lab", 0, run, want) == []
    assert workloads.check("lab", workloads.LAB_SEEDS, run, want) == []
    run.ops[0].value = (0, text.replace("20", "21"))
    assert [op for op, _ in workloads.check("lab", 0, run, want)] == ["oracle"]


def test_raised_operations_count_as_failed():
    run = workloads.Run(ops=[workloads.Op("trend", error="ValueError: boom")])
    assert workloads.check("large-degree", 0, run, REFERENCE) == [("trend", "ValueError: boom")]


def test_metric_names_are_well_formed_and_all_measured():
    measured = set(tracer.layer_metrics(Tracer(), swaps=0)) | {
        "trace.traced_wall_s", "trace.self_coverage", "trace.untraced_wall_s", "trace.overhead"}
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in SPEC[group]]
        assert len(names) == len(set(names))
        assert all(NAME.match(n) for n in names), names
    assert {m["name"] for m in SPEC["per_layer"]} <= measured
    assert {m["name"] for m in SPEC["end_to_end"]} == {"setup_s", "wall_s", "peak_rss_mb"}
    assert all(NAME.match(n) for n in measured)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


class _Recorder:
    """Stands in for the package modules and records every input it is handed."""

    def __init__(self):
        self.inputs = []

    def main(self, argv):
        self.inputs.append(("cli", tuple(argv)))
        if argv[0] == "certify":
            self.inputs.append(("file", Path(argv[-1]).read_text()))
        if argv[0] == "table":
            print(json.dumps([{"delta": d, "eta": "0.5"} for d in workloads.TABLE_DEGREES]))
        return 0

    def solve_one_sided(self, delta, eta):
        self.inputs.append(("one_sided", delta, eta))
        return SimpleNamespace(gamma=1.0)

    def sample_pairing(self, delta, n, seed):
        self.inputs.append(("sample_pairing", delta, n, seed))
        return "graph"

    def cut_state(self, graph, half):
        self.inputs.append(("cut_state", graph, hash(frozenset(half))))


def _inputs(workload: str, seed: int, scratch: Path) -> list:
    rec = _Recorder()
    pkg = {"cli": rec, "asymptotics": rec, "graphlab": rec, "certifier": rec}
    run = workloads.body(workload, seed, pkg, scratch)
    assert all(op.error is None for op in run.ops)
    return rec.inputs


def test_seed_changes_only_the_lab_inputs(tmp_path):
    for workload in ("table", "large-degree"):
        assert _inputs(workload, 1, tmp_path) == _inputs(workload, 2, tmp_path)
    assert _inputs("lab", 1, tmp_path) != _inputs("lab", 2, tmp_path)
    assert _inputs("lab", 1, tmp_path) == _inputs("lab", 1 + workloads.LAB_SEEDS, tmp_path)


def test_each_lab_seed_has_its_own_reference_outputs():
    lab = REFERENCE["lab"]
    assert sorted(lab, key=int) == [str(s) for s in range(workloads.LAB_SEEDS)]
    for op in ("simulate_best", "simulate_first", "oracle", "sample_pairing", "cut_state"):
        assert len({lab[s][op] for s in lab}) == workloads.LAB_SEEDS, op
