"""The three workloads, the operations they run, and the checks on their outputs.

Each workload drives ``expander-cert`` commands in-process through
``expander_bounds.cli.main(argv)`` with stdout captured, and calls the library
directly only where no command exists. Module attributes are looked up at
call time (``cli.main``, ``asymptotics.solve_one_sided``, ...) so that the
tracer's wrappers are the ones called in a traced run.

Every operation is timed into a phase, and its output is kept so that it can
be checked against ``reference.json`` after the timed body has ended.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import random
from array import array
from dataclasses import dataclass, field
from pathlib import Path

from tracer import clock, rebind, restore

WORKLOADS = ("table", "large-degree", "lab")

TABLE_DEGREES = range(4, 61)
# The paper's digits use margin 1e-6; at the CLI default (1e-3) delta=10 certifies
# 0.508 instead of the published 0.507.
TABLE_ARGV = ["table", "--delta-min", "4", "--delta-max", "60", "--margin", "1e-6",
              "--format", "json"]
TREND_ARGV = ["trend", "--deltas", "100", "200", "400", "--format", "json"]
ONE_SIDED_DELTAS = (1600, 6400)
ONE_SIDED_POINTS = 8
LAB_SEEDS = 16  # the lab seed is --seed mod LAB_SEEDS; each has a stored reference
LAB_SAMPLE = (10, 100_000)  # (delta, n) of the directly sampled pairing

RHS_TOL = 5e-5  # the tolerance PAIR_WITNESSES allows on witness values
GAMMA_RTOL = 1e-9


def one_sided_grid() -> list[tuple[int, float]]:
    """Evenly spaced eta in [1e-3, 2 sqrt(ln 2)/sqrt(delta)], both ends included."""
    grid = []
    for delta in ONE_SIDED_DELTAS:
        hi = 2.0 * math.sqrt(math.log(2.0)) / math.sqrt(delta)
        step = (hi - 1e-3) / (ONE_SIDED_POINTS - 1)
        grid += [(delta, 1e-3 + k * step) for k in range(ONE_SIDED_POINTS)]
    return grid


def lab_seed(seed: int) -> int:
    return seed % LAB_SEEDS


def lab_commands(seed: int) -> list[tuple[str, str, list[str]]]:
    """(operation, phase, argv) of the lab's three commands for one lab seed."""
    s = str(lab_seed(seed))
    return [
        ("simulate_best", "simulate_best_s",
         ["simulate", "--delta", "3", "--n", "2000", "--trials", "2", "--seed", s,
          "--format", "csv"]),
        ("simulate_first", "simulate_first_s",
         ["simulate", "--delta", "3", "--n", "600", "--trials", "2", "--seed", s,
          "--tie-rule", "first-improvement", "--format", "csv"]),
        ("oracle", "oracle_s",
         ["oracle", "--delta", "3", "--n", "20", "--seed", s, "--format", "csv"]),
    ]


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def cli_call(cli, argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


@dataclass
class Op:
    name: str
    value: object = None
    error: str | None = None


@dataclass
class Run:
    """One execution of a workload body: phase times and operation outputs."""

    phases: dict[str, float] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)

    def op(self, name: str, phase: str, fn):
        """Run ``fn`` timed into ``phase``; a raised error is kept as the op's outcome."""
        op = Op(name)
        self.ops.append(op)
        t0 = clock()
        try:
            op.value = fn()
        except (Exception, SystemExit) as exc:  # argparse exits on bad argv
            op.error = f"{type(exc).__name__}: {exc}"
        self.phases[phase] = self.phases.get(phase, 0.0) + clock() - t0
        return op.value

    def skip(self, name: str, reason: str) -> None:
        self.ops.append(Op(name, error=reason))


def body(workload: str, seed: int, pkg, scratch: Path) -> Run:
    """Run one workload once. ``pkg`` maps module names to imported modules."""
    run = Run()
    cli = pkg["cli"]
    if workload == "table":
        code_out = run.op("table", "table_s", lambda: cli_call(cli, TABLE_ARGV))
        try:
            docs = {doc["delta"]: doc for doc in json.loads(code_out[1])}
        except (TypeError, ValueError, KeyError):
            docs = {}
        for d in TABLE_DEGREES:
            if d not in docs:
                run.skip(f"certify[{d}]", "table printed no certificate for this degree")
                continue
            path = scratch / f"cert-{d}.json"
            path.write_text(json.dumps(docs[d], indent=2) + "\n", encoding="utf-8")
            run.op(f"certify[{d}]", "certify_s",
                   lambda: cli_call(cli, ["certify", "--file", str(path)]))
    elif workload == "large-degree":
        run.op("trend", "trend_s", lambda: cli_call(cli, TREND_ARGV))
        asym = pkg["asymptotics"]
        for k, (d, eta) in enumerate(one_sided_grid()):
            run.op(f"one_sided[{d},{k % ONE_SIDED_POINTS}]", "one_sided_s",
                   lambda: asym.solve_one_sided(d, eta).gamma)
    elif workload == "lab":
        for name, phase, argv in lab_commands(seed):
            run.op(name, phase, lambda: cli_call(cli, argv))
        lab = pkg["graphlab"]
        s = lab_seed(seed)
        delta, n = LAB_SAMPLE
        half = set(random.Random(s).sample(range(n), n // 2))
        graph = run.op("sample_pairing", "sample_s", lambda: lab.sample_pairing(delta, n, s))
        if graph is None:
            run.skip("cut_state", "no graph was sampled")
        else:
            run.op("cut_state", "sample_s", lambda: lab.cut_state(graph, half))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return run


def table_csv_sha(pkg, table_out: tuple[int, str]) -> str:
    """sha256 of ``table 4..60 --format csv`` stdout, rendered from the
    certificates the JSON run printed instead of by searching again.

    Certificates round-trip bit-exactly through their JSON schema, so these are
    the bytes a csv run of the same code prints.
    """
    certifier = pkg["certifier"]
    certs = {}
    for doc in json.loads(table_out[1]):
        cert = certifier.certificate_from_json(json.dumps(doc))
        certs[cert.delta] = cert
    changed = rebind(certifier.min_eta, lambda delta, *args, **kwargs: certs[delta])
    try:
        _, text = cli_call(pkg["cli"], TABLE_ARGV[:-1] + ["csv"])
    finally:
        restore(changed)
    return sha256(text)


# ---------------------------------------------------------------------------
# Checks. Each returns a list of problems; an empty list means the op passed.


def check_table(out: tuple[int, str], ref: dict) -> list[str]:
    code, text = out
    if code != 0:
        return [f"table exited {code}"]
    try:
        docs = json.loads(text)
    except ValueError as exc:
        return [f"table printed no JSON: {exc}"]
    got = [doc.get("delta") for doc in docs]
    if got != list(TABLE_DEGREES):
        return [f"table degrees {got} != {list(TABLE_DEGREES)}"]
    problems = []
    for doc in docs:
        d = str(doc["delta"])
        if float(doc["eta"]) != ref["eta"][d]:
            problems.append(f"delta={d}: eta {doc['eta']} != {ref['eta'][d]!r}")
        rhs = {f"{p['d']}/{p['d_prime']}": float(p["rhs"])
               for p in doc["pair_bounds"] if not p["vacuous"]}
        if rhs.keys() != ref["rhs"][d].keys():
            problems.append(f"delta={d}: feasible pairs {sorted(rhs)} != {sorted(ref['rhs'][d])}")
            continue
        for pair, want in ref["rhs"][d].items():
            if not abs(rhs[pair] - want) <= RHS_TOL:
                problems.append(f"delta={d} pair {pair}: rhs {rhs[pair]!r} vs {want!r}")
    return problems


def check_certify(out: tuple[int, str]) -> list[str]:
    code, text = out
    if code == 0 and "verdict: PASS" in text.splitlines():
        return []
    return [f"certify exited {code}: {text.strip().splitlines()[-1:] or ['no output']}"]


def check_trend(out: tuple[int, str], ref: dict) -> list[str]:
    code, text = out
    if code != 0:
        return [f"trend exited {code}"]
    try:
        points = {str(p["delta"]): p for p in json.loads(text)["points"]}
    except (ValueError, KeyError, TypeError) as exc:
        return [f"trend printed no points: {exc}"]
    if sorted(points) != sorted(ref["eta"]):
        return [f"trend degrees {sorted(points)} != {sorted(ref['eta'])}"]
    problems = []
    for d, p in points.items():
        if p["eta"] != ref["eta"][d]:
            problems.append(f"delta={d}: eta {p['eta']!r} != {ref['eta'][d]!r}")
        problems += check_gamma(p["gamma"], ref["gamma"][d])
    return problems


def check_gamma(gamma: float, want: float) -> list[str]:
    if abs(gamma - want) <= GAMMA_RTOL * abs(want):
        return []
    return [f"gamma {gamma!r} vs {want!r}"]


def check_bytes(out: tuple[int, str], want_sha: str) -> list[str]:
    code, text = out
    if code != 0:
        return [f"exited {code}"]
    got = sha256(text)
    return [] if got == want_sha else [f"stdout sha256 {got[:16]} != {want_sha[:16]}"]


def pairing_sha(graph) -> str:
    return sha256(array("q", itertools.chain.from_iterable(graph.pairing)).tobytes())


def cut_fingerprint(state) -> str:
    return f"cut={state.cut} size={state.size_s} S={list(state.hist_s.counts)} " \
           f"comp={list(state.hist_comp.counts)}"


def outcome(op: Op):
    """The value stored in reference.json for an op (what its check compares against)."""
    if op.name == "table":
        docs = json.loads(op.value[1])
        return {"eta": {str(doc["delta"]): float(doc["eta"]) for doc in docs},
                "rhs": {str(doc["delta"]): {f"{p['d']}/{p['d_prime']}": float(p["rhs"])
                                            for p in doc["pair_bounds"] if not p["vacuous"]}
                        for doc in docs}}
    if op.name == "trend":
        points = json.loads(op.value[1])["points"]
        return {"eta": {str(p["delta"]): p["eta"] for p in points},
                "gamma": {str(p["delta"]): p["gamma"] for p in points}}
    if op.name.startswith("one_sided"):
        return op.value
    if op.name == "sample_pairing":
        return pairing_sha(op.value)
    if op.name == "cut_state":
        return cut_fingerprint(op.value)
    if op.name in ("simulate_best", "simulate_first", "oracle"):
        return sha256(op.value[1])
    raise KeyError(op.name)


def check(workload: str, seed: int, run: Run, ref: dict) -> list[tuple[str, str]]:
    """(operation, problem) for every op that raised or whose output is wrong."""
    want = ref["lab"][str(lab_seed(seed))] if workload == "lab" else ref[workload]
    problems = []
    for op in run.ops:
        if op.error is not None:
            problems.append((op.name, op.error))
            continue
        try:
            found = _check_op(op, want)
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            found = [f"output not in the expected form: {type(exc).__name__}: {exc}"]
        problems += [(op.name, p) for p in found]
    return problems


def _check_op(op: Op, want: dict) -> list[str]:
    if op.name.startswith("certify["):
        return check_certify(op.value)
    if op.name == "table":
        return check_table(op.value, want["table"])
    if op.name == "trend":
        return check_trend(op.value, want["trend"])
    if op.name.startswith("one_sided"):
        return check_gamma(op.value, want[op.name])
    if op.name in ("simulate_best", "simulate_first", "oracle"):
        return check_bytes(op.value, want[op.name])
    got = outcome(op)
    return [] if got == want[op.name] else [f"fingerprint changed: {got!r}"]
