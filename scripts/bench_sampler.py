#!/usr/bin/env python3
"""Time the sampler, lab routines, eta search, one-sided solver and the CLI's table
output on two checkouts; write BENCH_<label>.json.

Most rows run in a fresh child process whose PYTHONPATH is one checkout's
`src/`, and repetitions alternate which checkout goes first. The rows are:

- `sample_pairing(10, 1e5)`: seconds, then `cut_state` on that graph from a
  seeded half drawn before its clock starts, then the first `neighbor_items`
  call, which builds the graph's adjacency rows, and, in a separate child,
  the `tracemalloc` peak per point of sampling alone;
- `brute_force_expansion` on `sample_pairing(3, 20)`;
- `local_descent` at delta 3, n = 1e5, under both tie rules (the rows of
  `bench_descent.py`);
- the wall time of criterion 08's three tallies (1e6 draws each), with
  `sample_out_degree_configurations` taken from the package where it has
  one and from the checkout's `tests/exact_reference.py` otherwise;
- `min_eta` over degrees 4..60 at margin 1e-6 (the paper's table), over
  100, 200 and 400 at margin 1e-3, and over 1000 and 2000 at margin 1e-3
  (`eta_wide`, where the screen's root bound leaves many caps to the
  solve), each fingerprinted by the sha256 of its certificates' JSON; and,
  as info rows, at 850, 1000 and 2000 alone (`eta_850`, `eta_1000`,
  `eta_2000`), where every probe solves its pairs;
- `one_sided`: `solve_one_sided` on perfbench's large-degree grid (8 evenly
  spaced eta in [1e-3, 2 sqrt(ln 2)/sqrt(delta)] for delta 1600 and 6400),
  fingerprinted by the sha256 of repr() of the solved points;
- `table_search` and `trend_search`: `build_table(4, 60, 1e-6)` and
  `alpha_trend([100, 200, 400])`, each in a fresh process, the multi-degree
  searches the CLI's `table` and `trend` run (in a checkout whose searches
  run in lock-step their degrees share rounds, where the `eta_*` rows call
  `min_eta` per degree), fingerprinted by the sha256 of the certificates'
  JSON and of repr() of the trend's points;
- `certify_table`: `verify_certificate` over the 57 certificates of the
  paper's table, each read back with `certificate_from_json` before the
  clock starts, fingerprinted by every check's (name, passed, detail);
- `table_json_peak`: the `tracemalloc` peak in MB of `cli.main` on
  `table --delta-min 4 --delta-max 60 --margin 1e-6 --format json` (the
  paper's table), then on `table --delta-min 4 --delta-max 200 --format
  json`, in one child. stdout goes to a sink that keeps only its sha256, so
  the peak is the command's working memory and not the captured output; the
  two digests are the fingerprint.

Rows that resolve a few percent, where separate processes spread more than
that, run both checkouts in one child instead: the two packages are imported
under different names, each round times one block of each, alternating which
goes first, and the row reports the median of the per-round change/parent
ratios. It keeps each side's per-round values but summarises only the
ratios: on a shared host a block of a few tens of milliseconds drifts with
the host's load, so per-side medians can disagree in sign with the rounds
they come from. These paired rows are
- `tiny`: `sample_pairing(3, 2)` in microseconds per call, blocks of 2000;
- `simple`: `sample_pairing(5, 1000, simple_only=True)`, which rejects
  1,113 pairings;
- `cut_small`: `cut_state` in microseconds per call, over every subset of
  at most 7 vertices of `sample_pairing(3, 14, 1, simple_only=True)` given
  as a set, the per-call shape of criterion 10's descents;
- `moments`: the moment kernel on one cap at gamma 0.8 in microseconds per
  call, over every cap 0..delta of every degree 4..60 (the shapes of the
  paper table's search), ten times per block, through either interface
  (`truncated_log_moments(delta, cap, gamma)` or, batched,
  `truncated_log_moments(delta, caps, gammas)`), fingerprinted by ln S0
  and the mean to 13 digits;
- `side_solve`: `solve_side` on every feasible cap of the paper table's 57
  degrees at their certified eta, in microseconds per cap, one call per
  cap or one per degree where `solve_side` takes a list of caps,
  fingerprinted by each cap's beta and gamma to 5 decimals (the table csv's
  digits); the row also reports the moment-kernel calls per degree;
- `one_sided`: `solve_one_sided` in microseconds per call, over the
  `one_sided` grid ten times per block, fingerprinted by the sha256 of
  repr() of the grid's points, the `one_sided` row's fingerprint;
- `matching_N`: the uniform matching `graphlab._raw_matching` on N points
  in microseconds per point, consecutive calls on one generator seeded N
  for about 2^19 points per block, fingerprinted by the partner arrays'
  bytes and the generator's state afterwards. The sizes straddle the
  switch between the sequential and the blocked walk (MATCHING_SIZES) and
  reach 2^18 + 2 and 10^6 points.

Every row also records a fingerprint of its output, so the file shows
whether both checkouts computed the same thing. Before its first child the
script removes every `src/**/__pycache__` of both checkouts and names each
on stderr: with PYTHONDONTWRITEBYTECODE=1 a stale cache is never rewritten,
and a tree whose sources changed after it was written would compile those
modules in every child, which once read 8% on perfbench's `setup_s`. Every
per-process row runs RUNS = 5 times per checkout. For each of `--workloads` it then runs
`perfbench/run.py --workload W --seconds 20 --trace 0` PAIRS = 10 times in
each checkout, alternating which goes first and cycling through `--seeds`,
and stores the end-to-end metrics and phase times of every pair. The label
in the file is the `BENCH_<label>.json` part of `--out`:

    python3 scripts/bench_sampler.py --parent /path/to/parent --change . \\
        --workloads lab --seeds 1 13 --out BENCH_sampler.json
"""

from __future__ import annotations

import hashlib
import importlib.util
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from argparse import SUPPRESS, ArgumentParser
from pathlib import Path

HERE = Path(__file__).resolve().parent

ROWS = ("sample", "sample_peak", "oracle", "descent_best", "descent_first", "criterion_08",
        "eta_table", "eta_large", "eta_wide", "eta_850", "eta_1000", "eta_2000", "one_sided",
        "table_search", "trend_search", "certify_table", "table_json_peak")
ETA_ROWS = {"eta_table": (range(4, 61), 1e-6), "eta_large": ((100, 200, 400), 1e-3),
            "eta_wide": ((1000, 2000), 1e-3), "eta_850": ((850,), 1e-3),
            "eta_1000": ((1000,), 1e-3), "eta_2000": ((2000,), 1e-3)}
PAIRED_ROWS = {"tiny": 15, "simple": 7, "cut_small": 11, "moments": 15,
               "one_sided": 15, "side_solve": 15}  # row: rounds
MATCHING_SIZES = (16_386, 24_578, 32_770, 49_154, 65_538, 131_074, 2**18 + 2, 10**6)
PAIRED_ROWS.update({f"matching_{n}": 11 for n in MATCHING_SIZES})
RUNS = 5  # repetitions of every per-process row per checkout
PAIRS = 10  # parent/change pairs per perfbench workload
SECONDS = 20  # perfbench --seconds


def sha256(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def row(name: str) -> dict:
    """One measurement, run in the child process; returns its metrics and fingerprint."""
    from array import array

    from expander_bounds import graphlab as lab

    if name == "sample":
        t0 = time.perf_counter()
        graph = lab.sample_pairing(10, 100_000, 1)
        t1 = time.perf_counter()
        half = set(random.Random(1).sample(range(100_000), 50_000))
        t2 = time.perf_counter()
        state = lab.cut_state(graph, half)
        t3 = time.perf_counter()
        first = graph.neighbor_items(0)
        t4 = time.perf_counter()
        flat = array("q", itertools.chain.from_iterable(graph.pairing)).tobytes()
        return {"sample_pairing_s": t1 - t0, "cut_state_s": t3 - t2, "first_neighbour_s": t4 - t3,
                "fingerprint": f"{sha256(flat)} cut={state.cut} S={state.hist_s.counts} "
                               f"N(0)={first}"}
    if name == "sample_peak":
        import tracemalloc

        tracemalloc.start()
        graph = lab.sample_pairing(10, 100_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"peak_bytes_per_point": peak / 1e6, "fingerprint": f"n={graph.n}"}
    if name == "oracle":
        graph = lab.sample_pairing(3, 20, 1)
        t0 = time.perf_counter()
        value, argmin = lab.brute_force_expansion(graph)
        return {"brute_force_s": time.perf_counter() - t0, "fingerprint": f"{value} {argmin}"}
    if name.startswith("descent_"):
        sys.path.insert(0, str(HERE))
        from bench_descent import row as descent_row

        rule = "best-improvement" if name == "descent_best" else "first-improvement"
        r = descent_row(3, 100_000, rule, 0)
        return {f"local_descent_{name[8:]}_s": r["seconds"],
                "fingerprint": f"swaps={r['swaps']} cut={r['final_cut']}"}
    if name == "criterion_08":
        tally = getattr(lab, "sample_out_degree_configurations", None)
        if tally is None:  # a checkout whose tests hold the tally
            sys.path.insert(0, str(Path(lab.__file__).parents[2] / "tests"))
            from exact_reference import sample_out_degree_configurations as tally
        digests = []
        t0 = time.perf_counter()
        for ci, (delta, n) in enumerate([(1, 4), (3, 2), (2, 4)]):
            counts = tally(delta, n, n // 2, 10**6, seed=lab.derive_seed(20240801, ci))
            digests.append(sha256(repr(sorted(counts.items())))[:16])
        return {"criterion_08_s": time.perf_counter() - t0, "fingerprint": " ".join(digests)}
    if name in ETA_ROWS:
        from expander_bounds import certificate_to_json, min_eta

        degrees, margin = ETA_ROWS[name]
        t0 = time.perf_counter()
        certs = [min_eta(delta, margin) for delta in degrees]
        seconds = time.perf_counter() - t0
        return {f"min_eta_{name[4:]}_s": seconds,
                "fingerprint": sha256("".join(map(certificate_to_json, certs)))}
    if name == "table_search":
        from expander_bounds import build_table, certificate_to_json

        t0 = time.perf_counter()
        certs = build_table(4, 60, 1e-6)
        return {"build_table_s": time.perf_counter() - t0,
                "fingerprint": sha256("".join(map(certificate_to_json, certs)))}
    if name == "trend_search":
        from expander_bounds import alpha_trend

        t0 = time.perf_counter()
        points = alpha_trend([100, 200, 400])
        return {"alpha_trend_s": time.perf_counter() - t0, "fingerprint": sha256(repr(points))}
    if name == "certify_table":
        from expander_bounds import (certificate_from_json, certificate_to_json, min_eta,
                                     verify_certificate)

        degrees, margin = ETA_ROWS["eta_table"]
        certs = [certificate_from_json(certificate_to_json(min_eta(delta, margin)))
                 for delta in degrees]
        t0 = time.perf_counter()
        reports = [verify_certificate(cert) for cert in certs]
        seconds = time.perf_counter() - t0
        checks = [[(c.name, c.passed, c.detail) for c in r.checks] for r in reports]
        return {"verify_table_s": seconds, "fingerprint": sha256(repr(checks))}
    if name == "one_sided":
        from expander_bounds import solve_one_sided

        t0 = time.perf_counter()
        points = [solve_one_sided(delta, eta) for delta, eta in one_sided_grid()]
        return {"one_sided_s": time.perf_counter() - t0, "fingerprint": sha256(repr(points))}
    if name == "table_json_peak":
        import contextlib
        import tracemalloc

        from expander_bounds import cli

        out, prints = {}, []
        for hi, margin in ((60, ["--margin", "1e-6"]), (200, [])):
            sink = HashingSink()
            tracemalloc.start()
            with contextlib.redirect_stdout(sink):
                cli.main(["table", "--delta-min", "4", "--delta-max", str(hi), *margin,
                          "--format", "json"])
            out[f"table_json_peak_{hi}_mb"] = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
            prints.append(sink.sha.hexdigest())
        return {**out, "fingerprint": " ".join(prints)}
    raise ValueError(f"unknown row {name!r}")


class HashingSink:
    """A stdout that keeps only the sha256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        return len(text)

    def flush(self) -> None:
        pass


def one_sided_grid() -> list[tuple[int, float]]:
    """perfbench's large-degree grid: 8 evenly spaced eta per delta, both ends included."""
    grid = []
    for delta in (1600, 6400):
        hi = 2.0 * math.sqrt(math.log(2.0)) / math.sqrt(delta)
        step = (hi - 1e-3) / 7
        grid += [(delta, 1e-3 + k * step) for k in range(8)]
    return grid


def child(root: Path, name: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, __file__, "--row", name], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def clear_bytecode(sides: dict[str, Path]) -> None:
    """Remove every `src/**/__pycache__` under each checkout, naming it on stderr."""
    for root in sides.values():
        for cache in sorted((root / "src").rglob("__pycache__")):
            shutil.rmtree(cache)
            print(f"removed bytecode cache {cache}", file=sys.stderr)


def load_package(root: Path, alias: str):
    """Import `root`'s expander_bounds package under the top-level name `alias`."""
    init = root / "src" / "expander_bounds" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        alias, init, submodule_search_locations=[str(init.parent)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def paired_block(pkg, name: str) -> tuple[float, str]:
    """Seconds for one block of a paired row, and its output's fingerprint."""
    from array import array

    lab = pkg.graphlab
    if name == "tiny":
        t0 = time.perf_counter()
        for i in range(2000):
            lab.sample_pairing(3, 2, seed=i)
        return (time.perf_counter() - t0) / 2000, "-"
    if name == "simple":
        t0 = time.perf_counter()
        graph = lab.sample_pairing(5, 1000, 1, simple_only=True)
        seconds = time.perf_counter() - t0
        return seconds, sha256(array("q", itertools.chain.from_iterable(graph.pairing)).tobytes())
    if name == "cut_small":
        graph = lab.sample_pairing(3, 14, 1, simple_only=True)
        subsets = [set(c) for k in range(8) for c in itertools.combinations(range(14), k)]
        t0 = time.perf_counter()
        states = [lab.cut_state(graph, s) for s in subsets]
        seconds = (time.perf_counter() - t0) / len(subsets)
        return seconds, sha256(repr([(st.cut, st.hist_s.counts, st.hist_comp.counts)
                                     for st in states]))
    if name == "moments":
        moments = single_cap_moments(pkg)
        shapes = [(delta, cap) for delta in range(4, 61) for cap in range(delta + 1)] * 10
        t0 = time.perf_counter()
        values = [moments(delta, cap, 0.8) for delta, cap in shapes]
        seconds = (time.perf_counter() - t0) / len(shapes)
        return seconds, sha256(repr([f"{s0:.12e} {mean:.12e}" for s0, mean in values]))
    if name == "side_solve":
        cases = table_caps(pkg)
        batched = hasattr(pkg.side_solver, "_solve_caps")
        t0 = time.perf_counter()
        if batched:
            sides = [s for delta, caps, eta in cases for s in pkg.solve_side(delta, caps, eta)]
        else:
            sides = [pkg.solve_side(delta, cap, eta) for delta, caps, eta in cases for cap in caps]
        seconds = (time.perf_counter() - t0) / len(sides)
        return seconds, sha256(repr([(s.cap, f"{s.beta:.5f}", f"{s.gamma:.5f}") for s in sides]))
    if name == "one_sided":
        grid = one_sided_grid()
        t0 = time.perf_counter()
        points = [pkg.solve_one_sided(delta, eta) for delta, eta in grid * 10]
        seconds = (time.perf_counter() - t0) / len(points)
        return seconds, sha256(repr(points[:len(grid)]))
    if name.startswith("matching_"):
        n = int(name.removeprefix("matching_"))
        rng, digest = random.Random(n), hashlib.sha256()
        calls = max(1, 2**19 // n)
        t0 = time.perf_counter()
        partners = [lab._raw_matching(rng, n) for _ in range(calls)]
        seconds = (time.perf_counter() - t0) / (calls * n)
        for partner in partners:
            digest.update(partner.tobytes())
        digest.update(repr(rng.getstate()).encode())
        return seconds, digest.hexdigest()
    raise ValueError(f"unknown paired row {name!r}")


def single_cap_moments(pkg):
    """(ln S0, mean) of one cap at one gamma, through the moment kernel of
    either interface: one cap per call, or a batch of caps per call."""
    kernel = pkg.combinatorics.truncated_log_moments
    if hasattr(pkg.combinatorics, "_layout"):
        def moments(delta, cap, gamma):
            log_s0, mean, _, _ = kernel(delta, (cap,), [gamma])
            return float(log_s0[0]), float(mean[0])
        return moments
    return lambda delta, cap, gamma: kernel(delta, cap, gamma)[::2]


TABLE_CAPS: dict[str, list] = {}


def table_caps(pkg) -> list[tuple[int, tuple[int, ...], float]]:
    """(delta, feasible caps, certified eta) for the paper's table, per package."""
    if pkg.__name__ not in TABLE_CAPS:
        degrees, margin = ETA_ROWS["eta_table"]
        cases = []
        for delta in degrees:
            eta = pkg.min_eta(delta, margin).eta
            pairs = pkg.certifier.feasible_pairs(delta, eta)
            cases.append((delta, tuple(dict.fromkeys(c for pair in pairs for c in pair)), eta))
        TABLE_CAPS[pkg.__name__] = cases
    return TABLE_CAPS[pkg.__name__]


def kernel_passes_per_degree(pkg) -> float:
    """Moment-kernel calls the side solves of the `side_solve` row make per degree."""
    calls = []
    real = pkg.side_solver.truncated_log_moments

    def counted(*args):
        calls.append(1)
        return real(*args)

    pkg.side_solver.truncated_log_moments = counted
    try:
        paired_block(pkg, "side_solve")
    finally:
        pkg.side_solver.truncated_log_moments = real
    return len(calls) / len(table_caps(pkg))


def paired_row(sides: dict[str, Path], name: str) -> dict:
    """Run in the child: time both checkouts, one block each per round."""
    pkgs = {side: load_package(root, f"bench_{side}_expander_bounds")
            for side, root in sides.items()}
    for pkg in pkgs.values():
        paired_block(pkg, name)  # warm-up
    seconds: dict[str, list[float]] = {side: [] for side in sides}
    prints: dict[str, set[str]] = {side: set() for side in sides}
    for rnd in range(PAIRED_ROWS[name]):
        for side in (("parent", "change") if rnd % 2 == 0 else ("change", "parent")):
            took, fingerprint = paired_block(pkgs[side], name)
            seconds[side].append(took)
            prints[side].add(fingerprint)
    ratios = [c / p for c, p in zip(seconds["change"], seconds["parent"])]
    unit, scale = ("s", 1.0) if name == "simple" else ("us_per_call", 1e6)
    if name.startswith("matching_"):
        unit = "us_per_point"
    out = {
        "rounds": PAIRED_ROWS[name],
        "unit": "us_per_cap" if name == "side_solve" else unit,
        **{side: {"values": [round(scale * t, 6) for t in seconds[side]]} for side in sides},
        "change_over_parent": stats(ratios),
        "change_faster_rounds": sum(r < 1 for r in ratios),
        "fingerprints": {side: sorted(fp) for side, fp in prints.items()},
    }
    if name == "side_solve":
        out["kernel_passes_per_degree"] = {side: round(kernel_passes_per_degree(pkg), 2)
                                           for side, pkg in pkgs.items()}
    return out


def paired_child(sides: dict[str, Path], name: str) -> dict:
    done = subprocess.run(
        [sys.executable, __file__, "--paired-row", name, "--parent", str(sides["parent"]),
         "--change", str(sides["change"])],
        capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def perfbench_run(root: Path, workload: str, seed: int) -> dict:
    """Median of every timing of one `perfbench/run.py --trace 0` run in `root`."""
    done = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        capture_output=True, text=True, check=True)
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    out = {line["name"]: line["median"] for line in lines if line.get("info") == "metric"}
    prints = next(line for line in lines if line.get("info") == "fingerprints")
    last = lines[-1]
    out.update(correct=last["correct"], failed=last["failed"],
               fingerprints={k: v for k, v in prints.items() if k != "info"})
    return out


def perfbench_pairs(sides: dict[str, Path], workload: str, seeds: list[int]) -> dict:
    """PAIRS alternating parent/change runs of one workload; pair i uses seeds[i % len]."""
    pairs = []
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"pair": i + 1, "first": order[0], "seed": seeds[i % len(seeds)]}
        for side in order:
            pair[side] = perfbench_run(sides[side], workload, pair["seed"])
        print(json.dumps({"workload": workload, **pair}), flush=True)
        pairs.append(pair)
    metrics = [m for m in pairs[0]["parent"] if isinstance(pairs[0]["parent"][m], float)]
    return {
        "command": f"python3 perfbench/run.py --workload {workload} --seed SEED "
                   f"--seconds {SECONDS} --trace 0",
        "all_correct_no_failed_ops": all(p[s]["correct"] and not p[s]["failed"]
                                         for p in pairs for s in sides),
        "fingerprints_equal_in_every_pair": all(
            p["parent"]["fingerprints"] == p["change"]["fingerprints"] for p in pairs),
        "summary": {m: {"parent": stats([p["parent"][m] for p in pairs]),
                        "change": stats([p["change"][m] for p in pairs]),
                        "change_lower_pairs": sum(p["change"][m] < p["parent"][m]
                                                  for p in pairs)}
                    for m in metrics},
        "pairs": [{"pair": p["pair"], "first": p["first"], "seed": p["seed"],
                   **{f"{s}_{m}": round(p[s][m], 4) for s in sides for m in metrics}}
                  for p in pairs],
    }


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": round(statistics.median(values), 6), "q1": round(q1, 6),
            "q3": round(q3, 6), "values": [round(v, 6) for v in values]}


def main() -> int:
    ap = ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout measured as the parent")
    ap.add_argument("--change", type=Path, default=HERE.parent)
    ap.add_argument("--workloads", nargs="*", default=[], help="perfbench workloads to pair")
    ap.add_argument("--seeds", type=int, nargs="+", default=[1])
    ap.add_argument("--out", type=Path, default=HERE.parent / "BENCH_sampler.json")
    ap.add_argument("--row", nargs="+", help=SUPPRESS)
    ap.add_argument("--paired-row", help=SUPPRESS)
    args = ap.parse_args()
    if args.row:
        for name in args.row:
            print(json.dumps(row(name)))
        return 0
    if args.parent is None:
        ap.error("--parent is required")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    if args.paired_row:
        print(json.dumps(paired_row(sides, args.paired_row)))
        return 0
    clear_bytecode(sides)

    samples: dict[str, dict[str, list[float]]] = {}
    prints: dict[str, dict[str, set[str]]] = {}
    for rep in range(RUNS):
        order = ("parent", "change") if rep % 2 == 0 else ("change", "parent")
        for name in ROWS:
            for side in order:
                result = child(sides[side], name)
                prints.setdefault(name, {}).setdefault(side, set()).add(result.pop("fingerprint"))
                for metric, value in result.items():
                    samples.setdefault(metric, {}).setdefault(side, []).append(value)
                print(json.dumps({"rep": rep, "row": name, "side": side, **result}), flush=True)
    paired = {}
    for name in PAIRED_ROWS:
        paired[name] = paired_child(sides, name)
        print(json.dumps({"paired_row": name, **paired[name]}), flush=True)
    label = args.out.name.removeprefix("BENCH_").removesuffix(".json")
    doc = {
        "label": label,
        "host": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "cpus_allowed": len(os.sched_getaffinity(0))},
        "runs": RUNS,
        "rows": {metric: {side: stats(values) for side, values in by_side.items()}
                 for metric, by_side in samples.items()},
        "fingerprints": {name: {side: sorted(fp) for side, fp in by_side.items()}
                         for name, by_side in prints.items()},
        "paired_rows": paired,
        "fingerprints_equal": all(len(by_side["parent"] | by_side["change"]) == 1
                                  for by_side in prints.values())
        and all(len(set(r["fingerprints"]["parent"]) | set(r["fingerprints"]["change"])) == 1
                for r in paired.values()),
    }
    for workload in args.workloads:
        doc.setdefault("perfbench_pairs", {})[workload] = perfbench_pairs(
            sides, workload, args.seeds)
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
