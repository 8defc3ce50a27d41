#!/usr/bin/env python3
"""Time `local_descent` directly, one row per (n, tie rule), as JSON lines.

Each row samples `sample_pairing(delta, n, seed)`, builds its adjacency rows,
starts from a seeded random half and times one descent alone, in a fresh
child process, so a slow row can be cut at `--cap` seconds. Once a rule's row
is cut, its larger sizes are skipped and reported with the same cap. Run it
against any checkout by pointing PYTHONPATH at that checkout's `src/`:

    PYTHONPATH=src python3 scripts/bench_descent.py --sizes 1000 10000 --cap 300
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from argparse import SUPPRESS, ArgumentParser


def row(delta: int, n: int, rule: str, seed: int) -> dict:
    from expander_bounds.graphlab import cut_state, local_descent, sample_pairing

    graph = sample_pairing(delta, n, seed)
    start = cut_state(graph, set(random.Random(seed).sample(range(n), n // 2)))
    graph.loops(0)  # builds the adjacency outside the timed descent
    trace: list[int] = []
    t0 = time.perf_counter()
    final = local_descent(start, tie_rule=rule, trace=trace)
    seconds = time.perf_counter() - t0
    return {
        "delta": delta, "n": n, "rule": rule, "seed": seed,
        "seconds": round(seconds, 4), "swaps": len(trace),
        "start_cut": start.cut, "final_cut": final.cut,
        "ms_per_swap": round(1e3 * seconds / max(len(trace), 1), 4),
    }


def main() -> int:
    ap = ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--delta", type=int, default=3)
    ap.add_argument("--sizes", type=int, nargs="+", default=[1000, 2000, 4000, 10_000, 100_000])
    ap.add_argument("--rules", nargs="+", default=["best-improvement", "first-improvement"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cap", type=float, default=600.0, help="seconds per row")
    ap.add_argument("--row", action="store_true", help=SUPPRESS)
    args = ap.parse_args()
    if args.row:
        print(json.dumps(row(args.delta, args.sizes[0], args.rules[0], args.seed)))
        return 0
    for rule in args.rules:
        cut_at: int | None = None
        for n in args.sizes:
            if cut_at is not None:
                print(json.dumps({"delta": args.delta, "n": n, "rule": rule, "seed": args.seed,
                                  "skipped": f"row n={cut_at} passed the cap", "cap_s": args.cap}))
                continue
            argv = [sys.executable, __file__, "--row", "--delta", str(args.delta),
                    "--sizes", str(n), "--rules", rule, "--seed", str(args.seed)]
            try:
                done = subprocess.run(argv, capture_output=True, text=True,
                                      timeout=args.cap, check=True)
            except subprocess.TimeoutExpired:
                cut_at = n
                print(json.dumps({"delta": args.delta, "n": n, "rule": rule, "seed": args.seed,
                                  "skipped": "did not finish", "cap_s": args.cap}))
                continue
            print(done.stdout.strip(), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
