#!/usr/bin/env python3
"""Descent experiment: sampled pairings vs the certified bound.

Runs the restart descent on random regular multigraphs for one or more sizes
and prints, for each size, the text report of `expander-cert simulate` (one
line per trial, then the summary lines) followed by a blank line.
"""

from argparse import ArgumentParser

from expander_bounds.cli import main as cli_main


def main() -> int:
    ap = ArgumentParser(description=__doc__)
    ap.add_argument("--delta", type=int, default=3)
    ap.add_argument("--sizes", type=int, nargs="+", default=[12, 16, 20])
    ap.add_argument("--trials", type=int, default=20)
    ap.add_argument("--restarts", type=int, default=4)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--simple", action="store_true")
    args = ap.parse_args()

    for n in args.sizes:
        argv = [
            "simulate", "--delta", str(args.delta), "--n", str(n),
            "--trials", str(args.trials), "--seed", str(args.seed),
            "--restarts", str(args.restarts),
        ]
        code = cli_main(argv + (["--simple"] if args.simple else []))
        if code != 0:
            return code
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
