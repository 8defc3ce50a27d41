"""Command-line front end: certification, verification, tables, experiments.

Each command does all of its computation first (solves, verification, its
stderr lines and its exit code), so no error can follow partial stdout. Only
then does it return, handing back its JSON document, csv rows (header first)
and text lines as zero-argument callables that build them. `main` is the one
place that renders: it calls only the callable for the `--format` it prints
(json, csv or text), so nothing unprinted is built, and streams the output,
the JSON chunk by chunk and the rows and lines one at a time. An outcome with
no document or rows (a malformed certificate) prints its text lines in every
format.

Exit codes carry the mathematical verdict so the tool works as a checker in
shell pipelines: 0 = certified / verified / computed, 1 = the claim failed
(non-negative exponent, failed verification, malformed certificate), 2 =
usage or validation error, or a `--simple` graph the rejection sampler did
not find in its attempts. `table` checks every certificate it prints with
the verifier and exits 1, naming the failed checks on stderr, when one is
rejected. Identical invocations produce byte-identical output; every
randomized command echoes its seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable, Iterable
from functools import cache
from itertools import islice

from .asymptotics import TWO_SQRT_LN2, alpha_trend
from .certifier import (
    DEFAULT_MARGIN,
    DEFAULT_PRECISION,
    CertificateFormatError,
    NoBound,
    bollobas_eta,
    build_table,
    certificate_from_json,
    certificate_to_dict,
    evaluate_pairs,
    verify_certificate,
)
from .graphlab import (
    BEST_IMPROVEMENT,
    FIRST_IMPROVEMENT,
    _NoSimpleGraph,
    brute_force_expansion,
    expansion_experiment,
    sample_pairing,
)

__all__ = ["main"]

_JSON_BATCH = 4096  # iterencode chunks per write


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, shared by every in-process `main` call.

    Sharing it is safe: `parse_args` leaves the parser as it was and puts
    every default into a fresh namespace, and help and error text read
    `COLUMNS` when they are formatted, not when the parser is built.
    """
    parser = argparse.ArgumentParser(
        prog="expander-cert",
        description=(
            "Certified lower bounds on the edge expansion of random regular "
            "multigraphs, with a pairing-model laboratory."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_options(p: argparse.ArgumentParser, margin=False, precision=False):
        p.add_argument(
            "--format", choices=("text", "csv", "json"), default="text", dest="fmt"
        )
        if margin:
            p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
        if precision:
            p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)

    p = sub.add_parser("table", help="certified bound per degree over a range")
    p.add_argument("--delta-min", type=int, required=True)
    p.add_argument("--delta-max", type=int, required=True)
    add_options(p, margin=True, precision=True)

    p = sub.add_parser("bound", help="per-pair growth exponents at a given eta")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    add_options(p)

    p = sub.add_parser("certify", help="verify a serialized certificate")
    p.add_argument("--file", required=True)
    add_options(p)

    p = sub.add_parser("baseline", help="classical counting-bound eta and bound")
    p.add_argument("--delta", type=int, required=True)
    add_options(p, precision=True)

    p = sub.add_parser("trend", help="alpha = eta*sqrt(delta) over even degrees")
    p.add_argument("--deltas", type=int, nargs="+", required=True)
    add_options(p, margin=True, precision=True)

    p = sub.add_parser("simulate", help="descent experiment on sampled graphs")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--simple", action="store_true")
    p.add_argument("--tie-rule", choices=(BEST_IMPROVEMENT, FIRST_IMPROVEMENT),
                   default=BEST_IMPROVEMENT, dest="tie_rule")
    add_options(p)

    p = sub.add_parser("oracle", help="exact expansion of one sampled graph")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--simple", action="store_true")
    add_options(p)

    return parser


# A command's result: (exit code, JSON document, csv rows with the header
# first, text lines), each of the last three as a zero-argument callable that
# builds it. The command has done all of its computation (solves, checks, its
# stderr lines and the exit code) before it returns, so an error never follows
# partial stdout; the callables only format what it computed, and `main` calls
# the one for the format it prints. A document or rows of None fall back to the
# text lines.
_Result = tuple[int, Callable[[], object] | None, Callable[[], Iterable[list]] | None,
                Callable[[], Iterable[str]]]


def _flag(b: bool) -> str:
    return "true" if b else "false"


def _cmd_table(args: argparse.Namespace) -> _Result:
    prec = args.precision
    certs = build_table(args.delta_min, args.delta_max, args.margin, prec)
    # Every printed certificate is checked; a rejected one still prints, so
    # stdout keeps its bytes, and the exit code says the claim failed.
    code = 0
    for c in certs:
        failures = verify_certificate(c).failures()
        if failures:
            names = ", ".join(f.name for f in failures)
            print(f"rejected: delta={c.delta} fails {names}", file=sys.stderr)
            code = 1

    def doc():
        docs = [certificate_to_dict(c) for c in certs]
        return docs[0] if len(docs) == 1 else docs

    def heads():
        """Each certificate with its formatted eta, bound, baseline eta and bound."""
        for c in certs:
            yield c, [c.delta, f"{c.eta:.{prec}f}", f"{c.expansion_bound:.6g}",
                      f"{c.baseline_eta:.{prec}f}", f"{c.baseline_bound:.6g}"]

    def witnesses(pb) -> list[str]:
        side, prime = pb.side, pb.side_prime
        return [f"{w:.5f}" for w in (side.beta, side.gamma, prime.beta, prime.gamma)]

    def rows():
        yield ["delta", "eta", "bound", "baseline_eta", "baseline_bound", "d", "d_prime",
               "vacuous", "rhs", "beta", "gamma", "beta_prime", "gamma_prime"]
        for c, head in heads():
            for pb in c.pair_bounds:
                if pb.vacuous:
                    yield head + [pb.d, pb.d_prime, "true", "", "", "", "", ""]
                else:
                    yield head + [pb.d, pb.d_prime, "false", f"{pb.rhs:.6e}"] + witnesses(pb)

    def lines():
        yield (f"# bounds table delta={args.delta_min}..{args.delta_max} "
               f"margin={args.margin:.1e} precision={prec}")
        for c, (_, eta, bound, base_eta, base_bound) in heads():
            worst = max((pb for pb in c.pair_bounds if not pb.vacuous), key=lambda pb: pb.rhs)
            yield (f"delta={c.delta} eta={eta} bound={bound} baseline_eta={base_eta} "
                   f"baseline_bound={base_bound} worst_pair={worst.d}/{worst.d_prime}")
            for pb in c.pair_bounds:
                if pb.vacuous:
                    yield (f"  pair d={pb.d} d'={pb.d_prime} vacuous "
                           f"(target mean {pb.target_mean:.6f} >= {pb.d})")
                else:
                    wit = witnesses(pb)
                    yield (f"  pair d={pb.d} d'={pb.d_prime} rhs={pb.rhs:.6e} beta={wit[0]} "
                           f"gamma={wit[1]} beta'={wit[2]} gamma'={wit[3]}")

    return code, doc, rows, lines


def _cmd_bound(args: argparse.Namespace) -> _Result:
    if args.delta < 2:
        raise ValueError("delta must be at least 2")
    if not 0.0 <= args.eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    pairs = [(pb.d, pb.d_prime, pb.rhs) for pb in evaluate_pairs(args.delta, args.eta)]
    live = [r for _, _, r in pairs if r is not None]
    certified = bool(live) and all(r < 0.0 for r in live)
    eta = f"{args.eta:.6g}"

    def doc():
        return {
            "delta": args.delta,
            "eta": args.eta,
            "certified": certified,
            "pairs": [
                {"d": d, "d_prime": dp, "feasible": r is not None, "rhs": r}
                for d, dp, r in pairs
            ],
        }

    def rows():
        yield ["delta", "eta", "d", "d_prime", "feasible", "rhs"]
        for d, dp, r in pairs:
            yield [args.delta, eta, d, dp, _flag(r is not None),
                   "" if r is None else f"{r:.6e}"]

    def lines():
        yield f"# growth exponents delta={args.delta} eta={eta}"
        for d, dp, r in pairs:
            if r is None:
                yield f"pair d={d} d'={dp} infeasible at this eta"
            else:
                sign = "negative" if r < 0 else "NON-NEGATIVE"
                yield f"pair d={d} d'={dp} rhs={r:.6e} {sign}"
        yield "verdict: certified" if certified else "verdict: not certified"

    return (0 if certified else 1), doc, rows, lines


def _cmd_certify(args: argparse.Namespace) -> _Result:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.file!r}: {exc}") from exc
    try:
        cert = certificate_from_json(text)
    except CertificateFormatError as exc:
        malformed = [f"malformed certificate: {exc}", "verdict: FAIL"]
        return 1, None, None, lambda: malformed
    report = verify_certificate(cert)

    def doc():
        return {"passed": report.passed,
                "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                           for c in report.checks]}

    def rows():
        yield ["name", "passed", "detail"]
        for c in report.checks:
            yield [c.name, _flag(c.passed), c.detail.replace(",", ";")]

    def lines():
        yield (f"# certificate delta={cert.delta} eta={cert.eta:.6g} "
               f"bound={cert.expansion_bound:.6g}")
        for c in report.checks:
            yield f"ok   {c.name}" if c.passed else f"FAIL {c.name}: {c.detail}"
        yield f"verdict: {'PASS' if report.passed else 'FAIL'}"

    return (0 if report.passed else 1), doc, rows, lines


def _cmd_baseline(args: argparse.Namespace) -> _Result:
    if args.delta < 3:
        raise ValueError("baseline requires --delta >= 3")
    eta, bound = bollobas_eta(args.delta, args.precision)
    eta_text, bound_text = f"{eta:.{args.precision}f}", f"{bound:.6g}"
    note = "note: for delta=3, stronger bounds are known from other methods"

    def doc():
        doc = {"delta": args.delta, "eta": eta, "bound": bound}
        if args.delta == 3:
            doc["note"] = note
        return doc

    def rows():
        return [["delta", "eta", "bound"], [args.delta, eta_text, bound_text]]

    def lines():
        yield f"delta={args.delta} baseline_eta={eta_text} baseline_bound={bound_text}"
        if args.delta == 3:
            yield note

    return 0, doc, rows, lines


def _cmd_trend(args: argparse.Namespace) -> _Result:
    points = alpha_trend(args.deltas, args.margin, args.precision)
    fields = ("delta", "eta", "alpha", "gamma", "theta", "p1")

    def doc():
        return {
            "two_sqrt_ln2": TWO_SQRT_LN2,
            "points": [{k: getattr(p, k) for k in fields} for p in points],
        }

    def rows():
        yield list(fields)
        for p in points:
            yield [p.delta, f"{p.eta:.{args.precision}f}", f"{p.alpha:.6f}",
                   f"{p.gamma:.6f}", f"{p.theta:.6e}", f"{p.p1:.6f}"]

    def lines():
        yield f"# alpha trend (reference constant {TWO_SQRT_LN2:.5f})"
        for p in points:
            yield (f"delta={p.delta} eta={p.eta:.{args.precision}f} alpha={p.alpha:.6f} "
                   f"theta={p.theta:.6e} p1={p.p1:.6f}")

    return 0, doc, rows, lines


def _cmd_simulate(args: argparse.Namespace) -> _Result:
    s = expansion_experiment(
        args.delta, args.n, args.trials, args.seed, restarts=args.restarts,
        simple_only=args.simple, tie_rule=args.tie_rule,
    )

    def doc():
        fields = (
            "delta", "n", "trials", "restarts", "seed", "simple_only", "tie_rule",
            "certified_bound", "min_expansion", "mean_expansion",
            "frac_caps_within_delta", "frac_meeting_bound",
        )
        doc = {k: getattr(s, k) for k in fields}
        doc["min_expansion"] = float(s.min_expansion)
        doc["trials_detail"] = [
            dict(trial=r.index, num=r.expansion.numerator, den=r.expansion.denominator,
                 d=r.d, d_prime=r.d_prime, swaps=r.swaps)
            for r in s.records
        ]
        return doc

    def rows():
        yield ["trial", "n", "delta", "best_expansion_num", "best_expansion_den",
               "d", "d_prime", "swaps", "restarts"]
        for r in s.records:
            e = r.expansion
            yield [r.index, s.n, s.delta, e.numerator, e.denominator,
                   r.d, r.d_prime, r.swaps, s.restarts]

    def lines():
        yield (f"# expansion experiment delta={s.delta} n={s.n} trials={s.trials} "
               f"restarts={s.restarts} seed={s.seed} simple_only={s.simple_only} "
               f"tie_rule={s.tie_rule}")
        for r in s.records:
            e = r.expansion
            yield (f"trial={r.index} best_expansion={e.numerator}/{e.denominator} "
                   f"({float(e):.6f}) d={r.d} d_prime={r.d_prime} swaps={r.swaps}")
        yield (f"summary: min_expansion={float(s.min_expansion):.6f} "
               f"mean_expansion={s.mean_expansion:.6f} "
               f"caps_within_delta={s.frac_caps_within_delta:.3f}")
        if s.certified_bound is None:
            yield "summary: no certified bound for this degree"
        else:
            yield (f"summary: certified_bound={s.certified_bound:.6f} "
                   f"met_in={s.frac_meeting_bound:.3f} flagged={list(s.flagged_trials)}")

    return 0, doc, rows, lines


def _cmd_oracle(args: argparse.Namespace) -> _Result:
    graph = sample_pairing(args.delta, args.n, args.seed, simple_only=args.simple)
    value, argmin = brute_force_expansion(graph)
    num, den = value.numerator, value.denominator

    def doc():
        return dict(
            delta=args.delta, n=args.n, seed=args.seed, simple_only=args.simple,
            expansion_num=num, expansion_den=den, expansion=float(value),
            argmin=list(argmin),
        )

    def rows():
        return [
            ["delta", "n", "seed", "expansion_num", "expansion_den", "expansion", "argmin"],
            [args.delta, args.n, args.seed, num, den, f"{float(value):.6f}",
             " ".join(map(str, argmin))],
        ]

    def lines():
        return [
            f"# exact expansion delta={args.delta} n={args.n} seed={args.seed} "
            f"simple_only={args.simple}",
            f"i(G) = {num}/{den} = {float(value):.6f}",
            f"argmin S = {list(argmin)}",
        ]

    return 0, doc, rows, lines


_COMMANDS = {
    "table": _cmd_table,
    "bound": _cmd_bound,
    "certify": _cmd_certify,
    "baseline": _cmd_baseline,
    "trend": _cmd_trend,
    "simulate": _cmd_simulate,
    "oracle": _cmd_oracle,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, doc, rows, lines = _COMMANDS[args.subcommand](args)
    except (ValueError, _NoSimpleGraph) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoBound as exc:
        print(f"no bound: {exc}", file=sys.stderr)
        return 1
    out = sys.stdout
    try:
        if args.fmt == "json" and doc is not None:
            # json.dumps(doc, indent=2) would hold every token of the document
            # at once; iterencode yields the same chunks, written in batches.
            chunks = json.JSONEncoder(indent=2).iterencode(doc())
            while batch := "".join(islice(chunks, _JSON_BATCH)):
                out.write(batch)
            out.write("\n")
        elif args.fmt == "csv" and rows is not None:
            for row in rows():
                out.write(",".join(map(str, row)) + "\n")
        else:
            for line in lines():
                out.write(line + "\n")
        out.flush()
    except BrokenPipeError:
        # The reader stopped early (`| head`). The exit code still carries the
        # verdict; stdout goes to the null device so the flush at exit cannot
        # fail on the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, out.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
