"""Command-line front end: certification, verification, tables, experiments.

Each command computes its result once and returns it as a JSON document,
csv rows (header first) and text lines; `main` is the one place that renders
them, for `--format json`, `csv` and `text`. An outcome with no document or
rows (a malformed certificate) prints its text lines in every format.

Exit codes carry the mathematical verdict so the tool works as a checker in
shell pipelines: 0 = certified / verified / computed, 1 = the claim failed
(non-negative exponent, failed verification, malformed certificate), 2 =
usage or validation error. `table` checks every certificate it prints with
the verifier and exits 1, naming the failed checks on stderr, when one is
rejected. Identical invocations produce byte-identical output; every
randomized command echoes its seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

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
    brute_force_expansion,
    expansion_experiment,
    sample_pairing,
)

__all__ = ["main"]


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
# first, text lines). A document or rows of None fall back to the text lines.
_Result = tuple[int, object, list, list[str]]


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
    docs = [certificate_to_dict(c) for c in certs]
    rows = [["delta", "eta", "bound", "baseline_eta", "baseline_bound", "d", "d_prime",
             "vacuous", "rhs", "beta", "gamma", "beta_prime", "gamma_prime"]]
    lines = [
        f"# bounds table delta={args.delta_min}..{args.delta_max} "
        f"margin={args.margin:.1e} precision={prec}"
    ]
    for c in certs:
        eta, bound = f"{c.eta:.{prec}f}", f"{c.expansion_bound:.6g}"
        base_eta, base_bound = f"{c.baseline_eta:.{prec}f}", f"{c.baseline_bound:.6g}"
        live = [pb for pb in c.pair_bounds if not pb.vacuous]
        worst = max(live, key=lambda pb: pb.rhs)
        lines.append(
            f"delta={c.delta} eta={eta} bound={bound} baseline_eta={base_eta} "
            f"baseline_bound={base_bound} worst_pair={worst.d}/{worst.d_prime}"
        )
        head = [c.delta, eta, bound, base_eta, base_bound]
        for pb in c.pair_bounds:
            if pb.vacuous:
                rows.append(head + [pb.d, pb.d_prime, "true", "", "", "", "", ""])
                lines.append(
                    f"  pair d={pb.d} d'={pb.d_prime} vacuous "
                    f"(target mean {pb.target_mean:.6f} >= {pb.d})"
                )
                continue
            side, prime = pb.side, pb.side_prime
            wit = [f"{w:.5f}" for w in (side.beta, side.gamma, prime.beta, prime.gamma)]
            rows.append(head + [pb.d, pb.d_prime, "false", f"{pb.rhs:.6e}"] + wit)
            lines.append(
                f"  pair d={pb.d} d'={pb.d_prime} rhs={pb.rhs:.6e} beta={wit[0]} "
                f"gamma={wit[1]} beta'={wit[2]} gamma'={wit[3]}"
            )
    return code, docs[0] if len(docs) == 1 else docs, rows, lines


def _cmd_bound(args: argparse.Namespace) -> _Result:
    if args.delta < 2:
        raise ValueError("delta must be at least 2")
    if not 0.0 <= args.eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    pairs = [(pb.d, pb.d_prime, pb.rhs) for pb in evaluate_pairs(args.delta, args.eta)]
    live = [r for _, _, r in pairs if r is not None]
    certified = bool(live) and all(r < 0.0 for r in live)
    doc = {
        "delta": args.delta,
        "eta": args.eta,
        "certified": certified,
        "pairs": [
            {"d": d, "d_prime": dp, "feasible": r is not None, "rhs": r}
            for d, dp, r in pairs
        ],
    }
    eta = f"{args.eta:.6g}"
    rows = [["delta", "eta", "d", "d_prime", "feasible", "rhs"]]
    lines = [f"# growth exponents delta={args.delta} eta={eta}"]
    for d, dp, r in pairs:
        rhs = "" if r is None else f"{r:.6e}"
        rows.append([args.delta, eta, d, dp, _flag(r is not None), rhs])
        if r is None:
            lines.append(f"pair d={d} d'={dp} infeasible at this eta")
        else:
            sign = "negative" if r < 0 else "NON-NEGATIVE"
            lines.append(f"pair d={d} d'={dp} rhs={rhs} {sign}")
    lines.append("verdict: certified" if certified else "verdict: not certified")
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
        return 1, None, None, [f"malformed certificate: {exc}", "verdict: FAIL"]
    report = verify_certificate(cert)
    doc = {"passed": report.passed,
           "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                      for c in report.checks]}
    rows = [["name", "passed", "detail"]]
    lines = [
        f"# certificate delta={cert.delta} eta={cert.eta:.6g} "
        f"bound={cert.expansion_bound:.6g}"
    ]
    for c in report.checks:
        rows.append([c.name, _flag(c.passed), c.detail.replace(",", ";")])
        lines.append(f"ok   {c.name}" if c.passed else f"FAIL {c.name}: {c.detail}")
    lines.append(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    return (0 if report.passed else 1), doc, rows, lines


def _cmd_baseline(args: argparse.Namespace) -> _Result:
    if args.delta < 3:
        raise ValueError("baseline requires --delta >= 3")
    eta, bound = bollobas_eta(args.delta, args.precision)
    eta_text, bound_text = f"{eta:.{args.precision}f}", f"{bound:.6g}"
    doc = {"delta": args.delta, "eta": eta, "bound": bound}
    rows = [["delta", "eta", "bound"], [args.delta, eta_text, bound_text]]
    lines = [f"delta={args.delta} baseline_eta={eta_text} baseline_bound={bound_text}"]
    if args.delta == 3:
        doc["note"] = "note: for delta=3, stronger bounds are known from other methods"
        lines.append(doc["note"])
    return 0, doc, rows, lines


def _cmd_trend(args: argparse.Namespace) -> _Result:
    points = alpha_trend(args.deltas, args.margin, args.precision)
    fields = ("delta", "eta", "alpha", "gamma", "theta", "p1")
    doc = {
        "two_sqrt_ln2": TWO_SQRT_LN2,
        "points": [{k: getattr(p, k) for k in fields} for p in points],
    }
    rows = [list(fields)]
    lines = [f"# alpha trend (reference constant {TWO_SQRT_LN2:.5f})"]
    for p in points:
        eta = f"{p.eta:.{args.precision}f}"
        rows.append([p.delta, eta, f"{p.alpha:.6f}", f"{p.gamma:.6f}",
                     f"{p.theta:.6e}", f"{p.p1:.6f}"])
        lines.append(
            f"delta={p.delta} eta={eta} alpha={p.alpha:.6f} "
            f"theta={p.theta:.6e} p1={p.p1:.6f}"
        )
    return 0, doc, rows, lines


def _cmd_simulate(args: argparse.Namespace) -> _Result:
    s = expansion_experiment(
        args.delta, args.n, args.trials, args.seed, restarts=args.restarts,
        simple_only=args.simple, tie_rule=args.tie_rule,
    )
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
    rows = [["trial", "n", "delta", "best_expansion_num", "best_expansion_den",
             "d", "d_prime", "swaps", "restarts"]]
    lines = [
        f"# expansion experiment delta={s.delta} n={s.n} trials={s.trials} "
        f"restarts={s.restarts} seed={s.seed} simple_only={s.simple_only} "
        f"tie_rule={s.tie_rule}"
    ]
    for r in s.records:
        e = r.expansion
        rows.append([r.index, s.n, s.delta, e.numerator, e.denominator,
                     r.d, r.d_prime, r.swaps, s.restarts])
        lines.append(
            f"trial={r.index} best_expansion={e.numerator}/{e.denominator} "
            f"({float(e):.6f}) d={r.d} d_prime={r.d_prime} swaps={r.swaps}"
        )
    lines.append(
        f"summary: min_expansion={float(s.min_expansion):.6f} "
        f"mean_expansion={s.mean_expansion:.6f} "
        f"caps_within_delta={s.frac_caps_within_delta:.3f}"
    )
    if s.certified_bound is None:
        lines.append("summary: no certified bound for this degree")
    else:
        lines.append(
            f"summary: certified_bound={s.certified_bound:.6f} "
            f"met_in={s.frac_meeting_bound:.3f} flagged={list(s.flagged_trials)}"
        )
    return 0, doc, rows, lines


def _cmd_oracle(args: argparse.Namespace) -> _Result:
    graph = sample_pairing(args.delta, args.n, args.seed, simple_only=args.simple)
    value, argmin = brute_force_expansion(graph)
    num, den = value.numerator, value.denominator
    doc = dict(
        delta=args.delta, n=args.n, seed=args.seed, simple_only=args.simple,
        expansion_num=num, expansion_den=den, expansion=float(value),
        argmin=list(argmin),
    )
    rows = [
        ["delta", "n", "seed", "expansion_num", "expansion_den", "expansion", "argmin"],
        [args.delta, args.n, args.seed, num, den, f"{float(value):.6f}",
         " ".join(map(str, argmin))],
    ]
    lines = [
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoBound as exc:
        print(f"no bound: {exc}", file=sys.stderr)
        return 1
    if args.fmt == "json" and doc is not None:
        lines = [json.dumps(doc, indent=2)]
    elif args.fmt == "csv" and rows is not None:
        lines = [",".join(map(str, row)) for row in rows]
    sys.stdout.write("\n".join(lines) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
