"""Command-line front end: certification, verification, tables, experiments.

Exit codes carry the mathematical verdict so the tool works as a checker in
shell pipelines: 0 = certified / verified / computed, 1 = the claim failed
(non-negative exponent, failed verification, malformed certificate), 2 =
usage or validation error. Identical invocations produce byte-identical
output; every randomized command echoes its seed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .asymptotics import TWO_SQRT_LN2, alpha_trend
from .certifier import (
    DEFAULT_MARGIN,
    DEFAULT_PRECISION,
    BoundCertificate,
    CertificateFormatError,
    NoBound,
    bollobas_eta,
    build_table,
    certificate_from_json,
    certificate_to_json,
    evaluate_pairs,
    verify_certificate,
)
from .graphlab import (
    BEST_IMPROVEMENT,
    FIRST_IMPROVEMENT,
    brute_force_expansion,
    expansion_experiment,
    sample_pairing,
    summary_lines,
    summary_to_csv,
)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expander-cert",
        description=(
            "Certified lower bounds on the edge expansion of random regular "
            "multigraphs, with a pairing-model laboratory."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p: argparse.ArgumentParser, formats=("text", "csv", "json")):
        p.add_argument("--format", choices=formats, default="text", dest="fmt")
        p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
        p.add_argument("--precision", type=int, default=DEFAULT_PRECISION)

    p = sub.add_parser("table", help="certified bound per degree over a range")
    p.add_argument("--delta-min", type=int, required=True)
    p.add_argument("--delta-max", type=int, required=True)
    add_common(p)

    p = sub.add_parser("bound", help="per-pair growth exponents at a given eta")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--eta", type=float, required=True)
    add_common(p)

    p = sub.add_parser("certify", help="verify a serialized certificate")
    p.add_argument("--file", required=True)
    add_common(p)

    p = sub.add_parser("baseline", help="classical counting-bound eta and bound")
    p.add_argument("--delta", type=int, required=True)
    add_common(p)

    p = sub.add_parser("trend", help="alpha = eta*sqrt(delta) over even degrees")
    p.add_argument("--deltas", type=int, nargs="+", required=True)
    add_common(p)

    p = sub.add_parser("simulate", help="descent experiment on sampled graphs")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--simple", action="store_true")
    p.add_argument(
        "--tie-rule",
        choices=(BEST_IMPROVEMENT, FIRST_IMPROVEMENT),
        default=BEST_IMPROVEMENT,
        dest="tie_rule",
    )
    add_common(p)

    p = sub.add_parser("oracle", help="exact expansion of one sampled graph")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--simple", action="store_true")
    add_common(p)

    return parser


def _fmt_g(x: float) -> str:
    return format(x, ".6g")


def _cert_doc(cert: BoundCertificate) -> dict:
    return json.loads(certificate_to_json(cert))


def _worst_pair(cert: BoundCertificate) -> str:
    live = [pb for pb in cert.pair_bounds if not pb.vacuous]
    worst = max(live, key=lambda pb: pb.rhs)
    return f"{worst.d}/{worst.d_prime}"


def _cmd_table(args: argparse.Namespace, out: list[str]) -> int:
    certs = build_table(args.delta_min, args.delta_max, args.margin, args.precision)

    if args.fmt == "json":
        docs = [_cert_doc(c) for c in certs]
        payload = docs[0] if len(docs) == 1 else docs
        out.append(json.dumps(payload, indent=2))
        return 0
    if args.fmt == "csv":
        out.append(
            "delta,eta,bound,baseline_eta,baseline_bound,"
            "d,d_prime,vacuous,rhs,beta,gamma,beta_prime,gamma_prime"
        )
        for c in certs:
            head = (
                f"{c.delta},{c.eta:.{args.precision}f},{_fmt_g(c.expansion_bound)},"
                f"{c.baseline_eta:.{args.precision}f},{_fmt_g(c.baseline_bound)}"
            )
            for pb in c.pair_bounds:
                if pb.vacuous:
                    out.append(f"{head},{pb.d},{pb.d_prime},true,,,,,")
                else:
                    out.append(
                        f"{head},{pb.d},{pb.d_prime},false,{pb.rhs:.6e},"
                        f"{pb.side.beta:.5f},{pb.side.gamma:.5f},"
                        f"{pb.side_prime.beta:.5f},{pb.side_prime.gamma:.5f}"
                    )
        return 0
    out.append(
        f"# bounds table delta={args.delta_min}..{args.delta_max} "
        f"margin={args.margin:.1e} precision={args.precision}"
    )
    for c in certs:
        out.append(
            f"delta={c.delta} eta={c.eta:.{args.precision}f} "
            f"bound={_fmt_g(c.expansion_bound)} "
            f"baseline_eta={c.baseline_eta:.{args.precision}f} "
            f"baseline_bound={_fmt_g(c.baseline_bound)} "
            f"worst_pair={_worst_pair(c)}"
        )
        for pb in c.pair_bounds:
            if pb.vacuous:
                out.append(
                    f"  pair d={pb.d} d'={pb.d_prime} vacuous "
                    f"(target mean {pb.target_mean:.6f} >= {pb.d})"
                )
            else:
                out.append(
                    f"  pair d={pb.d} d'={pb.d_prime} rhs={pb.rhs:.6e} "
                    f"beta={pb.side.beta:.5f} gamma={pb.side.gamma:.5f} "
                    f"beta'={pb.side_prime.beta:.5f} "
                    f"gamma'={pb.side_prime.gamma:.5f}"
                )
    return 0


def _cmd_bound(args: argparse.Namespace, out: list[str]) -> int:
    if args.delta < 2:
        raise ValueError("delta must be at least 2")
    if not 0.0 <= args.eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    rows = [(pb.d, pb.d_prime, pb.rhs) for pb in evaluate_pairs(args.delta, args.eta)]
    live = [r for _, _, r in rows if r is not None]
    certified = bool(live) and all(r < 0.0 for r in live)

    if args.fmt == "json":
        out.append(
            json.dumps(
                {
                    "delta": args.delta,
                    "eta": args.eta,
                    "certified": certified,
                    "pairs": [
                        {"d": d, "d_prime": dp, "feasible": r is not None, "rhs": r}
                        for d, dp, r in rows
                    ],
                },
                indent=2,
            )
        )
    elif args.fmt == "csv":
        out.append("delta,eta,d,d_prime,feasible,rhs")
        for d, dp, r in rows:
            rhs = "" if r is None else f"{r:.6e}"
            out.append(
                f"{args.delta},{_fmt_g(args.eta)},{d},{dp},"
                f"{'true' if r is not None else 'false'},{rhs}"
            )
    else:
        out.append(f"# growth exponents delta={args.delta} eta={_fmt_g(args.eta)}")
        for d, dp, r in rows:
            if r is None:
                out.append(f"pair d={d} d'={dp} infeasible at this eta")
            else:
                sign = "negative" if r < 0 else "NON-NEGATIVE"
                out.append(f"pair d={d} d'={dp} rhs={r:.6e} {sign}")
        out.append(
            "verdict: certified" if certified else "verdict: not certified"
        )
    return 0 if certified else 1


def _cmd_certify(args: argparse.Namespace, out: list[str]) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {args.file!r}: {exc}") from exc
    try:
        cert = certificate_from_json(text)
    except CertificateFormatError as exc:
        out.append(f"malformed certificate: {exc}")
        out.append("verdict: FAIL")
        return 1
    report = verify_certificate(cert)
    if args.fmt == "json":
        out.append(
            json.dumps(
                {
                    "passed": report.passed,
                    "checks": [
                        {"name": c.name, "passed": c.passed, "detail": c.detail}
                        for c in report.checks
                    ],
                },
                indent=2,
            )
        )
    elif args.fmt == "csv":
        out.append("name,passed,detail")
        for c in report.checks:
            detail = c.detail.replace(",", ";")
            out.append(f"{c.name},{'true' if c.passed else 'false'},{detail}")
    else:
        out.append(
            f"# certificate delta={cert.delta} eta={_fmt_g(cert.eta)} "
            f"bound={_fmt_g(cert.expansion_bound)}"
        )
        for c in report.checks:
            if c.passed:
                out.append(f"ok   {c.name}")
            else:
                out.append(f"FAIL {c.name}: {c.detail}")
        out.append(f"verdict: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 1


def _cmd_baseline(args: argparse.Namespace, out: list[str]) -> int:
    if args.delta < 3:
        raise ValueError("baseline requires --delta >= 3")
    eta, bound = bollobas_eta(args.delta, args.precision)
    note = (
        "note: for delta=3, stronger bounds are known from other methods"
        if args.delta == 3
        else ""
    )
    if args.fmt == "json":
        doc = {"delta": args.delta, "eta": eta, "bound": bound}
        if note:
            doc["note"] = note
        out.append(json.dumps(doc, indent=2))
    elif args.fmt == "csv":
        out.append("delta,eta,bound")
        out.append(f"{args.delta},{eta:.{args.precision}f},{_fmt_g(bound)}")
    else:
        out.append(
            f"delta={args.delta} baseline_eta={eta:.{args.precision}f} "
            f"baseline_bound={_fmt_g(bound)}"
        )
        if note:
            out.append(note)
    return 0


def _cmd_trend(args: argparse.Namespace, out: list[str]) -> int:
    points = alpha_trend(args.deltas, args.margin, args.precision)
    if args.fmt == "json":
        out.append(
            json.dumps(
                {
                    "two_sqrt_ln2": TWO_SQRT_LN2,
                    "points": [
                        {
                            "delta": p.delta,
                            "eta": p.eta,
                            "alpha": p.alpha,
                            "gamma": p.gamma,
                            "theta": p.theta,
                            "p1": p.p1,
                        }
                        for p in points
                    ],
                },
                indent=2,
            )
        )
    elif args.fmt == "csv":
        out.append("delta,eta,alpha,gamma,theta,p1")
        for p in points:
            out.append(
                f"{p.delta},{p.eta:.{args.precision}f},{p.alpha:.6f},"
                f"{p.gamma:.6f},{p.theta:.6e},{p.p1:.6f}"
            )
    else:
        out.append(f"# alpha trend (reference constant {TWO_SQRT_LN2:.5f})")
        for p in points:
            out.append(
                f"delta={p.delta} eta={p.eta:.{args.precision}f} "
                f"alpha={p.alpha:.6f} theta={p.theta:.6e} p1={p.p1:.6f}"
            )
    return 0


def _cmd_simulate(args: argparse.Namespace, out: list[str]) -> int:
    summary = expansion_experiment(
        args.delta,
        args.n,
        args.trials,
        args.seed,
        restarts=args.restarts,
        simple_only=args.simple,
        tie_rule=args.tie_rule,
    )
    if args.fmt == "json":
        out.append(
            json.dumps(
                {
                    "delta": summary.delta,
                    "n": summary.n,
                    "trials": summary.trials,
                    "restarts": summary.restarts,
                    "seed": summary.seed,
                    "simple_only": summary.simple_only,
                    "tie_rule": summary.tie_rule,
                    "certified_bound": summary.certified_bound,
                    "min_expansion": float(summary.min_expansion),
                    "mean_expansion": summary.mean_expansion,
                    "frac_caps_within_delta": summary.frac_caps_within_delta,
                    "frac_meeting_bound": summary.frac_meeting_bound,
                    "trials_detail": [
                        {
                            "trial": r.index,
                            "num": r.expansion.numerator,
                            "den": r.expansion.denominator,
                            "d": r.d,
                            "d_prime": r.d_prime,
                            "swaps": r.swaps,
                        }
                        for r in summary.records
                    ],
                },
                indent=2,
            )
        )
    elif args.fmt == "csv":
        out.append(summary_to_csv(summary).rstrip("\n"))
    else:
        out.extend(summary_lines(summary))
    return 0


def _cmd_oracle(args: argparse.Namespace, out: list[str]) -> int:
    graph = sample_pairing(args.delta, args.n, args.seed, simple_only=args.simple)
    value, argmin = brute_force_expansion(graph)
    if args.fmt == "json":
        out.append(
            json.dumps(
                {
                    "delta": args.delta,
                    "n": args.n,
                    "seed": args.seed,
                    "simple_only": args.simple,
                    "expansion_num": value.numerator,
                    "expansion_den": value.denominator,
                    "expansion": float(value),
                    "argmin": list(argmin),
                },
                indent=2,
            )
        )
    elif args.fmt == "csv":
        out.append("delta,n,seed,expansion_num,expansion_den,expansion,argmin")
        out.append(
            f"{args.delta},{args.n},{args.seed},{value.numerator},"
            f"{value.denominator},{float(value):.6f},"
            f"{' '.join(map(str, argmin))}"
        )
    else:
        out.append(
            f"# exact expansion delta={args.delta} n={args.n} seed={args.seed} "
            f"simple_only={args.simple}"
        )
        out.append(
            f"i(G) = {value.numerator}/{value.denominator} = {float(value):.6f}"
        )
        out.append(f"argmin S = {list(argmin)}")
    return 0


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
    parser = _build_parser()
    args = parser.parse_args(argv)
    out: list[str] = []
    try:
        if args.precision < 1:
            raise ValueError("precision must be a positive integer")
        if not args.margin > 0.0:
            raise ValueError("margin must be positive")
        code = _COMMANDS[args.subcommand](args, out)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NoBound as exc:
        print(f"no bound: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write("\n".join(out) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
