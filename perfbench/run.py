"""Benchmark of expander-bounds: the CLI commands users run, end to end and per layer.

    python3 perfbench/run.py --workload {table,large-degree,lab} --seed N --seconds S --trace {0,1}

Run it from anywhere inside a checkout; it measures the package under
``src/`` of the checkout that holds this file. Each repetition of the
workload runs in a fresh worker process, so caches start cold as they do for
a CLI user, and workers run one at a time. Repetitions continue while the
next one still fits in ``--seconds``; an untraced run makes at least three.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates an untraced and a traced repetition and reports the
per-layer metrics, including the tracing overhead (traced over untraced
wall time). The traced spans of the last traced repetition are written to
``.bench_runs/trace-<workload>.json``.

Informational JSON lines come first (environment, every timing with its
quartiles and sample count, output fingerprints, failures). The last line is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import LAB_SEEDS, WORKLOADS, lab_seed  # noqa: E402

RUN_LIMIT_S = 170.0  # a run must end within 180 s
# An untraced run takes at least three repetitions, so that its median drops
# one process that ran on a slow core; set-up is sampled at least seven times.
MIN_REPS = 3
MIN_SETUP_SAMPLES = 7


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("EXPANDER_CERT_THREADS", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"  # one process, no threads of its own
    return env


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one worker to completion and return its JSON report."""
    spawned_at = monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode, repr(spawned_at)],
        cwd=ROOT, env=worker_env(), capture_output=True, text=True,
        timeout=max(1.0, deadline - spawned_at),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "samples": len(values),
            "values": values}


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def info(kind: str, **fields) -> None:
    print(json.dumps({"info": kind, **fields}))


def measure(workload: str, seed: int, seconds: float, traced: bool) -> dict[str, list[dict]]:
    """Repeat the workload in fresh workers while the next repetition still fits."""
    start = monotonic()
    deadline = start + RUN_LIMIT_S
    reports: dict[str, list[dict]] = {"plain": [], "traced": [], "setup": []}
    group = ("plain", "traced") if traced else ("plain",)
    min_groups = 1 if traced else MIN_REPS
    while True:
        g0 = monotonic()
        for mode in group:
            reports[mode].append(spawn(workload, seed, mode, deadline))
        now = monotonic()
        if len(reports["plain"]) >= min_groups and now - start + (now - g0) > seconds:
            break
    if not traced:
        for _ in range(MIN_SETUP_SAMPLES - len(reports["plain"])):
            reports["setup"].append(spawn(workload, seed, "setup", deadline))
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "expander_bounds" / "__init__.py").is_file():
        print(f"error: no package to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    load_start = os.getloadavg()
    try:
        reports = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    plain, traced = reports["plain"], reports["traced"]
    everything = plain + traced

    info("env", workload=args.workload, seed=args.seed,
         lab_seed=lab_seed(args.seed) if args.workload == "lab" else None,
         lab_seeds=LAB_SEEDS, trace=args.trace, python=platform.python_version(),
         numpy=plain[0]["numpy"], nproc=os.cpu_count(),
         cpus_allowed=len(os.sched_getaffinity(0)), loadavg_start=load_start,
         loadavg_end=os.getloadavg(), git_commit=git_commit(), src_sha256=src_sha256())

    values: dict[str, float] = {}
    timings = {
        "setup_s": [r["setup_s"] for r in plain + reports["setup"]],
        "wall_s": [r["wall_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    for phase in plain[0]["phases"]:
        timings[phase] = [r["phases"][phase] for r in plain]
    for name, samples in timings.items():
        stats = summary(samples)
        values[name] = stats["median"]
        info("metric", name=name, unit="MB" if name.endswith("_mb") else "s", **stats)

    if traced:
        layer_names = traced[0]["layers"].keys()
        values.update({k: statistics.median(r["layers"][k] for r in traced) for k in layer_names})
        values["trace.untraced_wall_s"] = values["wall_s"]
        values["trace.overhead"] = values["trace.traced_wall_s"] / values["wall_s"]
        info("trace", overhead=values["trace.overhead"],
             traced_wall_s=values["trace.traced_wall_s"], untraced_wall_s=values["wall_s"],
             self_coverage=values["trace.self_coverage"],
             spans_file=f".bench_runs/trace-{args.workload}.json")

    info("fingerprints", **plain[0]["fingerprints"])
    attempted = sum(r["attempted"] for r in everything)
    failed = sum(r["failed"] for r in everything)
    info("ops", attempted=attempted, failed=failed, fail_frac=failed / attempted)
    for r in everything:
        for op, detail in r["problems"][:20]:
            info("problem", op=op, detail=detail)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
