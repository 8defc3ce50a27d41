"""One benchmark process: set up, run a workload body once, report one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED MODE SPAWNED_AT

MODE is ``setup`` (stop once set up), ``plain`` or ``traced``. SPAWNED_AT is
the CLOCK_MONOTONIC reading the parent took just before starting this
process, so set-up time covers interpreter start, importing numpy and the
package, and loading the reference outputs. ``run.py`` starts this script;
it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_runs"


def _swaps(run) -> int:
    """Total of the ``swaps`` column over the simulate CSVs (exact descent counts)."""
    total = 0
    for op in run.ops:
        if op.name.startswith("simulate") and op.error is None:
            header, *rows = op.value[1].splitlines()
            col = header.split(",").index("swaps")
            total += sum(int(row.split(",")[col]) for row in rows)
    return total


def _fingerprints(workloads, pkg, run) -> dict[str, str]:
    """sha256 of each command's stdout, for information: a drift shows without failing."""
    prints = {}
    certify = []
    for op in run.ops:
        if op.error is not None or not isinstance(op.value, tuple):
            continue
        if op.name.startswith("certify["):
            certify.append(op.value[1])
        else:
            prints[op.name] = workloads.sha256(op.value[1])
    if certify:
        prints["certify[all]"] = workloads.sha256("".join(certify))
    table = next((op for op in run.ops if op.name == "table" and op.error is None), None)
    if table is not None:
        try:
            prints["table --format csv"] = workloads.table_csv_sha(pkg, table.value)
        except Exception as exc:  # informational only; report and carry on
            prints["table --format csv"] = f"unavailable: {type(exc).__name__}: {exc}"
    return prints


def main(argv: list[str]) -> int:
    workload, seed, mode, spawned_at = argv[0], int(argv[1]), argv[2], float(argv[3])
    os.environ.pop("EXPANDER_CERT_THREADS", None)  # measure the default, single-threaded path
    sys.path.insert(0, str(ROOT / "src"))

    import numpy

    import expander_bounds
    from expander_bounds import asymptotics, certifier, cli, graphlab

    import tracer
    import workloads

    if Path(expander_bounds.__file__).resolve().parent != ROOT / "src" / "expander_bounds":
        raise SystemExit(f"imported expander_bounds from {expander_bounds.__file__}, "
                         f"not from {ROOT / 'src'}")
    ref = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    result = {
        "setup_s": time.clock_gettime(time.CLOCK_MONOTONIC) - spawned_at,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if mode == "setup":
        print(json.dumps(result))
        return 0

    pkg = {"asymptotics": asymptotics, "certifier": certifier, "cli": cli, "graphlab": graphlab}
    scratch = OUT_DIR / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    trace = tracer.Tracer() if mode == "traced" else None
    try:
        if trace is None:
            t0 = tracer.clock()
            run = workloads.body(workload, seed, pkg, scratch)
            wall_s = tracer.clock() - t0
        else:
            with tracer.install(trace):
                t0 = tracer.clock()
                with trace.span(tracer.ROOT_SPAN):
                    run = workloads.body(workload, seed, pkg, scratch)
                wall_s = tracer.clock() - t0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = workloads.check(workload, seed, run, ref)
    result.update(
        wall_s=wall_s,
        peak_rss_mb=peak_rss_mb,
        phases=run.phases,
        attempted=len(run.ops),
        failed=len({name for name, _ in problems}),
        problems=problems,
        fingerprints=_fingerprints(workloads, pkg, run),
    )
    if trace is not None:
        trace.dump(OUT_DIR / f"trace-{workload}.json")
        layers = tracer.layer_metrics(trace, _swaps(run))
        layers["trace.traced_wall_s"] = wall_s
        layers["trace.self_coverage"] = layers["trace.self_sum_s"] / wall_s
        result["layers"] = layers
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
