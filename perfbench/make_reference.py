"""Regenerate perfbench/reference.json from the code under src/.

    python3 perfbench/make_reference.py

The stored references are the outputs the benchmark checks every run
against, so regenerate them only when an output is meant to change, and say
so in CHANGES.md. Before the table references are written, degrees 4-20, 30
and 40 are cross-checked against tests/table_reference.ETA (read only).
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from expander_bounds import asymptotics, certifier, cli, graphlab  # noqa: E402

PKG = {"asymptotics": asymptotics, "certifier": certifier, "cli": cli, "graphlab": graphlab}
REFERENCE = HERE / "reference.json"
SCRATCH = ROOT / ".bench_runs"


def outcomes(workload: str, seed: int) -> dict:
    SCRATCH.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as scratch:
        run = workloads.body(workload, seed, PKG, Path(scratch))
    failed = [(op.name, op.error) for op in run.ops if op.error is not None]
    if failed:
        raise SystemExit(f"{workload} seed {seed}: operations raised: {failed}")
    for op in run.ops:
        if op.name.startswith("certify[") and workloads.check_certify(op.value):
            raise SystemExit(f"{op.name} did not pass: {op.value}")
    print(f"{workload} seed {seed}: " + " ".join(
        f"{k}={v:.2f}" for k, v in run.phases.items()), file=sys.stderr)
    return {op.name: workloads.outcome(op) for op in run.ops if not op.name.startswith("certify[")}


def cross_check_table(table: dict) -> None:
    spec = importlib.util.spec_from_file_location("table_reference", ROOT / "tests" / "table_reference.py")
    pinned = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pinned)
    wrong = {d: (table["eta"][str(d)], eta) for d, eta in pinned.ETA.items()
             if table["eta"][str(d)] != eta}
    if wrong:
        raise SystemExit(f"table disagrees with tests/table_reference.ETA: {wrong}")


def main() -> int:
    ref = {"table": outcomes("table", 0)}
    cross_check_table(ref["table"]["table"])
    ref["large-degree"] = outcomes("large-degree", 0)
    ref["lab"] = {str(s): outcomes("lab", s) for s in range(workloads.LAB_SEEDS)}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
