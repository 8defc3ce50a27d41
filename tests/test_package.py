"""What the repository ships beside the library's behaviour: the package's
public names and the bench scripts under `scripts/`."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import expander_bounds
from expander_bounds import asymptotics, certifier, combinatorics, graphlab, side_solver
from test_asymptotics import ONE_SIDED_GRID_SHA256

ROOT = Path(__file__).resolve().parent.parent
# The certify_table row's fingerprint, every check's (name, passed, detail) on
# the paper's table: the details print each recomputed exponent to 17 digits,
# so this moves with the root finder's witnesses.
CERTIFY_TABLE_SHA256 = "6aff62d58f45aad690bedafae360569fddee5928636a75f90127131880a640fa"

PUBLIC_NAMES = [
    "AsymptoticPoint",
    "BEST_IMPROVEMENT",
    "BetaUnderflow",
    "BoundCertificate",
    "CertificateFormatError",
    "CheckResult",
    "CutState",
    "DEFAULT_MARGIN",
    "DEFAULT_PRECISION",
    "ExperimentSummary",
    "FIRST_IMPROVEMENT",
    "InfeasibleTarget",
    "NoBound",
    "OutDegreeVector",
    "PairBound",
    "RegularMultigraph",
    "SideSolution",
    "TWO_SQRT_LN2",
    "TrialRecord",
    "VerificationReport",
    "all_pairs",
    "alpha_trend",
    "binomial_log_row",
    "bollobas_eta",
    "bollobas_threshold",
    "brute_force_expansion",
    "build_table",
    "certificate_from_json",
    "certificate_to_dict",
    "certificate_to_json",
    "cut_state",
    "derive_seed",
    "evaluate_pairs",
    "expansion_experiment",
    "feasible_pairs",
    "local_descent",
    "min_eta",
    "profile_residuals",
    "sample_pairing",
    "solve_one_sided",
    "solve_side",
    "target_mean",
    "truncated_log_moments",
    "verify_certificate",
]


def test_public_surface_is_pinned():
    assert expander_bounds.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(expander_bounds, name) is not None, name


def test_package_exports_the_union_of_module_surfaces():
    # the package's __all__ is built from its library modules' lists, so each
    # public name is declared once, in its own module
    modules = (asymptotics, certifier, combinatorics, graphlab, side_solver)
    union = [name for module in modules for name in module.__all__]
    assert len(set(union)) == len(union)
    assert sorted(union) == PUBLIC_NAMES


def _run_script(*argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def test_bench_scripts_run():
    done = _run_script(
        "scripts/bench_descent.py", "--row", "--sizes", "200", "--rules", "best-improvement"
    )
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    row = json.loads(line)
    assert row["n"] == 200 and row["rule"] == "best-improvement"
    assert row["final_cut"] <= row["start_cut"]

    done = _run_script("scripts/bench_sampler.py", "--help")
    assert done.returncode == 0, done.stderr
    assert "--parent" in done.stdout

    done = _run_script("scripts/bench_sampler.py", "--row", "oracle")
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    row = json.loads(line)
    assert row["brute_force_s"] > 0
    value, argmin = graphlab.brute_force_expansion(graphlab.sample_pairing(3, 20, 1))
    assert row["fingerprint"] == f"{value} {argmin}"

    # three rows in one child, one output line each
    done = _run_script("scripts/bench_sampler.py", "--row", "eta_large", "one_sided",
                       "certify_table")
    assert done.returncode == 0, done.stderr
    eta_line, one_sided_line, certify_line = done.stdout.splitlines()
    row = json.loads(eta_line)
    assert row["min_eta_large_s"] > 0
    certs = [certifier.min_eta(delta, 1e-3) for delta in (100, 200, 400)]
    text = "".join(map(certifier.certificate_to_json, certs))
    assert row["fingerprint"] == hashlib.sha256(text.encode()).hexdigest()
    row = json.loads(one_sided_line)
    assert row["one_sided_s"] > 0
    assert row["fingerprint"] == ONE_SIDED_GRID_SHA256
    row = json.loads(certify_line)
    assert row["verify_table_s"] > 0
    assert row["fingerprint"] == CERTIFY_TABLE_SHA256

    # a paired row, with both sides the same checkout
    done = _run_script("scripts/bench_sampler.py", "--paired-row", "cut_small",
                       "--parent", str(ROOT), "--change", str(ROOT))
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    row = json.loads(line)
    assert row["unit"] == "us_per_call" and len(row["parent"]["values"]) == row["rounds"]
    g = graphlab.sample_pairing(3, 14, 1, simple_only=True)
    states = [graphlab.cut_state(g, set(c))
              for k in range(8) for c in itertools.combinations(range(14), k)]
    digest = hashlib.sha256(repr([(st.cut, st.hist_s.counts, st.hist_comp.counts)
                                  for st in states]).encode()).hexdigest()
    assert row["fingerprints"] == {"parent": [digest], "change": [digest]}
