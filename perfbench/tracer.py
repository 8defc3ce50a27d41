"""Span tracer that wraps the package's public functions from the outside.

Nothing under ``src/`` knows about it: :func:`install` replaces every
module-level binding of each traced function (the defining module, every
module that imported it, and the package namespace) with a wrapper, and
restores the originals on exit.

A span is ``(name, start, end, parent)`` and lives in memory until the run
ends. Leaf functions called hundreds of thousands of times are *folded*:
each call adds to a count and a time total on the enclosing span instead of
opening a span of its own. A span's self time is its duration minus the part
of it covered by child spans and folded calls.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from dataclasses import dataclass, field

clock = time.perf_counter

PACKAGE = "expander_bounds"


@dataclass
class Span:
    name: str
    start: float
    parent: int  # index into Tracer.spans; -1 for the root
    end: float = 0.0
    folded_s: float = 0.0  # time of folded calls made directly from this span
    work: float = 0.0  # optional per-call work count (points, subsets, ...)


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    # (name, parent span name) -> [calls, seconds]
    folded: dict[tuple[str, str], list] = field(default_factory=dict)

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, clock(), parent))
        idx = len(self.spans) - 1
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = clock()
        self.stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, fold: bool = False, work=None):
        spans, stack, folded = self.spans, self.stack, self.folded

        if fold:
            def folded_call(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    parent = spans[stack[-1]]
                    parent.folded_s += dt
                    rec = folded.get((name, parent.name))
                    if rec is None:
                        folded[(name, parent.name)] = [1, dt]
                    else:
                        rec[0] += 1
                        rec[1] += dt

            return folded_call

        def span_call(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if work is not None:
                    spans[idx].work = work(*args, **kwargs)

        return span_call

    def dump(self, path) -> None:
        """Write spans and folded totals as JSON, with each span's self time."""
        selfs = self_times(self.spans)
        doc = {
            "spans": [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "self_s": st, "folded_s": s.folded_s, "work": s.work}
                for s, st in zip(self.spans, selfs)
            ],
            "folded": [
                {"name": n, "parent": p, "calls": c, "seconds": t}
                for (n, p), (c, t) in sorted(self.folded.items())
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span) minus the time of calls folded into it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.end - s.start - covered - s.folded_s)
    return out


# (module, function, folded?, work per call). Folded functions are leaves of
# the traced call graph: they call no other traced function.
TARGETS = (
    ("combinatorics", "truncated_log_moments", True, None),
    ("combinatorics", "binomial_tail", True, None),
    ("combinatorics", "binomial_pmf", True, None),
    ("side_solver", "solve_side", False, None),
    ("side_solver", "profile_residuals", True, None),
    ("certifier", "min_eta", False, None),
    ("certifier", "feasible_pairs", True, None),
    ("certifier", "rhs_from_sides", True, None),
    ("certifier", "bound_rhs", False, None),
    ("certifier", "verify_certificate", False, None),
    ("certifier", "certificate_to_json", False, None),
    ("certifier", "certificate_from_json", False, None),
    ("asymptotics", "solve_one_sided", False, None),
    ("asymptotics", "alpha_trend", False, None),
    ("graphlab", "sample_pairing", False, lambda delta, n, *a, **k: delta * n),
    ("graphlab", "cut_state", False, None),
    ("graphlab", "local_descent", False, None),
    ("graphlab", "brute_force_expansion", False, lambda graph: 2**graph.n - 1),
    ("graphlab", "expansion_experiment", False, None),
    ("cli", "main", False, None),
)


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def rebind(original, replacement) -> list[tuple[object, str, object]]:
    """Point every module-level name bound to ``original`` at ``replacement``.

    Returns ``(module, attribute, previous value)`` triples for :func:`restore`.
    """
    changed = []
    for mod in package_modules():
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr, val))
    return changed


def restore(changed) -> None:
    for mod, attr, val in reversed(changed):
        setattr(mod, attr, val)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Wrap every target for the duration of the block.

    A target the package no longer has is skipped, and its metrics read 0.
    """
    changed = []
    try:
        for mod_name, fn_name, fold, work in TARGETS:
            fn = getattr(sys.modules.get(f"{PACKAGE}.{mod_name}"), fn_name, None)
            if fn is None:
                continue
            wrapped = tracer.wrap(f"{mod_name}.{fn_name}", fn, fold=fold, work=work)
            changed += rebind(fn, wrapped)
        yield tracer
    finally:
        restore(changed)


ROOT_SPAN = "bench.harness"
MODULES = ("combinatorics", "side_solver", "certifier", "asymptotics", "graphlab", "cli")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, swaps: int) -> dict[str, float]:
    """Per-layer counts, self times and the ratios between them.

    Every ratio is returned beside its numerator and denominator. ``swaps``
    is the descent swap total read from the workload's own output.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    for s, st in zip(tracer.spans, self_times(tracer.spans)):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + st
        work[s.name] = work.get(s.name, 0.0) + s.work
    for (name, _parent), (c, t) in tracer.folded.items():
        calls[name] = calls.get(name, 0) + c
        self_s[name] = self_s.get(name, 0.0) + t

    m: dict[str, float] = {}
    for name in [f"{mod}.{fn}" for mod, fn, _, _ in TARGETS] + [ROOT_SPAN]:
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
    for mod in MODULES + ("bench",):
        m[f"{mod}.self_s"] = sum((t for k, t in self_s.items() if k.startswith(mod + ".")), 0.0)

    def folded_calls(name: str, parent: str) -> int:
        return tracer.folded.get((name, parent), (0, 0.0))[0]

    m["combinatorics.truncated_log_moments.us_per_call"] = 1e6 * _ratio(
        m["combinatorics.truncated_log_moments.self_s"],
        m["combinatorics.truncated_log_moments.calls"])
    m["side_solver.solve_side.moment_calls"] = folded_calls(
        "combinatorics.truncated_log_moments", "side_solver.solve_side")
    m["side_solver.solve_side.moments_per_call"] = _ratio(
        m["side_solver.solve_side.moment_calls"], m["side_solver.solve_side.calls"])
    m["certifier.min_eta.probes"] = folded_calls("certifier.feasible_pairs", "certifier.min_eta")
    m["certifier.probes_per_min_eta"] = _ratio(
        m["certifier.min_eta.probes"], m["certifier.min_eta.calls"])
    m["certifier.verify_certificate.bound_rhs_calls"] = sum(
        1 for s in tracer.spans
        if s.name == "certifier.bound_rhs" and s.parent >= 0
        and tracer.spans[s.parent].name == "certifier.verify_certificate")
    m["graphlab.sample_pairing.points"] = work.get("graphlab.sample_pairing", 0.0)
    m["graphlab.sample_pairing.points_per_s"] = _ratio(
        m["graphlab.sample_pairing.points"], m["graphlab.sample_pairing.self_s"])
    m["graphlab.local_descent.swaps"] = swaps
    m["graphlab.local_descent.ms_per_swap"] = 1e3 * _ratio(
        m["graphlab.local_descent.self_s"], swaps)
    m["graphlab.brute_force_expansion.subsets"] = work.get("graphlab.brute_force_expansion", 0.0)
    m["graphlab.brute_force_expansion.subsets_per_s"] = _ratio(
        m["graphlab.brute_force_expansion.subsets"], m["graphlab.brute_force_expansion.self_s"])
    m["trace.spans"] = len(tracer.spans)
    m["trace.folded_calls"] = sum(c for c, _ in tracer.folded.values())
    m["trace.self_sum_s"] = sum(self_s.values())
    return m
