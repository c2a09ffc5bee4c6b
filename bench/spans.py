"""Per-module spans recorded from outside railcheck.

The tracer replaces public functions with timing wrappers. railcheck's
modules bind each other's functions with ``from .x import y``, so every
module attribute that is the original function object is rebound, which
also catches calls inside the defining module. Spans live in memory with
a link to their parent; a function's self time is its span minus the
spans of its children. Counts are read from the returned objects.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

MODULES = ("cli", "model", "props", "numerics", "scheduling", "transform", "search", "rails", "oracle")

# (module, function): every public function a metric names
TRACED = (
    ("model", "parse_model"), ("model", "is_markov_chain"), ("model", "cylinder_prob"),
    ("props", "sat_states"),
    ("numerics", "max_reach"), ("numerics", "prob0_states"), ("numerics", "solve_linear"),
    ("scheduling", "extract_max_scheduler"), ("scheduling", "induced_mc"),
    ("transform", "make_absorbing"), ("transform", "scc_decompose"), ("transform", "scc_io"),
    ("transform", "scc_reach"), ("transform", "acyclic_reduce"),
    ("search", "most_indicative"), ("search", "ranked_rails"),
    ("rails", "rail_mass"), ("rails", "representant"),
    ("oracle", "monte_carlo_classify"), ("oracle", "enumerate_freach"),
    ("oracle", "brute_force_max_reach"),
    ("cli", "run_check"), ("cli", "render_report"),
)
GENERATORS = {"search.ranked_rails"}  # the work happens while the stream is consumed


def _count_reduction(counts, red) -> None:
    sizes = [len(info.members) for info in red.sccs if info.nontrivial]
    counts["transform.sccs"] += len(sizes)
    counts["transform.largest_scc"] = max(counts["transform.largest_scc"], max(sizes, default=0))
    counts["transform.reduced_states"] += len(red.kept)
    counts["transform.reduced_edges"] += sum(len(red.chain.actions[s][0]) for s in red.kept)


def _count_counterexample(counts, out) -> None:
    counts["search.witnesses"] += len(out.witnesses)


def _count_samples(counts, run) -> None:
    counts["oracle.samples"] += run.count
    counts["oracle.unclassified"] += run.unclassified


def _count_solve(counts, a, b) -> None:
    counts["numerics.solve_linear.max_n"] = max(counts["numerics.solve_linear.max_n"], len(a))


ON_CALL: Dict[str, Callable] = {"numerics.solve_linear": _count_solve}
ON_RESULT: Dict[str, Callable] = {
    "transform.acyclic_reduce": _count_reduction,
    "search.most_indicative": _count_counterexample,
    "oracle.monte_carlo_classify": _count_samples,
}


class Tracer:
    """Spans of the current check; `finish_check` folds them into totals."""

    def __init__(self):
        self.spans: List[list] = []  # [name, parent index, start, end]
        self.stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.saved: List[tuple] = []

    def _call(self, name: str, fn: Callable, args, kwargs):
        idx = len(self.spans)
        span = [name, self.stack[-1] if self.stack else -1, time.perf_counter(), 0.0]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            span[3] = time.perf_counter()

    def _wrap(self, name: str, fn: Callable) -> Callable:
        on_call, on_result = ON_CALL.get(name), ON_RESULT.get(name)
        counts = self.counts

        if name in GENERATORS:
            def wrapper(*args, **kwargs):
                inner = self._call(name, fn, args, kwargs)

                def stream():
                    while True:
                        try:
                            item = self._call(name, next, (inner,), {})
                        except StopIteration:
                            return
                        counts[name + ".items"] += 1
                        yield item

                return stream()
        else:
            def wrapper(*args, **kwargs):
                if on_call is not None:
                    on_call(counts, *args, **kwargs)
                result = self._call(name, fn, args, kwargs)
                if on_result is not None:
                    on_result(counts, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        mods = [importlib.import_module("railcheck." + m) for m in MODULES]
        mods.append(importlib.import_module("railcheck"))
        for home, fname in TRACED:
            original = getattr(importlib.import_module("railcheck." + home), fname)
            wrapper = self._wrap(home + "." + fname, original)
            for mod in mods:
                if getattr(mod, fname, None) is original:
                    self.saved.append((mod, fname, original))
                    setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self.saved):
            setattr(mod, fname, original)
        self.saved.clear()

    def finish_check(self) -> "CheckTrace":
        """Fold the current spans into one check's self times and calls,
        then drop them."""
        spans, self.spans = self.spans, []
        assert not self.stack, "a span is still open"
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent >= 0:
                child[parent] += end - start
        trace = CheckTrace()
        for i, (name, parent, start, end) in enumerate(spans):
            trace.self_s[name] += end - start - child[i]
            trace.incl_s[name] += end - start
            trace.calls[name] += 1
            if name == "cli.run_check":
                trace.run_check_s += end - start
            if parent >= 0 and spans[parent][0] == "cli.run_check":
                trace.children.append((name, end - start))
        return trace


class CheckTrace:
    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.incl_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.run_check_s = 0.0
        self.children: List[tuple] = []  # direct callees of run_check, in call order
        self.layer_s: Dict[str, float] = defaultdict(float)  # module of a direct callee: its whole span

    def add(self, other: "CheckTrace") -> None:
        for name in other.calls:
            self.self_s[name] += other.self_s[name]
            self.incl_s[name] += other.incl_s[name]
            self.calls[name] += other.calls[name]
        for name, seconds in other.children:
            self.layer_s[name.split(".")[0]] += seconds
        self.layer_s["cli"] += other.self_s["cli.run_check"]
        self.run_check_s += other.run_check_s

    # The stage a direct callee of run_check starts; later callees stay in it.
    STAGE_OPENERS = {
        "model.parse_model": "parse",
        "props.sat_states": "pre-processing",
        "transform.acyclic_reduce": "scc-analysis",
        "search.most_indicative": "searching",
    }

    def stage_totals(self, verify: bool) -> Dict[str, float]:
        """Traced time per pipeline stage, as the sum of run_check's direct
        callees; callees after the search belong to verification (or, on
        a check without it, to report assembly, which no stage times)."""
        totals: Dict[str, float] = defaultdict(float)
        stage: Optional[str] = None
        for name, seconds in self.children:
            if stage == "searching" and name not in self.STAGE_OPENERS:
                stage = "verification" if verify else None
            stage = self.STAGE_OPENERS.get(name, stage)
            if stage is not None:
                totals[stage] += seconds
        return totals
