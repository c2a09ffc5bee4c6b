"""railcheck benchmark: time to verdict on four seeded workloads.

    python3 bench/run.py --workload mc-many-sccs --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25

Each run generates its workload's models from the seed, writes them as
JSON files, and checks them through the public pipeline
(``cli.run_check`` then ``cli.render_report(report, "json")``), which is
what ``railcheck MODEL --prop ... --format json`` does after import. The
load is a closed loop with one client: one process, one thread, one check
at a time, every model decided once per pass, passes repeated while
--seconds allow (at least MIN_PASSES). Every report is checked against
answers computed here with numpy alone (see reference.py).

--trace 0 prints the end-to-end metrics; --trace 1 runs every check
untraced and then traced, and prints the per-layer metrics. The last line of
output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the design.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads; inherited by the set-up processes

import argparse
import hashlib
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
if not os.path.isdir(os.path.join(SRC, "railcheck")):
    sys.exit("no railcheck sources at %s: run from a railcheck checkout" % SRC)
sys.path.insert(0, SRC)

from railcheck import cli  # noqa: E402

import gen  # noqa: E402
import reference  # noqa: E402
import spans  # noqa: E402

MIN_PASSES = 3
SETUP_REPEATS = 5
# On a shared virtual machine the host's speed drifts by a quarter over
# tens of seconds, far more than a change worth catching. Every timed step
# is therefore bracketed by a fixed interpreter-bound loop, and end-to-end
# times are reported at reference speed: wall time * K_REF / (the loop's
# time around that step). K_REF is the loop's typical time between checks
# on a 2-vCPU KVM guest (Intel Xeon).
K_REF = 0.035
TAIL_GRID = (99, 95, 90, 75, 50)  # candidate tail percentiles, highest first


class Check:
    """One timed check and what it printed."""

    def __init__(self, case: gen.Case, seconds: float, code: Optional[int], text: str, error: str = ""):
        self.case = case
        self.seconds = seconds  # wall time
        self.scaled = seconds  # at reference speed, once the pass sets it
        self.code = code
        self.text = text
        self.digest: Optional[str] = None  # set when the text is dropped
        self.error = error


class Pass(NamedTuple):
    seconds: float  # at reference speed
    wall: float
    checks: List[Check]
    traces: List[spans.CheckTrace]


def calibrate() -> float:
    """Time of a fixed loop of dict updates and small numpy products, the
    kind of work railcheck's Python loops do; it never touches railcheck."""
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(120000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    v = np.arange(8.0)
    total = 0.0
    for _ in range(6000):
        total += float(v @ v)
    return time.perf_counter() - start


def run_one(case: gen.Case, path: str, with_timings: bool) -> Check:
    start = time.perf_counter()
    try:
        code, report = cli.run_check(path, case.prop, verify=case.verify, with_timings=with_timings)
        text = cli.render_report(report, "json")
    except Exception as err:  # an escaping exception is a failed check, not a crash
        return Check(case, time.perf_counter() - start, None, "", "%s: %s" % (type(err).__name__, err))
    return Check(case, time.perf_counter() - start, code, text)


class Calibrated:
    """Scales consecutive steps to reference speed: each step's wall time
    by the mean of the calibration loops timed just before and after it."""

    def __init__(self):
        self.before = calibrate()

    def scale(self, seconds: float) -> float:
        after = calibrate()
        scaled = seconds * K_REF / ((self.before + after) / 2)
        self.before = after
        return scaled


def run_pass(cases, work: str) -> Pass:
    """Decide every model once, one check at a time, each check between
    two calibration loops."""
    checks = []
    clock = Calibrated()
    for case in cases:
        check = run_one(case, gen.model_path(work, case), False)
        check.scaled = clock.scale(check.seconds)
        checks.append(check)
    return make_pass(checks)


def make_pass(checks: List[Check], traces: Optional[List[spans.CheckTrace]] = None) -> Pass:
    return Pass(sum(c.scaled for c in checks), sum(c.seconds for c in checks), checks, traces or [])


def set_up(workload: str, seed: int, work: str, repeats: int) -> Tuple[List[float], List[str]]:
    """Time `repeats` fresh interpreters that each import railcheck and
    generate and write the workload's models, at reference speed."""
    times, digests = [], []
    clock = Calibrated()
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, os.path.join(HERE, "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", work],
            stdout=subprocess.PIPE, check=True, timeout=120,
        )
        times.append(clock.scale(time.perf_counter() - start))
        digests.append(done.stdout.decode().strip())
    return times, digests


def canonical(check: Check) -> str:
    """The check's output with wall-clock timings removed."""
    if check.code is None or '"timings"' not in check.text:
        return check.text
    report = json.loads(check.text)
    report.pop("timings", None)
    return cli.render_report(report, "json")


def output_digest(check: Check) -> str:
    return check.digest or hashlib.sha256(canonical(check).encode()).hexdigest()


def forget_outputs(checks: List[Check]) -> None:
    """Keep only a digest of a later pass's outputs, so the peak memory
    does not grow with the number of passes."""
    for check in checks:
        check.digest = output_digest(check)
        check.text = ""


def verify_checks(passes: List[List[Check]]) -> List[Tuple[Check, List[str]]]:
    """Check the first pass against the references and every later pass
    against the first pass, byte for byte. Returns (check, problems) for
    every check attempted."""
    answers: Dict[str, reference.Answer] = {}
    first: Dict[str, str] = {}
    out = []
    for checks in passes:
        for check in checks:
            case = check.case
            if check.code is None:
                out.append((check, [check.error]))
                continue
            digest = output_digest(check)
            if case.name not in first:
                first[case.name] = digest
                if case.model not in answers:
                    answers[case.model] = reference.Answer(case.doc, forward_only=case.forward_only)
                report = json.loads(canonical(check))
                out.append((check, reference.check_report(answers[case.model], case.prop, check.code,
                                                          report, case.verify)))
            elif digest != first[case.name]:
                out.append((check, ["output differs from the first pass"]))
            else:
                out.append((check, []))
    return out


def tail(values: List[float], n_min: int) -> Tuple[int, float]:
    """Highest grid percentile with at least ten checks beyond it in a run
    of the minimum length, so the same percentile is reported whatever
    the number of passes; returns (percentile, value)."""
    p = next((p for p in TAIL_GRID if n_min * (100 - p) >= 1000), 50)
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def slope(points: List[Tuple[int, float]]) -> float:
    """Least-squares slope of log(value) over log(states), on the median
    value of each size."""
    by_size: Dict[int, List[float]] = defaultdict(list)
    for size, value in points:
        by_size[size].append(value)
    xs = [math.log(s) for s in sorted(by_size)]
    ys = [math.log(max(statistics.median(by_size[s]), 1e-9)) for s in sorted(by_size)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def paired_pass(cases, work: str, tracer: spans.Tracer) -> Tuple[Pass, Pass]:
    """Every check twice, back to back, untraced then traced, each
    between calibration loops, so that the host's drift cancels out of the
    tracing overhead; returns an untraced and a traced pass."""
    plain, traced, traces = [], [], []
    clock = Calibrated()
    for case in cases:
        path = gen.model_path(work, case)
        check = run_one(case, path, False)
        check.scaled = clock.scale(check.seconds)
        plain.append(check)
        tracer.install()
        try:
            check = run_one(case, path, True)
        finally:
            tracer.uninstall()
        check.scaled = clock.scale(check.seconds)
        traced.append(check)
        traces.append(tracer.finish_check())
    return make_pass(plain), make_pass(traced, traces)


def loop(cases, work: str, seconds: float, tracer: Optional[spans.Tracer] = None):
    """Passes until the next one would overrun --seconds: at least
    MIN_PASSES untraced passes, or, with a tracer, at least one paired
    pass."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        if tracer is None:
            plain.append(run_pass(cases, work))
            if len(plain) > 1:
                forget_outputs(plain[-1].checks)
        else:
            untraced_pass, traced_pass = paired_pass(cases, work, tracer)
            plain.append(untraced_pass)
            traced.append(traced_pass)
        rounds = len(plain)
        elapsed = time.perf_counter() - start
        if rounds >= (1 if tracer else MIN_PASSES) and elapsed * (rounds + 1) / rounds > seconds:
            return plain, traced


def end_to_end(args, cases, work) -> Tuple[Dict, List[List[Check]], List[str]]:
    setup_times, digests = set_up(args.workload, args.seed, work, SETUP_REPEATS)
    plain, _ = loop(cases, work, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = [c for p in plain for c in p.checks]
    scaled = [c.scaled for c in checks]
    p, tail_s = tail(scaled, MIN_PASSES * len(cases))
    n = len(checks)
    speed = sum(scaled) / sum(c.seconds for c in checks)
    metrics = {
        "decide_s": (statistics.median(q.seconds for q in plain), "s", "median of %d passes of %d checks; wall %s"
                     % (len(plain), len(cases), " ".join("%.3f" % q.wall for q in plain))),
        "check_p50_s": (statistics.median(scaled), "s", "n=%d checks; wall %.4f"
                        % (n, statistics.median(c.seconds for c in checks))),
        "check_tail_s": (tail_s, "s", "p%d, %d checks beyond, n=%d" % (p, sum(t > tail_s for t in scaled), n)),
        "peak_rss_mb": (rss_mb, "MB", "peak resident set of the benchmark process"),
        "setup_s": (statistics.median(setup_times), "s", "median of %d fresh interpreters" % len(setup_times)),
    }
    print("times at reference speed; the host ran at %.3f of it (calibration loop %.4f s per %.4f s)"
          % (speed, K_REF / speed, K_REF))
    return metrics, [q.checks for q in plain], digests


SELF_TIMES = (
    "model.parse_model", "model.cylinder_prob", "props.sat_states", "numerics.max_reach",
    "numerics.prob0_states", "numerics.solve_linear", "scheduling.extract_max_scheduler",
    "scheduling.induced_mc", "transform.make_absorbing", "transform.scc_decompose", "transform.scc_io",
    "transform.scc_reach", "transform.acyclic_reduce", "search.most_indicative", "search.ranked_rails",
    "rails.rail_mass", "rails.representant", "oracle.monte_carlo_classify", "oracle.enumerate_freach",
    "oracle.brute_force_max_reach", "cli.render_report",
)
CALLS = (
    "model.is_markov_chain", "model.cylinder_prob", "numerics.max_reach", "numerics.prob0_states",
    "numerics.solve_linear", "transform.scc_io", "rails.rail_mass",
)
SLOPES = ("numerics.max_reach", "transform.scc_io", "cli.run_check")


def per_layer(args, cases, work) -> Tuple[Dict, List[List[Check]], List[str]]:
    _, digests = set_up(args.workload, args.seed, work, 1)
    tracer = spans.Tracer()
    plain, traced = loop(cases, work, args.seconds, tracer)
    rounds = len(traced)
    total = spans.CheckTrace()  # summed over the traced passes
    timed_stages: Dict[str, float] = defaultdict(float)
    traced_stages: Dict[str, float] = defaultdict(float)
    points: Dict[str, List[Tuple[int, float]]] = defaultdict(list)
    for traced_pass in traced:
        for check, tr in zip(traced_pass.checks, traced_pass.traces):
            total.add(tr)
            states = len(check.case.doc["states"])
            for name in SLOPES:
                points[name].append((states, tr.run_check_s if name == "cli.run_check" else tr.self_s[name]))
            if check.code is not None:
                for stage, value in json.loads(check.text).get("timings", {}).items():
                    timed_stages[stage] += value
                for stage, value in tr.stage_totals(check.case.verify).items():
                    traced_stages[stage] += value
    counts = tracer.counts
    run_check_s = total.run_check_s / rounds
    overhead = sum(p.seconds for p in traced) / sum(p.seconds for p in plain) - 1.0
    untraced = statistics.median(p.wall for p in plain)
    stage_gap = max(abs(timed_stages[s] - traced_stages[s]) for s in timed_stages) / rounds if timed_stages else 0.0
    samples = counts["oracle.samples"]
    sampling_s = total.incl_s["oracle.monte_carlo_classify"]

    metrics: Dict[str, Tuple[float, str, str]] = {}
    for name in SELF_TIMES:
        metrics[name + ".s"] = (total.self_s[name] / rounds, "s", "self time per pass")
    metrics["cli.run_check.s"] = (run_check_s, "s", "whole checks per pass")
    for name in CALLS:
        metrics[name + ".calls"] = (total.calls[name] / rounds, "count", "per pass")
    metrics["numerics.solve_linear.max_n"] = (counts["numerics.solve_linear.max_n"], "states", "largest block")
    for name, unit in (("transform.sccs", "count"), ("transform.reduced_states", "count"),
                       ("transform.reduced_edges", "count"), ("search.witnesses", "count")):
        metrics[name] = (counts[name] / rounds, unit, "per pass")
    metrics["transform.largest_scc"] = (counts["transform.largest_scc"], "states", "largest nontrivial SCC")
    metrics["search.rails_streamed"] = (counts["search.ranked_rails.items"] / rounds, "count", "per pass")
    metrics["oracle.samples_per_s"] = (samples / sampling_s if sampling_s else 0.0, "1/s", "")
    metrics["oracle.unclassified_share"] = (
        counts["oracle.unclassified"] / samples if samples else 0.0, "share", "base: %d samples" % samples)
    for layer in spans.MODULES:
        metrics["share." + layer] = (total.layer_s[layer] / rounds / run_check_s, "share",
                                     "under the layer's calls from cli.run_check")
    metrics["trace.overhead_share"] = (overhead, "share", "traced / untraced checks - 1, paired, at reference speed")
    metrics["trace.stage_gap_share"] = (stage_gap / run_check_s, "share", "largest |--timings - traced| stage")
    for name in SLOPES:
        ladder = args.workload == "mc-many-sccs"
        metrics[name + ".exp"] = (slope(points[name]) if ladder else 0.0, "1",
                                  "log-log slope over the ladder" if ladder else "no ladder")

    print("stage            --timings_s   traced_s   (per pass)")
    for stage in timed_stages:
        print("%-16s %11.4f %10.4f" % (stage, timed_stages[stage] / rounds, traced_stages[stage] / rounds))
    if overhead <= 0.0:
        verdict = "cannot be compared: the tracing overhead did not rise above the noise"
    elif stage_gap <= overhead * untraced:
        verdict = "agree with the traced totals within the tracing overhead"
    else:
        verdict = "DISAGREE with the traced totals by more than the tracing overhead"
    print("stage timings %s (largest gap %.4f s, overhead %.4f s per pass)"
          % (verdict, stage_gap, overhead * untraced))
    return metrics, [p.checks for p in plain + traced], digests


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    cases = gen.WORKLOADS[args.workload](args.seed)
    digest = gen.digest(cases)
    work = os.path.join(HERE, "_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    try:
        metrics, passes, digests = (per_layer if args.trace else end_to_end)(args, cases, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    results = verify_checks(passes)
    failed = [(c, problems) for c, problems in results if problems]
    same_inputs = all(d == digest for d in digests)

    print("workload %s  seed %d  inputs sha256 %s  (%d models, %d checks per pass, states %s)"
          % (args.workload, args.seed, digest, len({c.model for c in cases}), len(cases), gen.STATE_ORDER[args.workload]))
    if not same_inputs:
        print("set-up wrote different inputs: %s" % sorted(set(digests)))
    for name, (value, unit, note) in metrics.items():
        print("%-34s %14.6g %-6s %s" % (name, value, unit, note))
    print("failed_share %d/%d = %.4f" % (len(failed), len(results), len(failed) / len(results)))
    for check, problems in failed[:10]:
        print("FAILED %s: %s" % (check.case.name, "; ".join(problems[:3])))
    print(json.dumps({
        "correct": same_inputs and not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in its own process so peak memory and
    set-up are its own; prints each run's report."""
    ok = True
    for workload in gen.WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=600,
        )
        print(done.stdout, end="")
        lines = done.stdout.strip().splitlines()
        ok &= done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
