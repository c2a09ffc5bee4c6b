"""Command line pipeline: parse, reduce, search, report.

Exit codes: 0 the property holds, 1 it is violated, 2 the run failed
(parse, validation, numeric or search-limit trouble); failures name the
pipeline stage they happened in.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Dict, List, Optional, Tuple

from .model import Model, ModelError, is_markov_chain, names_of_path, parse_model
from .numerics import ConvergenceError, SingularMatrixError, max_reach
from .oracle import (
    OracleLimitError,
    RNG_ALGORITHM,
    brute_force_max_reach,
    enumerate_freach,
    monte_carlo_classify,
)
from .props import PropertyError, format_property, parse_property, sat_states
from .scheduling import SchedulerError, extract_max_scheduler, induced_mc
from .search import SearchLimitError, most_indicative, ranked_rails
from .transform import acyclic_reduce, make_absorbing

DEFAULT_SEED = 42
DEFAULT_MAX_WITNESSES = 10 ** 6
VERIFY_SAMPLES = 10 ** 5
_ENUM_STATE_CAP = 40
_ENUM_LEN = 20

_FAILURES = (
    ModelError,
    PropertyError,
    SingularMatrixError,
    ConvergenceError,
    SchedulerError,
    SearchLimitError,
    OracleLimitError,
    OSError,
)


def run_check(
    model_path: str,
    prop_text: str,
    *,
    dump_scc: bool = False,
    verify: bool = False,
    seed: int = DEFAULT_SEED,
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
    tolerance: float = 1e-9,
    with_timings: bool = False,
) -> Tuple[int, Dict]:
    """Run the full pipeline and assemble the report.

    Returns (exit code, report); on failure the report is an error object
    carrying the stage name instead.
    """
    stage = "parse"
    timings: Dict[str, float] = {}
    try:
        tick = time.perf_counter()
        with open(model_path, "r", encoding="utf-8") as fh:
            text = fh.read()
        m = parse_model(text, tol=tolerance)
        spec = parse_property(prop_text)
        timings["parse"] = time.perf_counter() - tick

        stage = "pre-processing"
        tick = time.perf_counter()
        psi = sat_states(m, spec.target)
        values = max_reach(m, psi)
        max_prob = float(values[m.initial])
        is_mc = is_markov_chain(m)
        sched = None
        mc = m
        if not is_mc:
            sched = extract_max_scheduler(m, psi, values)
            mc = induced_mc(m, sched)
        mc_psi = make_absorbing(mc, psi)
        timings["pre-processing"] = time.perf_counter() - tick

        stage = "scc-analysis"
        tick = time.perf_counter()
        red = acyclic_reduce(mc_psi)
        timings["scc-analysis"] = time.perf_counter() - tick

        stage = "searching"
        tick = time.perf_counter()
        outcome = most_indicative(red, spec, psi, max_witnesses=max_witnesses)
        timings["searching"] = time.perf_counter() - tick

        verification = None
        if verify:
            stage = "verification"
            tick = time.perf_counter()
            verification = _verification_block(m, is_mc, red, psi, max_prob, seed)
            timings["verification"] = time.perf_counter() - tick
    except Exception as err:
        # Exit 1 means "violated", so no exception may escape; the
        # unexpected ones keep their type name in the message.
        message = str(err) if isinstance(err, _FAILURES) else f"{type(err).__name__}: {err}"
        return 2, {"error": {"stage": stage, "message": message}}

    report: Dict = {
        "model": {
            "states": m.num_states,
            "initial": m.names[m.initial],
            "kind": "mc" if is_mc else "mdp",
        },
        "property": format_property(spec),
        "verdict": outcome.verdict,
        "max_prob": max_prob,
    }
    if sched is not None:
        report["scheduler"] = {m.names[s]: k for s, k in enumerate(sched.choice)}
    report["witnesses"] = [
        {
            "rail": names_of_path(m, w.rail),
            "mass": w.mass,
            "representant": names_of_path(m, w.representant),
            "representant_prob": w.representant_prob,
        }
        for w in outcome.witnesses
    ]
    report["total_mass"] = outcome.total_mass
    if dump_scc:
        report["scc_table"] = _scc_table(m, red)
    if verification is not None:
        report["verification"] = verification
    if with_timings:
        report["timings"] = {name: round(value, 6) for name, value in timings.items()}
    return (1 if outcome.verdict == "violated" else 0), report


def _scc_table(m: Model, red) -> List[Dict]:
    table = []
    for info in red.sccs:
        table.append(
            {
                "id": info.id,
                "nontrivial": info.nontrivial,
                "members": [m.names[s] for s in sorted(info.members)],
                "inputs": [m.names[s] for s in sorted(info.inputs)],
                "outputs": [m.names[s] for s in sorted(info.outputs)],
                "reach": {
                    f"{m.names[u]}->{m.names[t]}": p
                    for (u, t), p in sorted(info.reach.items())
                },
            }
        )
    return table


def _verification_block(m, is_mc, red, psi, max_prob, seed) -> Dict:
    checks: Dict = {"algorithm": RNG_ALGORITHM, "seed": seed}
    ok = True

    reduced_value = float(max_reach(red.chain, psi)[red.chain.initial])
    diff = abs(reduced_value - max_prob)
    checks["reduction_value"] = {
        "model": max_prob,
        "reduced": reduced_value,
        "diff": diff,
        "pass": diff <= 1e-7,
    }
    ok &= diff <= 1e-7

    all_rails = list(ranked_rails(red, psi))
    if m.num_states <= _ENUM_STATE_CAP:
        paths, tail = enumerate_freach(red.origin, psi, _ENUM_LEN)
        enumerated = math.fsum(p for _, p in paths)
        total = math.fsum(mass for _, mass in all_rails)
        bracket = enumerated - 1e-9 <= total <= enumerated + tail + 1e-9
        checks["enumeration"] = {
            "paths": len(paths),
            "enumerated_mass": enumerated,
            "tail_bound": tail,
            "rail_mass_total": total,
            "pass": bracket,
        }
        ok &= bracket
    else:
        checks["enumeration"] = {"skipped": "model too large for enumeration"}

    run = monte_carlo_classify(
        red.origin, red, [rail for rail, _ in all_rails], VERIFY_SAMPLES, seed
    )
    mass_checks = []
    sampling_ok = True
    for rail, mass in all_rails:
        freq = run.classified[rail] / run.count
        sigma = math.sqrt(max(mass * (1.0 - mass), 1e-12) / run.count)
        within = abs(freq - mass) <= 4.0 * sigma
        sampling_ok &= within
        mass_checks.append(
            {
                "rail": names_of_path(m, rail),
                "mass": mass,
                "frequency": freq,
                "pass": within,
            }
        )
    checks["sampling"] = {
        "samples": run.count,
        "unclassified": run.unclassified,
        "rails": mass_checks,
        "pass": sampling_ok,
    }
    ok &= sampling_ok

    if not is_mc:
        try:
            exact = brute_force_max_reach(m, psi)
            diff = abs(exact - max_prob)
            checks["scheduler_value"] = {
                "brute_force": exact,
                "pipeline": max_prob,
                "diff": diff,
                "pass": diff <= 1e-7,
            }
            ok &= diff <= 1e-7
        except OracleLimitError as err:
            checks["scheduler_value"] = {"skipped": str(err)}

    checks["pass"] = bool(ok)
    return checks


def _json(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)` for a value nested at `indent`, with
    string dict keys. With an indent, `json.dumps` runs its pure-Python
    encoder; this one hands strings to the C string encoder and finite
    floats to `float.__repr__`, exactly as that encoder does."""
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = sep.join([f"{_encode_str(k)}: {_json(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:  # a list of strings, such as a path, in one pass
            body = sep.join(map(_encode_str, value))
        except TypeError:
            body = sep.join([_json(x, inner) for x in value])
        return f"[\n{inner}{body}\n{indent}]"
    return json.dumps(value)


def render_report(report: Dict, fmt: str = "text") -> str:
    """Render a report for stdout; json output is byte-stable for fixed
    inputs and seed (insertion order, repr floats, no wall-clock fields
    unless timings were requested) and equals `json.dumps(report,
    indent=2)` plus a newline, written by `_json` in a fraction of the
    time."""
    if fmt == "json":
        return _json(report) + "\n"
    if "error" in report:
        err = report["error"]
        return f"error in {err['stage']}: {err['message']}\n"
    lines = []
    info = report["model"]
    lines.append(f"model: {info['states']} states, initial {info['initial']}, kind {info['kind']}")
    lines.append(f"property: {report['property']}")
    lines.append(f"max probability: {report['max_prob']:.10g}")
    if "scheduler" in report:
        choices = " ".join(f"{s}:{k}" for s, k in report["scheduler"].items())
        lines.append(f"scheduler: {choices}")
    lines.append(f"verdict: {report['verdict']}")
    for i, w in enumerate(report["witnesses"], 1):
        path = " ".join(w["representant"])
        lines.append(
            f"witness {i}: {path} (mass {w['mass']:.4f}, representant p {w['representant_prob']:.4f})"
        )
    lines.append(f"total mass: {report['total_mass']:.10g}")
    if "scc_table" in report:
        for entry in report["scc_table"]:
            kind = "nontrivial" if entry["nontrivial"] else "trivial"
            members = " ".join(entry["members"])
            lines.append(f"scc {entry['id']} ({kind}): {{{members}}}")
            if entry["reach"]:
                pairs = " ".join(f"{k}={v:.6g}" for k, v in entry["reach"].items())
                lines.append(f"  reach: {pairs}")
    if "verification" in report:
        verdict = "pass" if report["verification"]["pass"] else "FAIL"
        lines.append(f"verification: {verdict}")
    if "timings" in report:
        pairs = " ".join(f"{k}={v:.6f}s" for k, v in report["timings"].items())
        lines.append(f"timings: {pairs}")
    return "\n".join(lines) + "\n"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="railcheck",
        description=(
            "Check an upper-bounded reachability property on a Markov chain or "
            "MDP and report grouped counterexample witnesses on violation."
        ),
    )
    parser.add_argument("model", help="path to the JSON model document")
    parser.add_argument(
        "--prop", required=True, help="property to check, e.g. 'P<=0.5 [ F psi ]'"
    )
    parser.add_argument(
        "--format", dest="fmt", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--dump-scc", action="store_true",
        help="include the component table (members, inputs, outputs, escape probabilities)",
    )
    parser.add_argument(
        "--verify", action="store_true",
        help="cross-check the result against independent baselines and report the outcome",
    )
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"seed for verification sampling (default: {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--max-witnesses", type=int, default=DEFAULT_MAX_WITNESSES,
        help=f"abort if the bound is still undecided after this many witnesses (default: {DEFAULT_MAX_WITNESSES})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=1e-9,
        help="accepted deviation of distribution row sums from 1 (default: 1e-9)",
    )
    parser.add_argument(
        "--timings", action="store_true",
        help="include wall-clock stage timings in the report (makes json output non-reproducible)",
    )
    args = parser.parse_args(argv)
    code, report = run_check(
        args.model,
        args.prop,
        dump_scc=args.dump_scc,
        verify=args.verify,
        seed=args.seed,
        max_witnesses=args.max_witnesses,
        tolerance=args.tolerance,
        with_timings=args.timings,
    )
    if code == 2:
        sys.stderr.write(render_report(report, "text"))
        return 2
    sys.stdout.write(render_report(report, args.fmt))
    return code
