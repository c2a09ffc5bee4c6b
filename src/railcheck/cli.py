"""Command line pipeline: parse, reduce, search, report.

Exit codes: 0 the property holds, 1 it is violated, 2 the run failed
(parse, validation or numeric trouble); failures name the pipeline stage
they happened in.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import sys
import time
from functools import partial
from json.encoder import encode_basestring_ascii as _encode_str
from operator import is_, itemgetter
from typing import Dict, List, Optional, Tuple

from .model import ROW_SUM_TOL, Model, ModelError, is_markov_chain, names_of_path, parse_model
from .numerics import SingularMatrixError
from .oracle import (
    OracleLimitError,
    RNG_ALGORITHM,
    brute_force_max_reach,
    first_hits,
    monte_carlo_classify,
)
from .props import PropertyError, format_property, parse_property, sat_states
from .scheduling import extract_max_scheduler
from .search import most_indicative
from .transform import acyclic_reduce, make_absorbing

DEFAULT_SEED = 42
DEFAULT_MAX_WITNESSES = 10 ** 6
VERIFY_SAMPLES = 10 ** 5
SAMPLING_ALPHA = math.erfc(4 / math.sqrt(2))  # a normal deviate's two-sided 4 sigma tail
_ENUM_LEN = 20

_FAILURES = (
    ModelError,
    PropertyError,
    SingularMatrixError,
    OSError,
)


@contextlib.contextmanager
def _cyclic_gc_paused():
    """Run without the cyclic collector, then restore the caller's state.
    A check allocates hundreds of thousands of lists, tuples and dicts,
    a report one dict and a few lists per witness, and every collection
    those allocations trigger walks them all again. They form no cycles,
    so reference counting frees them, and no collection runs at the end."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@_cyclic_gc_paused()
def run_check(
    model_path: str,
    prop_text: str,
    *,
    dump_scc: bool = False,
    verify: bool = False,
    seed: int = DEFAULT_SEED,
    max_witnesses: int = DEFAULT_MAX_WITNESSES,
    tolerance: float = ROW_SUM_TOL,
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
            m = parse_model(fh.read(), tol=tolerance)  # the text is freed once parsed
        spec = parse_property(prop_text)
        timings["parse"] = time.perf_counter() - tick

        stage = "pre-processing"
        tick = time.perf_counter()
        psi = sat_states(m, spec.target)
        is_mc = is_markov_chain(m)
        sched = None
        if is_mc:
            mc_psi = make_absorbing(m, psi)
        else:  # policy iteration reduces every chain it evaluates
            sched, red, _ = extract_max_scheduler(m, psi)
        timings["pre-processing"] = time.perf_counter() - tick

        stage = "scc-analysis"
        tick = time.perf_counter()
        if is_mc:
            red = acyclic_reduce(mc_psi, psi)
        timings["scc-analysis"] = time.perf_counter() - tick

        stage = "searching"
        tick = time.perf_counter()
        # the search's first pass sums max_prob off the reduction it explains
        outcome = most_indicative(red, spec, psi, max_witnesses=max_witnesses)
        max_prob = outcome.max_prob
        timings["searching"] = time.perf_counter() - tick

        verification = None
        if verify:
            stage = "verification"
            tick = time.perf_counter()
            verification = _verification_block(
                m, is_mc, red, psi, max_prob, outcome.witnesses, seed
            )
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
    name = m.names.__getitem__
    # only masses below the normal float range carry an exponent, and a
    # rail that is its own representant shares its name list
    report["witnesses"] = [
        {
            "rail": names,
            "mass": mass,
            **({"mass_exp": mass_exp} if mass_exp else {}),
            "representant": names if rep is rail else list(map(name, rep)),
            "representant_prob": prob,
            **({"representant_prob_exp": prob_exp} if prob_exp else {}),
        }
        for rail, mass, mass_exp, rep, prob, prob_exp in outcome.witnesses
        for names in [list(map(name, rail))]
    ]
    if not outcome.complete:  # the witness cap cut the list
        report["complete"] = False
    report["total_mass"] = outcome.total_mass
    if outcome.total_mass_exp:
        report["total_mass_exp"] = outcome.total_mass_exp
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
        # the reduction copied each solved input's escape row into its chain
        solved = info.inputs if info.outputs else ()
        table.append(
            {
                "id": info.id,
                "nontrivial": info.nontrivial,
                "members": [m.names[s] for s in info.members],
                "inputs": [m.names[s] for s in info.inputs],
                "outputs": [m.names[s] for s in info.outputs],
                "reach": [
                    {"input": m.names[u], "output": m.names[t], "probability": p}
                    for u in solved
                    for t, p in red.chain.rows.row(u)  # a chain: distribution u is state u's row
                ],
            }
        )
    return table


def _verification_block(m, is_mc, red, psi, max_prob, witnesses, seed) -> Dict:
    checks: Dict = {"algorithm": RNG_ALGORITHM, "seed": seed}
    ok = True

    # the absorbing chain the search explains, solved by numpy
    reduced_value = brute_force_max_reach(red.origin, psi)
    diff = abs(reduced_value - max_prob)
    checks["reduction_value"] = {
        "model": max_prob,
        "reduced": reduced_value,
        "diff": diff,
        "pass": diff <= 1e-7,
    }
    ok &= diff <= 1e-7

    # max_prob is the sum of all rail masses, which the witnesses may not exhaust
    paths, enumerated, tail = first_hits(red.origin, psi, _ENUM_LEN)
    bracket = enumerated - 1e-9 <= max_prob <= enumerated + tail + 1e-9
    checks["enumeration"] = {
        "paths": paths,
        "enumerated_mass": enumerated,
        "tail_bound": tail,
        "max_prob": max_prob,
        "pass": bracket,
    }
    ok &= bracket

    run = monte_carlo_classify(red.origin, red, [w.rail for w in witnesses], VERIFY_SAMPLES, seed)
    mass_checks = []
    sampling_ok = True
    for w in witnesses:
        mass = math.ldexp(w.mass, w.mass_exp)
        freq = run.classified[w.rail] / run.count
        within = abs(freq - mass) <= _sampling_bound(mass, run.count, len(witnesses))
        sampling_ok &= within
        mass_checks.append(
            {
                "rail": names_of_path(m, w.rail),
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


def _sampling_bound(mass: float, count: int, n_rails: int) -> float:
    """Largest deviation of a rail's sampled frequency from its mass that
    the sampling check accepts. Bernstein's inequality bounds a frequency
    of `count` draws by P(|f - m| >= t) <= 2 exp(-count t^2 / (2 m(1-m) +
    2t/3)); this is the t at which that equals SAMPLING_ALPHA / n_rails, so
    the check fails a correct report with probability at most
    SAMPLING_ALPHA over all its witnesses together. It is never below the
    normal approximation's 4 sigma, because sqrt(2 ln(2 / SAMPLING_ALPHA))
    is about 4.55."""
    log_term = math.log(2 * n_rails / SAMPLING_ALPHA)
    a = log_term / (3 * count)
    return a + math.sqrt(a * a + 2 * max(mass * (1.0 - mass), 0.0) * log_term / count)


def _json(value, indent: str = "") -> str:
    """`json.dumps(value, indent=2)` for a value nested at `indent`, with
    string dict keys. With an indent, `json.dumps` runs its pure-Python
    encoder; this one hands strings to the C string encoder and finite
    floats to `float.__repr__`, exactly as that encoder does, and writes
    a list or dict as a column of one by `_column`."""
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is int:
        return int.__repr__(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, (list, tuple, dict)):
        return _column([value], indent)[0]
    return json.dumps(value)


def _column(values: list, indent: str) -> List[str]:
    """`_json` of each value: values of one type at once, strings, finite
    floats and ints each in one C-level pass, lists as one column of all
    their items a level deeper, dicts key by key in `_rows`."""
    kinds = set(map(type, values))
    if len(kinds) != 1:
        return [_json(v, indent) for v in values]
    (kind,) = kinds
    if issubclass(kind, str):
        return list(map(_encode_str, values))
    if kind is float and math.isfinite(sum(values)):  # else some value is NaN or infinite
        return list(map(float.__repr__, values))
    if kind is int:
        return list(map(int.__repr__, values))
    if issubclass(kind, (list, tuple)):
        return _lists(values, indent)
    if issubclass(kind, dict):
        return _dicts(values, indent)
    return list(map(_json, values))  # bools, None, NaN or infinite floats, subclasses


def _lists(values: list, indent: str) -> List[str]:
    """Lists and tuples, each item a level deeper than the list."""
    inner = indent + "  "
    sep = ",\n" + inner
    bodies = None
    if isinstance(next(filter(None, values), [None])[0], str):
        try:  # lists of strings, such as paths, one C-level pass each
            bodies = list(map(sep.join, map(partial(map, _encode_str), values)))
        except TypeError:  # not all of them
            pass
    if bodies is None:
        texts = iter(_column(list(itertools.chain.from_iterable(values)), inner))
        bodies = [sep.join(itertools.islice(texts, len(v))) for v in values]
    out = list(map(f"[\n{inner}%s\n{indent}]".__mod__, bodies))
    if not all(values):
        out = [text if v else "[]" for text, v in zip(out, values)]
    return out


def _dicts(values: list, indent: str) -> List[str]:
    """Dicts as tables: the rows with the same keys in the same order are
    written together by `_rows`, a lone dict as a table of one row."""
    if type(values[0]) is not dict:  # json.dumps writes a subclass's items()
        values = [dict(v.items()) for v in values]
    keys = list(map(tuple, values))
    if keys.count(keys[0]) == len(keys):
        return _rows(keys[0], values, indent)
    tables: Dict[tuple, List[int]] = {}
    for i, k in enumerate(keys):
        tables.setdefault(k, []).append(i)
    out = [""] * len(values)
    for k, at in tables.items():
        for i, text in zip(at, _rows(k, [values[i] for i in at], indent)):
            out[i] = text
    return out


def _rows(keys: tuple, rows: List[dict], indent: str) -> List[str]:
    """Dicts that all have these keys, in this order, filled into one
    template: a lone dict's values as one column, else one column per
    key, where a value that sits under an earlier key of the same row,
    the last one whose values have the same types, takes that key's text."""
    if not keys:
        return ["{}"] * len(rows)
    inner = indent + "  "
    # the string encoder escapes NUL, so NUL can stand between the keys
    names = "\0".join(map(_encode_str, keys)).replace("%", "%%").replace("\0", f": %s,\n{inner}")
    template = f"{{\n{inner}{names}: %s\n{indent}}}"
    if len(rows) == 1:
        return [template % tuple(_column(list(rows[0].values()), inner))]
    texts: List[List[str]] = []
    last: Dict[frozenset, Tuple[list, List[str]]] = {}  # per set of types, a column and its texts
    for k in keys:
        column = list(map(itemgetter(k), rows))
        kinds = frozenset(map(type, column))
        earlier = last.get(kinds)
        same = list(map(is_, column, earlier[0])) if earlier else []
        if not any(same):
            text = _column(column, inner)
        elif all(same):
            text = earlier[1]
        else:
            rest = iter(_column([v for v, s in zip(column, same) if not s], inner))
            text = [t if s else next(rest) for t, s in zip(earlier[1], same)]
        last[kinds] = column, text
        texts.append(text)
    return list(map(template.__mod__, zip(*texts)))


@_cyclic_gc_paused()
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
        mass, prob = _scaled(w, "mass", ".4f"), _scaled(w, "representant_prob", ".4f")
        lines.append(f"witness {i}: {path} (mass {mass}, representant p {prob})")
    if "complete" in report:
        lines.append("witnesses: incomplete, cut at --max-witnesses")
    lines.append(f"total mass: {_scaled(report, 'total_mass', '.10g')}")
    if "scc_table" in report:
        for entry in report["scc_table"]:
            kind = "nontrivial" if entry["nontrivial"] else "trivial"
            members = " ".join(entry["members"])
            lines.append(f"scc {entry['id']} ({kind}): {{{members}}}")
            if entry["reach"]:
                pairs = " ".join(f"{r['input']}->{r['output']}={r['probability']:.6g}" for r in entry["reach"])
                lines.append(f"  reach: {pairs}")
    if "verification" in report:
        verdict = "pass" if report["verification"]["pass"] else "FAIL"
        lines.append(f"verification: {verdict}")
    if "timings" in report:
        pairs = " ".join(f"{k}={v:.6f}s" for k, v in report["timings"].items())
        lines.append(f"timings: {pairs}")
    return "\n".join(lines) + "\n"


def _scaled(entry: Dict, key: str, spec: str) -> str:
    """entry[key] in format `spec`, times 2^entry[key_exp] if it has one."""
    text = format(entry[key], spec)
    return f"{text}*2^{entry[key + '_exp']}" if key + "_exp" in entry else text


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
        help=f"list at most this many witnesses (default: {DEFAULT_MAX_WITNESSES})",
    )
    parser.add_argument(
        "--tolerance", type=float, default=ROW_SUM_TOL,
        help=f"accepted deviation of distribution row sums from 1 (default: {ROW_SUM_TOL:g})",
    )
    parser.add_argument(
        "--timings", action="store_true",
        help="include wall-clock stage timings in the report (makes json output non-reproducible)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error(f"argument --seed: must be at least 0, got {args.seed}")
    if args.max_witnesses < 1:
        parser.error(f"argument --max-witnesses: must be at least 1, got {args.max_witnesses}")
    try:
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
    except Exception as err:
        # run_check's own handler can fail too, say out of memory; Python
        # would then exit 1, which a caller reads as "violated"
        sys.stderr.write(f"error: {type(err).__name__}: {err}\n")
        return 2
    if code == 2:
        sys.stderr.write(render_report(report, "text"))
        return 2
    sys.stdout.write(render_report(report, args.fmt))
    return code
