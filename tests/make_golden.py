"""Rewrite tests/golden.json, the report digests that test_golden.py pins.

    PYTHONPATH=src python3 tests/make_golden.py

Run it only in a change that moves report bytes on purpose, and record in
CHANGES.md which digests moved and why.

The cases are the four benchmark workloads at seed 1 with the component
table, the five fixtures under seven properties with `verify`, the
component table and seed 7, ring chain 122 at `P<=0.5` (41 574
witnesses) and ring chain 998 at `P<=0.99` with at most 1000 witnesses,
which holds by its value and lists none of its 2.4e67 rails. Per case the file keeps the sha256 of the JSON and of the
text report, the exit code, the verdict, the witness count and
`max_prob`. It also keeps the Python and numpy versions it was written
with: the `sampling` counts of a `verify` report are a function of
numpy's `Generator.binomial`, and the solver's rounding may follow the
BLAS numpy ships, so the hashes are only compared on those versions.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path
from typing import Dict, Iterator, Tuple

import numpy as np

from railcheck.cli import render_report, run_check

TESTS = Path(__file__).resolve().parent
BENCH = TESTS.parent / "bench"
GOLDEN = TESTS / "golden.json"
FIXTURE_PROPS = (
    "P<=0.5 [ F psi ]",
    "P<1 [ F psi ]",
    "P<=0.3 [ F goal ]",
    "P<0.9 [ F !fail ]",
    "P<=0.9 [ F psi ]",
    "P<=1 [ F psi | goal ]",
    "P<=0 [ F psi ]",
)
WORKLOAD_SEED = 1
FIXTURE_SEED = 7


def load_gen():
    """bench/gen.py, which imports its sibling `reference` by name."""
    if str(BENCH) not in sys.path:
        sys.path.insert(0, str(BENCH))
    spec = importlib.util.spec_from_file_location("bench_gen", BENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gen  # its dataclass looks its module up by name
    spec.loader.exec_module(gen)
    return gen


def versions() -> Dict[str, str]:
    return {"python": ".".join(platform.python_version_tuple()[:2]), "numpy": np.__version__}


def cases(work: Path) -> Iterator[Tuple[str, str, str, dict]]:
    """(name, model file, property, run_check options) per case, the
    model files written under `work`."""
    gen = load_gen()
    for workload, make in gen.WORKLOADS.items():
        out = work / workload
        batch = make(WORKLOAD_SEED)
        gen.write_cases(batch, str(out))
        for case in batch:
            path = gen.model_path(str(out), case)
            yield f"{workload}/{case.name}", path, case.prop, {"verify": case.verify, "dump_scc": True}
    for fixture in sorted((TESTS / "fixtures").glob("*.json")):
        for prop in FIXTURE_PROPS:
            options = {"verify": True, "dump_scc": True, "seed": FIXTURE_SEED}
            yield f"fixtures/{fixture.name}/{prop}", str(fixture), prop, options
    for n, prop, options in ((122, "P<=0.5 [ F goal ]", {}),
                             (998, "P<=0.99 [ F goal ]", {"max_witnesses": 1000})):
        path = work / f"ring{n}.json"
        path.write_text(json.dumps(gen.ring_chain(np.random.default_rng(1), n)))
        yield f"ring{n}/{prop}", str(path), prop, options


def digest(path: str, prop: str, options: dict) -> dict:
    code, report = run_check(path, prop, **options)
    witnesses = report.get("witnesses")
    return {
        "json": hashlib.sha256(render_report(report, "json").encode()).hexdigest(),
        "text": hashlib.sha256(render_report(report, "text").encode()).hexdigest(),
        "exit": code,
        "verdict": report.get("verdict"),
        "witnesses": None if witnesses is None else len(witnesses),
        "max_prob": report.get("max_prob"),
    }


def compute() -> dict:
    with tempfile.TemporaryDirectory() as work:
        digests = {name: digest(path, prop, options) for name, path, prop, options in cases(Path(work))}
    return {**versions(), "cases": digests}


def main() -> None:
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n")


if __name__ == "__main__":
    main()
