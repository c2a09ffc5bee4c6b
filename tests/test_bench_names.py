"""The benchmark's tracer names railcheck functions by string and reads
fields of their results; each must still exist, or the traced benchmark
would fail only in its own run."""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import numpy as np

from conftest import reduce_to_psi
from railcheck.oracle import monte_carlo_classify
from railcheck.props import Atom, parse_property, sat_states
from railcheck.scheduling import extract_max_scheduler
from railcheck.search import most_indicative

SPANS = Path(__file__).parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    spans = _spans()
    assert spans.TRACED
    for module, name in spans.TRACED:
        assert module in spans.MODULES
        assert callable(getattr(importlib.import_module("railcheck." + module), name, None)), (module, name)


def test_tracer_hooks_read_real_results(fig5, mdp2):
    # Each hook runs on what the traced function returns: a chain's
    # reduction and policy iteration's, a search outcome and a sampling
    # run; the solve hook on a solve's arguments. The counts equal those
    # read off the component arrays.
    spans = _spans()
    chain_red, psi = reduce_to_psi(fig5)
    goal = sat_states(mdp2, Atom("goal"))
    reds = [chain_red, extract_max_scheduler(mdp2, goal)[1]]
    out = most_indicative(chain_red, parse_property("P<=0.3 [ F psi ]"), psi)
    run = monte_carlo_classify(chain_red.origin, chain_red, [w.rail for w in out.witnesses], 1000, seed=3)
    results = {
        "transform.acyclic_reduce": reds,
        "search.most_indicative": [out],
        "oracle.monte_carlo_classify": [run],
    }
    assert set(spans.ON_RESULT) == set(results)
    counts = defaultdict(float)
    for name, hook in spans.ON_RESULT.items():
        for result in results[name]:
            hook(counts, result)
    q, r = np.array([[0.0, 0.5], [0.5, 0.0]]), np.array([[0.5], [0.5]])
    assert set(spans.ON_CALL) == {"numerics.solve_linear"}
    spans.ON_CALL["numerics.solve_linear"](counts, q, r)
    sizes = [np.diff(red.comps.member_at)[red.comps.nontrivial] for red in reds]
    kept = [~red.comps.nontrivial[red.comps.of] | red.comps.is_input for red in reds]
    assert counts["transform.sccs"] == sum(map(len, sizes)) > 2
    assert counts["transform.largest_scc"] == max(int(x.max()) for x in sizes) == 4
    assert counts["transform.reduced_states"] == sum(int(k.sum()) for k in kept)
    assert counts["transform.reduced_edges"] == sum(
        int(np.diff(red.chain.rows.entry_at)[k].sum()) for red, k in zip(reds, kept))
    assert counts["search.witnesses"] == len(out.witnesses) > 0
    assert counts["oracle.samples"] == 1000 and counts["oracle.unclassified"] == run.unclassified
    assert counts["numerics.solve_linear.max_n"] == 2
