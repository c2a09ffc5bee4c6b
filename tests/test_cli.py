import copy
import gc
import json
import math
import os
import re
import subprocess
import sys
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest

from conftest import (FIXTURES, component_sets, corpus_docs, dense_chain_doc, diamond_chain_doc, layered_dag_doc,
                      load_model, reduce_to_psi, ring_chain_doc)
from railcheck import cli, numerics, scheduling, search
from railcheck.cli import main, render_report, run_check
from railcheck.model import is_markov_chain, parse_model
from railcheck.numerics import SingularMatrixError, max_reach
from railcheck.props import Atom, parse_property, sat_states
from railcheck.scheduling import extract_max_scheduler
from railcheck.rails import representant
from railcheck.search import most_indicative
from railcheck.transform import AcyclicReduction, acyclic_reduce, make_absorbing


def _run(path, prop, **kw):
    args = dict(
        dump_scc=False,
        verify=False,
        seed=42,
        max_witnesses=10 ** 6,
        tolerance=1e-9,
        with_timings=False,
    )
    args.update(kw)
    return run_check(str(path), prop, **args)


def test_violation_report(m0_path):
    code, report = _run(m0_path, "P<=0.5 [ F psi ]")
    assert code == 1
    assert report["verdict"] == "violated"
    assert report["model"] == {"states": 5, "initial": "s0", "kind": "mc"}
    assert report["property"] == "P<=0.5 [ F psi ]"
    assert abs(report["max_prob"] - 1.0) <= 1e-7
    assert "scheduler" not in report
    (w,) = report["witnesses"]
    assert w["rail"] == ["s0", "s2", "s4"]
    assert w["mass"] == 0.6
    assert w["representant"] == ["s0", "s2", "s4"]
    assert w["representant_prob"] == pytest.approx(0.006, abs=1e-15)
    assert report["total_mass"] == 0.6
    assert "timings" not in report
    assert "scc_table" not in report
    assert "verification" not in report


def test_full_violation_totals_one(m0_path):
    code, report = _run(m0_path, "P<1 [ F psi ]")
    assert code == 1
    assert report["property"] == "P<1.0 [ F psi ]"
    assert [w["mass"] for w in report["witnesses"]] == [0.6, 0.4]
    assert report["total_mass"] == pytest.approx(1.0, abs=1e-9)


def test_holds_report(m0_path):
    trap = m0_path.parent / "m0_trap.json"
    code, report = _run(trap, "P<=0.9 [ F psi ]")
    assert code == 0
    assert report["verdict"] == "holds"
    assert report["total_mass"] == pytest.approx(0.8, abs=1e-9)
    assert len(report["witnesses"]) == 2


def test_mdp_report(mdp2_path):
    code, report = _run(mdp2_path, "P<=0.75 [ F goal ]")
    assert code == 1
    assert report["model"]["kind"] == "mdp"
    assert report["scheduler"] == {"s0": 1, "s1": 0, "s2": 0, "goal": 0, "fail": 0}
    assert report["max_prob"] == 0.8
    (w,) = report["witnesses"]
    assert w["rail"] == ["s0", "s2", "goal"]
    assert w["mass"] == 0.8


def test_dump_scc(big1_path):
    code, report = _run(big1_path, "P<=0.9 [ F psi ]", dump_scc=True)
    assert code == 1
    table = report["scc_table"]
    entry = next(e for e in table if e["members"] == ["t", "a"])
    assert entry["nontrivial"] is True
    assert entry["inputs"] == ["t"]
    assert entry["outputs"] == ["u"]
    assert entry["reach"] == {"t->u": 1.0}


@pytest.mark.parametrize("name, atom", [("m0.json", "psi"), ("m0_trap.json", "psi"), ("big1.json", "psi"),
                                        ("fig5.json", "psi"), ("mdp2.json", "goal")])
def test_scc_table_reads_rows(name, atom):
    # The table reads each solved input's escape row from the reduced
    # chain's rows, and builds no tuples for its states; the reach it
    # reports is the row the tuples give.
    m = load_model(name)
    psi = sat_states(m, Atom(atom))
    red = acyclic_reduce(make_absorbing(m, psi)) if is_markov_chain(m) else extract_max_scheduler(m, psi)[1]
    assert "actions" not in red.chain.__dict__
    table = cli._scc_table(m, red)
    assert "actions" not in red.chain.__dict__
    assert [entry["id"] for entry in table] == list(range(len(red.comps.rank)))
    solved = {c for ids, _, _, _ in red.stacks for c in ids.tolist()}
    for c, (states, entry) in enumerate(zip(component_sets(red.comps), table)):
        assert entry["nontrivial"] == red.comps.nontrivial[c]
        assert [entry[k] for k in ("members", "inputs", "outputs")] == [[m.names[s] for s in sorted(x)] for x in states]
        assert entry["reach"] == {
            f"{m.names[u]}->{m.names[t]}": p for u in sorted(states[1]) if c in solved for t, p in red.chain.actions[u][0]}


def _arrow_ring_doc(rng):
    """A ring x <-> x->y entered at both members from the initial state,
    whose exits x -> y->z and x->y -> z both print as x->y->z; x, y and z
    are random strings that may hold arrows themselves."""
    while True:
        x, y, z = ("".join(rng.choice(list("ab->"), int(rng.integers(1, 5)))) for _ in range(3))
        names = ["s", x, f"{x}->{y}", f"{y}->{z}", z]
        if len(set(names)) == 5:
            break
    s, a, b, out_a, out_b = names
    p, q, r = (float(v) for v in rng.uniform(0.2, 0.8, 3))
    rows = {s: [{a: p, b: 1.0 - p}], a: [{b: q, out_a: 1.0 - q}], b: [{a: r, out_b: 1.0 - r}],
            out_a: [{out_a: 1.0}], out_b: [{out_b: 1.0}]}
    order = rng.permutation(5).tolist()
    return {"states": [names[i] for i in order], "initial": s,
            "labels": {out_a: ["psi"], out_b: ["psi"]}, "transitions": rows}


@pytest.mark.xfail(strict=True, reason="--dump-scc keys each escape as 'input->output', and names may hold '->'")
def test_scc_table_lists_every_escape():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = parse_model(json.dumps(_arrow_ring_doc(rng)))
        red = reduce_to_psi(m)[0]
        for info, entry in zip(red.sccs, cli._scc_table(m, red)):
            escapes = [(u, t) for u in (info.inputs if info.outputs else ()) for t, p in red.chain.rows.row(u) if p > 0]
            assert len(entry["reach"]) == len(escapes), (m.names, entry["reach"])


def test_a_check_reads_no_component_record(mc_corpus, dag_corpus, mdp_corpus, monkeypatch):
    # The search, policy iteration's evaluation and the representants read
    # the component arrays: the records of red.sccs are built for the
    # --dump-scc table only, when it is read.
    spec = parse_property("P<1 [ F psi ]")
    cases = [reduce_to_psi(m) for m, _, _, _ in mc_corpus + dag_corpus]
    for m in mdp_corpus:
        psi = sat_states(m, Atom("psi"))
        cases.append((extract_max_scheduler(m, psi)[1], psi))
    crossed = 0
    for red, psi in cases:
        out = most_indicative(red, spec, psi)
        max_reach(red, psi)
        for w in out.witnesses:
            representant(red, w.rail)
        crossed += bool(red.crossings)
        assert "sccs" not in red.__dict__
    assert crossed > 50
    fixtures = [("m0.json", "psi"), ("m0_trap.json", "psi"), ("big1.json", "psi"), ("fig5.json", "psi"),
                ("mdp2.json", "goal")]
    read = []
    with monkeypatch.context() as patch:
        patch.setattr(AcyclicReduction, "sccs", property(lambda red: read.append(red) or ()))
        for name, atom in fixtures:
            code, report = run_check(str(FIXTURES / name), f"P<=0.3 [ F {atom} ]", verify=True)
            assert code == 1 and report["verification"]["pass"] is True
    assert read == []
    for name, atom in fixtures:
        m = load_model(name)
        code, report = run_check(str(FIXTURES / name), f"P<=0.3 [ F {atom} ]", dump_scc=True)
        # every state in one component, numbered by smallest member
        table = report["scc_table"]
        assert [entry["id"] for entry in table] == list(range(len(table)))
        assert sorted(s for entry in table for s in map(m.names.index, entry["members"])) == list(range(m.num_states))
        assert [m.names.index(entry["members"][0]) for entry in table] == sorted(
            min(map(m.names.index, entry["members"])) for entry in table)


def test_verification_block(m0_path):
    code, report = _run(m0_path, "P<1 [ F psi ]", verify=True, seed=7)
    assert code == 1
    v = report["verification"]
    assert v["algorithm"] == "pcg64"
    assert v["seed"] == 7
    assert v["pass"] is True
    assert v["reduction_value"]["pass"] is True
    assert v["enumeration"]["pass"] is True
    assert v["enumeration"]["max_prob"] == report["max_prob"]
    assert v["sampling"]["pass"] is True
    assert v["sampling"]["samples"] == 10 ** 5


def test_verification_checks_the_scheduler(mdp2_path):
    code, report = _run(mdp2_path, "P<=0.75 [ F goal ]", verify=True)
    v = report["verification"]
    assert v["scheduler_value"]["pass"] is True
    assert v["scheduler_value"]["brute_force"] == 0.8
    assert v["pass"] is True


def test_sampling_bound_is_never_below_four_sigma():
    rng = np.random.default_rng(2024)
    masses = np.concatenate([[0.0, 1e-300, 1e-13, 0.5, 1.0 - 1e-13, 1.0], rng.random(200)])
    for mass in masses:
        for count in (1, 10, 10 ** 3, 10 ** 5, 10 ** 7):
            for n_rails in (1, 2, 64, 2048, 10 ** 6):
                sigma = math.sqrt(max(mass * (1.0 - mass), 1e-12) / count)
                assert cli._sampling_bound(float(mass), count, n_rails) >= 4.0 * sigma


def test_sampling_check_passes_many_rails(tmp_path):
    # 2048 rails, each checked at 4 sigma alone, failed this correct
    # report at both seeds; the bound now holds over all rails at once.
    # P<=1 holds, so all 2048 rails are witnesses and all are sampled.
    path = tmp_path / "dag.json"
    path.write_text(json.dumps(layered_dag_doc(np.random.default_rng(1), 11)))
    for seed in (42, 1):
        code, report = _run(path, "P<=1 [ F goal ]", verify=True, seed=seed)
        sampling = report["verification"]["sampling"]
        assert code == 0 and len(sampling["rails"]) == len(report["witnesses"]) == 2048
        assert sampling["pass"] is True and report["verification"]["pass"] is True


def test_sampling_check_fails_a_mass_ten_percent_off(m0_path, monkeypatch):
    real = search.ranked_rails

    def skewed(red, psi, **streams):
        for i, (rail, mass, exp) in enumerate(real(red, psi, **streams)):
            yield rail, mass * 1.1 if i == 0 else mass, exp

    monkeypatch.setattr(search, "ranked_rails", skewed)
    for seed in (42, 1, 7):
        _, report = _run(m0_path, "P<1 [ F psi ]", verify=True, seed=seed)
        rails = report["verification"]["sampling"]["rails"]
        assert [r["pass"] for r in rails] == [False] + [True] * (len(rails) - 1)
        assert report["verification"]["pass"] is False


def test_verify_samples_only_the_witnesses(tmp_path):
    # The reduced chain of 14 rings has tens of thousands of rails, and
    # the first breaks P<=0: --verify samples that one witness, not them all.
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring_chain_doc(np.random.default_rng(1), 14)))
    code, report = _run(path, "P<=0 [ F psi ]", verify=True)
    v = report["verification"]
    assert code == 1 and report["model"]["states"] == 58 and v["pass"] is True
    assert len(v["sampling"]["rails"]) == len(report["witnesses"]) == 1
    (w,), (checked,) = report["witnesses"], v["sampling"]["rails"]
    assert (checked["rail"], checked["mass"]) == (w["rail"], w["mass"])


def test_a_check_evaluates_each_reduction_once(tmp_path, monkeypatch):
    # A chain's max_prob comes from the search's first pass: no max_reach
    # call and one rail stream, with or without --verify. Policy iteration
    # evaluates every policy it tries with max_reach, once per round, and
    # reduces once per round.
    calls = {"max_reach": 0, "rounds": 0, "streams": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    class Counted(search._SuffixStreams):
        def __init__(self, *args):
            super().__init__(*args)
            calls["streams"] += 1

    monkeypatch.setattr(numerics, "max_reach", counted("max_reach", numerics.max_reach))
    monkeypatch.setattr(scheduling, "max_reach", counted("max_reach", scheduling.max_reach))
    monkeypatch.setattr(scheduling, "acyclic_reduce", counted("rounds", scheduling.acyclic_reduce))
    monkeypatch.setattr(search, "_SuffixStreams", Counted)
    rng = np.random.default_rng(2121)
    docs = [ring_chain_doc(rng, 5), diamond_chain_doc(rng, 6)] + corpus_docs()[200:230]
    kinds, rounds = set(), set()
    for i, doc in enumerate(docs):
        path = tmp_path / f"m{i}.json"
        path.write_text(json.dumps(doc))
        for prop, verify in (("P<=0.3 [ F psi ]", False), ("P<0 [ F psi ]", False), ("P<1 [ F psi ]", i < 8)):
            calls.update(dict.fromkeys(calls, 0))
            code, report = _run(path, prop, verify=verify)
            assert code in (0, 1) and calls["streams"] == 1
            kinds.add(report["model"]["kind"])
            if report["model"]["kind"] == "mc":
                assert calls["max_reach"] == calls["rounds"] == 0
            else:
                assert calls["max_reach"] == calls["rounds"] > 0
                rounds.add(calls["rounds"])
    assert kinds == {"mc", "mdp"} and max(rounds) > 1


def test_timings_only_on_request(m0_path):
    code, report = _run(m0_path, "P<=0.5 [ F psi ]", with_timings=True)
    assert set(report["timings"]) == {
        "parse", "pre-processing", "scc-analysis", "searching",
    }
    code, report = _run(m0_path, "P<=0.5 [ F psi ]")
    assert "timings" not in report


def test_exact_witness_line(m0_path):
    code, report = _run(m0_path, "P<=0.5 [ F psi ]")
    text = render_report(report, "text")
    assert "witness 1: s0 s2 s4 (mass 0.6000, representant p 0.0060)" in text
    assert text.splitlines()[-1] == "total mass: 0.6"



def test_deep_chains_decide(tmp_path):
    # Linear chains, some states with a self loop, deeper than twice the
    # recursion limit: the single rail runs through every state.
    rng = np.random.default_rng(1200)
    for k in range(3):
        n = 2 * sys.getrecursionlimit() + int(rng.integers(1, 300))
        names = ["c%d" % i for i in range(n)]
        rows = {}
        for i in range(n - 1):
            loop = float(rng.uniform(0.1, 0.5)) if rng.random() < 0.3 else 0.0
            row = {names[i + 1]: 1.0 - loop}
            if loop:
                row[names[i]] = loop
            rows[names[i]] = [row]
        rows[names[-1]] = [{names[-1]: 1.0}]
        doc = {
            "states": names,
            "initial": names[0],
            "labels": {names[-1]: ["psi"]},
            "transitions": rows,
        }
        path = tmp_path / ("deep%d.json" % k)
        path.write_text(json.dumps(doc))
        code, report = _run(path, "P<=0.5 [ F psi ]")
        assert code == 1, report.get("error")
        (w,) = report["witnesses"]
        assert w["rail"] == names
        assert w["representant"] == names


_STRINGS = [
    "", "psi", 'say "hi"', "back\\slash", "tab\tline\nfeed\r\x00\x1f\x7f",
    "caf\u00e9", "\u2028\u2029", "astral \U0001d11e", "lone \ud800", "/",
]
_SCALARS = [
    True, False, None, 0, -7, 2 ** 64 + 1, -(10 ** 40), 0.0, -0.0, 5e-324,
    1e300, -1e-300, 0.1, 1.0, float("nan"), float("inf"), float("-inf"),
]


def test_masses_below_the_float_range_decide(tmp_path, m0_path):
    # Past about 1075 fair diamond levels, or a few thousand rings, every
    # rail's float mass underflows to 0. The stream's masses do not, so
    # P<=0 is violated by the first rail, and only such reports carry
    # the exponents, in JSON and in text.
    rng = np.random.default_rng(2121)
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(ring_chain_doc(rng, 5000)))
    code, report = _run(ring, "P<=0 [ F psi ]", max_witnesses=100)
    assert code == 1 and report["model"]["states"] == 20002
    (w,) = report["witnesses"]
    assert 0.5 <= w["mass"] < 1.0 and w["mass_exp"] < -1021
    assert (report["total_mass"], report["total_mass_exp"]) == (w["mass"], w["mass_exp"])
    # the representant runs through the rings, one generator of the torrent
    assert w["representant"] != w["rail"]
    rep = Fraction(w["representant_prob"]) * Fraction(2) ** w["representant_prob_exp"]
    assert 0 < rep <= Fraction(w["mass"]) * Fraction(2) ** w["mass_exp"]

    diamonds = tmp_path / "diamonds.json"
    diamonds.write_text(json.dumps(diamond_chain_doc(rng, 1100, 0)))
    code, report = _run(diamonds, "P<=0 [ F psi ]", max_witnesses=100)
    assert code == 1 and report["max_prob"] == 1.0
    (w,) = report["witnesses"]
    assert (report["total_mass"], report["total_mass_exp"]) == (w["mass"], w["mass_exp"])
    # the rail is its own representant
    prob = Fraction(w["representant_prob"]) * Fraction(2) ** w["representant_prob_exp"]
    assert prob == Fraction(w["mass"]) * Fraction(2) ** w["mass_exp"]
    assert json.loads(render_report(report, "json")) == report
    text = render_report(report, "text")
    assert "representant p %.4f*2^%d)" % (w["representant_prob"], w["representant_prob_exp"]) in text
    masses = [(w["mass"], w["mass_exp"])]
    masses += [(float(m), int(e)) for m, e in re.findall(r"mass:? (\S+)\*2\^(-?\d+)", text)]
    assert len(masses) == 3
    for m, e in masses:  # each of the 2**1100 rails carries as much of max_prob
        assert Fraction(m) * Fraction(2) ** (e + 1100) == report["max_prob"]
    # the bound, in units of the first rail's exponent, would overflow
    code, report = _run(diamonds, "P<=0.5 [ F psi ]", max_witnesses=10)
    assert code == 2
    assert report["error"] == {"stage": "searching", "message": "bound still undecided after 10 witnesses"}

    # at 1070 levels, thresholds of k rails' mass, below the normal float
    # range, compare exactly: the strict bound is broken by k rails, the
    # weak one by k + 1
    diamonds.write_text(json.dumps(diamond_chain_doc(rng, 1070, 0)))
    for k in (1, 3, 8):
        for bound, count in (("<", k), ("<=", k + 1)):
            code, report = _run(diamonds, "P%s%r [ F psi ]" % (bound, math.ldexp(k, -1070)))
            assert code == 1 and len(report["witnesses"]) == count
            total = Fraction(report["total_mass"]) * Fraction(2) ** report["total_mass_exp"]
            assert total == count * Fraction(2) ** -1070

    _, report = _run(m0_path, "P<1 [ F psi ]")
    assert "total_mass_exp" not in report
    assert all("mass_exp" not in w for w in report["witnesses"])
    assert all("representant_prob_exp" not in w for w in report["witnesses"])


def _random_json(rng, depth=0):
    # every kind of value the encoder tells apart, nested up to depth 4
    kind = int(rng.integers(7 if depth < 4 else 3))
    if kind == 0:
        return _STRINGS[int(rng.integers(len(_STRINGS)))]
    if kind == 1:
        return _SCALARS[int(rng.integers(len(_SCALARS)))]
    if kind == 2:
        return float(rng.normal() * 10.0 ** int(rng.integers(-300, 300)))
    size = int(rng.integers(0, 5))
    if kind == 3:
        return {
            _STRINGS[int(rng.integers(len(_STRINGS)))] + str(i): _random_json(rng, depth + 1)
            for i in range(size)
        }
    if kind == 4:
        return tuple(_random_json(rng, depth + 1) for _ in range(size))
    if kind == 5:  # strings, sometimes with one scalar among them
        items = [_STRINGS[int(rng.integers(len(_STRINGS)))] for _ in range(size)]
        if size and rng.random() < 0.5:
            items[int(rng.integers(size))] = _SCALARS[int(rng.integers(len(_SCALARS)))]
        return items
    return [_random_json(rng, depth + 1) for _ in range(size)]


def test_json_writer_matches_json_dumps_on_generated_values():
    rng = np.random.default_rng(4040)
    for value in [{}, [], (), {"a": {}}, [[]], _STRINGS, _SCALARS]:
        assert render_report(value, "json") == json.dumps(value, indent=2) + "\n"
    # subclasses of the types the writer tells apart, nested
    class Str(str):
        pass

    class Float(float):
        pass

    class List(list):
        pass

    inner = {"a": [Str("x"), Float(0.1), Float("nan")], "b": OrderedDict(c=List([1, {"d": 2.5}]))}
    for value in [{"v": OrderedDict(k=inner)}, {"v": [List([]), List([inner, Str("y")])]}]:
        assert render_report(value, "json") == json.dumps(value, indent=2) + "\n"
    for _ in range(400):
        value = {"v": _random_json(rng)}
        assert render_report(value, "json") == json.dumps(value, indent=2) + "\n"
    # one list object under two keys, as a witness's rail and representant
    for _ in range(100):
        size = int(rng.integers(5))
        shared = [_random_json(rng, 3) for _ in range(size)] if rng.random() < 0.5 else _STRINGS[:size]
        value = {"rail": shared, "mass": _random_json(rng, 4), "representant": shared}
        value = {"witnesses": [value, {"v": _random_json(rng)}, value]}
        assert render_report(value, "json") == json.dumps(value, indent=2) + "\n"
    # one float and one list object under two keys each, as a witness's
    # mass and representant_prob, and the list one level deeper, where it
    # is written at another indent
    mass, rail = 0.1 + 0.2, [_STRINGS[0], 0.5, [1, {"a": 0.25}]]
    value = {"mass": mass, "rail": rail, "p": mass, "representant": rail, "deeper": {"rail": rail}}
    assert render_report(value, "json") == json.dumps(value, indent=2) + "\n"


class _Float(float):
    pass


# keys the row template must escape or the string encoder must write
_KEYS = ["%", "%s", "%%(x)d", 'say "hi"', "back\\slash", "caf\u00e9", "astral \U0001d11e", "lone \ud800", ""]
# what a float column may hold besides finite floats
_NOT_FINITE = [float("nan"), float("inf"), float("-inf"), _Float(0.1), _Float("-inf"), 0, -3, True, False, None]


def _table(rng, size):
    """`size` dicts with the same keys, as witness lists have them: a list
    of names under one key and, in some rows only, under a second; floats
    with some NaN, infinity, subclass, int, bool or None among them;
    empty lists and dicts; and one row with its keys in another order."""
    keys = [_KEYS[int(i)] for i in rng.permutation(len(_KEYS))[: int(rng.integers(3, 7))]]
    empty = ([], {}, (), {"": []}, [{}])
    floats = [float(x) for x in rng.normal(size=size) * 10.0 ** rng.integers(-300, 300, size=size)]
    for i in rng.integers(size, size=int(rng.integers(0, 3))):
        floats[i] = _NOT_FINITE[int(rng.integers(len(_NOT_FINITE)))]
    rows = []
    for r in range(size):
        names = [_STRINGS[int(i)] for i in rng.integers(len(_STRINGS), size=int(rng.integers(0, 6)))]
        values = [
            names,
            floats[r],
            names if rng.random() < 0.7 else list(names),  # the same list object in some rows only
            floats[r] if rng.random() < 0.7 else float(r),
            empty[int(rng.integers(len(empty)))],
            _random_json(rng, 3),
        ]
        rows.append(dict(zip(keys, values)))
    if size > 1 and rng.random() < 0.5:
        r = int(rng.integers(size))
        rows[r] = dict(reversed(list(rows[r].items())))
    return rows


def test_json_writer_matches_json_dumps_on_tables():
    # lists of same-keyed dicts, which the writer writes key by key
    rng = np.random.default_rng(5050)
    for _ in range(200):
        rows = _table(rng, int(rng.integers(1, 30)))
        for value in ({"witnesses": rows}, {"a": [rows, {"b": rows[:1]}]}, rows[0]):
            assert render_report(value, "json") == json.dumps(value, indent=2) + "\n"
    # the float column in full: every kind json.dumps writes apart
    value = {"rows": [{"%s": x, "x": [x, x]} for x in _NOT_FINITE + [0.5, -0.0, 5e-324]]}
    assert render_report(value, "json") == json.dumps(value, indent=2) + "\n"
    # dict subclasses are written as their items() list them
    od = OrderedDict(b=1, a=[0.5])
    od.move_to_end("b")
    for value in ({"rows": [od, OrderedDict(od)]}, {"rows": [od, {"a": [0.5], "b": 1}]}):
        assert render_report(value, "json") == json.dumps(value, indent=2) + "\n"


def test_json_writer_matches_json_dumps_on_many_witnesses(tmp_path):
    # 2**14 rails of a layered DAG: P<=1 holds, so every rail is a witness
    path = tmp_path / "dag.json"
    path.write_text(json.dumps(layered_dag_doc(np.random.default_rng(2), 14)))
    code, report = _run(path, "P<=1 [ F goal ]", dump_scc=True)
    assert code == 0 and len(report["witnesses"]) == 2 ** 14
    assert render_report(report, "json") == json.dumps(report, indent=2) + "\n"


def _model_doc(m):
    names = m.names
    return {
        "states": list(names),
        "initial": names[m.initial],
        "labels": {names[s]: sorted(atoms) for s, atoms in enumerate(m.labels) if atoms},
        "transitions": {
            names[s]: [{names[t]: p for t, p in dist} for dist in dists]
            for s, dists in enumerate(m.actions)
        },
    }


def test_report_copies_render_the_same(dag_corpus, tmp_path):
    # a rail that is its own representant shares its name list; a deep
    # copy, which keeps that sharing, renders byte for byte the same
    shared = 0
    for k, (m, _, _, _) in enumerate(dag_corpus):
        path = tmp_path / ("dag%d.json" % k)
        path.write_text(json.dumps(_model_doc(m)))
        for prop in ("P<=0.5 [ F psi ]", "P<1 [ F psi ]"):
            _, report = _run(path, prop, dump_scc=True)
            copied = copy.deepcopy(report)
            for fmt in ("json", "text"):
                assert render_report(copied, fmt) == render_report(report, fmt)
            assert render_report(report, "json") == json.dumps(report, indent=2) + "\n"
            shared += sum(w["representant"] is w["rail"] for w in report["witnesses"])
    assert shared > 0


def test_json_writer_matches_json_dumps_on_reports(m0_path):
    fixtures = sorted(m0_path.parent.glob("*.json"))
    assert len(fixtures) == 5
    reports = [_run(m0_path.parent / "missing.json", "P<=0.5 [ F psi ]")[1]]
    for path in fixtures:
        for prop in ("P<=0.5 [ F psi ]", "P<=0.3 [ F goal ]", "P<0.9 [ F !fail ]"):
            code, report = _run(path, prop, verify=True, dump_scc=True, with_timings=True)
            assert code in (0, 1)
            reports.append(report)
    for report in reports:
        assert render_report(report, "json") == json.dumps(report, indent=2) + "\n"


_STAGES = {"parse", "pre-processing", "scc-analysis", "searching", "verification"}


def _contract_doc(rows, goals):
    # rows[s] lists state s's distributions as {target: probability}
    names = ["x%d" % s for s in range(len(rows))]
    return {
        "states": names,
        "initial": names[0],
        "labels": {names[g]: ["psi"] for g in goals},
        "transitions": {
            names[s]: [{names[t]: p for t, p in sorted(d.items())} for d in dists]
            for s, dists in enumerate(rows)
        },
    }


def _spread(rng, targets, mass=1.0):
    targets = np.unique(targets)  # summing duplicates could pass 1.0
    w = rng.uniform(0.2, 1.0, len(targets))
    w = mass * w / w.sum()
    return {int(t): float(p) for t, p in zip(targets, w)}


def _deep_dag(rng):
    # forward edges only, up to three per state; goal and trap at the end
    n = int(rng.integers(1100, 1300))  # deeper than the recursion limit
    rows = []
    for s in range(n - 2):
        nxt = rng.integers(s + 1, min(s + 4, n), size=int(rng.integers(1, 4)))
        rows.append([_spread(rng, nxt)])
    rows += [[{n - 2: 1.0}], [{n - 1: 1.0}]]
    return rows, [n - 2]


def _big_scc(rng):
    # a ring with chords, every tenth state leaking to goal or trap
    n = int(rng.integers(50, 300))
    rows = []
    for s in range(n):
        inside = [(s + 1) % n] + [int(t) for t in rng.integers(0, n, size=2)]
        if rng.random() < 0.1:
            leak = float(rng.uniform(0.01, 0.5))
            row = _spread(rng, inside, 1.0 - leak)
            row[n + int(rng.integers(2))] = leak
        else:
            row = _spread(rng, inside)
        rows.append([row])
    rows += [[{n: 1.0}], [{n + 1: 1.0}]]
    return rows, [n]


def _near_one_loops(rng, eps=None):
    # a forward chain whose states keep themselves with probability 1 - eps
    n = 3 if eps is not None else int(rng.integers(3, 30))
    rows = []
    for s in range(n - 2):
        e = eps if eps is not None else float(10.0 ** -rng.uniform(1, 3))
        row = _spread(rng, rng.integers(s + 1, n, size=2), e)
        row[s] = 1.0 - e
        rows.append([row])
    rows += [[{n - 2: 1.0}], [{n - 1: 1.0}]]
    return rows, [n - 2]


def _mdp_end_components(rng):
    # groups of states where one action cycles inside the group and
    # others leave it: every group is an end component
    n = int(rng.integers(6, 60))
    groups = np.array_split(np.arange(n - 2), int(rng.integers(1, 5)))
    rows = []
    for group in groups:
        for s in group:
            acts = [_spread(rng, rng.choice(group, size=2))]
            for _ in range(int(rng.integers(1, 3))):
                acts.append(_spread(rng, rng.integers(0, n, size=2)))
            rows.append(acts)
    rows += [[{n - 2: 1.0}], [{n - 1: 1.0}]]
    return rows, [n - 2]


def test_exit_code_contract_on_generated_models(tmp_path):
    # Exit 0, 1 or 2 for every model, a stage named on every exit 2, and
    # every report renders. The first two models keep their state with
    # probability 1 - 1e-6 and 1 - 5e-11: each has one rail, and its mass
    # is max_prob.
    rng = np.random.default_rng(5150)
    models = [_near_one_loops(rng, 1e-6), _near_one_loops(rng, 5e-11)]
    for make, count in ((_deep_dag, 2), (_big_scc, 4), (_near_one_loops, 4), (_mdp_end_components, 6)):
        models += [make(rng) for _ in range(count)]
    codes = []
    for k, (rows, goals) in enumerate(models):
        path = tmp_path / ("g%d.json" % k)
        path.write_text(json.dumps(_contract_doc(rows, goals)))
        prop = "P%s%.3f [ F psi ]" % ("<=" if k % 3 else "<", rng.uniform(0.05, 1.0))
        code, report = _run(path, prop, dump_scc=k % 2 == 1, max_witnesses=10)
        assert code in (0, 1, 2)
        if code == 2:
            assert report["error"]["stage"] in _STAGES
        if k < 2:
            spec = parse_property(prop)
            if spec.bound == "<=":
                violated = report["max_prob"] > spec.threshold
            else:
                violated = report["max_prob"] >= spec.threshold
            assert code == (1 if violated else 0)
            assert report["verdict"] == ("violated" if violated else "holds")
            assert len(report["witnesses"]) == 1
            assert abs(report["max_prob"] - report["total_mass"]) <= 1e-9
        render_report(report, "text")
        json.loads(render_report(report, "json"))
        codes.append(code)
    assert {0, 1, 2} <= set(codes)


def test_verify_on_a_thousand_states_and_a_slow_loop(tmp_path):
    # --verify samples 10^5 runs as counts per (state, rail prefix): a
    # 1002-state ring chain spreads them over many states, and a state that
    # keeps itself with probability 1 - 1e-3 keeps them alive for about
    # 10^4 steps
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps(ring_chain_doc(np.random.default_rng(2), 250)))
    code, report = _run(ring, "P<=0 [ F psi ]", verify=True)
    v = report["verification"]
    assert code == 1 and report["model"]["states"] == 1002 and v["pass"] is True
    assert len(v["sampling"]["rails"]) == len(report["witnesses"]) == 1
    assert "skipped" not in v["enumeration"] and v["enumeration"]["pass"] is True
    loop = tmp_path / "loop.json"
    loop.write_text(json.dumps(_contract_doc(*_near_one_loops(np.random.default_rng(3), 1e-3))))
    code, report = _run(loop, "P<=0.1 [ F psi ]", verify=True)
    v = report["verification"]
    sampling = v["sampling"]
    classified = sum(round(r["frequency"] * sampling["samples"]) for r in sampling["rails"])
    assert code == 1 and sampling["samples"] == 10 ** 5 and sampling["rails"]
    assert classified + sampling["unclassified"] == 10 ** 5
    assert v["pass"] is True


DENSE_SCRIPT = """
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))
from railcheck.cli import run_check
for path in sys.argv[1:]:
    code, report = run_check(path, "P<=0.5 [ F psi ]", verify=True)
    print(json.dumps([code, report.get("verification")]))
"""


def test_verify_counts_the_paths_of_dense_chains(tmp_path):
    # 10-12 states with rows of 3-6 successors have up to 10^13 paths of
    # the 20 states the enumeration bracket covers; it counts them without
    # listing one, so the checks run in a subprocess capped at 1 GB
    paths = []
    for seed in range(20):
        paths.append(tmp_path / f"dense{seed}.json")
        paths[-1].write_text(json.dumps(dense_chain_doc(np.random.default_rng(seed), 10 + seed // 7, 3 + seed % 4)))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run(
        [sys.executable, "-c", DENSE_SCRIPT, *map(str, paths)],
        capture_output=True, text=True, check=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.splitlines()
    assert len(out) == len(paths)
    for line in out:
        code, verification = json.loads(line)
        assert code in (0, 1) and verification["pass"] is True
        assert verification["enumeration"]["paths"] > 0 and verification["enumeration"]["pass"] is True


def _leaky_ring(rng, eps):
    # the initial state enters a ring with chords of 3-50 states; one member
    # leaks eps to goal and trap in the ratio r : 1 - r, so max_prob is r
    c = int(rng.integers(3, 51))
    r = float(rng.uniform(0.05, 0.95))
    leaker = 1 + int(rng.integers(c))
    rows = [[{1 + int(rng.integers(c)): 1.0}]]
    for s in range(1, c + 1):
        inside = [1 + s % c] + [1 + int(t) for t in rng.integers(0, c, size=int(rng.integers(1, 3)))]
        if s == leaker:
            row = _spread(rng, inside, 1.0 - eps)
            row.update({c + 1: eps * r, c + 2: eps * (1.0 - r)})
        else:
            row = _spread(rng, inside)
        rows.append([row])
    rows += [[{c + 1: 1.0}], [{c + 2: 1.0}]]
    return rows, [c + 1], r


def test_near_singular_components_never_give_a_wrong_number(tmp_path):
    # A component that leaks almost nothing still escapes almost surely,
    # through its one leaking member: every check decides, and max_prob
    # is the ratio of the leaks.
    rng = np.random.default_rng(1414)
    epsilons = [1e-12, 1e-13, 1e-14, 1e-15] + [float(10.0 ** -rng.uniform(10, 16)) for _ in range(36)]
    for k, eps in enumerate(epsilons):
        rows, goals, r = _leaky_ring(rng, eps)
        path = tmp_path / ("ring%d.json" % k)
        path.write_text(json.dumps(_contract_doc(rows, goals)))
        code, report = _run(path, "P<=%.3f [ F psi ]" % rng.uniform(0.05, 1.0), max_witnesses=10)
        assert code in (0, 1), (eps, report)
        assert abs(report["max_prob"] - r) <= 1e-12, (eps, report["max_prob"], r)


def test_non_finite_numbers_fail_in_parse(tmp_path):
    # json reads the literal NaN, and no range test is true for it: such a
    # probability, or a tolerance that is NaN or infinite, must stop the
    # check in parse rather than reach a verdict
    rng = np.random.default_rng(4242)
    for k in range(24):
        make = (_big_scc, _near_one_loops, _mdp_end_components)[k % 3]
        rows, goals = make(rng)
        dists = [d for acts in rows for d in acts]
        dist = dists[int(rng.integers(len(dists)))]
        dist[list(dist)[int(rng.integers(len(dist)))]] = math.nan
        path = tmp_path / ("nan%d.json" % k)
        path.write_text(json.dumps(_contract_doc(rows, goals)))
        code, report = _run(path, "P<=0.5 [ F psi ]", max_witnesses=10)
        assert code == 2, (k, report)
        assert report["error"]["stage"] == "parse"
        assert "out of range" in report["error"]["message"]
    path = tmp_path / "half.json"
    path.write_text(json.dumps(_contract_doc([[{0: 0.5}]], [0])))
    for tol in ("nan", "inf", "-1e-9"):
        code, report = _run(path, "P<=0.5 [ F psi ]", tolerance=float(tol))
        assert code == 2
        assert report["error"]["stage"] == "parse"
        assert "tolerance" in report["error"]["message"]


def test_huge_integers_fail_in_parse(tmp_path):
    # json reads an integer of any length, and float() overflows past
    # about 1.8e308: such a probability is out of range like any other
    rng = np.random.default_rng(4343)
    for k in range(12):
        make = (_big_scc, _near_one_loops, _mdp_end_components)[k % 3]
        rows, goals = make(rng)
        dists = [d for acts in rows for d in acts]
        dist = dists[int(rng.integers(len(dists)))]
        huge = 10 ** int(rng.integers(309, 800)) + int(rng.integers(10 ** 6))
        dist[list(dist)[int(rng.integers(len(dist)))]] = huge if k % 2 else -huge
        path = tmp_path / ("huge%d.json" % k)
        path.write_text(json.dumps(_contract_doc(rows, goals)))
        code, report = _run(path, "P<=0.5 [ F psi ]", max_witnesses=10)
        assert code == 2, (k, report)
        assert report["error"]["stage"] == "parse"
        assert "out of range" in report["error"]["message"]


def test_error_missing_file():
    code, report = _run("no_such_model.json", "P<=0.5 [ F psi ]")
    assert code == 2
    assert report["error"]["stage"] == "parse"


def test_error_bad_model(m0_path):
    # the fixture CI also sends through the installed console script
    bad = m0_path.parent / "malformed" / "short_row.json"
    code, report = _run(bad, "P<=0.5 [ F psi ]")
    assert code == 2
    assert report["error"] == {"stage": "parse", "message": "state 'a' distribution 0 sums to 0.9, expected 1"}


def test_malformed_initial_and_labels_fail_in_parse(tmp_path, capsys):
    # an unhashable initial state must not escape as a TypeError, and a
    # falsy labels value is no more an object than any other
    base = {"states": ["a"], "initial": "a", "transitions": {"a": [{"a": 1.0}]}}
    for k, over in enumerate(({"initial": ["a"]}, {"initial": {"a": 1}}, {"labels": []}, {"labels": 0})):
        path = tmp_path / ("bad%d.json" % k)
        path.write_text(json.dumps({**base, **over}))
        assert main([str(path), "--prop", "P<=0.5 [ F psi ]"]) == 2
        err = capsys.readouterr().err
        assert "error in parse" in err and "TypeError" not in err, err


def test_error_bad_property(m0_path):
    code, report = _run(m0_path, "P>=0.5 [ F psi ]")
    assert code == 2
    assert "lower-bounded" in report["error"]["message"]


def test_error_witness_cap(m0_path):
    code, report = _run(m0_path, "P<=0.7 [ F psi ]", max_witnesses=1)
    assert code == 2
    assert report["error"]["stage"] == "searching"


def test_main_exit_codes(m0_path, capsys):
    assert main([str(m0_path), "--prop", "P<=0.5 [ F psi ]"]) == 1
    assert main([str(m0_path), "--prop", "P<=0.995 [ F psi ]"]) == 1
    out = capsys.readouterr().out
    assert "verdict: violated" in out
    trap = m0_path.parent / "m0_trap.json"
    assert main([str(trap), "--prop", "P<=0.9 [ F psi ]"]) == 0
    assert main(["missing.json", "--prop", "P<=0.5 [ F psi ]"]) == 2
    err = capsys.readouterr().err
    assert "error in parse" in err


def test_main_exits_2_when_run_check_raises(m0_path, monkeypatch, capsys):
    # run_check's own handler can run out of memory too; the exception must
    # not leave main, or Python exits 1, which reads as "violated"
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_check", out_of_memory)
    assert main([str(m0_path), "--prop", "P<=0.5 [ F psi ]"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: MemoryError") and captured.err.endswith("\n")


def test_main_rejects_out_of_range_counts(m0_path, capsys):
    # caught when the arguments are parsed, before any stage runs
    base = [str(m0_path), "--prop", "P<=0.5 [ F psi ]"]
    for option, value in (("--max-witnesses", "-3"), ("--max-witnesses", "0"), ("--seed", "-1"), ("--seed", "x")):
        with pytest.raises(SystemExit) as exit_:
            main(base + ["--verify", option, value])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {option}:" in err and "error in" not in err
    assert main(base + ["--max-witnesses", "1", "--seed", "0"]) == 1


def test_main_json_deterministic(m0_path, capsys):
    argv = [
        str(m0_path), "--prop", "P<1 [ F psi ]",
        "--format", "json", "--verify", "--dump-scc", "--seed", "9",
    ]
    assert main(argv) == 1
    first = capsys.readouterr().out
    assert main(argv) == 1
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert parsed["verdict"] == "violated"


def test_main_json_is_report_plus_newline(m0_path, capsys):
    main([str(m0_path), "--prop", "P<=0.5 [ F psi ]", "--format", "json"])
    out = capsys.readouterr().out
    assert out.endswith("}\n")
    json.loads(out)


def test_scheduler_failure_exits_2(mdp2_path, monkeypatch):
    def stuck(m, target):
        raise SingularMatrixError(3)

    monkeypatch.setattr(cli, "extract_max_scheduler", stuck)
    code, report = _run(mdp2_path, "P<=0.75 [ F goal ]")
    assert code == 2
    assert report["error"] == {
        "stage": "pre-processing",
        "message": "matrix is singular at pivot 3",
    }


def test_unexpected_exception_exits_2_with_stage(m0_path, monkeypatch, capsys):
    def deep(*args, **kwargs):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr(cli, "most_indicative", deep)
    code, report = _run(m0_path, "P<=0.5 [ F psi ]")
    assert code == 2
    assert report["error"]["stage"] == "searching"
    assert report["error"]["message"] == "RecursionError: maximum recursion depth exceeded"
    assert main([str(m0_path), "--prop", "P<=0.5 [ F psi ]"]) == 2
    assert "error in searching: RecursionError" in capsys.readouterr().err


@pytest.mark.parametrize("enabled", [True, False])
def test_checks_leave_the_cyclic_collector_as_they_found_it(enabled, m0_path, monkeypatch):
    # a check and its rendering run with the collector paused, and give
    # the caller back its state however they end: a verdict, exit 2 from
    # a missing file, a search that raises, a renderer that raises
    seen = []

    def failing(*args, **kwargs):
        seen.append(gc.isenabled())
        raise RuntimeError("search failed")

    def runs():
        for path in (m0_path, "no_such_model.json"):
            yield _run(path, "P<=0.5 [ F psi ]")
        with monkeypatch.context() as patch:
            patch.setattr(cli, "most_indicative", failing)
            yield _run(m0_path, "P<=0.5 [ F psi ]")

    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        codes = []
        for code, report in runs():
            assert gc.isenabled() is enabled
            render_report(report, "json")
            render_report(report, "text")
            assert gc.isenabled() is enabled
            codes.append(code)
        with pytest.raises(KeyError):
            render_report({}, "text")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert codes == [1, 2, 2]
    assert seen == [False]
