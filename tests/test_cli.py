import json
import math
import sys

import numpy as np
import pytest

from railcheck import cli
from railcheck.cli import main, render_report, run_check
from railcheck.numerics import SingularMatrixError
from railcheck.props import parse_property


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


def test_verification_block(m0_path):
    code, report = _run(m0_path, "P<1 [ F psi ]", verify=True, seed=7)
    assert code == 1
    v = report["verification"]
    assert v["algorithm"] == "pcg64"
    assert v["seed"] == 7
    assert v["pass"] is True
    assert v["reduction_value"]["pass"] is True
    assert v["enumeration"]["pass"] is True
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


def _layered_dag_doc(rng, layers, width=16):
    # The benchmark's layered DAG: an initial state, then `layers` layers
    # of `width` states, each stepping to two distinct states of the next
    # layer, the last layer to the goal or a trap; states are numbered
    # breadth-first, successors in ascending provisional id, and the
    # unreachable ones last.
    goal, trap = 1 + layers * width, 2 + layers * width
    rows = {goal: {goal: 1.0}, trap: {trap: 1.0}}

    def step(lo):
        a, b = (int(t) for t in rng.choice(np.arange(lo, lo + width), size=2, replace=False))
        p = float(rng.uniform(0.2, 0.8))
        return {a: p, b: 1.0 - p}

    rows[0] = step(1)
    for layer in range(1, layers + 1):
        base = 1 + (layer - 1) * width
        for s in range(base, base + width):
            if layer < layers:
                rows[s] = step(base + width)
            else:
                p = float(rng.uniform(0.3, 0.9))
                rows[s] = {goal: p, trap: 1.0 - p}
    order, queue = {0: 0}, [0]
    for u in queue:
        for t in sorted(rows[u]):
            if t not in order:
                order[t] = len(order)
                queue.append(t)
    for u in sorted(rows):  # unreachable states last
        order.setdefault(u, len(order))
    name = {u: "s%d" % order[u] for u in rows}
    states = sorted(rows, key=order.__getitem__)
    return {
        "states": [name[u] for u in states],
        "initial": name[0],
        "labels": {name[goal]: ["goal"]},
        "transitions": {
            name[u]: [{name[t]: rows[u][t] for t in sorted(rows[u], key=order.__getitem__)}]
            for u in states
        },
    }


def test_sampling_check_passes_many_rails(tmp_path):
    # 2048 rails, each checked at 4 sigma alone, failed this correct
    # report at both seeds; the bound now holds over all rails at once.
    path = tmp_path / "dag.json"
    path.write_text(json.dumps(_layered_dag_doc(np.random.default_rng(1), 11)))
    for seed in (42, 1):
        code, report = _run(path, "P<=0.5 [ F goal ]", verify=True, seed=seed)
        sampling = report["verification"]["sampling"]
        assert code == 1 and len(sampling["rails"]) == 2048
        assert sampling["pass"] is True and report["verification"]["pass"] is True


def test_sampling_check_fails_a_mass_ten_percent_off(m0_path, monkeypatch):
    real = cli.ranked_rails

    def skewed(red, psi):
        for i, (rail, mass) in enumerate(real(red, psi)):
            yield rail, mass * 1.1 if i == 0 else mass

    monkeypatch.setattr(cli, "ranked_rails", skewed)
    for seed in (42, 1, 7):
        _, report = _run(m0_path, "P<1 [ F psi ]", verify=True, seed=seed)
        rails = report["verification"]["sampling"]["rails"]
        assert [r["pass"] for r in rails] == [False] + [True] * (len(rails) - 1)
        assert report["verification"]["pass"] is False


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
    for _ in range(400):
        value = {"v": _random_json(rng)}
        assert render_report(value, "json") == json.dumps(value, indent=2) + "\n"


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
    # A component that leaks almost nothing is singular to the solver's
    # pivot test. Either the check fails in scc-analysis saying so, or
    # max_prob is the ratio of the leaks: never another number.
    rng = np.random.default_rng(1414)
    epsilons = [1e-12, 1e-13, 1e-14, 1e-15] + [float(10.0 ** -rng.uniform(10, 16)) for _ in range(36)]
    for k, eps in enumerate(epsilons):
        rows, goals, r = _leaky_ring(rng, eps)
        path = tmp_path / ("ring%d.json" % k)
        path.write_text(json.dumps(_contract_doc(rows, goals)))
        code, report = _run(path, "P<=%.3f [ F psi ]" % rng.uniform(0.05, 1.0), max_witnesses=10)
        if code == 2:
            assert report["error"]["stage"] == "scc-analysis", (eps, report)
            assert "singular" in report["error"]["message"], (eps, report)
        else:
            assert abs(report["max_prob"] - r) <= 1e-9, (eps, report["max_prob"], r)


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

def test_error_missing_file():
    code, report = _run("no_such_model.json", "P<=0.5 [ F psi ]")
    assert code == 2
    assert report["error"]["stage"] == "parse"


def test_error_bad_model(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"states": ["a"], "initial": "a", "transitions": {"a": [{"a": 0.9}]}}')
    code, report = _run(bad, "P<=0.5 [ F psi ]")
    assert code == 2
    assert report["error"]["stage"] == "parse"
    assert "sums to 0.9" in report["error"]["message"]


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
