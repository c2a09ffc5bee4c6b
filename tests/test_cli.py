import json
import sys

import numpy as np
import pytest

from railcheck import cli
from railcheck.cli import main, render_report, run_check
from railcheck.scheduling import SchedulerError


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
    def stuck(m, target, values=None):
        raise SchedulerError("no optimal distribution makes progress at 2 states")

    monkeypatch.setattr(cli, "extract_max_scheduler", stuck)
    code, report = _run(mdp2_path, "P<=0.75 [ F goal ]")
    assert code == 2
    assert report["error"] == {
        "stage": "pre-processing",
        "message": "no optimal distribution makes progress at 2 states",
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
