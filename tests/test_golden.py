"""Report bytes pinned: every case of make_golden.py must keep the JSON
and text digests, exit code, verdict, witness count and `max_prob` that
tests/golden.json records.

The hashes are compared only on the Python minor version and numpy
version the file was written with. A `verify` report's `sampling` counts
are a function of numpy's `Generator.binomial`, and other versions may
round the solver's sums differently. Elsewhere (other Pythons, the
oldest numpy) the test compares the exit code, verdict and witness count
exactly and `max_prob` to 4 ulps.
"""

import json
import math

import make_golden


def _close(got, want) -> bool:
    if got is None or want is None:
        return got is want
    return abs(got - want) <= 4 * math.ulp(want)


def _moved(golden: dict, now: dict, versions: dict) -> dict:
    """Per case of `golden` whose report in `now` moved, the fields that
    moved as (want, got): all of them if `versions` are those golden was
    written with, else the exit code, verdict and witness count, and
    `max_prob` by more than 4 ulps."""
    exact = versions == {k: golden[k] for k in ("python", "numpy")}
    fields = ("exit", "verdict", "witnesses") + (("json", "text", "max_prob") if exact else ())
    moved = {}
    for name, want in golden["cases"].items():
        got = now["cases"][name]
        diff = {k: (want[k], got[k]) for k in fields if got[k] != want[k]}
        if not exact and not _close(got["max_prob"], want["max_prob"]):
            diff["max_prob"] = (want["max_prob"], got["max_prob"])
        if diff:
            moved[name] = diff
    return moved


def test_reports_keep_their_digests():
    golden = json.loads(make_golden.GOLDEN.read_text())
    now = make_golden.compute()
    assert sorted(now["cases"]) == sorted(golden["cases"])
    moved = _moved(golden, now, make_golden.versions())
    assert not moved, moved


def test_digests_are_compared_on_the_pinned_versions_only():
    # A moved digest or a max_prob 1 ulp off fails on the versions the
    # file was written with and passes on any other; a moved exit code,
    # verdict or witness count, or a max_prob 5 ulps off, fails on both.
    pinned = {"python": "3.11", "numpy": "2.4.6"}
    case = {"json": "a" * 64, "text": "b" * 64, "exit": 1, "verdict": "violated", "witnesses": 3,
            "max_prob": 0.75}
    golden = {**pinned, "cases": {"c": case}}
    changes = [("json", "c" * 64, True), ("text", "d" * 64, True), ("max_prob", 0.75 + math.ulp(0.75), True),
               ("max_prob", 0.75 - 5 * math.ulp(0.75), False), ("exit", 0, False), ("verdict", "holds", False),
               ("witnesses", 4, False)]
    for versions in (pinned, {"python": "3.12", "numpy": "2.4.6"}, {"python": "3.11", "numpy": "1.24.4"}):
        assert _moved(golden, golden, versions) == {}
        for field, value, tolerated in changes:
            now = {"cases": {"c": {**case, field: value}}}
            want = {} if tolerated and versions != pinned else {"c": {field: (case[field], value)}}
            assert _moved(golden, now, versions) == want
