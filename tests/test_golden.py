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


def test_reports_keep_their_digests():
    golden = json.loads(make_golden.GOLDEN.read_text())
    now = make_golden.compute()
    assert sorted(now["cases"]) == sorted(golden["cases"])
    exact = make_golden.versions() == {k: golden[k] for k in ("python", "numpy")}
    fields = ("json", "text", "exit", "verdict", "witnesses") + (("max_prob",) if exact else ())
    moved = {}
    for name, want in golden["cases"].items():
        got = now["cases"][name]
        diff = {k: (want[k], got[k]) for k in fields if got[k] != want[k]}
        if not exact and not _close(got["max_prob"], want["max_prob"]):
            diff["max_prob"] = (want["max_prob"], got["max_prob"])
        if diff:
            moved[name] = diff
    assert not moved, moved
