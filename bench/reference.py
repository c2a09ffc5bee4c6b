"""Independent answers and report checks.

Nothing here imports railcheck: the references are recomputed from the
model documents with numpy, so a pipeline bug cannot hide in a shared
code path. Maximal reachability is solved by policy iteration with an
exact linear solve per policy (a Markov chain has one policy, so for
chains this is a single exact solve over the states that can reach the
goal); rails of forward-only chains are enumerated and counted by
dynamic programming over paths.
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np

GOAL = "goal"
VALUE_TOL = 1e-6  # |max_prob - reference|
MASS_TOL = 1e-12  # witness masses against exact path products
IMPROVE_TOL = 1e-10  # policy iteration switches only on a clear gain

Actions = List[List[Tuple[np.ndarray, np.ndarray]]]


class Indexed:
    """A model document with states as dense indices."""

    def __init__(self, doc: dict):
        self.names: List[str] = doc["states"]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.initial = self.index[doc["initial"]]
        self.goals = {self.index[s] for s, atoms in doc.get("labels", {}).items() if GOAL in atoms}
        self.actions: Actions = [
            [
                (np.array([self.index[t] for t in dist], dtype=np.int64),
                 np.array(list(dist.values()), dtype=float))
                for dist in doc["transitions"][name]
            ]
            for name in self.names
        ]

    @property
    def n(self) -> int:
        return len(self.names)


def _reaching(rows: Sequence[Tuple[np.ndarray, np.ndarray]], goals) -> List[int]:
    preds: Dict[int, List[int]] = {}
    for s, (ts, _) in enumerate(rows):
        for t in ts:
            preds.setdefault(int(t), []).append(s)
    seen = set(goals)
    stack = list(goals)
    while stack:
        for s in preds.get(stack.pop(), ()):
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return sorted(seen)


def policy_value(m: Indexed, policy: Sequence[int]) -> np.ndarray:
    """Reachability probabilities of the chain a policy induces: one dense
    solve over the non-goal states that can reach the goal."""
    rows = [m.actions[s][policy[s]] for s in range(m.n)]
    free = [s for s in _reaching(rows, m.goals) if s not in m.goals]
    pos = {s: i for i, s in enumerate(free)}
    a = np.eye(len(free))
    b = np.zeros(len(free))
    for s in free:
        ts, ps = rows[s]
        for t, p in zip(ts.tolist(), ps.tolist()):
            if t in m.goals:
                b[pos[s]] += p
            elif t in pos:
                a[pos[s], pos[t]] -= p
    x = np.zeros(m.n)
    x[sorted(m.goals)] = 1.0
    if free:
        x[free] = np.linalg.solve(a, b)
    return x


def max_reach(m: Indexed) -> Tuple[np.ndarray, List[int]]:
    """Maximal reachability values and a policy attaining them.

    Starting anywhere is sound: a switch is made only where it gains, and
    a gaining switch cannot close a goal-free cycle among states of
    positive value, so the values rise until no switch gains, which for
    maximal reachability is the optimum.
    """
    policy = [0] * m.n
    for _ in range(10 * m.n + 10):
        x = policy_value(m, policy)
        changed = False
        for s in range(m.n):
            if s in m.goals or len(m.actions[s]) == 1:
                continue
            q = [float(ps @ x[ts]) for ts, ps in m.actions[s]]
            best = int(np.argmax(q))
            if q[best] > x[s] + IMPROVE_TOL:
                policy[s] = best
                changed = True
        if not changed:
            return x, policy
    raise RuntimeError("policy iteration did not settle")


def rail_masses(doc: dict) -> List[float]:
    """Masses of all paths from the initial state to a first goal hit in a
    forward-only chain, heaviest first. Raises on a cycle other than an
    absorbing self loop."""
    m = Indexed(doc)
    masses = []
    stack = [(m.initial, 1.0, 0)]
    while stack:
        s, mass, depth = stack.pop()
        if s in m.goals:
            masses.append(mass)
            continue
        if depth > m.n:
            raise ValueError("model is not forward-only")
        (ts, ps), = m.actions[s]
        for t, p in zip(ts.tolist(), ps.tolist()):
            if t != s:
                stack.append((t, mass * p, depth + 1))
    count = rail_count(m)
    if count != len(masses):
        raise ValueError(f"enumerated {len(masses)} rails, dynamic programming counts {count}")
    return sorted(masses, reverse=True)


def rail_count(m: Indexed) -> int:
    """Number of initial-to-goal paths, by memoized dynamic programming
    (recursion depth is the chain's depth, a few dozen at most here)."""
    memo: Dict[int, int] = {}

    def count(s: int) -> int:
        if s not in memo:
            memo[s] = 1 if s in m.goals else sum(count(t) for t in m.actions[s][0][0].tolist() if t != s)
        return memo[s]

    return count(m.initial)


class Answer:
    """Everything a report is checked against, computed once per model."""

    def __init__(self, doc: dict, forward_only: bool):
        self.model = Indexed(doc)
        values, self.policy = max_reach(self.model)
        self.value = float(values[self.model.initial])
        self.masses = rail_masses(doc) if forward_only else None


def _violated(bound: str, threshold: float, mass: float) -> bool:
    return mass > threshold if bound == "<=" else mass >= threshold


def _parse_prop(prop: str) -> Tuple[str, float]:
    head = prop.split("[")[0].strip()[1:]
    bound = "<=" if head.startswith("<=") else "<"
    return bound, float(head[len(bound):])


def check_report(answer: Answer, prop: str, code: int, report: dict, verify: bool) -> List[str]:
    """Return every way the report disagrees with the reference (empty
    when it is right)."""
    if code == 2 or "error" in report:
        return ["exit %d: %s" % (code, report.get("error"))]
    m = answer.model
    bad = []
    bound, threshold = _parse_prop(prop)
    if abs(report["max_prob"] - answer.value) > VALUE_TOL:
        bad.append("max_prob %r, reference %r" % (report["max_prob"], answer.value))
    verdict = "violated" if _violated(bound, threshold, answer.value) else "holds"
    if report["verdict"] != verdict or code != (1 if verdict == "violated" else 0):
        bad.append("verdict %s (exit %d), reference %s" % (report["verdict"], code, verdict))
    witnesses = report["witnesses"]
    masses = [w["mass"] for w in witnesses]
    if any(b > a * (1 + 1e-9) for a, b in zip(masses, masses[1:])):
        bad.append("witness masses increase down the list")
    if abs(report["total_mass"] - math.fsum(masses)) > MASS_TOL:
        bad.append("total_mass %r is not the sum of the witness masses" % report["total_mass"])
    if verdict == "violated" and witnesses and _violated(bound, threshold, math.fsum(masses[:-1])):
        bad.append("witness set is not minimal")
    policy = answer.policy
    if "scheduler" in report:
        policy = [report["scheduler"][name] for name in m.names]
        got = float(policy_value(m, policy)[m.initial])
        if abs(got - answer.value) > VALUE_TOL:
            bad.append("scheduler attains %r, reference %r" % (got, answer.value))
    for k, w in enumerate(witnesses):
        bad += ["witness %d: %s" % (k, msg) for msg in _check_witness(m, policy, w)]
    if answer.masses is not None:
        want = answer.masses if verdict == "holds" else _prefix_to_cross(answer.masses, bound, threshold)
        if len(want) != len(masses):
            bad.append("%d witnesses, reference %d" % (len(masses), len(want)))
        elif any(abs(a - b) > MASS_TOL for a, b in zip(masses, want)):
            bad.append("witness masses differ from the reference rail masses")
    if verify and not report.get("verification", {}).get("pass"):
        bad.append("verification did not pass")
    return bad


def _prefix_to_cross(masses: List[float], bound: str, threshold: float) -> List[float]:
    for k in range(1, len(masses) + 1):
        if _violated(bound, threshold, math.fsum(masses[:k])):
            return masses[:k]
    return masses


def _check_witness(m: Indexed, policy: Sequence[int], w: dict) -> List[str]:
    bad = []
    rail = [m.index[s] for s in w["rail"]]
    if rail[0] != m.initial or rail[-1] not in m.goals or any(s in m.goals for s in rail[:-1]):
        bad.append("rail does not run from the initial state to a first goal hit")
    path = [m.index[s] for s in w["representant"]]
    if path[0] != m.initial or path[-1] != rail[-1]:
        bad.append("representant does not join the rail's ends")
    prob = 1.0
    for u, t in zip(path, path[1:]):
        ts, ps = m.actions[u][policy[u]]
        hit = np.flatnonzero(ts == t)
        if not hit.size:
            return bad + ["representant steps %s -> %s off the model" % (m.names[u], m.names[t])]
        prob *= float(ps[hit[0]])
    if abs(prob - w["representant_prob"]) > 1e-9 * max(prob, 1e-300) + 1e-300:
        bad.append("representant_prob %r, path product %r" % (w["representant_prob"], prob))
    if not 0.0 < w["mass"] <= 1.0 + 1e-12:
        bad.append("mass %r out of range" % w["mass"])
    return bad
