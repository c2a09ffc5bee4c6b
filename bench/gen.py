"""Seeded model generators, one per benchmark workload.

Every model is a JSON document in railcheck's input format plus the
property it is checked against. All randomness comes from
``np.random.default_rng([seed, workload tag, model index])``, so a seed
fixes the inputs bit for bit; nothing here depends on railcheck.

Run as a script, this module is the benchmark's set-up step in a fresh
interpreter: it imports railcheck (users pay that import on every CLI
call), generates the workload and writes the model files.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

import reference

GOAL = "goal"


@dataclass(frozen=True)
class Case:
    name: str  # check id, unique within the workload
    model: str  # file stem; checks of one model share its file
    doc: dict
    prop: str
    verify: bool = False
    forward_only: bool = False  # no cycles but absorbing self loops: rails can be enumerated


def _bfs_numbered(succ: Dict[int, List[int]], init: int) -> Dict[int, int]:
    """Breadth-first numbering from the initial state, successors visited
    in ascending provisional id, the way explicit-state exporters number
    reachable states; unreachable states follow in provisional order."""
    order = {init: 0}
    queue = [init]
    for u in queue:
        for t in sorted(succ[u]):
            if t not in order:
                order[t] = len(order)
                queue.append(t)
    for u in sorted(succ):
        if u not in order:
            order[u] = len(order)
    return order


def _doc(actions: Dict[int, List[Dict[int, float]]], init: int, goals) -> dict:
    """Build a model document from provisional-id actions, renumbered
    breadth-first; goal states carry the atom ``goal``."""
    succ = {u: [t for dist in dists for t in dist] for u, dists in actions.items()}
    order = _bfs_numbered(succ, init)
    name = {u: "s%d" % order[u] for u in actions}
    states = sorted(actions, key=order.__getitem__)
    return {
        "states": [name[u] for u in states],
        "initial": name[init],
        "labels": {name[u]: [GOAL] for u in sorted(goals, key=order.__getitem__)},
        "transitions": {
            name[u]: [
                {name[t]: float(p) for t, p in sorted(dist.items(), key=lambda kv: order[kv[0]])}
                for dist in actions[u]
            ]
            for u in states
        },
    }


def _split(rng, mass: float, k: int, lo: float = 0.2) -> List[float]:
    w = rng.uniform(lo, 1.0, k)
    return list(mass * w / w.sum())


def _add(dist: Dict[int, float], t: int, p: float) -> None:
    dist[t] = dist.get(t, 0.0) + p


# mc-many-sccs: rings with forward exits, BFS numbered

RING = 4
MC_LADDER = ((122, 4), (250, 6), (498, 4), (998, 1), (1998, 1))  # (states, models)


def ring_chain(rng, n_states: int) -> dict:
    """Chain of rings of RING states. A ring member moves on around its
    ring with probability 0.55 to 0.7 and otherwise exits forward: member
    0 always to the next ring (so every ring is reachable and the goal is
    reachable from every ring), the others to a ring up to eight ahead or,
    near the end, to the goal or the trap."""
    k = (n_states - 2) // RING
    goal, trap = k * RING, k * RING + 1
    actions: Dict[int, List[Dict[int, float]]] = {goal: [{goal: 1.0}], trap: [{trap: 1.0}]}
    for r in range(k):
        for j in range(RING):
            s = r * RING + j
            stay = float(rng.uniform(0.55, 0.7))
            dist = {r * RING + (j + 1) % RING: stay}
            if j == 0:
                exits = [(r + 1) * RING + int(rng.integers(RING)) if r + 1 < k else goal]
            else:
                exits = []
            ahead = r + 1 + int(rng.integers(8))
            if ahead < k:
                exits.append(ahead * RING + int(rng.integers(RING)))
            else:
                exits.append(goal if rng.random() < 0.7 else trap)
            if j == RING - 1 and rng.random() < 0.02:
                exits.append(trap)
            for t, p in zip(exits, _split(rng, 1.0 - stay, len(exits))):
                _add(dist, t, p)
            actions[s] = [dist]
    return _doc(actions, 0, [goal])


def mc_many_sccs(seed: int) -> List[Case]:
    cases = []
    for rung, (size, count) in enumerate(MC_LADDER):
        for i in range(count):
            rng = np.random.default_rng([seed, 1, rung, i])
            cases.append(
                Case("ring%d-%d" % (size, i), "ring%d-%d" % (size, i), ring_chain(rng, size), "P<=0 [ F goal ]")
            )
    return cases


# mdp-big-ec: one large end component, two actions per state

MDP_SIZES = ((200, 4), (300, 5), (400, 5))  # (end-component states, models)


def big_ec_mdp(rng, n: int) -> dict:
    """MDP whose n non-absorbing states form one end component. Every
    action moves to two or three random states of the component; action 0
    of state i always includes the step to i + 1 (mod n), so the states
    are strongly connected under it. Action 1 of every fourth state leaks
    10-30% out of the component, to the goal and the trap in one ratio
    fixed per model, so every state of the component has that ratio as
    its maximal value and every leak is an optimal exit."""
    goal, trap = n, n + 1
    ratio = float(rng.uniform(0.55, 0.9))
    actions: Dict[int, List[Dict[int, float]]] = {goal: [{goal: 1.0}], trap: [{trap: 1.0}]}
    for s in range(n):
        dists = []
        for a in range(2):
            targets = [int(t) for t in rng.choice(n, size=int(rng.integers(2, 4)), replace=False)]
            if a == 0 and (s + 1) % n not in targets:
                targets[0] = (s + 1) % n
            leak = float(rng.uniform(0.1, 0.3)) if a == 1 and s % 4 == 0 else 0.0
            dist: Dict[int, float] = {}
            for t, p in zip(targets, _split(rng, 1.0 - leak, len(targets))):
                _add(dist, t, p)
            if leak:
                _add(dist, goal, leak * ratio)
                _add(dist, trap, leak * (1.0 - ratio))
            dists.append(dist)
        actions[s] = dists
    return _doc(actions, 0, [goal])


def mdp_big_ec(seed: int) -> List[Case]:
    cases = []
    for rung, (size, count) in enumerate(MDP_SIZES):
        for i in range(count):
            rng = np.random.default_rng([seed, 2, rung, i])
            cases.append(
                Case("ec%d-%d" % (size, i), "ec%d-%d" % (size, i), big_ec_mdp(rng, size), "P<=0.5 [ F goal ]")
            )
    return cases


# dag-many-rails: layered forward-only chains

DAG_WIDTH = 16
DAG_CLASSES = ((11, 3), (12, 4), (13, 1))  # (layers, models); 2**layers rails each
DAG_VIOLATE_AFTER = 0.75  # share of the rails needed before a violated bound breaks


def layered_dag(rng, layers: int) -> dict:
    """Initial state, then `layers` layers of DAG_WIDTH states, each state
    stepping to two distinct states of the next layer; the last layer
    steps to the goal or the trap. Every path from the initial state to
    the goal is a rail, 2**layers of them."""
    w = DAG_WIDTH
    goal, trap = 1 + layers * w, 2 + layers * w
    actions: Dict[int, List[Dict[int, float]]] = {goal: [{goal: 1.0}], trap: [{trap: 1.0}]}

    def step(targets):
        a, b = (int(t) for t in rng.choice(targets, size=2, replace=False))
        p = float(rng.uniform(0.2, 0.8))
        return {a: p, b: 1.0 - p}

    actions[0] = [step(np.arange(1, 1 + w))]
    for layer in range(1, layers + 1):
        base = 1 + (layer - 1) * w
        for s in range(base, base + w):
            if layer < layers:
                actions[s] = [step(np.arange(base + w, base + 2 * w))]
            else:
                p = float(rng.uniform(0.3, 0.9))
                actions[s] = [{goal: p, trap: 1.0 - p}]
    return _doc(actions, 0, [goal])


def dag_many_rails(seed: int) -> List[Case]:
    """Each model is checked twice: against a bound that holds, so the
    whole rail stream is consumed, and against a bound that breaks only
    after DAG_VIOLATE_AFTER of the rails, heaviest first."""
    cases = []
    for rung, (layers, count) in enumerate(DAG_CLASSES):
        for i in range(count):
            rng = np.random.default_rng([seed, 3, rung, i])
            doc = layered_dag(rng, layers)
            masses = reference.rail_masses(doc)
            total = math.fsum(masses)
            k = int(DAG_VIOLATE_AFTER * len(masses))
            below, above = math.fsum(masses[: k - 1]), math.fsum(masses[:k])
            holds = min(1.0, math.ceil((total + 0.01) * 1e4) / 1e4)
            stem = "dag%d-%d" % (layers, i)
            cases.append(Case(stem + "-holds", stem, doc, "P<=%.4f [ F goal ]" % holds, forward_only=True))
            cases.append(Case(stem + "-violated", stem, doc, "P<=%.17f [ F goal ]" % ((below + above) / 2),
                              forward_only=True))
    return cases


# small-verify: the tiny random shapes of the test-suite corpora

# State counts, fixed per slot: the sampler's cost grows with the state
# count, so drawing it from the seed would make the set's cost a lottery.
SMALL_CHAINS = (5, 6, 7, 8, 9, 10, 11, 12)
SMALL_MDPS = (4, 5, 5, 6, 6)
SMALL_DAGS = (5, 6, 7, 8, 9)


def _names_doc(names, rows, initial, goals) -> dict:
    return {
        "states": names,
        "initial": initial,
        "labels": {g: [GOAL] for g in goals},
        "transitions": rows,
    }


def small_chain(rng, n: int) -> dict:
    """Layered chain of n states with up to three ring blocks and an
    absorbing tail of goals plus an optional trap (the shape of the mc
    corpus in tests/conftest.py)."""
    n_goal = int(rng.integers(1, 3))
    trap = bool(rng.random() < 0.4)
    interior = n - n_goal - (1 if trap else 0)
    blocks = []
    pos = 0 if rng.random() < 0.3 else 1
    for _ in range(int(rng.integers(1, 4))):
        if pos >= interior:
            break
        size = min(int(rng.integers(1, 4)), interior - pos)
        blocks.append((pos, size))
        pos += size + int(rng.integers(0, 3))
    block_of = {}
    for start, size in blocks:
        for k in range(size):
            block_of[start + k] = (start, size)
    names = ["s%d" % i for i in range(n)]
    rows = {}
    for s in range(interior):
        row: Dict[int, float] = {}
        if s in block_of:
            start, size = block_of[s]
            row[start + (s - start + 1) % size] = float(rng.uniform(0.25, 0.75))
            lo = start + size
        else:
            lo = s + 1
        outs = list(range(lo, n))
        k = min(len(outs), int(rng.integers(1, 3)))
        picks = rng.choice(len(outs), size=k, replace=False)
        for j, p in zip(picks, _split(rng, 1.0 - math.fsum(row.values()), k)):
            _add(row, outs[int(j)], float(p))
        rows[names[s]] = [{names[t]: p for t, p in sorted(row.items())}]
    for s in range(interior, n):
        rows[names[s]] = [{names[s]: 1.0}]
    return _names_doc(names, rows, names[0], names[interior : interior + n_goal])


def small_mdp(rng, n: int) -> dict:
    """MDP of n states with one to three actions of unrestricted edges;
    the last two states are the absorbing goal and an absorbing sink.

    Unlike the test corpus, an action has one or two successors, not up
    to three: with three, the verifier's path enumeration (every path of
    up to 20 states) grows past 10**5 paths on about 7% of models and to
    2.4 * 10**7 on the worst of 300, seconds and gigabytes for one check.
    """
    names = ["q%d" % i for i in range(n)]
    rows = {}
    for s in range(n - 2):
        acts = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 3))
            picks = sorted(int(t) for t in rng.choice(n, size=k, replace=False))
            acts.append({names[t]: float(p) for t, p in zip(picks, _split(rng, 1.0, k, lo=0.1))})
        rows[names[s]] = acts
    rows[names[n - 2]] = [{names[n - 2]: 1.0}]
    rows[names[n - 1]] = [{names[n - 1]: 1.0}]
    return _names_doc(names, rows, names[0], [names[n - 2]])


def small_dag(rng, n: int) -> dict:
    """Forward-only chain of n states whose terminal states split into
    goals and traps."""
    n_term = int(rng.integers(1, 3))
    n_goal = int(rng.integers(1, n_term + 1))
    interior = n - n_term
    names = ["a%d" % i for i in range(n)]
    rows = {}
    for s in range(interior):
        outs = list(range(s + 1, n))
        k = min(len(outs), int(rng.integers(1, 3)))
        picks = rng.choice(len(outs), size=k, replace=False)
        row = {outs[int(j)]: float(p) for j, p in zip(picks, _split(rng, 1.0, k))}
        rows[names[s]] = [{names[t]: p for t, p in sorted(row.items())}]
    for s in range(interior, n):
        rows[names[s]] = [{names[s]: 1.0}]
    return _names_doc(names, rows, names[0], names[interior : interior + n_goal])


def small_verify(seed: int) -> List[Case]:
    cases = []
    for tag, make, sizes in (("chain", small_chain, SMALL_CHAINS),
                             ("mdp", small_mdp, SMALL_MDPS),
                             ("dag", small_dag, SMALL_DAGS)):
        for i, n in enumerate(sizes):
            rng = np.random.default_rng([seed, 4, len(cases)])
            stem = "%s%d-%d" % (tag, n, i)
            cases.append(Case(stem, stem, make(rng, n), "P<=0.5 [ F goal ]", verify=True, forward_only=tag == "dag"))
    return cases


STATE_ORDER = {
    "mc-many-sccs": "numbered breadth-first from the initial state",
    "mdp-big-ec": "numbered breadth-first from the initial state",
    "dag-many-rails": "numbered breadth-first from the initial state",
    "small-verify": "numbered along the layers, as in the test corpora",
}

WORKLOADS: Dict[str, Callable[[int], List[Case]]] = {
    "mc-many-sccs": mc_many_sccs,
    "mdp-big-ec": mdp_big_ec,
    "dag-many-rails": dag_many_rails,
    "small-verify": small_verify,
}


def _text(case: Case) -> str:
    return json.dumps(case.doc, indent=1)


def digest(cases: List[Case]) -> str:
    """sha256 of the whole input set: check names, properties and model
    file bytes, so runs that print the same digest read identical inputs."""
    h = hashlib.sha256()
    for case in cases:
        h.update(("%s\n%s\n%s\n" % (case.name, case.prop, _text(case))).encode())
    return h.hexdigest()


def write_cases(cases: List[Case], out_dir: str) -> str:
    """Write one JSON file per model (checks of one model share it) and
    return the digest of the input set."""
    os.makedirs(out_dir, exist_ok=True)
    for case in {c.model: c for c in cases}.values():
        with open(model_path(out_dir, case), "w", encoding="utf-8") as fh:
            fh.write(_text(case))
    return digest(cases)


def model_path(out_dir: str, case: Case) -> str:
    return os.path.join(out_dir, case.model + ".json")


def _setup_main() -> None:
    import argparse
    import sys

    parser = argparse.ArgumentParser(description="generate and write one workload's models")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))
    import railcheck  # noqa: F401  (the import is part of the measured set-up)

    print(write_cases(WORKLOADS[args.workload](args.seed), args.out))


if __name__ == "__main__":
    _setup_main()
