"""Shared fixtures: the bundled example models plus seeded random corpora.

The corpora are deterministic functions of fixed master seeds, so every
run sees the same models and the property-style tests are reproducible.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from railcheck.model import ROW_SUM_TOL, Model, ModelError, mc_row, parse_model
from railcheck.oracle import brute_force_max_reach
from railcheck.props import Atom, sat_states
from railcheck.search import ranked_rails
from railcheck.transform import AcyclicReduction, acyclic_reduce, make_absorbing

FIXTURES = Path(__file__).parent / "fixtures"

MC_CORPUS_SEED = 777
MDP_CORPUS_SEED = 778
DAG_CORPUS_SEED = 779


def load_model(name: str) -> Model:
    return parse_model((FIXTURES / name).read_text())


def successors(m: Model, s: int) -> set:
    """Support of the successor relation under any distribution of s."""
    return {t for dist in m.actions[s] for t, _ in dist}


def reduce_to_psi(mc: Model):
    """Absorb the psi states and reduce; returns (reduction, psi set)."""
    psi = sat_states(mc, Atom("psi"))
    red = acyclic_reduce(make_absorbing(mc, psi))
    return red, psi


def component_sets(comps):
    """Each component's (members, inputs, outputs) as frozensets, read off
    the arrays of `scc_decompose`, inputs and outputs None before `scc_io`
    fills them. Asserts the arrays' layout on the way: ids ordered by
    smallest member, members and outputs ascending in each component, and
    `of` naming each state's component."""
    members, at, of = comps.members.tolist(), comps.member_at.tolist(), comps.of.tolist()
    assert sorted(members) == list(range(len(of)))
    table = []
    for c, (a, b) in enumerate(zip(at, at[1:])):
        mem = members[a:b]
        assert mem == sorted(mem) and {of[s] for s in mem} == {c}
        table.append([frozenset(mem), None, None])
    assert [min(mem) for mem, _, _ in table] == sorted(min(mem) for mem, _, _ in table)
    if comps.outputs is not None:
        outputs, out_at, is_input = comps.outputs.tolist(), comps.output_at.tolist(), comps.is_input.tolist()
        for entry, a, b in zip(table, out_at, out_at[1:]):
            assert outputs[a:b] == sorted(set(outputs[a:b]))
            entry[1:] = frozenset(s for s in entry[0] if is_input[s]), frozenset(outputs[a:b])
    return [tuple(entry) for entry in table]


def assert_completion_order(m: Model, comps) -> None:
    """rank orders the components as Tarjan completes them: every edge
    from component c into another component d has rank[d] < rank[c]."""
    rank, of = comps.rank.tolist(), comps.of.tolist()
    assert sorted(rank) == list(range(len(rank)))
    for s in range(m.num_states):
        for t in successors(m, s):
            assert of[s] == of[t] or rank[of[t]] < rank[of[s]], (s, t)


def assert_rows_equal(rows, actions):
    """The four row arrays equal the actions, flattened here tuple by
    tuple, independently of `Rows`; probabilities to the byte."""
    dist_at, entry_at, succ, prob = [0], [0], [], []
    for dists in actions:
        for dist in dists:
            succ += [t for t, _ in dist]
            prob += [p for _, p in dist]
            entry_at.append(len(succ))
        dist_at.append(len(entry_at) - 1)
    assert rows.dist_at.tolist() == dist_at and rows.entry_at.tolist() == entry_at
    assert rows.succ.tolist() == succ
    assert rows.prob.tobytes() == np.array(prob, dtype=np.float64).tobytes()


def reference_actions(doc: dict, tol: float = ROW_SUM_TOL):
    """A model document's transitions, read and validated entry by entry
    in document order: per state a tuple of distributions, each a tuple of
    (target index, probability) pairs sorted by target, a probability
    above 1 read as 1. The reference for `parse_model`, which checks whole
    arrays at once; it raises the same ModelError messages. The document's
    other fields must be valid."""
    names = doc["states"]
    index = {name: i for i, name in enumerate(names)}
    trans = doc["transitions"]
    for name in trans:
        if name not in index:
            raise ModelError(f"transitions given for unknown state {name!r}")
    actions = []
    for name in names:
        rows = trans.get(name)
        if not isinstance(rows, list) or not rows:
            raise ModelError(f"state {name!r} needs a non-empty array of distributions")
        actions.append(
            tuple(_reference_distribution(name, k, row, index, tol) for k, row in enumerate(rows))
        )
    return tuple(actions)


def _reference_distribution(state, k, row, index, tol):
    if not isinstance(row, dict) or not row:
        raise ModelError(f"state {state!r} distribution {k} must be a non-empty object")
    entries = []
    for target, p in row.items():
        if target not in index:
            raise ModelError(
                f"state {state!r} distribution {k} targets unknown state {target!r}"
            )
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise ModelError(
                f"state {state!r} distribution {k}: probability of {target!r} must be a number"
            )
        try:
            p = float(p)
        except OverflowError:  # an integer beyond the float range
            p = math.inf if p > 0 else -math.inf
        if not 0.0 < p <= 1.0 + tol:  # also false for the NaN that json reads
            raise ModelError(
                f"state {state!r} distribution {k}: probability {p!r} of {target!r} out of range"
            )
        entries.append((index[target], min(p, 1.0)))
    total = math.fsum(p for _, p in entries)
    if abs(total - 1.0) > tol:
        raise ModelError(f"state {state!r} distribution {k} sums to {total!r}, expected 1")
    entries.sort()
    return tuple(entries)


def truncated_rail_mass(red: AcyclicReduction, rail, max_steps: int = 500):
    """Mass of a rail's generators, summed by dynamic programming over
    path length; returns (settled mass, mass still undecided at cutoff).

    State (i, u) holds the probability of generator prefixes that have
    matched rail[..i] and currently sit at u inside rail[i]'s component.
    A step either stays in the component, advances to rail[i+1], or
    leaves the torrent; arriving at the final rail state settles.
    The true generator mass always lies in [settled, settled + undecided].
    """
    mc = red.origin
    scc_of = red.scc_of
    rail = tuple(rail)
    if len(rail) == 1:
        return 1.0, 0.0
    alive = {(0, rail[0]): 1.0}
    done = 0.0
    for _ in range(max_steps):
        nxt = {}
        for (i, u), mass in alive.items():
            for v, p in mc_row(mc, u):
                if scc_of[v] == scc_of[u]:
                    key = (i, v)
                elif v == rail[i + 1]:
                    if i + 2 == len(rail):
                        done += mass * p
                        continue
                    key = (i + 1, v)
                else:
                    continue
                nxt[key] = nxt.get(key, 0.0) + mass * p
        alive = nxt
        if math.fsum(alive.values()) < 1e-15:
            break
    return done, math.fsum(alive.values())


def diamond_chain_doc(rng, k, spread=None):
    """s_i steps to a_i or b_i, both step to s_i+1; s_k is the target.

    With `spread`, p is 1/2 plus a random multiple of 1e-13, at most
    `spread` of them: 0 makes a fair chain, whose rails all tie, and 10 a
    near-tied one, whose two steps per level differ by at most 4e-12 in
    log mass, so many rails differ in their last few bits only."""
    rows = {}
    for i in range(k):
        if spread is None:
            p = float(rng.uniform(0.2, 0.8))
        else:
            p = 0.5 + float(rng.integers(-spread, spread + 1)) * 1e-13
        rows["s%d" % i] = [{"a%d" % i: p, "b%d" % i: 1.0 - p}]
        rows["a%d" % i] = [{"s%d" % (i + 1): 1.0}]
        rows["b%d" % i] = [{"s%d" % (i + 1): 1.0}]
    rows["s%d" % k] = [{"s%d" % k: 1.0}]
    return {"states": list(rows), "initial": "s0", "labels": {"s%d" % k: ["psi"]}, "transitions": rows}


def ring_chain_doc(rng, rings, size=4):
    """Rings of `size` states. A member moves on around its ring or exits
    forward: member 0 to the next ring, the others to one of the next
    three rings, and past the last ring to the target or a trap."""
    names = ["r%d" % s for s in range(rings * size)] + ["goal", "trap"]
    rows = {"goal": [{"goal": 1.0}], "trap": [{"trap": 1.0}]}
    for ring in range(rings):
        for j in range(size):
            stay = float(rng.uniform(0.5, 0.7))
            ahead = ring + 1 + (int(rng.integers(3)) if j else 0)
            if ahead < rings:
                exit_to = names[ahead * size + int(rng.integers(size))]
            else:
                exit_to = "goal" if rng.random() < 0.7 else "trap"
            nxt = names[ring * size + (j + 1) % size]
            rows[names[ring * size + j]] = [{nxt: stay, exit_to: 1.0 - stay}]
    return {"states": names, "initial": names[0], "labels": {"goal": ["psi"]}, "transitions": rows}


def layered_dag_doc(rng, layers, width=16):
    """The benchmark's layered DAG: an initial state, then `layers` layers
    of `width` states, each stepping to two distinct states of the next
    layer, the last layer to the goal or a trap; states are numbered
    breadth-first, successors in ascending provisional id, and the
    unreachable ones last."""
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


def star_chain_doc(rng, leaves):
    """The initial state steps to `leaves` leaves with random weights, and
    each leaf to the goal or a trap: one rail per leaf, and about two
    stream items per state."""
    names = ["c"] + ["l%d" % i for i in range(leaves)] + ["goal", "trap"]
    w = rng.uniform(0.2, 1.0, leaves)
    rows = {"c": [dict(zip(names[1 : leaves + 1], (w / w.sum()).tolist()))],
            "goal": [{"goal": 1.0}], "trap": [{"trap": 1.0}]}
    for leaf in names[1 : leaves + 1]:
        p = float(rng.uniform(0.3, 0.9))
        rows[leaf] = [{"goal": p, "trap": 1.0 - p}]
    return {"states": names, "initial": "c", "labels": {"goal": ["goal"]}, "transitions": rows}


def line_dag_doc(rng, length, layers):
    """A line of `length` states, each stepping to the next with
    probability 1, into the initial state of `layered_dag_doc(rng,
    layers)`: every line state has that DAG's 2**layers rails."""
    dag = layered_dag_doc(rng, layers)
    names = ["line%d" % i for i in range(length)]
    rows = {a: [{b: 1.0}] for a, b in zip(names, names[1:] + [dag["initial"]])}
    return {"states": names + dag["states"], "initial": names[0], "labels": dag["labels"],
            "transitions": {**rows, **dag["transitions"]}}


def dense_chain_doc(rng, n, k):
    """n states, the last one `psi` with a Dirac loop; every other state
    steps to k distinct states, itself and `psi` allowed, with integer
    weights 1-8 normalised. With 10-12 states and rows of 3-6, such a
    chain has 10^6 to 10^13 paths of up to 20 states that hit `psi`."""
    names = ["s%d" % s for s in range(n)]
    rows = {names[-1]: [{names[-1]: 1.0}]}
    for s in range(n - 1):
        succ = rng.choice(n, k, replace=False)
        w = rng.integers(1, 9, k)
        rows[names[s]] = [{names[int(t)]: float(x) for t, x in zip(succ, w / w.sum())}]
    return {"states": names, "initial": names[0], "labels": {names[-1]: ["psi"]}, "transitions": rows}


def line_mdp_doc(k, delta, end=False):
    """States s0 ... s(k-1) in a line, then `end` if asked, `goal` (psi)
    and `trap`. In each si, action 0 steps on with probability 1 and
    action 1 goes to `goal` with `delta`, else steps on. `end` splits 1/2
    and 1/2 between `goal` and `trap`; without it, s(k-1) steps on to
    `trap`. The best scheduler takes action 1 everywhere."""
    names = ["s%d" % i for i in range(k)] + (["end"] if end else [])
    after = names[1:] + ["trap"]
    rows = {s: [{t: 1.0}, {"goal": delta, t: 1.0 - delta}] for s, t in zip(names[:k], after)}
    if end:
        rows["end"] = [{"goal": 0.5, "trap": 0.5}]
    rows.update(goal=[{"goal": 1.0}], trap=[{"trap": 1.0}])
    return {"states": names + ["goal", "trap"], "initial": "s0", "labels": {"goal": ["psi"]}, "transitions": rows}


# random corpus builders

def _mc_doc(rng):
    # Layered chain: up to three strongly connected blocks (rings, so
    # every member has an internal move), forward edges everywhere else,
    # absorbing tail of target states plus an optional trap.
    n = int(rng.integers(5, 13))
    n_psi = int(rng.integers(1, 3))
    trap = bool(rng.random() < 0.4)
    interior = n - n_psi - (1 if trap else 0)
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
        row = {}
        if s in block_of:
            start, size = block_of[s]
            row[start + (s - start + 1) % size] = float(rng.uniform(0.25, 0.75))
            lo = start + size
        else:
            lo = s + 1
        outs = list(range(lo, n))
        k = min(len(outs), int(rng.integers(1, 3)))
        picks = rng.choice(len(outs), size=k, replace=False)
        w = rng.uniform(0.2, 1.0, k)
        w = (1.0 - math.fsum(row.values())) * w / w.sum()
        for j, t in enumerate(picks):
            row[outs[int(t)]] = row.get(outs[int(t)], 0.0) + float(w[j])
        rows[names[s]] = [{names[t]: p for t, p in sorted(row.items())}]
    for s in range(interior, n):
        rows[names[s]] = [{names[s]: 1.0}]
    return {
        "states": names,
        "initial": names[0],
        "labels": {names[s]: ["psi"] for s in range(interior, interior + n_psi)},
        "transitions": rows,
    }


def _usable_mc(doc):
    m = parse_model(json.dumps(doc))
    psi = sat_states(m, Atom("psi"))
    if brute_force_max_reach(m, psi) < 0.05:
        return None
    red = acyclic_reduce(make_absorbing(m, psi))
    rails = []
    for rail, mass, _ in ranked_rails(red, psi):
        rails.append((rail, mass))
        if len(rails) > 40:
            return None
    if not rails:
        return None
    return m, psi, red, rails


def build_mc_corpus(count: int = 200, master: int = MC_CORPUS_SEED):
    out = []
    i = 0
    while len(out) < count:
        rng = np.random.default_rng([master, i])
        i += 1
        got = _usable_mc(_mc_doc(rng))
        if got is not None:
            out.append(got)
    return out


def _mdp_doc(rng):
    # Small MDP with unrestricted edges (cycles and self loops welcome);
    # the last two states are an absorbing goal and an absorbing sink.
    n = int(rng.integers(4, 7))
    names = ["q%d" % i for i in range(n)]
    rows = {}
    for s in range(n - 2):
        acts = []
        for _ in range(int(rng.integers(1, 4))):
            k = int(rng.integers(1, 4))
            picks = sorted(int(t) for t in rng.choice(n, size=k, replace=False))
            w = rng.uniform(0.1, 1.0, k)
            w = w / w.sum()
            acts.append({names[t]: float(p) for t, p in zip(picks, w)})
        rows[names[s]] = acts
    rows[names[n - 2]] = [{names[n - 2]: 1.0}]
    rows[names[n - 1]] = [{names[n - 1]: 1.0}]
    return {
        "states": names,
        "initial": names[0],
        "labels": {names[n - 2]: ["psi"]},
        "transitions": rows,
    }


def build_mdp_corpus(count: int = 100, master: int = MDP_CORPUS_SEED):
    return [
        parse_model(json.dumps(_mdp_doc(np.random.default_rng([master, i]))))
        for i in range(count)
    ]


def _dag_doc(rng):
    # Forward-only chain, so every component is trivial and each rail is
    # an ordinary path; terminal states split into targets and traps.
    n = int(rng.integers(5, 10))
    n_term = int(rng.integers(1, 3))
    n_psi = int(rng.integers(1, n_term + 1))
    interior = n - n_term
    names = ["a%d" % i for i in range(n)]
    rows = {}
    for s in range(interior):
        outs = list(range(s + 1, n))
        k = min(len(outs), int(rng.integers(1, 3)))
        picks = rng.choice(len(outs), size=k, replace=False)
        w = rng.uniform(0.2, 1.0, k)
        w = w / w.sum()
        row = {}
        for j, t in enumerate(picks):
            row[outs[int(t)]] = float(w[j])
        rows[names[s]] = [{names[t]: p for t, p in sorted(row.items())}]
    for s in range(interior, n):
        rows[names[s]] = [{names[s]: 1.0}]
    return {
        "states": names,
        "initial": names[0],
        "labels": {names[s]: ["psi"] for s in range(interior, interior + n_psi)},
        "transitions": rows,
    }


def _usable_dag(doc):
    got = _usable_mc(doc)
    if got is None:
        return None
    m, psi, red, rails = got
    if not 2 <= len(rails) <= 8:
        return None
    if math.fsum(mass for _, mass in rails) < 0.15:
        return None
    return m, psi, red, rails


def build_dag_corpus(count: int = 40, master: int = DAG_CORPUS_SEED):
    out = []
    i = 0
    while len(out) < count:
        rng = np.random.default_rng([master, i])
        i += 1
        got = _usable_dag(_dag_doc(rng))
        if got is not None:
            out.append(got)
    return out


def corpus_docs():
    """Documents from the corpora's generators and master seeds, before
    any filter: 200 chains, 100 MDPs (the whole MDP corpus) and 40
    forward-only chains."""
    return (
        [_mc_doc(np.random.default_rng([MC_CORPUS_SEED, i])) for i in range(200)]
        + [_mdp_doc(np.random.default_rng([MDP_CORPUS_SEED, i])) for i in range(100)]
        + [_dag_doc(np.random.default_rng([DAG_CORPUS_SEED, i])) for i in range(40)]
    )


# fixtures

@pytest.fixture(scope="session")
def m0():
    return load_model("m0.json")


@pytest.fixture(scope="session")
def big1():
    return load_model("big1.json")


@pytest.fixture(scope="session")
def mdp2():
    return load_model("mdp2.json")


@pytest.fixture(scope="session")
def fig5():
    return load_model("fig5.json")


@pytest.fixture(scope="session")
def m0_trap():
    return load_model("m0_trap.json")


@pytest.fixture
def m0_path():
    return FIXTURES / "m0.json"


@pytest.fixture
def big1_path():
    return FIXTURES / "big1.json"


@pytest.fixture
def mdp2_path():
    return FIXTURES / "mdp2.json"


@pytest.fixture(scope="session")
def mc_corpus():
    return build_mc_corpus()


@pytest.fixture(scope="session")
def mdp_corpus():
    return build_mdp_corpus()


@pytest.fixture(scope="session")
def dag_corpus():
    return build_dag_corpus()
