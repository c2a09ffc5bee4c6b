"""Reduction of an absorbing chain to its acyclic skeleton.

Pipeline: make target and probability-zero states absorbing, decompose
into strongly connected components, solve each nontrivial component for
its input-to-output escape probabilities, then rebuild the chain keeping
only states outside nontrivial components plus component inputs. The
result has no cycles apart from Dirac self loops on absorbing states,
and reachability probabilities from the initial state are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

import numpy as np

from .model import Distribution, Model, ModelError, dirac, is_markov_chain, mc_row, successors
from .numerics import prob0_states, solve_linear

ESCAPE_SUM_TOL = 1e-9


@dataclass
class SccInfo:
    id: int
    members: FrozenSet[int]
    nontrivial: bool  # carries at least one internal transition
    inputs: FrozenSet[int] = frozenset()
    outputs: FrozenSet[int] = frozenset()
    reach: Dict[Tuple[int, int], float] = field(default_factory=dict)


@dataclass(frozen=True)
class AcyclicReduction:
    chain: Model
    kept: FrozenSet[int]
    sccs: Tuple[SccInfo, ...]
    scc_of: Tuple[int, ...]  # state index to component id
    origin: Model


def make_absorbing(mc: Model, psi: Iterable[int]) -> Model:
    """Redirect target states and states that cannot reach the target to
    Dirac self loops; every other row is unchanged."""
    if not is_markov_chain(mc):
        raise ModelError("make_absorbing expects a Markov chain")
    psi = set(psi)
    zero = prob0_states(mc, psi)
    actions = tuple(
        (dirac(s),) if s in psi or s in zero else mc.actions[s]
        for s in range(mc.num_states)
    )
    return Model(names=mc.names, initial=mc.initial, labels=mc.labels, actions=actions)


def scc_decompose(mc: Model) -> List[SccInfo]:
    """Strongly connected components, iterative Tarjan.

    Components are numbered by their smallest member so ids are stable
    under any traversal order.
    """
    n = mc.num_states
    adj = [sorted(successors(mc, s)) for s in range(n)]
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    comps: List[Set[int]] = []
    counter = 0
    for root in range(n):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        call = [(root, iter(adj[root]))]
        while call:
            s, it = call[-1]
            advanced = False
            for t in it:
                if index[t] == -1:
                    index[t] = low[t] = counter
                    counter += 1
                    stack.append(t)
                    on_stack[t] = True
                    call.append((t, iter(adj[t])))
                    advanced = True
                    break
                if on_stack[t] and index[t] < low[s]:
                    low[s] = index[t]
            if advanced:
                continue
            call.pop()
            if call:
                parent = call[-1][0]
                if low[s] < low[parent]:
                    low[parent] = low[s]
            if low[s] == index[s]:
                comp = set()
                while True:
                    t = stack.pop()
                    on_stack[t] = False
                    comp.add(t)
                    if t == s:
                        break
                comps.append(comp)
    comps.sort(key=min)
    infos = []
    for i, members in enumerate(comps):
        nontrivial = any(t in members for s in members for t in adj[s])
        infos.append(SccInfo(id=i, members=frozenset(members), nontrivial=nontrivial))
    return infos


def _scc_index(sccs: Sequence[SccInfo], n: int) -> List[int]:
    scc_of = [0] * n
    for info in sccs:
        for s in info.members:
            scc_of[s] = info.id
    return scc_of


def scc_io(mc: Model, sccs: Sequence[SccInfo]) -> Sequence[SccInfo]:
    """Fill every nontrivial component's input states (reachable from
    outside, plus the initial state if it lies inside) and output states
    (targets of edges leaving the component), in one pass over the edges."""
    scc_of = _scc_index(sccs, mc.num_states)
    ins: Dict[int, Set[int]] = {info.id: set() for info in sccs if info.nontrivial}
    outs: Dict[int, Set[int]] = {c: set() for c in ins}
    for s, dists in enumerate(mc.actions):
        c = scc_of[s]
        for dist in dists:
            for t, _ in dist:
                d = scc_of[t]
                if d != c:
                    if c in outs:
                        outs[c].add(t)
                    if d in ins:
                        ins[d].add(t)
    if scc_of[mc.initial] in ins:
        ins[scc_of[mc.initial]].add(mc.initial)
    for info in sccs:
        if info.nontrivial:
            info.inputs = frozenset(ins[info.id])
            info.outputs = frozenset(outs[info.id])
    return sccs


def scc_reach(mc: Model, info: SccInfo) -> SccInfo:
    """Fill escape probabilities from each input to each output.

    One elimination factors the component block for all outputs at once.
    A strongly connected component with an exit escapes almost surely, so
    each input row is renormalized to exact unit sum whenever it lands
    within tolerance of 1; this strips solver noise off the masses.
    """
    if not info.outputs:
        return info
    members = sorted(info.members)
    pos = {s: i for i, s in enumerate(members)}
    outs = sorted(info.outputs)
    opos = {t: j for j, t in enumerate(outs)}
    k = len(members)
    a = np.eye(k)
    b = np.zeros((k, len(outs)))
    for s in members:
        for t, p in mc_row(mc, s):
            if t in pos:
                a[pos[s], pos[t]] -= p
            elif t in opos:
                b[pos[s], opos[t]] += p
    x = solve_linear(a, b)
    reach: Dict[Tuple[int, int], float] = {}
    for u in sorted(info.inputs):
        row = np.clip(x[pos[u]], 0.0, None)
        total = float(row.sum())
        if total > 0.0 and abs(total - 1.0) <= ESCAPE_SUM_TOL:
            row = row / total
        for j, t in enumerate(outs):
            if row[j] > 0.0:
                reach[(u, t)] = float(row[j])
    info.reach = reach
    return info


def acyclic_reduce(mc_psi: Model) -> AcyclicReduction:
    """Collapse every nontrivial component to direct input-to-output jumps.

    Kept states are those in trivial components plus the inputs of
    nontrivial ones; kept rows either copy the source chain (trivial) or
    carry the component's escape distribution (inputs). Absorbing inputs
    keep their Dirac self loop. Dropped states become unreachable Dirac
    self loops so the index space stays shared with the source chain.
    """
    if not is_markov_chain(mc_psi):
        raise ModelError("acyclic_reduce expects a Markov chain")
    n = mc_psi.num_states
    sccs = scc_decompose(mc_psi)
    scc_of = _scc_index(sccs, n)
    scc_io(mc_psi, sccs)
    for info in sccs:
        if info.nontrivial:
            scc_reach(mc_psi, info)
    kept: Set[int] = set()
    for info in sccs:
        kept |= info.inputs if info.nontrivial else info.members
    actions: List[Tuple[Distribution, ...]] = []
    for s in range(n):
        if s not in kept:
            actions.append((dirac(s),))
            continue
        info = sccs[scc_of[s]]
        if not info.nontrivial:
            actions.append(mc_psi.actions[s])
        elif not info.outputs:
            actions.append((dirac(s),))
        else:
            row = tuple(
                (t, info.reach[(s, t)])
                for t in sorted(info.outputs)
                if (s, t) in info.reach
            )
            actions.append((row,))
    chain = Model(
        names=mc_psi.names,
        initial=mc_psi.initial,
        labels=mc_psi.labels,
        actions=tuple(actions),
    )
    return AcyclicReduction(
        chain=chain,
        kept=frozenset(kept),
        sccs=tuple(sccs),
        scc_of=tuple(scc_of),
        origin=mc_psi,
    )
