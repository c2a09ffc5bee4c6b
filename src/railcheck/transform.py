"""Reduction of an absorbing chain to its acyclic skeleton.

Pipeline: make target and probability-zero states absorbing, decompose
into strongly connected components, solve each nontrivial component for
its members' escape probabilities to its outputs (components of one
shape in one stacked state reduction), then rebuild the chain
keeping only states outside nontrivial components plus component inputs.
The result has no cycles apart from Dirac self loops on absorbing states,
and reachability probabilities from the initial state are preserved;
`numerics.max_reach` reads every state's probability off it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from .model import Distribution, Model, ModelError, dirac, is_markov_chain, mc_row, successors
from .numerics import SingularMatrixError, prob0_states, solve_linear


@dataclass
class SccInfo:
    id: int
    members: FrozenSet[int]
    nontrivial: bool  # carries at least one internal transition
    rank: int  # Tarjan's completion order: every component this one leads to ranks lower
    inputs: FrozenSet[int] = frozenset()
    outputs: FrozenSet[int] = frozenset()
    # escape probabilities of every member (rows, ascending) to every
    # output (columns, ascending); None until scc_reach, or without outputs
    escape: Optional[np.ndarray] = None

    def input_rows(self) -> Dict[int, Distribution]:
        """Each input's escape distribution: outputs ascending, zero
        entries dropped; empty without an escape solve."""
        if self.escape is None:
            return {}
        outs, members = sorted(self.outputs), sorted(self.members)
        rows = {u: self.escape[bisect_left(members, u)].tolist() for u in sorted(self.inputs)}
        return {u: tuple([(t, p) for t, p in zip(outs, row) if p > 0.0]) for u, row in rows.items()}


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
    under any traversal order; `rank` keeps the order Tarjan completes
    them in, successors first.
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
    infos = []
    by_min = sorted(enumerate(comps), key=lambda rc: min(rc[1]))
    for i, (rank, members) in enumerate(by_min):
        nontrivial = any(t in members for s in members for t in adj[s])
        infos.append(SccInfo(id=i, members=frozenset(members), nontrivial=nontrivial, rank=rank))
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


# Most floats one stack of blocks holds (256 KB). Stacking pays off for
# small blocks, where numpy's cost per call dominates: a thousand 4-state
# rings share each call. It costs on big ones, because a stack updates the
# union of its blocks' rows, where a lone block skips every row with a
# zero multiplier. A block of 128 states or more is solved alone.
_STACK_FLOATS = 1 << 15


def scc_reach(mc: Model, sccs: Sequence[SccInfo]) -> Sequence[SccInfo]:
    """Fill the escape probabilities from each member to each output of
    every nontrivial component that has outputs, all outputs solved in
    one state reduction of the component block.

    Each block is built once. Blocks of one shape (members, outputs) are
    stacked, members first, up to `_STACK_FLOATS`, and a stack is solved
    by one `solve_linear` call, which gives each block the bytes of its
    lone solve; a lone block is passed in 2-D, which costs less per pivot.
    If blocks are singular, the `SingularMatrixError` of the component
    with the lowest id is raised, carrying the pivot that block fails at
    alone.
    """
    groups: Dict[Tuple[int, int], List[SccInfo]] = {}
    for info in sccs:
        if info.nontrivial and info.outputs:
            groups.setdefault((len(info.members), len(info.outputs)), []).append(info)
    failures = []
    for (n, m), group in groups.items():
        per_stack = max(1, _STACK_FLOATS // (n * (n + m)))
        for start in range(0, len(group), per_stack):
            stack = group[start : start + per_stack]
            try:
                _solve_stack(mc, stack, n, m)
            except SingularMatrixError as err:
                failures.append((stack[err.block].id, err))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return sccs


def _solve_stack(mc: Model, stack: List[SccInfo], n: int, m: int) -> None:
    q = np.zeros((n, len(stack), n))
    r = np.zeros((n, len(stack), m))
    for b, info in enumerate(stack):
        members = sorted(info.members)
        pos = {s: i for i, s in enumerate(members)}
        opos = {t: j for j, t in enumerate(sorted(info.outputs))}
        for s in members:
            for t, p in mc_row(mc, s):
                if t in pos:
                    q[pos[s], b, pos[t]] += p
                else:
                    r[pos[s], b, opos[t]] += p
    x = solve_linear(q, r) if len(stack) > 1 else solve_linear(q[:, 0], r[:, 0])[:, None]
    # x.swapaxes(0, 1) is the blocks-first array solve_linear fills, so
    # each escape is contiguous, as a lone solve's is, and max_reach's
    # product with it keeps its bytes
    for info, escape in zip(stack, np.ascontiguousarray(x.swapaxes(0, 1))):
        info.escape = escape


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
    scc_reach(mc_psi, sccs)
    rows: Dict[int, Distribution] = {}
    for info in sccs:
        if info.nontrivial:
            rows.update(info.input_rows())
    kept: Set[int] = set()
    for info in sccs:
        kept |= info.inputs if info.nontrivial else info.members
    actions: List[Tuple[Distribution, ...]] = []
    for s in range(n):
        if s in rows:
            actions.append((rows[s],))
        elif s in kept and not sccs[scc_of[s]].nontrivial:
            actions.append(mc_psi.actions[s])
        else:
            actions.append((dirac(s),))
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
