"""Reduction of an absorbing chain to its acyclic skeleton.

Pipeline: make target and probability-zero states absorbing, decompose
into strongly connected components, solve each nontrivial component for
its members' escape probabilities to its outputs (components of one
shape in one stacked state reduction), then rebuild the chain
keeping only states outside nontrivial components plus component inputs.
The result has no cycles apart from Dirac self loops on absorbing states,
and reachability probabilities from the initial state are preserved: the
rail search's first pass sums them over the kept states in `order` up to
the initial state, and policy iteration's `numerics.max_reach` over every
state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Set, Tuple

import numpy as np

from .model import Model, ModelError, WeightedPath, chain_rows, is_markov_chain, ranges
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


@dataclass(frozen=True)
class AcyclicReduction:
    chain: Model
    kept: FrozenSet[int]
    sccs: Tuple[SccInfo, ...]
    scc_of: Tuple[int, ...]  # state index to component id
    origin: Model
    # every kept state, after each state it leads to but itself: the
    # states the initial state reaches come at or before it
    order: Tuple[int, ...]
    # a component's (input, output) to the best path between them inside
    # it, filled by `rails.representant` on demand
    crossings: Dict[Tuple[int, int], WeightedPath] = field(default_factory=dict)


def make_absorbing(mc: Model, psi: Iterable[int]) -> Model:
    """Redirect target states and states that cannot reach the target to
    Dirac self loops; every other row is unchanged."""
    if not is_markov_chain(mc):
        raise ModelError("make_absorbing expects a Markov chain")
    psi = set(psi)
    pinned = psi | prob0_states(mc, psi)
    rows = mc.rows
    at = rows.entry_at
    lens = at[1:] - at[:-1]
    pin = np.fromiter(pinned, np.int64, len(pinned))
    lens[pin] = 1
    # a pinned state takes its first entry, then made its self loop
    new = chain_rows(at[:-1], lens, rows.succ, rows.prob)
    new.succ[new.entry_at[pin]] = pin
    new.prob[new.entry_at[pin]] = 1.0
    return Model(names=mc.names, initial=mc.initial, labels=mc.labels, rows=new)


def scc_decompose(mc: Model) -> List[SccInfo]:
    """Strongly connected components of a Markov chain, iterative Tarjan.

    Components are numbered by their smallest member so ids are stable
    under any traversal order; `rank` keeps the order Tarjan completes
    them in, successors first. The first search starts at the initial
    state, so every component it reaches ranks at most its own. Each
    state's successors are visited ascending, as its row lists them.
    """
    if not is_markov_chain(mc):
        raise ModelError("scc_decompose expects a Markov chain")
    n, rows = mc.num_states, mc.rows
    # lists of its own, not the rows' list form: kept with the absorbing
    # chain, that would stay alive through the rail search's peak
    succ, at = rows.succ.tolist(), rows.entry_at.tolist()
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: List[int] = []
    comps: List[List[int]] = []
    counter = 0
    for root in itertools.chain((mc.initial,), range(n)):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        call = [(root, iter(succ[at[root] : at[root + 1]]))]
        while call:
            s, it = call[-1]
            advanced = False
            for t in it:
                if index[t] == -1:
                    index[t] = low[t] = counter
                    counter += 1
                    stack.append(t)
                    on_stack[t] = True
                    call.append((t, iter(succ[at[t] : at[t + 1]])))
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
                cut = len(stack)
                while True:
                    cut -= 1
                    on_stack[stack[cut]] = False
                    if stack[cut] == s:
                        break
                comps.append(stack[cut:])
                del stack[cut:]
    infos = []
    by_min = sorted(enumerate(comps), key=lambda rc: min(rc[1]))
    for i, (rank, members) in enumerate(by_min):
        # a lone state is nontrivial with a self loop only
        s = members[0]
        nontrivial = len(members) > 1 or s in succ[at[s] : at[s + 1]]
        infos.append(SccInfo(id=i, members=frozenset(members), nontrivial=nontrivial, rank=rank))
    return infos


def _scc_index(sccs: Sequence[SccInfo], n: int) -> np.ndarray:
    """Each state's component id, -1 for a state in none of sccs."""
    scc_of = np.empty(n, dtype=np.int64)
    scc_of.fill(-1)
    sizes = [len(info.members) for info in sccs]
    members = itertools.chain.from_iterable(info.members for info in sccs)
    states = np.fromiter(members, np.int64, sum(sizes))
    scc_of[states] = np.array([info.id for info in sccs]).repeat(sizes)
    return scc_of


def scc_io(
    mc: Model, sccs: Sequence[SccInfo], scc_of: Optional[np.ndarray] = None
) -> Sequence[SccInfo]:
    """Fill every nontrivial component's input states (reachable from
    outside, plus the initial state if it lies inside) and output states
    (targets of edges leaving the component). An array mask picks the
    edges that leave their component, and only those are walked. scc_of
    is each state's component id, if at hand."""
    rows = mc.rows
    if scc_of is None:
        scc_of = _scc_index(sccs, mc.num_states)
    come, go = scc_of[rows.source], scc_of[rows.succ]
    leaves = (come != go).nonzero()[0]
    ins: Dict[int, Set[int]] = {info.id: set() for info in sccs if info.nontrivial}
    outs: Dict[int, Set[int]] = {c: set() for c in ins}
    for c, d, t in zip(come[leaves].tolist(), go[leaves].tolist(), rows.succ[leaves].tolist()):
        if c in outs:
            outs[c].add(t)
        if d in ins:
            ins[d].add(t)
    c0 = int(scc_of[mc.initial])
    if c0 in ins:
        ins[c0].add(mc.initial)
    for info in sccs:
        if info.nontrivial:
            info.inputs = frozenset(ins[info.id])
            info.outputs = frozenset(outs[info.id])
    return sccs


class InputRows(NamedTuple):
    """The escape rows of solved components' inputs, outputs ascending and
    zero entries dropped: input states[k]'s row is the next lens[k]
    entries of succ and prob."""

    states: np.ndarray
    lens: np.ndarray
    succ: np.ndarray
    prob: np.ndarray


# Most floats one stack of blocks holds (256 KB). Stacking pays off for
# small blocks, where numpy's cost per call dominates: a thousand 4-state
# rings share each call. It costs on big ones, because a stack updates the
# union of its blocks' rows, where a lone block skips every row with a
# zero multiplier. A block of 128 states or more is solved alone.
_STACK_FLOATS = 1 << 15


def scc_reach(mc: Model, sccs: Sequence[SccInfo], is_input: np.ndarray) -> InputRows:
    """Fill the escape probabilities from each member to each output of
    every nontrivial component that has outputs, all outputs solved in
    one state reduction of the component block, and return the inputs'
    escape rows, read off the solved stacks. is_input marks every
    component's inputs.

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
    if not groups:
        none = np.zeros(0, dtype=np.int64)
        return InputRows(none, none, none, np.zeros(0))
    failures = []
    parts = []
    for (n, m), group in groups.items():
        per_stack = max(1, _STACK_FLOATS // (n * (n + m)))
        for start in range(0, len(group), per_stack):
            stack = group[start : start + per_stack]
            try:
                parts.append(_solve_stack(mc, stack, n, m, is_input))
            except SingularMatrixError as err:
                failures.append((stack[err.block].id, err))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return parts[0] if len(parts) == 1 else InputRows(*map(np.concatenate, zip(*parts)))


def _solve_stack(
    mc: Model, stack: List[SccInfo], n: int, m: int, is_input: np.ndarray
) -> InputRows:
    # Every member's row goes into its block in one scatter: an entry to a
    # member of its block into q at that member's position, an entry to an
    # output into r at that output's column. Each block's members and
    # outputs are keyed block * states + state; sorted, the keys find each
    # entry's column. Rows have distinct targets, so no two entries meet
    # in one cell.
    rows, size, states = mc.rows, len(stack), mc.num_states
    members = np.array([sorted(info.members) for info in stack], dtype=np.int64)
    outputs = np.array([sorted(info.outputs) for info in stack], dtype=np.int64)
    keys = (np.concatenate((members, outputs), axis=1) + states * np.arange(size)[:, None]).ravel()
    order = keys.argsort()
    flat = members.ravel()
    lo = rows.entry_at[flat]
    lens = rows.entry_at[flat + 1] - lo
    entry = ranges(lo, lens)
    b, i = np.divmod(np.arange(size * n).repeat(lens), n)  # each entry's block and member
    cell = order[keys[order].searchsorted(b * states + rows.succ[entry])]
    aug = np.zeros((n, size, n + m))
    aug[i, b, cell % (n + m)] = rows.prob[entry]
    q, r = aug[..., :n], aug[..., n:]
    x = solve_linear(q, r) if size > 1 else solve_linear(q[:, 0], r[:, 0])[:, None]
    # x.swapaxes(0, 1) is the blocks-first array solve_linear fills, so
    # each escape is contiguous, as a lone solve's is, and max_reach's
    # product with it keeps its bytes
    escapes = np.ascontiguousarray(x.swapaxes(0, 1))
    for info, escape in zip(stack, escapes):
        info.escape = escape
    entering = is_input[members]
    rows_in, cols = escapes[entering], outputs[entering.nonzero()[0]]
    positive = rows_in > 0.0
    return InputRows(members[entering], positive.sum(axis=1), cols[positive], rows_in[positive])


def acyclic_reduce(mc_psi: Model) -> AcyclicReduction:
    """Collapse every nontrivial component to direct input-to-output jumps.

    Kept states are those in trivial components plus the inputs of
    nontrivial ones; kept rows either copy the source chain (trivial) or
    carry the component's escape distribution (inputs). Absorbing inputs
    keep their Dirac self loop. Dropped states become unreachable Dirac
    self loops so the index space stays shared with the source chain.
    The reduced chain's rows are built as arrays, from the source's rows
    and the solved escapes; its `actions` only when asked for.
    """
    if not is_markov_chain(mc_psi):
        raise ModelError("acyclic_reduce expects a Markov chain")
    n, rows = mc_psi.num_states, mc_psi.rows
    sccs = scc_decompose(mc_psi)
    scc_of = _scc_index(sccs, n)
    scc_io(mc_psi, sccs, scc_of)
    is_input = np.zeros(n, dtype=bool)
    is_input[np.fromiter(itertools.chain.from_iterable(info.inputs for info in sccs), np.int64)] = True
    escaping = scc_reach(mc_psi, sccs, is_input)
    # a trivial state's own row; an escape row after the source's entries;
    # a Dirac self loop, after the escapes, for every other state
    pool, at = len(rows.succ), rows.entry_at
    starts, lens = at[:-1].copy(), at[1:] - at[:-1]
    inside = np.array([info.nontrivial for info in sccs])[scc_of]
    dropped = inside.nonzero()[0]
    starts[dropped] = pool + len(escaping.succ) + dropped
    lens[dropped] = 1
    starts[escaping.states] = pool + escaping.lens.cumsum() - escaping.lens
    lens[escaping.states] = escaping.lens
    kept = (~inside | is_input).nonzero()[0]
    # Tarjan's completion order of their components, the initial state
    # first in its own; members of one component have no edge between them
    rank = np.array([info.rank for info in sccs])[scc_of[kept]]
    order = tuple(kept[np.lexsort((kept != mc_psi.initial, rank))].tolist())
    chain = Model(
        names=mc_psi.names,
        initial=mc_psi.initial,
        labels=mc_psi.labels,
        rows=chain_rows(starts, lens, np.concatenate((rows.succ, escaping.succ, np.arange(n))),
                        np.concatenate((rows.prob, escaping.prob, np.ones(n)))),
    )
    return AcyclicReduction(
        chain=chain,
        kept=frozenset(order),  # sharing order's ints
        sccs=tuple(sccs),
        scc_of=tuple(scc_of.tolist()),
        origin=mc_psi,
        order=order,
    )
