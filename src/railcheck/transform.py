"""Reduction of an absorbing chain to its acyclic skeleton.

Pipeline: make the target states absorbing, decompose into strongly
connected components, live if they hold a target or lead to a live one,
solve each live nontrivial component for its members' escape
probabilities to its outputs (components of one shape in one stacked
state reduction), then rebuild the chain keeping only states outside
nontrivial components plus component inputs. The result has no cycles
apart from Dirac self loops on absorbing states and unsolved inputs, and
reachability probabilities from the initial state are preserved: the
rail search's first pass sums them over the kept states in `order` up to
the initial state, and policy iteration's `numerics.max_reach` over every
state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

import numpy as np

from .model import Model, ModelError, WeightedPath, chain_rows, is_markov_chain, offsets, ranges
from .numerics import SingularMatrixError, solve_linear


class Components(NamedTuple):
    """A chain's strongly connected components as arrays, numbered by
    smallest member. Component c's members are members[member_at[c] :
    member_at[c + 1]], ascending; its outputs, once `scc_io` has filled
    them, outputs[output_at[c] : output_at[c + 1]], ascending."""

    of: np.ndarray  # each state's component
    rank: np.ndarray  # Tarjan's completion order: every component this one leads to ranks lower
    nontrivial: np.ndarray  # carries at least one internal transition
    live: np.ndarray  # holds a target, or leads to a live component
    members: np.ndarray
    member_at: np.ndarray
    is_input: Optional[np.ndarray] = None  # entered into a nontrivial component from another, or initial
    outputs: Optional[np.ndarray] = None  # targets of edges leaving a live nontrivial component
    output_at: Optional[np.ndarray] = None


class SccInfo(NamedTuple):
    """One component as the `--dump-scc` table lists it, states ascending."""

    id: int
    members: Tuple[int, ...]
    nontrivial: bool
    inputs: Tuple[int, ...]
    outputs: Tuple[int, ...]


def _split(flat: np.ndarray, at: np.ndarray) -> List[Tuple[int, ...]]:
    flat, at = flat.tolist(), at.tolist()
    return [tuple(flat[a:b]) for a, b in zip(at, at[1:])]


@dataclass(frozen=True)
class AcyclicReduction:
    chain: Model
    comps: Components
    stacks: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]  # the solved stacks of scc_reach
    origin: Model
    # every kept state, after each state it leads to but itself: the
    # states the initial state reaches come at or before it
    order: Tuple[int, ...]
    # a component's (input, output) to the best path between them inside
    # it, filled by `rails.representant` on demand
    crossings: Dict[Tuple[int, int], WeightedPath] = field(default_factory=dict)

    scc_of = cached_property(lambda self: self.comps.of.tolist())  # comps.of as a list, on first read

    @cached_property
    def kept(self) -> FrozenSet[int]:
        """The kept states as a set, built on first read."""
        return frozenset(self.order)

    @cached_property
    def sccs(self) -> Tuple[SccInfo, ...]:
        """The component table, built on first read."""
        c = self.comps
        ins = c.members[c.is_input[c.members]]
        in_at = offsets(np.bincount(c.of[ins], minlength=len(c.rank)))
        return tuple(map(SccInfo, itertools.count(), _split(c.members, c.member_at), c.nontrivial.tolist(),
                         _split(ins, in_at), _split(c.outputs, c.output_at)))


def make_absorbing(mc: Model, psi: Iterable[int]) -> Model:
    """Redirect the target states to Dirac self loops; every other row,
    also that of a state that cannot reach the target, is unchanged."""
    if not is_markov_chain(mc):
        raise ModelError("make_absorbing expects a Markov chain")
    psi = set(psi)
    rows = mc.rows
    at = rows.entry_at
    lens = at[1:] - at[:-1]
    pin = np.fromiter(psi, np.int64, len(psi))
    lens[pin] = 1
    # a pinned state takes its first entry, then made its self loop
    new = chain_rows(at[:-1], lens, rows.succ, rows.prob)
    new.succ[new.entry_at[pin]] = pin
    new.prob[new.entry_at[pin]] = 1.0
    return Model(names=mc.names, initial=mc.initial, labels=mc.labels, rows=new)


def scc_decompose(mc: Model, targets: Iterable[int]) -> Components:
    """Strongly connected components of a Markov chain, iterative Tarjan.

    Components are numbered by their smallest member so ids are stable
    under any traversal order; `rank` keeps the order Tarjan completes
    them in, successors first. The first search starts at the initial
    state, so every component it reaches ranks at most its own. Each
    state's successors are visited ascending, as its row lists them.

    A component is live if it holds a target or has an edge into a live
    component, which completes before it; the dead ones hold the states
    that reach no target (Prob0). A state's `hit` is set if it is a
    target, has an edge into a completed live component, or a search
    child that has it returns, so a component's root holds the flag.
    """
    if not is_markov_chain(mc):
        raise ModelError("scc_decompose expects a Markov chain")
    n, rows = mc.num_states, mc.rows
    # lists of its own, not the rows' list form: kept with the absorbing
    # chain, that would stay alive through the rail search's peak
    succ, at = rows.succ.tolist(), rows.entry_at.tolist()
    index = [-1] * n  # n once its component completes live, n + 1 dead: neither lowers a link
    low = [0] * n
    hit = [False] * n
    for t in targets:
        hit[t] = True
    stack: List[int] = []
    done: List[int] = []  # the states as their components complete
    done_at = [0]  # where each completed component starts in done, and the end
    counter = 0
    for root in itertools.chain((mc.initial,), range(n)):
        if index[root] != -1:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        call = [(root, iter(succ[at[root] : at[root + 1]]))]
        while call:
            s, it = call[-1]
            advanced = False
            for t in it:
                i = index[t]
                if i == -1:
                    index[t] = low[t] = counter
                    counter += 1
                    stack.append(t)
                    call.append((t, iter(succ[at[t] : at[t + 1]])))
                    advanced = True
                    break
                if i < low[s]:
                    low[s] = i
                elif i == n:
                    hit[s] = True
            if advanced:
                continue
            call.pop()
            if call:
                parent = call[-1][0]
                if low[s] < low[parent]:
                    low[parent] = low[s]
                if hit[s]:  # parent shares s's open component, or leads into its live one
                    hit[parent] = True
            if low[s] == index[s]:
                mark = n if hit[s] else n + 1
                cut = len(stack)
                while True:
                    cut -= 1
                    index[stack[cut]] = mark
                    if stack[cut] == s:
                        break
                done += stack[cut:]
                done_at.append(len(done))
                del stack[cut:]
    done, done_at = np.array(done), np.array(done_at)
    sizes = done_at[1:] - done_at[:-1]
    # ids by smallest member: id i is the component Tarjan completes rank[i]-th
    rank = np.minimum.reduceat(done, done_at[:-1]).argsort(kind="stable")
    of = np.empty(n, dtype=np.int64)
    of[done] = rank.argsort(kind="stable").repeat(sizes)
    sizes, live = sizes[rank], (np.array(index) == n)[done[done_at[:-1]]][rank]
    # a lone state is nontrivial with a self loop only
    nontrivial = sizes > 1
    nontrivial[of[rows.succ[rows.succ == rows.source]]] = True
    return Components(of, rank, nontrivial, live, of.argsort(kind="stable"), offsets(sizes))


def scc_io(mc: Model, comps: Components) -> Components:
    """comps with every nontrivial component's inputs (reachable from
    outside, plus the initial state if it lies inside) and every live
    one's outputs (targets of its leaving edges), read off one edge mask."""
    rows, n, of = mc.rows, mc.num_states, comps.of
    come, go = of[rows.source], of[rows.succ]
    leaves = come != go
    is_input = np.zeros(n, dtype=bool)
    is_input[rows.succ[leaves & comps.nontrivial[go]]] = True
    is_input[mc.initial] |= comps.nontrivial[of[mc.initial]]
    exits = leaves & (comps.nontrivial & comps.live)[come]
    # each leaving edge as (component, output), sorted, each pair once
    keys = come[exits] * n + rows.succ[exits]
    keys = keys[keys.argsort(kind="stable")]
    keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
    owner, outputs = np.divmod(keys, n)
    output_at = offsets(np.bincount(owner, minlength=len(comps.rank)))
    return comps._replace(is_input=is_input, outputs=outputs, output_at=output_at)


# Most floats one stack of blocks holds (256 KB). Stacking pays off for
# small blocks, where numpy's cost per call dominates: a thousand 4-state
# rings share each call. It costs on big ones, because a stack updates the
# union of its blocks' rows, where a lone block skips every row with a
# zero multiplier. A block of 128 states or more is solved alone.
_STACK_FLOATS = 1 << 15


def scc_reach(mc: Model, comps: Components) -> List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The escape probabilities from each member to each output of every
    live component that has outputs, all outputs solved in one
    state reduction of the component block, as stacks (ids, members,
    outputs, escapes) of components of one shape: escapes[i] is component
    ids[i]'s, from its members (rows) to its outputs (columns), ascending.

    Each block is built once. Blocks of one shape (members, outputs) are
    stacked, members first, up to `_STACK_FLOATS`, and a stack is solved
    by one `solve_linear` call, which gives each block the bytes of its
    lone solve; a lone block is passed in 2-D, which costs less per pivot.
    If blocks are singular, the `SingularMatrixError` of the component
    with the lowest id is raised, carrying the pivot that block fails at
    alone.
    """
    sizes, widths = (at[1:] - at[:-1] for at in (comps.member_at, comps.output_at))
    ids = widths.nonzero()[0]  # only live nontrivial components have outputs
    ids = ids[np.lexsort((widths[ids], sizes[ids]))]  # grouped by shape, ids ascending in each
    shape = sizes[ids] * len(comps.of) + widths[ids]  # fewer outputs than states
    bounds = [0, *((shape[1:] != shape[:-1]).nonzero()[0] + 1).tolist(), len(ids)]
    failures, stacks = [], []
    for group in (ids[a:b] for a, b in zip(bounds, bounds[1:]) if a < b):
        n, m = int(sizes[group[0]]), int(widths[group[0]])
        per_stack = max(1, _STACK_FLOATS // (n * (n + m)))
        for start in range(0, len(group), per_stack):
            stack = group[start : start + per_stack]
            members = comps.members[comps.member_at[stack, None] + np.arange(n)]
            outputs = comps.outputs[comps.output_at[stack, None] + np.arange(m)]
            try:
                stacks.append((stack, members, outputs, _solve_stack(mc, members, outputs)))
            except SingularMatrixError as err:
                failures.append((stack[err.block], err))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return stacks


def _solve_stack(mc: Model, members: np.ndarray, outputs: np.ndarray) -> np.ndarray:
    # Every member's row goes into its block in one scatter: an entry to a
    # member of its block into q at that member's position, an entry to an
    # output into r at that output's column. Each block's members and
    # outputs are keyed block * states + state; sorted, the keys find each
    # entry's column. Rows have distinct targets, so no two entries meet
    # in one cell.
    rows, states = mc.rows, mc.num_states
    (size, n), m = members.shape, outputs.shape[1]
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
    return np.ascontiguousarray(x.swapaxes(0, 1))


def acyclic_reduce(mc_psi: Model, targets: Iterable[int]) -> AcyclicReduction:
    """Collapse every live nontrivial component to input-to-output jumps.

    Kept states are those in trivial components plus the inputs of
    nontrivial ones; kept rows either copy the source chain (trivial) or
    carry the component's escape distribution (inputs). Unsolved inputs,
    absorbing or dead, become Dirac self loops, and so do dropped states,
    unreachable, so the index space stays shared with the source chain.
    The reduced chain's rows are built as arrays, from the source's rows
    and the solved escapes; its `actions` only when asked for.
    """
    if not is_markov_chain(mc_psi):
        raise ModelError("acyclic_reduce expects a Markov chain")
    n, rows = mc_psi.num_states, mc_psi.rows
    comps = scc_io(mc_psi, scc_decompose(mc_psi, targets))
    stacks = scc_reach(mc_psi, comps)
    of, is_input = comps.of, comps.is_input
    # the inputs' escape rows, outputs ascending and zero entries dropped:
    # input states[k]'s row is the next lens[k] entries of succ and prob
    parts = [(np.zeros(0, dtype=np.int64),) * 3 + (np.zeros(0),)]
    for _, members, outputs, escapes in stacks:
        entering = is_input[members]
        rows_in, cols = escapes[entering], outputs[entering.nonzero()[0]]
        positive = rows_in > 0.0
        parts.append((members[entering], positive.sum(axis=1), cols[positive], rows_in[positive]))
    states, lens_in, succ_in, prob_in = map(np.concatenate, zip(*parts))
    # a trivial state's own row; an escape row after the source's entries;
    # a Dirac self loop, after the escapes, for every other state
    pool, at = len(rows.succ), rows.entry_at
    starts, lens = at[:-1].copy(), at[1:] - at[:-1]
    inside = comps.nontrivial[of]
    dropped = inside.nonzero()[0]
    starts[dropped] = pool + len(succ_in) + dropped
    lens[dropped] = 1
    starts[states] = pool + lens_in.cumsum() - lens_in
    lens[states] = lens_in
    kept = (~inside | is_input).nonzero()[0]
    # Tarjan's completion order of their components, the initial state
    # first in its own; members of one component have no edge between them
    order = tuple(kept[np.lexsort((kept != mc_psi.initial, comps.rank[of[kept]]))].tolist())
    chain = Model(
        names=mc_psi.names,
        initial=mc_psi.initial,
        labels=mc_psi.labels,
        rows=chain_rows(starts, lens, np.concatenate((rows.succ, succ_in, np.arange(n))),
                        np.concatenate((rows.prob, prob_in, np.ones(n)))),
    )
    return AcyclicReduction(
        chain=chain,
        comps=comps,
        stacks=stacks,
        origin=mc_psi,
        order=order,
    )
