"""Partial deterministic automata and the digraph analyses behind them:
the package's graph layer, which imports no other package module.

States are dense integers ``0..n-1``, letters are indices ``0..k-1``.
A ``Dfa``'s moves are one n x k int32 table, ``fad.FailureTrie``'s
format, with -1 for a missing move, which rejects the word.  The 0-state
automaton is the canonical empty language and every operation accepts it.

Most analyses here treat the automaton as a labeled multigraph: two
letters driving the same state pair count as two edges.  That
multiplicity is what separates exponential from polynomial growth.  The
graph is a ``WeightedDigraph``, each edge weighted by its letters, and
its strong components are one ``SccDecomposition`` of int64 arrays.
Reachability is one walk search, ``length_masks``: the walk lengths mod
r from a set of seeds, plain reachability at r = 1, which ``trim``,
``graph_period``, the extendable parts and the growth profile read.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np


class DfaFormatError(ValueError):
    """Malformed automaton text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Dfa:
    """Immutable partial DFA over an indexed alphabet.

    ``table[q, x]``, read-only n x k int32, is state q's successor on
    letter x, -1 where there is none: a copy of any n x k integer array
    or nested list with entries in -1..n-1 (ValueError otherwise).
    ``initial`` is ``None`` exactly when there are no states.
    """

    __slots__ = ("alphabet_size", "table", "initial", "accepting")

    def __init__(self, alphabet_size: int, table, initial: Optional[int], accepting: Iterable[int]):
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        moves = np.asarray(table)  # ragged rows raise ValueError here
        # a float table is refused: the int32 cast would truncate it
        if moves.ndim != 2 or moves.shape[1] != alphabet_size or moves.dtype.kind not in "iu":
            raise ValueError(f"the transition table must be an n x {alphabet_size} integer array")
        n = len(moves)
        if moves.size and (moves.min() < -1 or moves.max() >= n):
            raise ValueError(f"a transition target is out of range -1..{n - 1}")
        if n == 0:
            if initial is not None:
                raise ValueError("automaton without states must have initial=None")
        elif initial is None or not 0 <= initial < n:
            raise ValueError(f"initial state {initial!r} out of range")
        acc = frozenset(accepting)
        for q in acc:
            if not 0 <= q < n:
                raise ValueError(f"accepting state {q} out of range")
        self.alphabet_size = alphabet_size
        self.table = moves.astype(np.int32)
        self.table.flags.writeable = False
        self.initial = initial
        self.accepting = acc

    @property
    def state_count(self) -> int:
        return len(self.table)

    def run(self, word: Iterable[int]) -> Optional[int]:
        """State reached from the initial state; None if the run dies or
        reads a letter outside 0..k-1."""
        q = self.initial
        if q is None:
            return None
        for x in word:
            if not 0 <= x < self.alphabet_size:
                return None
            q = self.table.item(q, x)
            if q < 0:
                return None
        return q

    def accepts(self, word: Iterable[int]) -> bool:
        q = self.run(word)
        return q is not None and q in self.accepting

    def edges(self) -> Iterator[tuple]:
        """All (state, letter, target) triples, by state, then by letter."""
        q, x = np.nonzero(self.table >= 0)
        return zip(q.tolist(), x.tolist(), self.table[q, x].tolist())

    def __eq__(self, other):
        if not isinstance(other, Dfa):
            return NotImplemented
        return (
            self.alphabet_size == other.alphabet_size
            and np.array_equal(self.table, other.table)
            and self.initial == other.initial
            and self.accepting == other.accepting
        )

    def __repr__(self):
        return (
            f"Dfa(states={self.state_count}, alphabet={self.alphabet_size}, "
            f"initial={self.initial}, accepting={sorted(self.accepting)})"
        )


def empty_dfa(alphabet_size: int) -> Dfa:
    return Dfa(alphabet_size, np.empty((0, alphabet_size), np.int32), None, ())


def trim(dfa: Dfa) -> Dfa:
    """Restrict to states both reachable and co-reachable, renumbered by BFS.

    One walk at modulus 1, backward from the accepting states, finds the
    co-reachable states.  Every state on a path to a co-reachable state
    is itself co-reachable, so the breadth-first renumbering from the
    initial state, through co-reachable states only, reaches exactly the
    states that are both, and one gather through the new numbers gives
    the table.  The result recognizes the same language.  If nothing
    survives, the 0-state automaton is returned.
    """
    if dfa.state_count == 0:
        return dfa
    keep = length_masks(reverse_edges(dfa.state_count, *transition_edges(dfa)), dfa.accepting, 1)
    if not keep[dfa.initial]:
        return empty_dfa(dfa.alphabet_size)
    # breadth-first renumbering keeps the output stable across runs; a -1
    # move reads the extra last entries: no state to keep, and no number
    keep.append(0)
    order: list[int] = [dfa.initial]
    index = [-1] * len(keep)
    index[dfa.initial] = 0
    rows = dfa.table.tolist()
    # the list is the queue: the loop reads the states appended to it
    for q in order:
        for t in rows[q]:
            if keep[t] and index[t] < 0:
                index[t] = len(order)
                order.append(t)
    accepting = [index[q] for q in dfa.accepting if index[q] >= 0]
    return Dfa(dfa.alphabet_size, np.array(index, np.int32)[dfa.table[order]], 0, accepting)


def _csr(row, n: int):
    """The row pointer of a compressed sparse row table whose entries
    belong, in order, to rows ``row`` of 0..n-1."""
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(row, minlength=n), out=ptr[1:])
    return ptr


class WeightedDigraph:
    """A digraph with positive integer edge weights, held as compressed
    sparse rows.

    Vertex v's edges are entries ``indptr[v]`` to ``indptr[v + 1]`` of
    ``indices``, their targets, and ``weights``; the three are flat
    integer arrays, and targets strictly increase within each row.  The
    graphs built here hold int64; ``powerfree``'s quotient holds
    ``indptr`` and ``indices`` in int32 and ``weights`` in the narrowest
    type that holds k, and ``component_graphs`` widens every local graph
    to int64, the only width the index engine reads: a row sum or a
    product with an exact vector must not wrap in a narrow type.
    ``len(graph)`` is the vertex count and ``graph[v]`` v's targets, as
    plain ints.  ``graph_scc`` walks the rows one target at a time;
    ``growth.cyclic_components`` and the index engine read the arrays.
    Graphs with equal arrays are equal and hash alike, whatever their
    dtypes: they compare as int64.
    """

    __slots__ = ("indptr", "indices", "weights", "_ptr", "_targets")

    def __init__(self, indptr, indices, weights):
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        # memoryviews index and slice to plain ints: the fastest rows for Tarjan
        self._ptr = memoryview(indptr)
        self._targets = memoryview(indices)

    @classmethod
    def from_edges(cls, n: int, source, target, weight) -> "WeightedDigraph":
        """The graph on vertices 0..n-1 with the given edges, listed as
        three equally long sequences; the weights of edges with the same
        source and target are summed."""
        source, target, weight = (
            np.asarray(a, dtype=np.int64) for a in (source, target, weight)
        )
        key = source * n + target
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = np.flatnonzero(np.diff(key, prepend=-1))
        weights = np.add.reduceat(weight[order], first)
        key = key[first]
        return cls(_csr(key // n, n), key % n, weights)

    @classmethod
    def from_rows(cls, rows: Sequence[dict]) -> "WeightedDigraph":
        """The graph whose ``rows[u]`` maps u's targets to their weights."""
        source = [u for u, row in enumerate(rows) for _ in row]
        target = [t for row in rows for t in row]
        weight = [w for row in rows for w in row.values()]
        return cls.from_edges(len(rows), source, target, weight)

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, v: int):
        return self._targets[self._ptr[v]:self._ptr[v + 1]]

    def __eq__(self, other):
        if not isinstance(other, WeightedDigraph):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def _key(self) -> tuple:
        return tuple(
            a.astype(np.int64, copy=False).tobytes()
            for a in (self.indptr, self.indices, self.weights)
        )


def transition_edges(dfa: Dfa) -> tuple:
    """The source and the target of every transition, as two arrays, state
    by state and letter by letter."""
    source, letter = np.nonzero(dfa.table >= 0)
    return source, dfa.table[source, letter]


def transition_graph(dfa: Dfa) -> WeightedDigraph:
    """Transition graph, each edge weighted by its number of letters."""
    source, target = transition_edges(dfa)
    return WeightedDigraph.from_edges(dfa.state_count, source, target, np.ones_like(target))


@dataclass(frozen=True, eq=False, slots=True)
class SccDecomposition:
    """Strong components of a digraph, topologically ordered, as int64
    arrays.

    ``component_of[v]`` is vertex v's component id, and every
    condensation edge goes from a lower id to a higher one.  Component
    c's members are ``members[member_ptr[c]:member_ptr[c + 1]]``, in
    increasing order.  ``nontrivial`` lists, ascending, the ids of the
    components with an internal edge (a cycle).  The condensation's
    edges out of c go to ``successors[successor_ptr[c]:successor_ptr[c + 1]]``,
    distinct and increasing.
    """

    component_of: np.ndarray
    member_ptr: np.ndarray
    members: np.ndarray
    nontrivial: np.ndarray
    successor_ptr: np.ndarray
    successors: np.ndarray

    def __len__(self) -> int:
        return len(self.member_ptr) - 1

    def members_of(self, c: int):
        return self.members[self.member_ptr[c]:self.member_ptr[c + 1]]


def scc(dfa: Dfa) -> SccDecomposition:
    """Strong components of the transition graph, topologically sorted."""
    return graph_scc(transition_graph(dfa))


def graph_scc(graph: WeightedDigraph) -> SccDecomposition:
    """Strong components of a digraph, topologically sorted.

    One iterative pass of Tarjan's algorithm (1972) numbers the
    components in the order it pops them, sinks first, so flipping that
    order makes every edge run from a lower id to a higher one or stay
    inside; the rest of the record is read off the graph's arrays.
    """
    n = len(graph)
    ptr, targets = graph._ptr, graph._targets
    index_of = [-1] * n
    low = [0] * n
    # the pop order of v's component; -1 while v is unseen or on the stack
    popped = [-1] * n
    stack: list[int] = []
    count = counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(targets[ptr[root]:ptr[root + 1]]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index_of[w] == -1:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(targets[ptr[w]:ptr[w + 1]])))
                    break
                if popped[w] == -1 and index_of[w] < low[v]:
                    low[v] = index_of[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index_of[v]:
                    while True:
                        w = stack.pop()
                        popped[w] = count
                        if w == v:
                            break
                    count += 1
    component_of = (count - 1) - np.array(popped, dtype=np.int64)
    source, target = edge_components(graph, component_of)
    inside = source == target
    nontrivial = np.flatnonzero(np.bincount(source[inside], minlength=count))
    cross = np.sort(source[~inside] * count + target[~inside], kind="stable")
    cross = cross[np.diff(cross, prepend=-1) != 0]
    return SccDecomposition(
        component_of,
        _csr(component_of, count),
        np.argsort(component_of, kind="stable"),
        nontrivial,
        _csr(cross // count, count),
        cross % count,
    )


def edge_components(graph: WeightedDigraph, component_of):
    """The components of each edge's source and target, in edge order."""
    source = np.repeat(np.arange(len(graph)), np.diff(graph.indptr))
    return component_of[source], component_of[graph.indices]


def row_entries(indptr, vertices):
    """Positions of the entries of ``vertices``' rows in a compressed
    sparse row table, row after row, and for each entry the index in
    ``vertices`` of its row."""
    start = indptr[vertices]
    count = indptr[vertices + 1] - start
    offset = np.cumsum(count) - count
    entry = np.arange(int(count.sum())) + np.repeat(start - offset, count)
    return entry, np.repeat(np.arange(len(vertices)), count)


def component_graphs(graph: WeightedDigraph, components):
    """Each component's local graph: its members numbered in increasing
    order, with the edges between them.  None stands for a single vertex
    without a loop.

    The members' edges are gathered in one pass through a table of local
    ids shared by all the components.  Numbering keeps the order of the
    members, so the local rows keep increasing targets.  Every local
    graph holds int64 arrays, whatever ``graph`` holds.
    """
    local = np.full(len(graph), -1, dtype=np.int64)
    for comp in components:
        n = len(comp)
        if n == 1:
            (q,) = comp
            if q not in graph[q]:
                yield None
                continue
        if not isinstance(comp, np.ndarray):
            comp = np.fromiter(comp, dtype=np.int64, count=n)
        # the sort that from_edges runs: numpy's default one adds its own code pages
        members = np.sort(comp, kind="stable")
        local[members] = np.arange(n)
        edge, row = row_entries(graph.indptr, members)
        col = local[graph.indices[edge]]
        local[members] = -1
        inside = col >= 0
        weights = graph.weights[edge[inside]].astype(np.int64, copy=False)
        yield WeightedDigraph(_csr(row[inside], n), col[inside], weights)


# ---------------------------------------------------------------------------
# walks


def rotate(bits: int, c: int, modulus: int) -> int:
    """``bits`` as a set of residues mod ``modulus``, each plus c."""
    return ((bits << c) | (bits >> (modulus - c))) & ((1 << modulus) - 1)


def reverse_edges(n: int, source, target) -> list:
    """The graph on 0..n-1 whose edges run from ``source[i]`` to
    ``target[i]``, two integer arrays, turned round, as lists: row t lists
    the sources of the edges into t, once per edge.  Flat edge lists,
    unlike rows, are read without a slice per vertex."""
    pred: list[list[int]] = [[] for _ in range(n)]
    for q, t in zip(source.tolist(), target.tolist()):
        pred[t].append(q)
    return pred


def length_masks(edges, seeds, modulus: int) -> list:
    """For each vertex v, the lengths mod ``modulus`` of the walks along
    ``edges`` (``edges[v]`` iterates over v's targets, repeats allowed)
    from a seed to v, as a bitmask: the least fixed point, grown from the
    seeds at length 0, queueing a vertex again whenever its mask grows.
    At modulus 1 the mask is 1 on the vertices the seeds reach, else 0.
    A -1 target, a table's missing move, reads a full mask: no edge."""
    top, full = modulus - 1, (1 << modulus) - 1
    bits = [0] * len(edges) + [full]
    for q in seeds:
        bits[q] = 1
    queue = list(seeds)
    # the list is the queue: the loop reads the vertices appended to it
    for q in queue:
        b = bits[q]
        b = (b << 1 | b >> top) & full  # rotate(b, 1, modulus), inline
        for t in edges[q]:
            if b & ~bits[t]:
                bits[t] |= b
                queue.append(t)
    return bits[:-1]


def graph_period(graph: WeightedDigraph) -> int:
    """Cyclic period of a strongly connected digraph: the gcd of its
    cycle lengths.

    With level[v] the breadth-first distance of v from vertex 0, the
    period is the gcd of level[u] + 1 - level[v] over the edges u -> v:
    the length of every closed walk is the sum of these terms over its
    edges, and each term is the length of a closed walk through 0 less
    that of another.  The result is 1 for a graph with no cycle and for
    a graph that is not strongly connected (some vertex is not reached
    from vertex 0, or does not reach it, by a backward ``length_masks``),
    so such a graph takes the index engine's aperiodic path.

    The search walks the rows one vertex at a time, as ``graph_scc``
    does, and the gcd is taken as the search meets each edge.  Profile
    components are a few dozen to a few hundred states, mostly long
    cycles, where a numpy search would pay its fixed cost once per level.
    """
    n = len(graph)
    if n == 0:
        return 1
    ptr, targets = graph._ptr, graph._targets
    level = [-1] * n
    level[0] = 0
    queue = [0]
    period = 0
    # the list is the queue: the loop reads the vertices appended to it
    for q in queue:
        depth = level[q] + 1
        for t in targets[ptr[q]:ptr[q + 1]]:
            if level[t] < 0:
                level[t] = depth
                queue.append(t)
            else:
                period = gcd(period, depth - level[t])
    if len(queue) < n:
        return 1
    source = np.repeat(np.arange(n), np.diff(graph.indptr))
    back = length_masks(reverse_edges(n, source, graph.indices), [0], 1)
    return max(period, 1) if all(back) else 1


def imprimitivity(dfa: Dfa, component: Iterable[int]) -> int:
    """Cyclic period of a strongly connected component: ``graph_period``
    of its local graph in the transition graph.

    The gcd of all cycle lengths inside the component: 1 when walks of
    every large length exist between any two member states, d > 1 when
    internal walk lengths are fixed modulo d.  Raises on a component
    with no internal edge.
    """
    (local,) = component_graphs(transition_graph(dfa), [list(set(component))])
    if local is None or not len(local.indices):
        raise ValueError("imprimitivity undefined for a trivial component")
    return graph_period(local)


def cycle_intersection_bound(
    dfa: Dfa, eligible: Iterable[int], dec: Optional[SccDecomposition] = None
) -> int:
    """Most eligible components one walk from the initial state can meet.

    ``eligible`` holds component ids of ``dec`` (recomputed when not
    given).  Counts, over all condensation paths starting at the initial
    state's component, the maximum number of eligible components on one
    path.  Empty automaton gives 0.
    """
    if dfa.state_count == 0:
        return 0
    if dec is None:
        dec = scc(dfa)
    return path_intersection_bound(dec, eligible, dec.component_of[dfa.initial])


def path_intersection_bound(dec: SccDecomposition, eligible: Iterable[int], start: int) -> int:
    """Most ``eligible`` components of ``dec`` one condensation path from
    component ``start`` can meet, ``start`` included."""
    elig = set(eligible)
    ptr, succ = dec.successor_ptr.tolist(), dec.successors.tolist()
    best = [0] * len(dec)
    for c in reversed(range(len(best))):
        best[c] = (c in elig) + max((best[d] for d in succ[ptr[c]:ptr[c + 1]]), default=0)
    return best[start]


def parse_dfa(text: str) -> Dfa:
    """Parse the plain-text automaton format.

    Layout: a header line ``dfa <states> <alphabet> <initial>``, optional
    ``accept <id> <id> ...`` lines, then one ``<from> <letter> <to>`` line
    per transition.  ``#`` starts a comment; blank lines are ignored.
    """
    header = None
    n = k = 0
    initial: Optional[int] = None
    accepting: set[int] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if header is None:
            if fields[0] != "dfa":
                raise DfaFormatError(line_no, "expected header 'dfa <states> <alphabet> <initial>'")
            if len(fields) != 4:
                raise DfaFormatError(line_no, "header needs exactly 3 numbers")
            try:
                n, k, init_field = (int(f) for f in fields[1:])
            except ValueError:
                raise DfaFormatError(line_no, "header fields must be integers") from None
            if n < 0 or k < 1:
                raise DfaFormatError(line_no, "need states >= 0 and alphabet >= 1")
            if n > 0 and not 0 <= init_field < n:
                raise DfaFormatError(line_no, f"initial state {init_field} out of range")
            initial = init_field if n > 0 else None
            table = np.full((n, k), -1, np.int32)
            header = fields
            continue
        if fields[0] == "accept":
            try:
                ids = [int(f) for f in fields[1:]]
            except ValueError:
                raise DfaFormatError(line_no, "accept line takes state ids") from None
            for q in ids:
                if not 0 <= q < n:
                    raise DfaFormatError(line_no, f"accepting state {q} out of range")
                accepting.add(q)
            continue
        if len(fields) != 3:
            raise DfaFormatError(line_no, "expected '<from> <letter> <to>'")
        try:
            q, x, t = (int(f) for f in fields)
        except ValueError:
            raise DfaFormatError(line_no, "transition fields must be integers") from None
        if not 0 <= q < n:
            raise DfaFormatError(line_no, f"source state {q} out of range")
        if not 0 <= x < k:
            raise DfaFormatError(line_no, f"letter {x} out of range")
        if not 0 <= t < n:
            raise DfaFormatError(line_no, f"target state {t} out of range")
        if table[q, x] >= 0:
            raise DfaFormatError(line_no, f"duplicate transition from state {q} on letter {x}")
        table[q, x] = t
    if header is None:
        raise DfaFormatError(1, "empty input, expected a 'dfa' header")
    return Dfa(k, table, initial, accepting)


def format_dfa(dfa: Dfa) -> str:
    """Inverse of :func:`parse_dfa`, deterministic line order."""
    lines = [f"dfa {dfa.state_count} {dfa.alphabet_size} {dfa.initial if dfa.initial is not None else 0}"]
    if dfa.accepting:
        lines.append("accept " + " ".join(str(q) for q in sorted(dfa.accepting)))
    for q, x, t in dfa.edges():
        lines.append(f"{q} {x} {t}")
    return "\n".join(lines) + "\n"
