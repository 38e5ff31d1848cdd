"""Partial deterministic automata and the digraph analyses behind them.

States are dense integers ``0..n-1``, letters are indices ``0..k-1``.
Transitions are partial: a missing (state, letter) pair means the word
is rejected.  The 0-state automaton is the canonical empty language and
every operation accepts it.

Most analyses here treat the automaton as a labeled multigraph: two
letters driving the same state pair count as two edges.  That
multiplicity is what separates exponential from polynomial growth.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Iterator, Optional


class DfaFormatError(ValueError):
    """Malformed automaton text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class Dfa:
    """Immutable partial DFA over an indexed alphabet.

    ``transitions[q]`` maps a letter to the successor state.  ``initial``
    is ``None`` exactly when there are no states.
    """

    __slots__ = ("alphabet_size", "transitions", "initial", "accepting")

    def __init__(
        self,
        alphabet_size: int,
        transitions: Iterable[dict],
        initial: Optional[int],
        accepting: Iterable[int],
    ):
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        trans = tuple(dict(row) for row in transitions)
        n = len(trans)
        if n == 0:
            if initial is not None:
                raise ValueError("automaton without states must have initial=None")
        elif initial is None or not 0 <= initial < n:
            raise ValueError(f"initial state {initial!r} out of range")
        acc = frozenset(accepting)
        for q in acc:
            if not 0 <= q < n:
                raise ValueError(f"accepting state {q} out of range")
        for q, row in enumerate(trans):
            for x, t in row.items():
                if not 0 <= x < alphabet_size:
                    raise ValueError(f"letter {x} out of range at state {q}")
                if not 0 <= t < n:
                    raise ValueError(f"transition target {t} out of range at state {q}")
        self.alphabet_size = alphabet_size
        self.transitions = trans
        self.initial = initial
        self.accepting = acc

    @property
    def state_count(self) -> int:
        return len(self.transitions)

    def step(self, state: int, letter: int) -> Optional[int]:
        return self.transitions[state].get(letter)

    def run(self, word: Iterable[int]) -> Optional[int]:
        """State reached from the initial state, or None if the run dies."""
        q = self.initial
        if q is None:
            return None
        for x in word:
            q = self.transitions[q].get(x)
            if q is None:
                return None
        return q

    def accepts(self, word: Iterable[int]) -> bool:
        q = self.run(word)
        return q is not None and q in self.accepting

    def edges(self) -> Iterator[tuple]:
        """All (state, letter, target) triples in deterministic order."""
        for q, row in enumerate(self.transitions):
            for x in sorted(row):
                yield q, x, row[x]

    def __eq__(self, other):
        if not isinstance(other, Dfa):
            return NotImplemented
        return (
            self.alphabet_size == other.alphabet_size
            and self.transitions == other.transitions
            and self.initial == other.initial
            and self.accepting == other.accepting
        )

    def __repr__(self):
        return (
            f"Dfa(states={self.state_count}, alphabet={self.alphabet_size}, "
            f"initial={self.initial}, accepting={sorted(self.accepting)})"
        )


def empty_dfa(alphabet_size: int) -> Dfa:
    return Dfa(alphabet_size, (), None, ())


def trim(dfa: Dfa) -> Dfa:
    """Restrict to states both reachable and co-reachable, renumbered by BFS.

    The result recognizes the same language.  If nothing survives, the
    0-state automaton is returned.
    """
    n = dfa.state_count
    if n == 0:
        return dfa
    reach = {dfa.initial}
    queue = [dfa.initial]
    while queue:
        q = queue.pop()
        for x in dfa.transitions[q]:
            t = dfa.transitions[q][x]
            if t not in reach:
                reach.add(t)
                queue.append(t)
    rev: list[list[int]] = [[] for _ in range(n)]
    for q, row in enumerate(dfa.transitions):
        for t in row.values():
            rev[t].append(q)
    co = set(dfa.accepting)
    queue = list(co)
    while queue:
        q = queue.pop()
        for p in rev[q]:
            if p not in co:
                co.add(p)
                queue.append(p)
    keep = reach & co
    if dfa.initial not in keep:
        return empty_dfa(dfa.alphabet_size)
    # breadth-first renumbering keeps the output stable across runs
    order: list[int] = [dfa.initial]
    index = {dfa.initial: 0}
    head = 0
    while head < len(order):
        q = order[head]
        head += 1
        for x in sorted(dfa.transitions[q]):
            t = dfa.transitions[q][x]
            if t in keep and t not in index:
                index[t] = len(order)
                order.append(t)
    new_trans = []
    for q in order:
        row = {
            x: index[t]
            for x, t in dfa.transitions[q].items()
            if t in keep
        }
        new_trans.append(row)
    new_acc = [index[q] for q in dfa.accepting if q in index]
    return Dfa(dfa.alphabet_size, new_trans, 0, new_acc)


class SccDecomposition:
    """Strong components of an automaton graph, topologically ordered.

    ``components[i]`` is a frozenset of states; every condensation edge
    goes from a lower component id to a higher one.  ``nontrivial``
    holds the ids of components containing at least one edge (a cycle).
    ``successors[i]``, the set of components one condensation edge from
    component i, is built from ``condensation_edges`` on first use.
    """

    __slots__ = ("component_of", "components", "nontrivial", "condensation_edges", "_successors")

    def __init__(self, component_of, components, nontrivial, condensation_edges):
        self.component_of = tuple(component_of)
        self.components = tuple(frozenset(c) for c in components)
        self.nontrivial = frozenset(nontrivial)
        self.condensation_edges = frozenset(condensation_edges)
        self._successors = None

    @property
    def successors(self) -> list:
        if self._successors is None:
            self._successors = [set() for _ in self.components]
            for a, b in self.condensation_edges:
                self._successors[a].add(b)
        return self._successors

    def __repr__(self):
        return (
            f"SccDecomposition(components={len(self.components)}, "
            f"nontrivial={sorted(self.nontrivial)})"
        )


def tarjan_components(successors: list) -> list:
    """Strongly connected components, emitted in reverse topological order.

    ``successors[v]`` is an iterable of targets.  Iterative so that deep
    graphs do not hit the recursion limit.
    """
    n = len(successors)
    index_of = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index_of[root] != -1:
            continue
        work = [(root, iter(successors[root]))]
        index_of[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if index_of[w] == -1:
                    index_of[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(successors[w])))
                    advanced = True
                    break
                if on_stack[w]:
                    if index_of[w] < low[v]:
                        low[v] = index_of[w]
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if low[v] < low[parent]:
                    low[parent] = low[v]
            if low[v] == index_of[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(comp)
    return comps


def scc(dfa: Dfa) -> SccDecomposition:
    """Strong components of the transition graph, topologically sorted."""
    return graph_scc([sorted(set(row.values())) for row in dfa.transitions])


def graph_scc(successors) -> SccDecomposition:
    """Strong components of a digraph, topologically sorted.

    ``successors[v]`` lists v's distinct targets in increasing order, as
    ``scc`` builds them from an automaton and as the rows of a
    ``growth.WeightedDigraph`` are, so one graph serves both this and the
    index engine.
    """
    n = len(successors)
    comps_rev = tarjan_components(successors)
    m = len(comps_rev)
    # Tarjan pops sinks first; flip so sources come first.
    components = [sorted(comps_rev[m - 1 - i]) for i in range(m)]
    component_of = [0] * n
    for cid, comp in enumerate(components):
        for v in comp:
            component_of[v] = cid
    nontrivial = set()
    cond_edges = set()
    for q in range(n):
        cq = component_of[q]
        for t in successors[q]:
            ct = component_of[t]
            if cq == ct:
                nontrivial.add(cq)
            else:
                cond_edges.add((cq, ct))
    return SccDecomposition(component_of, components, nontrivial, cond_edges)


def imprimitivity(dfa: Dfa, component: Iterable[int]) -> int:
    """Cyclic period of a strongly connected component.

    The gcd of all cycle lengths inside the component: 1 when walks of
    every large length exist between any two member states, d > 1 when
    internal walk lengths are fixed modulo d.  Raises on a component
    with no internal edge.
    """
    members = set(component)
    internal: dict[int, list[int]] = {q: [] for q in members}
    edges = []
    for q in members:
        for t in dfa.transitions[q].values():
            if t in members:
                internal[q].append(t)
                edges.append((q, t))
    if not edges:
        raise ValueError("imprimitivity undefined for a trivial component")
    start = min(members)
    level = {start: 0}
    queue = [start]
    head = 0
    while head < len(queue):
        q = queue[head]
        head += 1
        for t in internal[q]:
            if t not in level:
                level[t] = level[q] + 1
                queue.append(t)
    g = 0
    for q, t in edges:
        g = gcd(g, abs(level[q] + 1 - level[t]))
    if g == 0:
        raise AssertionError("strongly connected component with no closed walk")
    return g


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
    best = [0] * len(dec.components)
    for c in reversed(range(len(best))):
        best[c] = (c in elig) + max((best[d] for d in dec.successors[c]), default=0)
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
    rows: list[dict] = []
    seen_edges: set[tuple] = set()
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
            rows = [dict() for _ in range(n)]
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
        if (q, x) in seen_edges:
            raise DfaFormatError(line_no, f"duplicate transition from state {q} on letter {x}")
        seen_edges.add((q, x))
        rows[q][x] = t
    if header is None:
        raise DfaFormatError(1, "empty input, expected a 'dfa' header")
    return Dfa(k, rows, initial, accepting)


def format_dfa(dfa: Dfa) -> str:
    """Inverse of :func:`parse_dfa`, deterministic line order."""
    lines = [f"dfa {dfa.state_count} {dfa.alphabet_size} {dfa.initial if dfa.initial is not None else 0}"]
    if dfa.accepting:
        lines.append("accept " + " ".join(str(q) for q in sorted(dfa.accepting)))
    for q, x, t in dfa.edges():
        lines.append(f"{q} {x} {t}")
    return "\n".join(lines) + "\n"
