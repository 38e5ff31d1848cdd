"""Independent reference implementations used by the test suite.

Everything here is deliberately naive: exhaustive enumeration, direct
definitions, exact symbolic root isolation, and failure-chain walks.
None of it shares code with the library beyond the public data
containers, so agreement is meaningful evidence.  The exceptions are
slow paths built from the library's public functions:
``per_slice_profile``, the growth profile from per-automaton calls;
``trimmed_slice_rows``, the library's earlier per-residue loop over its
private ``_analyse``, one trimmed automaton per slice, decomposed and
analysed alone;
``trim_minimal_powers``, the minimal powers from a border-table root
search and trim check (``suffixes_stay_free``, on
``minimal_periods_of_suffixes``, the library's earlier suffix-period
table); ``free_roots`` and
``minimal_words``, the library's earlier depth-first walk, whose
letter check is the library's ``ends_in_violation`` (tested against
border tables); ``per_period_root_complexity`` and ``per_period_scan``,
one such walk per period; ``component_interval``, the library's
earlier index engine, one run per width, and
``python_int_certificates``, its earlier certificate stream, whose
continuation loops over Python int lists, both on ``exact_bounds``
(over ``list_extreme_ratios``, the library's earlier ``_extreme_ratios``,
one pass over two whole lists), ``_float_vector`` and
``_integer_vector``;
``recursive_intermediate_count``, the earlier staircase count;
``member_residue_sets``, the library's earlier residue masks, over every
member of each component (on its ``length_masks`` and ``tails``, the
walk over the reversed transitions that the profile reads);
``per_component_product_profile``, the library's earlier profile, which
certified every counter-product component on its own (on its
``_analyse`` and the profile's other private steps);
``root_level_word_arrays``, the library's earlier level search, which
extended each period p from all free words of length p (on its
``target_length``);
``goto_loop_quotient_graph``, the quotient read state by state off the
goto table of ``BreadthFirstTrie``, the library's earlier Python trie;
``goto_move_voltages`` and ``goto_lifted_components``, every move's
letter renaming and the library's earlier lift, both from the failure-chain
walk of that trie's ``goto``;
``tarjan_components``, the library's earlier list-of-lists Tarjan, and
``tarjan_scc``, its earlier record of one frozenset per component
(``FrozensetScc``), read by ``successor_list_scc`` off successor lists
built from the automaton's rows; ``tarjan_cyclic_components``, the
cycle-carrying components filtered from Tarjan's;
``bfs_imprimitivity``, the library's earlier period search over dicts,
and ``bfs_graph_period``, its earlier ``graph_period``, whose backward
search ran over its own predecessor lists; ``stack_trim``, the earlier
``trim``, two stack searches over sets, and
``condensation_extendable_part``, the earlier ``extendable_part``, two
passes over the condensation; ``bfs_reach``, reachability over a set;
``row_list_certificates``, the engine's first two certificates over
``digraph_rows``, one ``Fraction`` per row; and ``fraction_lower_bound``, the
analytic lower bound in ``Fraction`` arithmetic.
"""

import itertools
import math
from array import array
from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Iterator, Optional

import numpy as np
import sympy

from builders import dict_dfa, dict_rows
from wordgrowth.automaton import (
    Dfa,
    empty_dfa,
    imprimitivity,
    length_masks,
    reverse_edges,
    rotate,
    scc,
    transition_edges,
    transition_graph,
    trim,
)
from wordgrowth.growth import (
    GrowthReport,
    IndexInterval,
    ResidueAsymptotics,
    _analyse,
    _as_fraction,
    _classify,
    _CounterProduct,
    _fold,
    _product_slices,
    _residue_sets,
    _float_vector,
    _integer_vector,
    _polynomial_index,
    _rate,
    approximate_index,
    classify,
    digraph_index,
    oscillation_type,
    polynomial_index_general,
)
from wordgrowth.powerfree import NoLowerBoundError
from wordgrowth.words import (
    BudgetExceededError,
    ExponentBound,
    MinimalPower,
    ends_in_violation,
    minimal_period,
    suffix_checks,
    target_length,
    violates,
    word_to_str,
)


# ---------------------------------------------------------------------------
# automata

class FrozensetScc:
    """Strong components of a graph, topologically ordered: the library's
    earlier record, one Python object per vertex and per component.

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
            f"FrozensetScc(components={len(self.components)}, "
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


def tarjan_scc(successors) -> FrozensetScc:
    """Strong components of a digraph, topologically sorted, as the
    library's earlier ``graph_scc`` found them: Tarjan on
    ``successors[v]``, v's distinct targets in increasing order (a
    ``WeightedDigraph`` serves as it is)."""
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
    return FrozensetScc(component_of, components, nontrivial, cond_edges)


def successor_list_scc(dfa) -> FrozensetScc:
    """Strong components of the transition graph, topologically sorted,
    from successor lists of each row's distinct targets."""
    return tarjan_scc([sorted(set(row.values())) for row in dict_rows(dfa)])


def tarjan_cyclic_components(graph) -> list:
    """The strongly connected components of a weighted digraph that carry
    a cycle, as lists: Tarjan's components with two vertices or a loop."""
    return [
        comp
        for comp in tarjan_components(graph)
        if len(comp) > 1 or comp[0] in graph[comp[0]]
    ]


def bfs_imprimitivity(dfa, component) -> int:
    """The gcd of the cycle lengths inside a strongly connected component,
    from breadth-first levels over dicts of its internal edges: the
    library's earlier ``imprimitivity``."""
    members = set(component)
    rows = dict_rows(dfa)
    internal = {q: [] for q in members}
    edges = []
    for q in members:
        for t in rows[q].values():
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
        g = math.gcd(g, abs(level[q] + 1 - level[t]))
    return g


def stack_trim(dfa) -> Dfa:
    """The library's earlier ``trim``: reach by a stack search over sets,
    co-reach by one over reverse lists, then the breadth-first renumbering."""
    n = dfa.state_count
    if n == 0:
        return dfa
    rows = dict_rows(dfa)
    reach = {dfa.initial}
    queue = [dfa.initial]
    while queue:
        q = queue.pop()
        for x in rows[q]:
            t = rows[q][x]
            if t not in reach:
                reach.add(t)
                queue.append(t)
    rev: list[list[int]] = [[] for _ in range(n)]
    for q, row in enumerate(rows):
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
    order: list[int] = [dfa.initial]
    index = {dfa.initial: 0}
    head = 0
    while head < len(order):
        q = order[head]
        head += 1
        for x in sorted(rows[q]):
            t = rows[q][x]
            if t in keep and t not in index:
                index[t] = len(order)
                order.append(t)
    new_trans = []
    for q in order:
        row = {
            x: index[t]
            for x, t in rows[q].items()
            if t in keep
        }
        new_trans.append(row)
    new_acc = [index[q] for q in dfa.accepting if q in index]
    return dict_dfa(dfa.alphabet_size, new_trans, 0, new_acc)


def condensation_extendable_part(dfa, side: str = "right") -> Dfa:
    """The library's earlier ``extendable_part``: which components reach
    a cycle and which a cycle reaches, by two passes over the
    condensation, on ``stack_trim``."""
    if side == "two":
        side = "two_sided"
    if side not in ("right", "two_sided"):
        raise ValueError("side must be 'right' or 'two_sided'")
    d = stack_trim(dfa)
    if d.state_count == 0:
        return d
    if any(q not in d.accepting for q in range(d.state_count)):
        raise ValueError("every state must accept")
    dec = scc(d)
    m = len(dec)
    ptr, succ = dec.successor_ptr.tolist(), dec.successors.tolist()
    cyclic = [False] * m
    for c in dec.nontrivial.tolist():
        cyclic[c] = True
    component_of = dec.component_of.tolist()
    reaches_cycle = [False] * m
    for c in range(m - 1, -1, -1):
        reaches_cycle[c] = cyclic[c] or any(reaches_cycle[t] for t in succ[ptr[c]:ptr[c + 1]])
    ext = {q for q in range(d.state_count) if reaches_cycle[component_of[q]]}
    d_rows = dict_rows(d)
    if side == "right":
        if d.initial not in ext:
            return empty_dfa(d.alphabet_size)
        rows = []
        states = sorted(ext)
        index = {q: i for i, q in enumerate(states)}
        for q in states:
            rows.append({x: index[t] for x, t in d_rows[q].items() if t in ext})
        return stack_trim(dict_dfa(d.alphabet_size, rows, index[d.initial], range(len(states))))

    # two-sided: left extendability means being reachable from a cycle
    from_cycle = list(cyclic)
    for c in range(m):
        if from_cycle[c]:
            for t in succ[ptr[c]:ptr[c + 1]]:
                from_cycle[t] = True
    entry = {q for q in range(d.state_count) if from_cycle[component_of[q]]}
    if not entry:
        return empty_dfa(d.alphabet_size)
    # subset construction: start from every entry state at once, accept
    # when some thread sits on a state that still reaches a cycle
    start = frozenset(entry)
    ids = {start: 0}
    rows = [dict()]
    accepting = set()
    queue = [start]
    while queue:
        s = queue.pop()
        q = ids[s]
        if s & ext:
            accepting.add(q)
        for x in range(d.alphabet_size):
            t = frozenset(
                d_rows[p][x] for p in s if x in d_rows[p]
            )
            if not t:
                continue
            if t not in ids:
                ids[t] = len(rows)
                rows.append(dict())
                queue.append(t)
            rows[q][x] = ids[t]
    return stack_trim(dict_dfa(d.alphabet_size, rows, 0, accepting))


def bfs_graph_period(graph) -> int:
    """The library's earlier ``graph_period``: breadth-first levels from
    vertex 0, then a backward breadth-first search over predecessor
    lists for strong connectivity."""
    n = len(graph)
    if n == 0:
        return 1
    level = [-1] * n
    level[0] = 0
    queue = [0]
    period = 0
    for q in queue:
        depth = level[q] + 1
        for t in graph[q]:
            if level[t] < 0:
                level[t] = depth
                queue.append(t)
            else:
                period = math.gcd(period, depth - level[t])
    if len(queue) < n:
        return 1
    pred: list[list[int]] = [[] for _ in range(n)]
    for q in range(n):
        for t in graph[q]:
            pred[t].append(q)
    seen = [False] * n
    seen[0] = True
    queue = [0]
    for q in queue:
        for t in pred[q]:
            if not seen[t]:
                seen[t] = True
                queue.append(t)
    return max(period, 1) if len(queue) == n else 1


def bfs_reach(rows, seeds) -> set:
    """The vertices that ``seeds`` reach along ``rows``, by breadth-first
    search over a set."""
    seen = set(seeds)
    queue = list(seen)
    for q in queue:
        for t in rows[q]:
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def brute_count(dfa, n: int) -> int:
    """Accepted-word count by trying every word of length n."""
    return sum(
        1
        for w in itertools.product(range(dfa.alphabet_size), repeat=n)
        if dfa.accepts(w)
    )


def spectral_radius_root(rows):
    """Largest real eigenvalue of a nonnegative integer matrix, as an
    exact sympy number.

    For nonnegative matrices the spectral radius is itself an
    eigenvalue, hence the largest real root of the characteristic
    polynomial (0 when the matrix is nilpotent).
    """
    n = len(rows)
    if n == 0:
        return sympy.Integer(0)
    m = sympy.Matrix(n, n, lambda i, j: rows[i].get(j, 0))
    cp = m.charpoly()
    roots = sympy.Poly(cp.as_expr(), cp.gens[0]).real_roots()
    best = sympy.Integer(0)
    for r in roots:
        if r > best:
            best = r
    return best


def interval_contains(lo: Fraction, hi: Fraction, value) -> bool:
    """Exact containment of a sympy real number in a rational interval."""
    lo_s = sympy.Rational(lo.numerator, lo.denominator)
    hi_s = sympy.Rational(hi.numerator, hi.denominator)
    return bool(lo_s <= value) and bool(value <= hi_s)


def dfa_adjacency_rows(dfa):
    """Letter-multiplicity adjacency of a dfa's transition graph."""
    rows = [dict() for _ in range(dfa.state_count)]
    for q, table in enumerate(dict_rows(dfa)):
        for t in table.values():
            rows[q][t] = rows[q].get(t, 0) + 1
    return rows


# ---------------------------------------------------------------------------
# words and powers

def naive_min_period(word) -> int:
    n = len(word)
    for p in range(1, n + 1):
        if all(word[i] == word[i + p] for i in range(n - p)):
            return p
    raise AssertionError


def naive_exponent(word) -> Fraction:
    return Fraction(len(word), naive_min_period(word))


def _crosses(e: Fraction, beta: Fraction, plus: bool) -> bool:
    return e > beta if plus else e >= beta


def naive_violates(word, beta: Fraction, plus: bool) -> bool:
    """Does any factor have a big enough exponent?  Checks every factor."""
    n = len(word)
    for i in range(n):
        for j in range(i + 1, n + 1):
            if _crosses(naive_exponent(word[i:j]), beta, plus):
                return True
    return False


def naive_is_minimal_power(word, beta: Fraction, plus: bool) -> bool:
    """Violates the bound while both one-letter trims stay free.

    Trim freeness covers all proper factors, since every proper factor
    lies inside a trim.
    """
    if len(word) < 2:
        return False
    return (
        naive_violates(word, beta, plus)
        and not naive_violates(word[1:], beta, plus)
        and not naive_violates(word[:-1], beta, plus)
    )


def brute_minimal_powers_by_length(k: int, beta: Fraction, plus: bool, max_len: int):
    """All minimal powers up to a length, straight from the definition."""
    out = []
    for length in range(2, max_len + 1):
        for w in itertools.product(range(k), repeat=length):
            if naive_is_minimal_power(w, beta, plus):
                out.append(w)
    return out


def brute_minimal_powers_by_period(k: int, beta: Fraction, plus: bool, cap: int):
    """All minimal powers of period <= cap.

    A minimal power is a periodic extension of its own prefix of that
    period, so roots are enumerated exhaustively and every plausible
    extension length is tested against the definition.  The length scan
    runs a little past the first crossing to confirm nothing longer
    survives.
    """
    out = set()
    for p in range(1, cap + 1):
        limit = int(beta * p) + p + 3
        for root in itertools.product(range(k), repeat=p):
            for length in range(p + 1, limit + 1):
                w = tuple(root[i % p] for i in range(length))
                if naive_min_period(w) <= cap and naive_is_minimal_power(w, beta, plus):
                    out.add(w)
    return sorted(out, key=lambda w: (naive_min_period(w), w))


def minimal_periods_of_suffixes(word) -> list:
    """Minimal periods of every suffix; entry i is for word[i:].

    Computed from one border table of the reversed word: reversal maps
    suffixes to prefixes and preserves periods.
    """
    w = tuple(word)[::-1]
    n = len(w)
    # border[i] = length of the longest proper border of w[:i]
    border = [0] * (n + 1)
    j = 0
    for i in range(1, n):
        while j and w[i] != w[j]:
            j = border[j]
        if w[i] == w[j]:
            j += 1
        else:
            j = 0
        border[i + 1] = j
    out = [0] * n
    for length in range(1, n + 1):
        out[n - length] = length - border[length]
    return out


def suffixes_stay_free(word, bound) -> bool:
    """No suffix of the word violates the bound, read off the minimal
    period of every suffix (one border table of the reversed word)."""
    periods = minimal_periods_of_suffixes(word)
    n = len(word)
    for i in range(n - 1):
        length = n - i
        if periods[i] < length and _length_crosses(length, periods[i], bound):
            return False
    return True


def _length_crosses(length: int, period: int, bound) -> bool:
    """length/period crosses the bound, by integer cross-multiplication."""
    lhs = length * bound.den
    rhs = bound.num * period
    return lhs > rhs if bound.plus else lhs >= rhs


def border_is_free(word, bound) -> bool:
    """``is_free`` by the border-table check at every end position."""
    return all(suffixes_stay_free(word[:end], bound) for end in range(2, len(word) + 1))


def border_free_roots(k: int, bound, periods, canonical: bool):
    """Free words whose length is among ``periods``, by a recursive
    search that checks each new letter with ``suffixes_stay_free``;
    ``canonical`` keeps first occurrences of letters in increasing order."""
    targets = set(periods)
    if not targets:
        return
    p_max = max(targets)
    word = []

    def grow():
        if len(word) in targets:
            yield tuple(word)
        if len(word) == p_max:
            return
        used = 1 + max(word) if word else 0
        for x in range(min(used + 1, k) if canonical else k):
            word.append(x)
            if suffixes_stay_free(word, bound):
                yield from grow()
            word.pop()

    yield from grow()


def trim_minimal_powers(k: int, bound, cap: int, mode: str, canonical: bool):
    """``minimal_powers`` by the slow path: each free root of a target
    period (``border_free_roots``), extended periodically to the
    shortest violating length, is kept when its minimal period is the
    root's and ``border_is_free`` accepts both one-letter trims."""

    def target(p):
        length = p + 1
        while not violates(Fraction(length, p), bound):
            length += 1
        return length

    if mode == "period":
        periods = range(1, cap + 1)
    else:
        periods = itertools.takewhile(
            lambda p: target(p) - p <= cap, itertools.count(1)
        )
    out = []
    for root in border_free_roots(k, bound, list(periods), canonical):
        p = len(root)
        w = tuple(root[i % p] for i in range(target(p)))
        if (
            minimal_period(w) == p
            and border_is_free(w[1:], bound)
            and border_is_free(w[:-1], bound)
        ):
            out.append(MinimalPower(p, w, Fraction(len(w), p)))
    return sorted(out)


# ---------------------------------------------------------------------------
# the depth-first minimal-word walk


def free_roots(
    k: int,
    bound: ExponentBound,
    periods: Iterable[int],
    canonical: bool = False,
    budget: Optional[int] = None,
) -> Iterator[tuple]:
    """Depth-first scan of bound-free words, yielding every one whose
    length is among ``periods``.

    Each letter is checked against the factors it closes, so every
    yielded word is free; roots of minimal violating words are free, so
    the scan is complete for them.  ``canonical`` restricts branching to
    the letter-canonical orbit representatives (first occurrences in
    increasing order).  A set of ``periods`` is read live: a caller may
    discard periods between yields, after which the scan skips words
    longer than the largest period left and stops when none is.
    ``budget`` caps the free words visited; one more raises
    BudgetExceededError naming the largest period still searched.  An
    empty alphabet or a budget below 1 raises ValueError.
    """
    if k < 1:
        raise ValueError("alphabet must have at least 1 letter")
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    targets = periods if isinstance(periods, set) else set(periods)
    if not targets:
        return
    p_max, wanted = max(targets), len(targets)
    pairs = suffix_checks(bound, p_max)
    visited = 0
    word: list = []
    stack = [(0, x) for x in reversed(range(1 if canonical else k))]
    while stack:  # (length before, letter) pairs, depth first
        n, x = stack.pop()
        if n >= p_max:  # pushed before the caller dropped the longest periods
            continue
        del word[n:]
        word.append(x)
        n += 1
        if ends_in_violation(word, n, pairs):
            continue
        visited += 1
        if budget is not None and visited > budget:
            raise BudgetExceededError(p_max, budget)
        if n in targets:
            yield tuple(word)
            if len(targets) < wanted:
                if not targets:
                    return
                p_max, wanted = max(targets), len(targets)
        if n < p_max:
            letters = min(max(word) + 2, k) if canonical else k
            stack.extend([(n, y) for y in range(letters - 1, -1, -1)])


def minimal_words(
    k: int,
    bound: ExponentBound,
    periods: Iterable[int],
    canonical: bool = False,
    budget: Optional[int] = None,
) -> Iterator[MinimalPower]:
    """Minimal bound-violating words of the given periods, in search
    order, one per free root of ``free_roots`` (same arguments, and a
    set of ``periods`` is read live as there) that extends to one.

    The periodic extension w of a root of period p to the target length
    L violates.  It is minimal when both one-letter trims are free: the
    prefix w[:L-1] is checked letter by letter past the root, as the
    search checks the root itself, and w[1:], whose other factors lie in
    that prefix, only at its last letter.  Its minimal period must be p.
    """
    targets = periods if isinstance(periods, set) else set(periods)
    pairs = suffix_checks(bound, target_length(bound, max(targets, default=0)))
    for root in free_roots(k, bound, targets, canonical, budget):
        p = len(root)
        length = target_length(bound, p)
        w = list(root)
        while len(w) < length - 1:
            w.append(w[-p])
            if ends_in_violation(w, len(w), pairs):
                break
        else:  # w is the free prefix w[:L-1]
            w.append(w[-p])
            if not ends_in_violation(w[1:], length - 1, pairs) and minimal_period(w) == p:
                yield MinimalPower(p, tuple(w), Fraction(length, p))


def root_level_word_arrays(
    k: int,
    bound: ExponentBound,
    periods: Iterable[int],
    canonical: bool = False,
    budget: Optional[int] = None,
) -> tuple:
    """``words.minimal_word_arrays`` as it was when each period p was
    extended at level p, from all free words of length p: its
    ``_periodic_extensions`` then checked every letter past the root,
    where the library now starts at level min(L_p - 1, p_max), from the
    rows that already have period p.  Same arguments and result."""
    if k < 1:
        raise ValueError("alphabet must have at least 1 letter")
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    targets = set(periods)
    if not targets:
        return {}, 0
    p_max = max(targets)
    lengths = np.array([target_length(bound, q) for q in range(1, p_max + 1)])
    run_type = np.min_scalar_type(int(lengths[-1]))
    qs = np.arange(1, p_max, dtype=run_type)  # the periods R keeps
    words = np.zeros((1, 0), np.min_scalar_type(k - 1))
    runs = np.zeros((1, 0), run_type)
    used = np.zeros(1, np.intp)  # letters a canonical word has used
    arrays, visited = {}, 0
    for n in range(p_max):
        free = np.ones((len(words), k), bool)
        if canonical:
            free &= np.arange(k) <= used[:, None]
        # the q with L_q <= n + 1 and one letter short of a violation
        qn = int(np.searchsorted(lengths, n + 1, "right"))
        row, col = np.nonzero(runs[:, :qn] >= lengths[:qn] - 1)
        free[row, words[row, n - 1 - col]] = False
        visited += int(np.count_nonzero(free))
        if budget is not None and visited > budget:
            raise BudgetExceededError(p_max, budget)
        parent, letter = np.nonzero(free)  # row-major: lexicographic order
        words = np.concatenate([words[parent], letter[:, None].astype(words.dtype)], 1)
        back = words[:, :n][:, ::-1][:, :p_max - 1]  # w[n-q] for the q kept
        # R_q + 1 where w[n-q] = x, else q; then the new column q = n + 1
        kept = runs.shape[1]
        grown = np.empty((len(words), min(n + 1, p_max - 1)), run_type)
        np.add(runs[parent], 1, out=grown[:, :kept])
        np.copyto(grown[:, :kept], qs[:kept], where=back != words[:, n, None])
        grown[:, kept:] = n + 1
        runs = grown
        if canonical:
            used = np.maximum(used[parent], letter + 1)
        if n + 1 in targets:
            arrays[n + 1] = _root_extensions(words, runs, lengths, n + 1)
    return arrays, visited


def _root_extensions(roots, runs, lengths, p: int):
    """The rows of ``roots`` (free words of length p, with their R table;
    see ``words.minimal_word_arrays``) whose periodic extension to L_p is a
    minimal violating word, extended, in their order.  The letters of
    the extension are read off the roots, so only the rows kept are
    ever extended."""
    length = int(lengths[p - 1])
    runs = runs[:, :p - 1]
    qs = np.arange(1, p, dtype=runs.dtype)
    keep = np.arange(len(roots))
    # the extension repeats the root: w[n-q] = root[(n-q) % p], q = 1..p-1
    cols = (np.arange(p, length)[:, None] - np.arange(1, p)) % p
    for n in range(p, length):
        back = roots.take(keep, 0).take(cols[n - p], 1)
        runs = np.where(back == roots[keep, n % p][:, None], runs + 1, qs)
        # the prefix w[:L_p-1] stays free; then w[1:] is free
        qn = int(np.searchsorted(lengths[:p - 1], min(n + 1, length - 1), "right"))
        ok = ~(runs[:, :qn] >= lengths[:qn]).any(1)
        keep, runs = keep[ok], runs[ok]
    return roots.take(keep, 0).take(np.arange(length) % p, 1)


# ---------------------------------------------------------------------------
# circular words

def naive_circular_square_free(word) -> bool:
    """Square check on every rotation; factors longer than the word do
    not count."""
    n = len(word)
    if n == 0:
        return True
    for s in range(n):
        r = word[s:] + word[:s]
        for i in range(n):
            for half in range(1, (n - i) // 2 + 1):
                if r[i:i + half] == r[i + half:i + 2 * half]:
                    return False
    return True


def rotation_renaming_class(word):
    """Least first-occurrence relabeling over all rotations of word."""
    n = len(word)
    best = None
    for i in range(n):
        rotated = word[i:] + word[:i]
        seen = {}
        relabeled = tuple(seen.setdefault(x, len(seen)) for x in rotated)
        if best is None or relabeled < best:
            best = relabeled
    return best


def per_period_root_complexity(k: int, bound, n: int) -> int:
    """``root_complexity`` by its own search for period n: the rotation
    and renaming classes of the root of every minimal word from
    ``minimal_words`` over all letters, each counted by its letter
    assignments k!/(k-used)!."""
    classes = {rotation_renaming_class(mp.word[:n]) for mp in minimal_words(k, bound, [n])}
    return sum(math.perm(k, 1 + max(key)) for key in classes)


def per_period_scan(k: int, bound, p_max: int) -> set:
    """``forbidden_period_scan`` by one canonical search per period,
    each stopped at its first minimal word."""
    return {
        p for p in range(1, p_max + 1)
        if next(minimal_words(k, bound, [p], canonical=True), None) is None
    }


# ---------------------------------------------------------------------------
# morphic words

_THETA = {0: (0, 1), 1: (1, 0)}


def theta(word):
    """Thue-Morse morphism a -> ab, b -> ba on index alphabet {0,1}."""
    out = []
    for x in word:
        out.extend(_THETA[x])
    return tuple(out)


def theta_pow(word, times: int):
    for _ in range(times):
        word = theta(word)
    return word


def thue_morse_prefix(length: int):
    w = (0,)
    while len(w) < length:
        w = theta(w)
    return w[:length]


# ---------------------------------------------------------------------------
# staircase words

def staircase_words(k: int, total: int):
    """All words made of full blocks of one letter, letters cycling by
    +1 mod k, block lengths nondecreasing, of length exactly total."""
    out = []

    def rec(prefix, remaining, letter, min_block):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for size in range(min_block, remaining + 1):
            rec(prefix + [letter] * size, remaining - size, (letter + 1) % k, size)

    for first in range(k):
        rec([], total, first, 1)
    return out


def staircase_factors(k: int, n: int):
    """Every length-n factor of any staircase word, via generation.

    A factor of a long staircase lies inside one whose length is at
    most 3n: the touched span is n and each border block needs at most
    n more letters to complete.
    """
    seen = set()
    for total in range(n, 3 * n + 1):
        for w in staircase_words(k, total):
            for i in range(total - n + 1):
                seen.add(w[i:i + n])
    return seen


@lru_cache(maxsize=None)
def _staircase_tails(remaining: int, min_block: int) -> int:
    # one way to stop here (single free final block), plus every way to
    # lay a constrained block of each admissible size first
    total = 1
    for size in range(min_block, remaining):
        total += _staircase_tails(remaining - size, size)
    return total


def recursive_intermediate_count(n: int, alphabet_size: int) -> int:
    """The library's earlier staircase count, one recursion level per
    block: right for k >= 2 letters and n below the recursion limit."""
    if n == 0:
        return 1
    return alphabet_size * _staircase_tails(n, 1)


# ---------------------------------------------------------------------------
# extendable parts

def brute_right_extendable(dfa, word) -> bool:
    """Pumping form: some continuation as long as the state count works."""
    s = dfa.state_count
    if not dfa.accepts(word):
        return False
    for v in itertools.product(range(dfa.alphabet_size), repeat=s):
        if dfa.accepts(word + v):
            return True
    return False


def brute_two_extendable(dfa, word) -> bool:
    s = dfa.state_count
    if not dfa.accepts(word):
        return False
    for u in itertools.product(range(dfa.alphabet_size), repeat=s):
        if not dfa.accepts(u + word):
            continue
        for v in itertools.product(range(dfa.alphabet_size), repeat=s):
            if dfa.accepts(u + word + v):
                return True
    return False


# ---------------------------------------------------------------------------
# growth profiles

def tails(dfa, modulus: int) -> list:
    """``tail[q]``: the lengths mod ``modulus`` of the walks from q to an
    accepting state, as a bitmask, as the profile reads them: the
    library's walk over the reversed transitions."""
    return length_masks(reverse_edges(dfa.state_count, *transition_edges(dfa)), dfa.accepting, modulus)


def member_residue_sets(dfa, dec, modulus: int) -> dict:
    """The library's earlier residue masks: for each nontrivial component,
    the residues mod ``modulus`` of the accepting walks through any of its
    members, from every member and every residue of its head."""
    head = length_masks([set(row.values()) for row in dict_rows(dfa)], [dfa.initial], modulus)
    tail = tails(dfa, modulus)
    masks = {}
    for cid in dec.nontrivial.tolist():
        masks[cid] = 0
        for q in dec.members_of(cid).tolist():
            for c in range(modulus):
                if head[q] >> c & 1:
                    masks[cid] |= rotate(tail[q], c, modulus)
    return masks


def counter_slice(dfa, modulus: int, residue: int):
    """Trimmed automaton of the accepted words of length = residue
    (mod modulus): the automaton times a length counter."""
    trans = [dict() for _ in range(dfa.state_count * modulus)]
    for q, row in enumerate(dict_rows(dfa)):
        for c in range(modulus):
            trans[q * modulus + c] = {
                x: t * modulus + (c + 1) % modulus for x, t in row.items()
            }
    accepting = [q * modulus + residue for q in dfa.accepting]
    return trim(dict_dfa(dfa.alphabet_size, trans, dfa.initial * modulus, accepting))


def _counter_reach(dfa, modulus: int, start):
    """(state, length mod modulus) pairs reachable from ``start``."""
    rows = dict_rows(dfa)
    seen = {start}
    stack = [start]
    while stack:
        q, c = stack.pop()
        for t in rows[q].values():
            pair = (t, (c + 1) % modulus)
            if pair not in seen:
                seen.add(pair)
                stack.append(pair)
    return seen


def _tight_component_interval(dfa, comp, delta):
    """A component's index certified at delta and at delta/4, intersected."""
    local = {q: i for i, q in enumerate(sorted(comp))}
    rows = dict_rows(dfa)
    adjacency = [dict() for _ in local]
    for q, i in local.items():
        for t in rows[q].values():
            if t in local:
                adjacency[i][local[t]] = adjacency[i].get(local[t], 0) + 1
    a = digraph_index(adjacency, delta)
    b = digraph_index(adjacency, delta / 4)
    return max(a.lo, b.lo), min(a.hi, b.hi)


def per_slice_profile(dfa, delta: Fraction):
    """``asymptotic_profile`` of a nonempty trimmed automaton, the slow
    way: every residue slice is its own counter product, analysed by the
    public ``approximate_index``, ``classify`` and
    ``polynomial_index_general``, and each component's residues are read
    off an explicit search of the counter product."""
    cls = classify(dfa)
    gr = approximate_index(dfa, delta)
    dec = successor_list_scc(dfa)
    if not dec.nontrivial:
        finite = ResidueAsymptotics(0, Fraction(0), Fraction(0), 0)
        return GrowthReport(cls, gr, 0, 1, (finite,), "NonOscillating", delta)
    pd = polynomial_index_general(dfa, delta)
    periods = {c: imprimitivity(dfa, dec.components[c]) for c in dec.nontrivial}
    rho = lcm(*periods.values())
    reachable = _counter_reach(dfa, rho, (dfa.initial, 0))
    residues = {
        c: {
            j
            for q, i in reachable
            if q in dec.components[c]
            for t, j in _counter_reach(dfa, rho, (q, i))
            if t in dfa.accepting
        }
        for c in dec.nontrivial
    }
    intervals = {
        c: _tight_component_interval(dfa, dec.components[c], delta) for c in dec.nontrivial
    }
    important = []
    for c in dec.nontrivial:
        higher = set()
        for d in dec.nontrivial:
            if d != c and intervals[d][0] > intervals[c][1]:
                higher |= residues[d]
        if residues[c] - higher:
            important.append(c)
    r = lcm(*(periods[c] for c in important)) if important else 1
    per_residue = []
    for j in range(r):
        piece = counter_slice(dfa, r, j)
        if piece.state_count == 0:
            per_residue.append(ResidueAsymptotics(j, Fraction(0), Fraction(0), 0))
            continue
        alpha = approximate_index(piece, delta)
        finite = classify(piece).tag == "Finite"
        m = 0 if finite else polynomial_index_general(piece, delta)
        per_residue.append(ResidueAsymptotics(j, alpha.lo, alpha.hi, m))
    report = GrowthReport(cls, gr, pd, r, tuple(per_residue), "Indeterminate", delta)
    return GrowthReport(
        cls, gr, pd, r, tuple(per_residue), oscillation_type(report), delta
    )


def per_component_product_profile(dfa, delta: Fraction) -> tuple:
    """``asymptotic_profile`` of a trimmed automaton with a cycle, the
    library's earlier way, in which every nontrivial component of the
    counter product is certified on its own (one stream per distinct
    local graph of each graph, none shared between the automaton and
    the product) and none reuses the intervals of the automaton component it lies
    over: the report, and the product's ``rates`` and ``tight``, each
    component's two intervals keyed by its id."""
    periods: dict = {}
    graph = transition_graph(dfa)
    dec, rates, tight = _analyse(graph, delta, periods)
    cls = _classify(graph, dec, dfa.initial)
    gr = _rate(rates.values())
    pd = _polynomial_index(dec, tight, dec.component_of[dfa.initial])
    rho = lcm(*periods.values())
    tail = tails(dfa, rho)
    masks = _residue_sets(dfa, dec, rho, tail)
    important = []
    for c in rates:
        higher = 0
        for d in rates:
            if d != c and tight[d].lo > tight[c].hi:
                higher |= masks[d]
        if masks[c] & ~higher:
            important.append(c)
    r = lcm(*(periods[c] for c in important)) if important else 1
    product = _CounterProduct(dfa, r)
    pdec, prates, ptight = _analyse(product.graph, delta)
    slices = _product_slices([_fold(t, rho, r) for t in tail], product, pdec)
    start = pdec.component_of[0]
    per_residue = []
    for j in range(r):
        inside = [cid for cid, bits in slices.items() if bits >> j & 1]
        m = _polynomial_index(pdec, {c: ptight[c] for c in inside}, start) if inside else 0
        alpha = _rate(prates[c] for c in inside)
        per_residue.append(ResidueAsymptotics(j, alpha.lo, alpha.hi, m))
    report = GrowthReport(cls, gr, pd, r, tuple(per_residue), "Indeterminate", delta)
    tag = oscillation_type(report)
    return GrowthReport(cls, gr, pd, r, tuple(per_residue), tag, delta), prates, ptight


def trimmed_slice_rows(dfa, r: int, delta: Fraction) -> tuple:
    """The per-residue rows of a profile with residue count r, the
    library's earlier way: each slice's automaton trimmed out of the
    counter product (``counter_slice``), decomposed and analysed on its
    own, with one certificate stream per distinct local graph of each
    slice and none shared between slices."""
    per_residue = []
    for j in range(r):
        piece = counter_slice(dfa, r, j)
        if piece.state_count == 0:
            per_residue.append(ResidueAsymptotics(j, Fraction(0), Fraction(0), 0))
            continue
        dec, rates, tight = _analyse(transition_graph(piece), delta)
        alpha = _rate(rates.values())
        m = _polynomial_index(dec, tight, dec.component_of[0]) if tight else 0
        per_residue.append(ResidueAsymptotics(j, alpha.lo, alpha.hi, m))
    return tuple(per_residue)


# ---------------------------------------------------------------------------
# certified index engine
#
# The library's engine compares row ratios by cross-multiplication and
# takes its float product from ``np.bincount``.  These are the earlier
# versions, kept as the reference.  ``component_interval`` is the earlier
# engine, one run per width, before it became a stream of certificates;
# ``python_int_certificates`` is that stream before its exact products ran
# on numpy.


def dict_component_rows(adjacency, comp):
    """A component's local rows read off a list of dicts: members
    numbered in increasing order, each row's (target, weight) pairs in
    target order; None for a single vertex without a loop."""
    if len(comp) == 1:
        q = next(iter(comp))
        w = adjacency[q].get(q)
        if w is None:
            return None
        return [[(0, w)]]
    members = set(comp)
    local = {q: i for i, q in enumerate(sorted(members))}
    rows = [[] for _ in range(len(comp))]
    for q in sorted(members):
        for t in sorted(adjacency[q]):
            if t in members:
                rows[local[q]].append((local[t], adjacency[q][t]))
    return rows


def list_extreme_ratios(sums, v):
    """Exact min/max of sums[i] / v[i] over positive ints, given as two
    lists: one pass, pairs compared by cross-multiplication."""
    lo_s, lo_v, hi_s, hi_v = 1, 0, 0, 1  # 1/0 above every ratio, 0/1 below
    for s, vi in zip(sums, v):
        if s * lo_v < lo_s * vi:
            lo_s, lo_v = s, vi
        if s * hi_v > hi_s * vi:
            hi_s, hi_v = s, vi
    return Fraction(lo_s, lo_v), Fraction(hi_s, hi_v)


def exact_bounds(rows, v):
    """Exact min/max of (Av)_i / v_i for a positive integer vector v, in
    Python ints.

    ``rows[i]`` lists (j, weight) pairs.  Every row is nonempty inside a
    nontrivial strongly connected component, which keeps lo >= 0 finite.
    """
    return list_extreme_ratios([sum([w * v[j] for j, w in row]) for row in rows], v)


def fraction_exact_bounds(rows, v):
    """Exact min/max of (Av)_i / v_i, one ``Fraction`` per row."""
    lo = hi = None
    for i, row in enumerate(rows):
        s = 0
        for j, w in row:
            s += w * v[j]
        r = Fraction(s, v[i])
        if lo is None or r < lo:
            lo = r
        if hi is None or r > hi:
            hi = r
    return lo, hi


def digraph_rows(graph) -> list:
    """Each vertex's (target, weight) pairs of a ``WeightedDigraph``, in
    target order."""
    pairs = list(zip(graph.indices.tolist(), graph.weights.tolist()))
    ptr = graph.indptr.tolist()
    return [pairs[a:b] for a, b in zip(ptr, ptr[1:])]


def row_list_certificates(comp) -> list:
    """The engine's first two certificates of a component's local graph,
    read over ``digraph_rows``: the all-ones one, then the float vector's,
    intersected with it."""
    rows = digraph_rows(comp)
    lo, hi = fraction_exact_bounds(rows, [1] * len(rows))
    a, b = fraction_exact_bounds(rows, _integer_vector(_float_vector(comp)).tolist())
    return [IndexInterval(lo, hi), IndexInterval(max(lo, a), min(hi, b))]


def row_sum_float_vector(rows, n, max_iters):
    """Floating-point power iteration with (A+I), its product a plain
    float sum of each row's terms in index order; a gap that is not
    finite stops it, as a stall does."""

    def product(v):
        out = np.zeros(n)
        for i, row in enumerate(rows):
            s = 0.0
            for j, w in row:
                s += float(w) * v[j]
            out[i] = s
        return out

    v = np.ones(n)
    prev_gap = None
    for it in range(max_iters):
        v = product(v) + v
        m = v.max()
        if not np.isfinite(m) or m <= 0:
            return None
        v /= m
        if it % 32 == 31:
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios = product(v) / v
            gap = float(ratios.max() - ratios.min())
            if gap < 1e-14:
                break
            if not np.isfinite(gap) or (prev_gap is not None and gap >= prev_gap * 0.999):
                break
            prev_gap = gap
    return v


def python_int_certificates(comp):
    """The engine's certificate stream of a component's local graph, with
    every exact product a loop over ``digraph_rows`` in Python ints: the
    all-ones certificate, the float vector's, then every 16th step of the
    exact continuation v <- (A+I)v, each intersected with those before.
    The engine still runs this continuation on components of period 1;
    on the others it now iterates A over whole periods."""
    rows = digraph_rows(comp)
    lo, hi = exact_bounds(rows, [1] * len(rows))
    yield IndexInterval(lo, hi)
    v = _integer_vector(_float_vector(comp)).tolist()
    a, b = exact_bounds(rows, v)
    lo, hi = max(lo, a), min(hi, b)
    yield IndexInterval(lo, hi)

    prec = 96
    prev_gap = hi - lo
    stall = 0
    for step in range(1, 2_000_001):
        new = []
        for i, row in enumerate(rows):
            s = v[i]
            for j, w in row:
                s += w * v[j]
            new.append(s)
        v = new
        top = max(v).bit_length()
        if top > prec:
            shift = top - prec
            v = [max(1, x >> shift) for x in v]
        if step % 16 == 0:
            a, b = exact_bounds(rows, v)
            lo, hi = max(lo, a), min(hi, b)
            yield IndexInterval(lo, hi)
            gap = hi - lo
            if gap > prev_gap * Fraction(49, 50):
                stall += 1
                if stall >= 3:
                    prec *= 2
                    stall = 0
            else:
                stall = 0
            prev_gap = gap
    raise RuntimeError("index iteration failed to converge")


def component_interval(comp, delta: Fraction):
    """Certified index interval of one nontrivial strongly connected
    component, width at most 2*delta.

    ``comp`` is the component's local graph (every row nonempty, so the
    lower bound from all-ones is already >= 1, and exact for a single
    state's loops).  Strategy: float acceleration, integerize, certify
    exactly; if the certified gap is still too wide, continue the
    iteration in exact integer arithmetic with renormalization at
    doubling precision.  Successive certificates are intersected, which
    only ever tightens the answer.
    """
    rows = digraph_rows(comp)
    best_lo, best_hi = exact_bounds(rows, [1] * len(rows))
    if best_hi - best_lo <= 2 * delta:
        return IndexInterval(best_lo, best_hi)

    v = _integer_vector(_float_vector(comp)).tolist()
    lo, hi = exact_bounds(rows, v)
    best_lo = max(best_lo, lo)
    best_hi = min(best_hi, hi)
    if best_hi - best_lo <= 2 * delta:
        return IndexInterval(best_lo, best_hi)

    # Exact continuation: v <- (A+I)v over the integers, renormalized by
    # right shift so entries stay near `prec` bits.  Flooring keeps every
    # entry >= 1, so each checkpoint is still a valid certificate; if
    # truncation noise stalls progress, precision doubles.
    prec = 96
    check_every = 16
    prev_gap = best_hi - best_lo
    stall = 0
    for step in range(1, 2_000_001):
        new = []
        for i, row in enumerate(rows):
            s = v[i]
            for j, w in row:
                s += w * v[j]
            new.append(s)
        v = new
        top = max(v).bit_length()
        if top > prec:
            shift = top - prec
            v = [max(1, x >> shift) for x in v]
        if step % check_every == 0:
            lo, hi = exact_bounds(rows, v)
            best_lo = max(best_lo, lo)
            best_hi = min(best_hi, hi)
            gap = best_hi - best_lo
            if gap <= 2 * delta:
                return IndexInterval(best_lo, best_hi)
            if gap > prev_gap * Fraction(49, 50):
                stall += 1
                if stall >= 3:
                    prec *= 2
                    stall = 0
            else:
                stall = 0
            prev_gap = gap
    raise RuntimeError("index iteration failed to converge")


# ---------------------------------------------------------------------------
# failure-link tries, by chain walks
#
# The library builds the symmetry quotient, the forbidden-prefix automaton
# and the antifactorial check from one trie with a breadth-first move table
# (``fad.FailureTrie``).  These are the earlier builders that walk the
# failure chain for every move, kept as the reference.

_FRESH = -1


class _QuotientTrie:
    """Trie of letter-canonical forbidden words with relabeling-aware
    failure links.

    A full forbidden-prefix automaton is stable under letter
    permutations; its orbits are the canonical prefixes stored here.
    ``fsig[u]`` translates the letters of u's word into the frame of
    ``fail[u]``'s word (the canonical form of the longest proper suffix
    that is again a canonical prefix); letters that do not survive into
    the suffix map to the fresh marker.  Following a failure chain while
    composing these translations replays exactly what the full automaton
    does on every member of the orbit at once.
    """

    __slots__ = ("children", "terminal", "nletters", "fail", "fsig", "order")

    def __init__(self, words):
        self.children: list[dict] = [dict()]
        self.terminal: list[bool] = [False]
        self.nletters: list[int] = [0]
        self.fail: list[int] = [0]
        self.fsig: list[tuple] = [()]
        for w in words:
            self._insert(w)
        self.order = self._link()

    def _insert(self, word: tuple) -> None:
        node = 0
        for x in word:
            nl = self.nletters[node]
            if x > nl:
                raise ValueError("word is not letter-canonical")
            nxt = self.children[node].get(x)
            if nxt is None:
                nxt = len(self.children)
                self.children.append(dict())
                self.terminal.append(False)
                self.nletters.append(nl + 1 if x == nl else nl)
                self.fail.append(0)
                self.fsig.append(())
                self.children[node][x] = nxt
            node = nxt
        self.terminal[node] = True

    def _link(self) -> list:
        order = [0]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for x in sorted(self.children[u]):
                c = self.children[u][x]
                if not self.terminal[c]:
                    order.append(c)
                if u == 0:
                    self.fail[c] = 0
                    self.fsig[c] = (_FRESH,) * self.nletters[c]
                    continue
                # fail(ux) = goto(fail(u), x), carrying u's letters (and
                # a fresh x) into the frame of the target
                tr = list(self.fsig[u])
                if x == self.nletters[u]:
                    tr.append(_FRESH)
                t = self.goto(self.fail[u], tr[x], tr, x)
                if t is None:
                    raise AssertionError(
                        "failure chain hit a forbidden word; input set "
                        "was not antifactorial"
                    )
                self.fail[c] = t
                self.fsig[c] = tuple(tr)
        return order

    def goto(self, nd: int, y: int, tr=None, r: int = 0):
        """Target of reading y at node nd, or None when the move is
        forbidden.  y is a letter of nd's frame, or _FRESH for a letter
        outside it.

        When ``tr`` is given, it lists letters of nd's frame (or _FRESH)
        with ``tr[r] == y``, and is rewritten in place into the target's
        frame: entries composed through ``fsig`` along the failure chain,
        the read letter set to its name in the target.
        """
        while True:
            key = y if y != _FRESH else self.nletters[nd]
            t = self.children[nd].get(key)
            if t is not None:
                if self.terminal[t]:
                    return None
                if tr is not None:
                    tr[r] = key
                return t
            if nd == 0:
                return 0
            sig = self.fsig[nd]
            y = sig[y] if y != _FRESH else _FRESH
            if tr is not None:
                tr[:] = [sig[v] if v != _FRESH else _FRESH for v in tr]
            nd = self.fail[nd]


# The library's failure-link trie before it moved to numpy: one Python
# construction for both frames, inserting word by word and linking node by
# node, breadth first.  Its node ids are insertion order.

Word = tuple


class BreadthFirstTrie:
    """Trie of forbidden words with failure links and a goto table: the
    automaton of the language avoiding the words.

    Node u reads through a frame of slots.  In the identity frame each
    slot is its letter.  In the letter-canonical frame (``canonical``),
    for orbit representatives under letter permutation, slot i below
    ``nletters[u]`` is the i-th letter, from 0, to occur in u's word, and
    slot ``nletters[u]``, when below k, is the fresh slot for every
    unused letter.  ``fsig[u]`` names u's slots in the frame of
    ``fail[u]``, the longest proper suffix of u's word that is a node,
    with ``FRESH`` for a letter that does not occur there; composing
    these along a failure chain replays the full automaton on a whole
    orbit at once.

    Storage is flat, k entries per node: entry u*k + y of ``children``,
    ``fsig`` and ``delta`` belongs to slot y of u.  ``delta`` is filled
    once, breadth first (Aho & Corasick, CACM 1975): delta(u, y) is u's
    child on y, else the root at the root, else delta(fail(u),
    fsig[u][y]), FRESH going to fail(u)'s fresh slot.  A forbidden word t
    is stored as ~t, so negative entries are forbidden moves.  ``states``
    lists the other nodes breadth first, children by slot: automaton
    state q is node ``states[q]``, and ``state_of`` maps back (-1 for
    forbidden words).

    A letter-canonical set must be antifactorial.  An identity-frame set
    need not be: its failure links stay exact, which is what
    ``Antidictionary`` checks.
    """

    FRESH = -1

    __slots__ = (
        "k", "children", "terminal", "nletters", "fsig", "fail", "delta",
        "states", "state_of",
    )

    def __init__(self, k: int, words: Iterable[Word], canonical: bool = False):
        self.k = k
        self.children = array("i", [-1]) * k
        self.terminal = bytearray(1)
        self.nletters = array("i", [0 if canonical else k])
        self._insert(words)
        n = len(self.terminal)
        row = [self.FRESH] * k if canonical else range(k)
        self.fsig = array("i", row) * n
        self._link(canonical)

    def _insert(self, words: Iterable[Word]) -> None:
        k, children, terminal, nletters = self.k, self.children, self.terminal, self.nletters
        blank = array("i", [-1]) * k
        for word in words:
            node = 0
            for x in word:
                nl = nletters[node]
                if x > nl or not 0 <= x < k:
                    raise ValueError(f"{word_to_str(word)} does not fit the trie's frame")
                i = node * k + x
                nxt = children[i]
                if nxt < 0:
                    nxt = children[i] = len(terminal)
                    children += blank
                    terminal.append(0)
                    nletters.append(nl + 1 if x == nl else nl)
                node = nxt
            terminal[node] = 1

    def _link(self, canonical: bool) -> None:
        k, children, terminal, nletters, fsig = (
            self.k, self.children, self.terminal, self.nletters, self.fsig
        )
        FRESH = self.FRESH
        n = len(terminal)
        fail = self.fail = array("i", [0]) * n
        delta = self.delta = array("i", [0]) * (n * k)
        states = self.states = array("i", [0])
        for u in states:
            base = u * k
            nl = nletters[u]
            f = fail[u]
            fbase = f * k
            fresh = nletters[f]
            for y in range(nl + 1 if nl < k else k):
                if u:
                    slot = fsig[base + y]
                    if slot == FRESH:
                        slot = fresh
                    t = delta[fbase + slot]
                else:
                    t = 0
                c = children[base + y]
                if c < 0:
                    delta[base + y] = t
                    continue
                # the child's failure link is where u's failure link reads y
                if t < 0:
                    if canonical:
                        raise AssertionError(
                            "failure chain hit a forbidden word; input set "
                            "was not antifactorial"
                        )
                    t = ~t
                fail[c] = t
                if terminal[c]:
                    delta[base + y] = ~c
                    continue
                delta[base + y] = c
                states.append(c)
                if not canonical or not u:
                    continue
                cbase = c * k
                if children[fbase + slot] >= 0:
                    # the link is f's child: u's names carry over to it
                    fsig[cbase:cbase + k] = fsig[base:base + k]
                    fsig[cbase + y] = slot
                else:
                    tr = fsig[base:base + nl].tolist()
                    if y == nl:
                        tr.append(FRESH)
                    self.goto(f, tr, y)
                    fsig[cbase:cbase + len(tr)] = array("i", tr)
        self.state_of = array("i", [-1]) * n
        for q, u in enumerate(states):
            self.state_of[u] = q

    def goto(self, node: int, tr: list, r: int) -> Optional[int]:
        """Read slot ``tr[r]`` at ``node`` along the failure chain, and
        return the target, or None when the move is forbidden.

        ``tr`` lists slots of node's frame, or FRESH, and is rewritten
        in place into the target's frame: entries composed through
        ``fsig`` along the chain, the read letter set to its name in the
        target.  ``delta`` gives the same targets, without the
        translation.
        """
        k, children, nletters, fsig = self.k, self.children, self.nletters, self.fsig
        FRESH = self.FRESH
        while True:
            y = tr[r]
            slot = nletters[node] if y == FRESH else y
            t = children[node * k + slot]
            if t >= 0:
                if self.terminal[t]:
                    return None
                tr[r] = slot
                return t
            if node == 0:
                return 0
            base = node * k
            tr[:] = [v if v == FRESH else fsig[base + v] for v in tr]
            node = self.fail[node]


def breadth_first_tables(trie, k: int) -> dict:
    """A ``BreadthFirstTrie``'s tables, as lists, with its nodes renumbered
    in breadth-first order, children by slot, forbidden words included.
    ``fsig`` is kept on the other nodes only: a forbidden word's row is
    never read."""
    order = [0]
    for u in order:
        order.extend(c for c in trie.children[u * k:u * k + k] if c >= 0)
    new = {old: i for i, old in enumerate(order)}

    def renumber(t):
        return new[t] if t >= 0 else ~new[~t]

    tables = {name: [] for name in ("children", "fsig", "delta")}
    for u in order:
        row = slice(u * k, u * k + k)
        tables["children"] += [renumber(c) for c in trie.children[row]]
        tables["delta"] += [renumber(t) for t in trie.delta[row]]
        if not trie.terminal[u]:
            tables["fsig"] += trie.fsig[row].tolist()
    tables["terminal"] = [trie.terminal[u] for u in order]
    tables["nletters"] = [trie.nletters[u] for u in order]
    tables["fail"] = [new[trie.fail[u]] for u in order]
    tables["states"] = [new[u] for u in trie.states]
    tables["state_of"] = [trie.state_of[u] for u in order]
    return tables


def goto_loop_quotient_graph(k: int, canonical_words):
    """The letter-canonical ``BreadthFirstTrie`` and the quotient's adjacency
    as one dict per state, read state by state off the goto table:
    weight 1 for an existing-letter move, the number of unused letters
    for the fresh-letter move, summed over moves to one target."""
    trie = BreadthFirstTrie(k, canonical_words, canonical=True)
    delta, state_of, nletters = trie.delta, trie.state_of, trie.nletters
    adjacency: list[dict] = []
    for u in trie.states:
        nl = nletters[u]
        base = u * k
        row = {}
        for x in range(min(nl + 1, k)):
            t = delta[base + x]
            if t < 0:
                continue
            tq = state_of[t]
            row[tq] = row.get(tq, 0) + (1 if x < nl else k - nl)
        adjacency.append(row)
    return trie, adjacency


def goto_move_voltages(trie, k: int) -> list:
    """For each state of a letter-canonical ``BreadthFirstTrie`` and each
    slot it reads (its letters, then its fresh slot while below k), the
    target state and the translation that ``goto`` leaves in ``tr``, the
    state's slots named in the target's frame, padded with FRESH to
    length k; None for a forbidden move."""
    out = []
    for u in trie.states:
        nl = trie.nletters[u]
        row = []
        for x in range(min(nl + 1, k)):
            tr = list(range(nl)) if x < nl else [*range(nl), _FRESH]
            t = trie.goto(u, tr, x)
            row.append(None if t is None else (trie.state_of[t], tr + [_FRESH] * (k - len(tr))))
        out.append(row)
    return out


def goto_lifted_components(trie, k: int, comp) -> int:
    """The library's earlier lift: the number of cycle-carrying
    components of the full automaton over the quotient component
    ``comp`` (state ids), with every move's letter permutation read off
    a ``goto`` walk on the letter-canonical ``BreadthFirstTrie``.  The
    count is [S_k : K], K generated by the permutations around the
    component's cycles and by its states' stabilizers, as proved in
    ``powerfree._lifted_components``."""
    members = {trie.states[q] for q in comp}
    nletters = trie.nletters
    u0 = min(members, key=nletters.__getitem__)
    identity = tuple(range(k))
    iota = identity[: nletters[u0]]
    fibre = math.perm(k, len(iota))
    orbit = {iota}
    gens: set = set()

    def generate(g: tuple) -> None:
        if g in gens:
            return
        gens.add(g)
        todo = [tuple(g[a] for a in p) for p in orbit]
        while todo:
            p = todo.pop()
            if p in orbit:
                continue
            orbit.add(p)
            todo.extend(tuple(h[a] for a in p) for h in gens)

    transport = {u0: identity}
    queue = [u0]
    for u in queue:
        if len(orbit) == fibre:
            return 1
        tu = transport[u]
        nl = nletters[u]
        for i in range(nl, k - 1):
            # conjugating the transposition (i i+1) by T_u
            g = list(identity)
            g[tu[i]], g[tu[i + 1]] = tu[i + 1], tu[i]
            generate(tuple(g))
        for x in range(min(nl + 1, k)):
            tr = list(range(nl)) if x < nl else [*range(nl), _FRESH]
            t = trie.goto(u, tr, x)
            if t not in members:
                continue
            # pi sends each target letter to the source slot it came from;
            # letters outside the target frame take the unused slots in order
            pi = [_FRESH] * k
            for i, j in enumerate(tr):
                if j != _FRESH:
                    pi[j] = i
            spare = iter([i for i in range(k) if i not in pi])
            moved = tuple(tu[i if i != _FRESH else next(spare)] for i in pi)
            tt = transport.get(t)
            if tt is None:
                transport[t] = moved
                queue.append(t)
            else:
                # moved o tt^-1
                g = [0] * k
                for j in range(k):
                    g[tt[j]] = moved[j]
                generate(tuple(g))
    return fibre // len(orbit)


def chain_walk_quotient_graph(k: int, canonical_words):
    """The quotient trie and the weighted adjacency of the
    letter-permutation quotient of the forbidden-prefix automaton.

    State q is trie node ``trie.order[q]``; state 0 is the root.  An
    existing-letter move has weight 1, the fresh-letter move carries the
    number of unused concrete letters.
    Weighted walk counts from the root equal the word counts of the full
    language, so index and polynomial structure are preserved.
    """
    trie = _QuotientTrie(canonical_words)
    state_of = {node: i for i, node in enumerate(trie.order)}
    adjacency: list[dict] = [dict() for _ in trie.order]
    for node, q in state_of.items():
        nl = trie.nletters[node]
        for x in range(min(nl + 1, k)):
            t = trie.goto(node, x if x < nl else _FRESH)
            if t is None:
                continue
            weight = 1 if x < nl else k - nl
            tq = state_of[t]
            adjacency[q][tq] = adjacency[q].get(tq, 0) + weight
    return trie, adjacency


class _Trie:
    """Word trie with failure links; shared by validation and automata."""

    __slots__ = ("children", "terminal", "fail", "term_link")

    def __init__(self):
        self.children: list[dict] = [dict()]
        self.terminal: list[bool] = [False]
        self.fail: list[int] = [0]
        self.term_link: list[int] = [-1]

    def insert(self, word: tuple) -> None:
        node = 0
        for x in word:
            nxt = self.children[node].get(x)
            if nxt is None:
                nxt = len(self.children)
                self.children.append(dict())
                self.terminal.append(False)
                self.fail.append(0)
                self.term_link.append(-1)
                self.children[node][x] = nxt
            node = nxt
        self.terminal[node] = True

    def build_links(self) -> list:
        """Breadth-first failure and nearest-terminal links; returns the
        BFS order."""
        order = [0]
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for x in sorted(self.children[u]):
                v = self.children[u][x]
                if u == 0:
                    f = 0
                else:
                    f = self.fail[u]
                    while f and x not in self.children[f]:
                        f = self.fail[f]
                    f = self.children[f].get(x, 0)
                self.fail[v] = f
                self.term_link[v] = f if self.terminal[f] else self.term_link[f]
                order.append(v)
        return order

    def scan_step(self, node: int, x: int) -> int:
        while node and x not in self.children[node]:
            node = self.fail[node]
        return self.children[node].get(x, 0)


def trie_check_antifactorial(normalized) -> None:
    """``Antidictionary``'s antifactorial check on its sorted, deduplicated
    word list: raises ValueError naming the first word that contains
    another."""
    words = [w for w in normalized if w]
    if not words:
        return
    trie = _Trie()
    terminal_of = {}
    for w in words:
        trie.insert(w)
    for w in words:
        node = 0
        for x in w:
            node = trie.children[node][x]
        terminal_of[w] = node
    trie.build_links()
    for w in words:
        node = 0
        for i, x in enumerate(w):
            node = trie.scan_step(node, x)
            hit = node if trie.terminal[node] else trie.term_link[node]
            if i == len(w) - 1 and hit == terminal_of[w]:
                # w's own match is fine; a shorter suffix match is not
                hit = trie.term_link[hit]
            if hit != -1:
                raise ValueError(
                    f"not antifactorial: a forbidden word occurs inside {word_to_str(w)}"
                )


def trie_fad_automaton(ad) -> Dfa:
    """Automaton of the factorial language avoiding ``ad``.

    States are the proper prefixes of the forbidden words; reading a
    letter follows the trie when possible and otherwise the longest
    matching suffix.  A move whose longest matching suffix is a
    forbidden word is dropped, so the automaton is partial.  All states
    accept.
    """
    k = ad.alphabet_size
    if () in ad.words:
        return empty_dfa(k)
    trie = _Trie()
    for w in ad.words:
        trie.insert(w)
    order = trie.build_links()
    state_of = {}
    for node in order:
        if not trie.terminal[node]:
            state_of[node] = len(state_of)
    n = len(state_of)
    rows: list[dict] = [dict() for _ in range(n)]
    for node, q in state_of.items():
        for x in range(k):
            t = trie.scan_step(node, x)
            if not trie.terminal[t]:
                rows[q][x] = state_of[t]
    return trim(dict_dfa(k, rows, 0, range(n)))


# ---------------------------------------------------------------------------
# the analytic lower bound


def fraction_lower_bound(upper_lo, m: int) -> Fraction:
    """``powerfree.lower_bound`` with f evaluated in ``Fraction``
    arithmetic, as the library did before it compared unreduced integer
    fractions."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    g_target = _as_fraction(upper_lo)
    grid = 10**15
    target = Fraction((g_target.numerator * grid) // g_target.denominator, grid)
    if target <= 1:
        raise NoLowerBoundError("upper bound does not exceed 1")

    def f(g: Fraction) -> Fraction:
        return g + Fraction(1, 1) / (g ** (m - 1) * (g - 1))

    lo = 1 + (target - 1) / (1 << 20)
    hi = target
    for _ in range(80):
        if hi - lo <= Fraction(1, 10**10):
            break
        mid = (lo + hi) / 2
        quarter = (mid + hi) / 2
        if f(mid) <= f(quarter):
            hi = quarter
        else:
            lo = mid
    candidates = [lo, (lo + hi) / 2, hi]
    feasible = None
    for g in candidates:
        if 1 < g <= target and f(g) <= target:
            feasible = g
    if feasible is None:
        raise NoLowerBoundError(
            "no solution: the penalty term exceeds the upper bound everywhere"
        )
    left, right = feasible, target
    while right - left > Fraction(1, 10**12):
        mid = (left + right) / 2
        if f(mid) <= target:
            left = mid
        else:
            right = mid
    return left
