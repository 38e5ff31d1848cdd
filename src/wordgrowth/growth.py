"""Growth analysis: complexity classes, certified rate intervals,
polynomial indices, per-residue asymptotics.

The numeric core is an interval engine for the index (spectral radius)
of a nonnegative integer matrix.  It rests on one fact: for any strictly
positive vector v,

    min_i (Av)_i / v_i  <=  index(A)  <=  max_i (Av)_i / v_i.

Any positive v gives rigorous two-sided bounds; a good v makes them
tight.  A numpy-only float pass finds a good vector fast, one component
at a time, and the engine evaluates the bounds exactly over integers, so
the emitted interval is a certificate regardless of how the vector was
produced.  On a strongly connected component of period 1 the iteration
v <- (A+I)v tightens the bounds to any requested width.  A component of
period p > 1 has p eigenvalues of the largest modulus, which A+I damps
by at best cos(pi/p) per step; there the engine iterates A, scaled by an
estimate of the index, and certifies the sum of the last p vectors, over
which those eigenvalues' parts cancel.  The engine yields a stream of
nested certificates per component; no step depends on the width wanted,
so a caller reads up to the first certificate narrow enough, and reads
two widths from one stream, within a budget of ``CONTINUATION_STEPS``
exact steps.  Its exact products run in int64 while they fit, else on
object-dtype arrays of Python ints.

The components come from ``automaton.graph_scc``, one pass of Tarjan's
algorithm, which gives every component in topological order, as a
growth profile needs.  The power-free bounds want only the
cycle-carrying ones, in any order, and take them from
``cyclic_components``: it trims the graph on numpy and confirms, by
two breadth-first searches, that the core left is one component, as it
is on the power-free quotients; any other core goes to ``graph_scc``.
A profile decomposes two graphs: the automaton's, and the automaton
times a length counter mod r, numbered breadth first.  Every residue
slice is read off the product's one decomposition, since each product
component lies wholly inside or wholly outside a slice.  Local graphs,
periods and the walk lengths mod r behind the residue masks come from
the graph layer, ``automaton``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import lcm
from typing import NamedTuple, Optional, Sequence

import numpy as np

from wordgrowth.automaton import (
    Dfa,
    SccDecomposition,
    WeightedDigraph,
    component_graphs,
    edge_components,
    graph_period,
    graph_scc,
    length_masks,
    path_intersection_bound,
    reverse_edges,
    rotate,
    row_entries,
    transition_edges,
    transition_graph,
)

__all__ = [
    "ComplexityClass",
    "GrowthReport",
    "IndexBudgetError",
    "IndexInterval",
    "ProfileSizeError",
    "WeightedDigraph",
    "approximate_index",
    "asymptotic_profile",
    "classify",
    "count_words",
    "cyclic_components",
    "decimal_lower",
    "decimal_upper",
    "digraph_index",
    "oscillation_type",
    "polynomial_index_general",
]


class IndexInterval(NamedTuple):
    """Certified enclosure of a matrix index; lo <= index <= hi."""

    lo: Fraction
    hi: Fraction

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


@dataclass(frozen=True)
class ComplexityClass:
    """Growth class of a language: Finite, Polynomial (with the degree
    of the dominating polynomial), or Exponential."""

    tag: str
    degree: Optional[int] = None

    def __str__(self):
        if self.tag == "Polynomial":
            return f"Polynomial(degree={self.degree})"
        return self.tag


def _as_fraction(delta) -> Fraction:
    if isinstance(delta, float):
        return Fraction(*delta.as_integer_ratio())
    return Fraction(delta)


# ---------------------------------------------------------------------------
# cycle-carrying strong components


def _distinct(vertices, slot):
    """``vertices`` without repeats, in linear time with no sort: each
    position writes itself to its vertex's entry of ``slot``, an array
    over every vertex, and one write per vertex survives."""
    position = np.arange(len(vertices))
    slot[vertices] = position
    return vertices[slot[vertices] == position]


def _neighbours(csr, vertices):
    """The targets, with repeats, of ``vertices``' rows of ``csr``, an
    (indptr, indices) pair, as intp: the searches index with them, and
    numpy indexes by int32 arrays, such as a narrow quotient's, slower."""
    return csr[1][row_entries(csr[0], vertices)[0]].astype(np.intp, copy=False)


def _predecessors(graph: WeightedDigraph) -> tuple:
    """``graph`` reversed, as an (indptr, indices) pair."""
    n = len(graph)
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(graph.indices, minlength=n), out=ptr[1:])
    source = np.repeat(np.arange(n), np.diff(graph.indptr))
    return ptr, source[np.argsort(graph.indices, kind="stable")]


def _trimmed_core(graph: WeightedDigraph, pred: tuple):
    """The vertices that a cycle reaches and that reach a cycle, in
    increasing order: those left once every vertex with no live
    predecessor or no live successor is peeled, ``pred`` being
    ``_predecessors(graph)``.  A round reads only the peeled edges."""
    alive = np.ones(len(graph), dtype=bool)
    live_in, live_out = np.diff(pred[0]), np.diff(graph.indptr)
    slot = np.empty(len(graph), dtype=np.int64)
    dead = np.flatnonzero((live_in == 0) | (live_out == 0))
    while len(dead):
        alive[dead] = False
        into = _neighbours((graph.indptr, graph.indices), dead)
        into = into[alive[into]]
        np.subtract.at(live_in, into, 1)
        out_of = _neighbours(pred, dead)
        out_of = out_of[alive[out_of]]
        np.subtract.at(live_out, out_of, 1)
        exposed = np.concatenate([into, out_of])
        dead = _distinct(exposed[(live_in[exposed] == 0) | (live_out[exposed] == 0)], slot)
    return np.flatnonzero(alive)


def _reaches_core(csr, core) -> bool:
    """Whether ``core[0]`` reaches all of ``core`` along ``csr`` inside
    ``core``, by breadth-first search with a seen mask."""
    seen = np.ones(len(csr[0]) - 1, dtype=bool)
    seen[core[1:]] = False
    slot = np.empty(len(seen), dtype=np.int64)
    frontier = core[:1]
    while len(frontier):
        step = _neighbours(csr, frontier)
        frontier = _distinct(step[~seen[step]], slot)
        seen[frontier] = True
    return bool(seen.all())


def cyclic_components(graph: WeightedDigraph) -> list:
    """The strongly connected components of ``graph`` that carry a cycle
    (two vertices or a loop), each as an int64 array of its members, in
    no particular order.

    The graph is trimmed first (``_trimmed_core``, as in McLendon et al.
    2005), and every such component lies inside the core left.  When the
    core's first vertex reaches all of it and all of it reaches that
    vertex, the core is one component, as on every power-free quotient
    tried.  Any other core is decomposed by ``automaton.graph_scc``.
    """
    pred = _predecessors(graph)
    core = _trimmed_core(graph, pred)
    if not len(core):
        return []
    if _reaches_core((graph.indptr, graph.indices), core) and _reaches_core(pred, core):
        return [core]
    dec = graph_scc(next(component_graphs(graph, [core])))
    return [core[dec.members_of(c)] for c in dec.nontrivial.tolist()]


# ---------------------------------------------------------------------------
# certified index engine


# entries of (Av) and v that _extreme_ratios turns into Python ints at a
# time: about 0.3 MB of them, where two whole lists would take 80 bytes
# per entry of the component
RATIO_CHUNK = 4096


def _extreme_ratios(sums, v):
    """Exact min/max of sums[i] / v[i] over positive ints, ``sums`` and
    ``v`` being equally long numpy arrays, int64 or object (Python ints).

    A ratio is kept as the pair (sums[i], v[i]), pairs are compared by
    cross-multiplication, and only the two extremes become
    ``Fraction``s.  Equal ratios give equal ``Fraction``s, so which pair
    wins a tie never shows.  The pairs are read ``RATIO_CHUNK`` at a
    time, each chunk as two lists of Python ints, in order, so that the
    result is that of one pass over two whole lists, without their
    bytes.
    """
    lo_s, lo_v, hi_s, hi_v = 1, 0, 0, 1  # 1/0 above every ratio, 0/1 below: sums are >= 1
    for at in range(0, len(v), RATIO_CHUNK):
        chunk = slice(at, at + RATIO_CHUNK)
        for s, vi in zip(sums[chunk].tolist(), v[chunk].tolist()):
            if s * lo_v < lo_s * vi:
                lo_s, lo_v = s, vi
            if s * hi_v > hi_s * vi:
                hi_s, hi_v = s, vi
    return Fraction(lo_s, lo_v), Fraction(hi_s, hi_v)


def _float_product(row, col, weight, v):
    """(Av)_i in floats for every row i, the rows' entries listed in
    row order with their rows ``row`` and columns ``col``: each row's
    terms added in index order, as a CSR kernel does, by ``np.bincount``.
    Another order moves the vector's last bits, and with them the
    certified intervals.  ``weight`` is None when every weight is 1:
    the terms are then v_j itself, since x * 1.0 is x exactly."""
    terms = v[col] if weight is None else weight * v[col]
    return np.bincount(row, weights=terms, minlength=len(v))


def _float_vector(comp: WeightedDigraph):
    """Floating-point power iteration with (A+I) on ``comp``, a local
    graph: a vector in [0, 1] with max 1.

    Only a convergence accelerator: nothing it returns is trusted
    without the exact pass that follows.  Every 32nd step the gap, the
    spread of the ratios (Av)_i / v_i, is checked, and the pass stops
    when the gap is below 1e-14, narrowed by less than 0.1 % since the
    last check, or is not finite (an entry of v underflowed to 0, which
    only a graph that is not strongly connected allows, and a ratio
    became 0/0 or x/0); else after ``FLOAT_STEPS`` steps.

    No step can fail: A >= 0 gives (A+I)v >= v entrywise, and after each
    division max v = 1, so each max divided by is at least 1, and at
    most one plus the largest row weight sum: finite and positive.
    """
    row = np.repeat(np.arange(len(comp)), np.diff(comp.indptr))
    col = comp.indices
    weight = None if (comp.weights == 1).all() else comp.weights.astype(float)
    v = np.ones(len(comp))
    # the max each step divides by is the ufunc's over this fixed index
    # array, which costs less per call than v.max() or a fresh [0]
    first = np.zeros(1, dtype=np.intp)
    prev_gap = np.inf
    # the ratios' 0/0 and x/0 make the gap not finite, which ends the pass
    with np.errstate(divide="ignore", invalid="ignore"):
        for it in range(FLOAT_STEPS):
            v += _float_product(row, col, weight, v)
            v /= np.maximum.reduceat(v, first)[0]
            if it % 32 < 31:
                continue
            ratios = _float_product(row, col, weight, v) / v
            gap = np.maximum.reduce(ratios) - np.minimum.reduce(ratios)
            if gap < 1e-14 or not np.isfinite(gap) or gap >= prev_gap * 0.999:
                break
            prev_gap = gap
    return v


def _integer_vector(fv):
    """max(1, floor(x * 2^53)) for each entry x of a vector in [0, 1], as
    an int64 array of entries at most 2^53.  Scaling by 2^53 is exact and
    the int64 cast truncates toward zero, as ``int`` does, so this equals
    the per-entry loop."""
    return np.maximum(1, (fv * (1 << 53)).astype(np.int64))


# steps the float pass (_float_vector) takes at most
FLOAT_STEPS = 20_000

# exact continuation steps one certificate stream may take, over every
# width read from it: the cap of the earlier A+I loop, so a component of
# period 1 that certified within that cap still does
CONTINUATION_STEPS = 2_000_000


class IndexBudgetError(RuntimeError):
    """A certificate stream took ``CONTINUATION_STEPS`` steps of its exact
    continuation, and the width asked for was still not reached."""

    def __init__(self, states: int, width: Fraction, steps: int):
        super().__init__(
            f"the certified index of a {states}-state component is still "
            f"{float(width):.3g} wide after {steps} exact iteration steps, "
            f"the budget of one component; ask for a larger delta"
        )
        self.states = states
        self.width = width
        self.steps = steps


def _certificates(comp: WeightedDigraph, period: Optional[int] = None):
    """Certified index intervals of one nontrivial strongly connected
    component, each nested in the one before: a caller takes the first
    one narrow enough, and one stream serves every width.

    ``comp`` is the component's local graph (every row nonempty, so the
    lower bound from all-ones is already >= 1, and exact for a single
    state's loops).  The stream yields the all-ones certificate, the
    float vector's (float acceleration, integerized, certified exactly),
    then the checkpoints of an iteration continued in exact integer
    arithmetic at doubling precision, each intersected with those before.
    The float pass (``_float_vector``) runs only when the stream is read
    past its all-ones certificate.  Past the float certificate the stream
    reads the component's period p (``period`` when the caller has it,
    else ``automaton.graph_period``), and the continuation depends on it:

    - p = 1: v <- (A+I)v, renormalized by right shift so entries stay
      near ``prec`` bits, certified every 16th step.  A+I is primitive
      and contracts the error at every step.
    - p > 1: A has p eigenvalues rho * omega^j of the largest modulus,
      omega a primitive p-th root of unity.  A+I damps the rotating ones
      (j != 0) by at best cos(pi/p) per step, so the iteration runs on
      A itself, v <- max(1, floor((Av) * 2^prec / num)), with num / 2^prec
      the middle of the current interval, an estimate of rho; each
      checkpoint certifies the sum of the last p vectors, over which the
      rotating parts cancel.  The vector is rescaled to ``prec`` bits
      before each period, exactly, by a shift.

    Flooring keeps every entry >= 1, and any positive vector certifies,
    so every checkpoint is valid whatever the estimate of rho: it only
    sets the speed.  When the width narrows by less than 2 % over a
    window of steps, truncation noise is taken to stall progress.  For
    p = 1 the window is one checkpoint, and the precision doubles after
    three such windows in a row.  For p > 1 it is the fewest whole periods
    that span 16 steps and n, the component's size, and the precision
    doubles after one.  Less than n steps would misread a component that
    mixes only through long cycles: an error there travels round a cycle
    unchanged, and the width stays put until it passes the shared states
    (on a 2-cycle and a 200-cycle through one state, for 80 steps).
    Either continuation takes at most ``CONTINUATION_STEPS`` steps, then
    raises IndexBudgetError.

    Every exact product is one ``np.add.reduceat`` of the terms w * v_j
    over the rows.  All-ones gives the least and the largest row weight
    sum.  The float vector's integer entries are at most 2^53, so while
    the largest row weight sum W is below 2^10, every row sum is below
    2^63 and the product runs in int64.  For W >= 2^10, and for the
    continuation, whose precision doubles past 64 bits, it runs on numpy
    arrays of dtype object, whose entries are Python ints: exact at any
    size, with the loop over the entries in C.  Exact integer sums do not
    depend on the order of their terms, so any summation order gives the
    same vector; the float pass, whose rounding does depend on it, keeps
    its own order (see ``_float_product``).  One pass over the
    (s_i, v_i) pairs, which ``_extreme_ratios`` reads off the two arrays
    a chunk at a time, picks the extreme ratios.  ``comp`` holds int64
    arrays, as ``automaton.component_graphs`` gives them: narrower
    weights would wrap in the row sums.
    """
    starts = comp.indptr[:-1]
    row_weight = np.add.reduceat(comp.weights, starts)
    top = int(row_weight.max())
    lo, hi = Fraction(int(row_weight.min())), Fraction(top)
    yield IndexInterval(lo, hi)

    col, weights = comp.indices, comp.weights
    unit = bool((weights == 1).all())

    def av(v):
        """(Av)_i for every row i, exact in v's dtype."""
        return np.add.reduceat(v[col] if unit else v[col] * weights, starts)

    v = _integer_vector(_float_vector(comp))
    if top >= 1 << 10:
        v = v.astype(object)
    a, b = _extreme_ratios(av(v), v)
    lo, hi = max(lo, a), min(hi, b)
    yield IndexInterval(lo, hi)
    v = v.astype(object)

    p = graph_period(comp) if period is None else period
    every = 16 if p == 1 else p
    # a stall is judged over a window of at least 16 steps and, for p > 1, at least n
    window, patience = (1, 3) if p == 1 else (-(-max(16, len(comp)) // p), 1)
    prec = 96
    prev_gap = hi - lo
    stall = 0
    for checkpoint in range(1, CONTINUATION_STEPS // every + 1):
        if p == 1:
            # 16 steps of A+I, renormalized by right shift
            for _ in range(16):
                v = av(v) + v
                top = v.max().bit_length()
                if top > prec:
                    v = np.maximum(v >> (top - prec), 1)
            w = v
        else:
            # one period of A / rho', rho' = num / 2^prec, from prec-bit entries
            top = v.max().bit_length()
            v = v << (prec - top) if top < prec else np.maximum(v >> (top - prec), 1)
            num = (lo + hi) * (1 << prec) // 2
            w = 0
            for _ in range(p):
                v = np.maximum((av(v) << prec) // num, 1)
                w = w + v
        a, b = _extreme_ratios(av(w), w)
        lo, hi = max(lo, a), min(hi, b)
        yield IndexInterval(lo, hi)
        if checkpoint % window:
            continue
        gap = hi - lo
        if gap > prev_gap * Fraction(49, 50):
            stall += 1
            if stall >= patience:
                prec *= 2
                stall = 0
        else:
            stall = 0
        prev_gap = gap
    raise IndexBudgetError(len(comp), hi - lo, CONTINUATION_STEPS // every * every)


def _rate(intervals) -> IndexInterval:
    """Index of a graph from its nontrivial components' intervals: the
    largest of each end, or [0, 0] when no component carries a cycle."""
    intervals = list(intervals)
    if not intervals:
        return IndexInterval(Fraction(0), Fraction(0))
    return IndexInterval(max(iv.lo for iv in intervals), max(iv.hi for iv in intervals))


def digraph_index(
    graph: WeightedDigraph | Sequence[dict], delta=Fraction(1, 10**6), components=None
) -> IndexInterval:
    """Certified interval around the index of a weighted digraph.

    ``graph`` is a ``WeightedDigraph``, or a sequence whose ``graph[u]``
    maps targets to positive integer weights, converted once on entry.
    The index is the spectral radius of the weight matrix, equivalently
    the growth rate of weighted walk counts; it equals the maximum over
    strongly connected components.  A graph with no cycles has index 0.
    The returned interval has width at most ``2*delta``: each component
    gives the first certificate of its stream that narrow.

    ``components`` are the graph's strongly connected components, as
    iterables of vertices (``cyclic_components`` gives arrays), when the
    caller already has them; those without a cycle may be left out.
    When it is None, ``automaton.graph_scc`` finds them: the graphs that
    come without components are small.
    """
    dfr = _as_fraction(delta)
    if dfr <= 0:
        raise ValueError("delta must be positive")
    if not isinstance(graph, WeightedDigraph):
        graph = WeightedDigraph.from_rows(graph)
    if components is None:
        dec = graph_scc(graph)
        components = [dec.members_of(c) for c in dec.nontrivial.tolist()]
    comps = [c for c in component_graphs(graph, components) if c is not None]
    return _rate(next(iv for iv in _certificates(c) if iv.width <= 2 * dfr) for c in comps)


# ---------------------------------------------------------------------------
# language-level operations


def count_words(dfa: Dfa, n: int) -> int:
    """Number of accepted words of length exactly n, exact integer."""
    if n < 0:
        raise ValueError("length must be nonnegative")
    if dfa.state_count == 0:
        return 0
    rows = [[t for t in row if t >= 0] for row in dfa.table.tolist()]
    counts = [0] * dfa.state_count
    counts[dfa.initial] = 1
    for _ in range(n):
        nxt = [0] * dfa.state_count
        for q, c in enumerate(counts):
            if c:
                for t in rows[q]:
                    nxt[t] += c
        counts = nxt
    return sum(counts[q] for q in dfa.accepting)


def _analyse(graph: WeightedDigraph, delta: Fraction, periods=None, lift=None):
    """Strong components of a transition graph and two certified
    intervals for each nontrivial one, keyed by component id: ``rates``
    of width at most 2*delta, and ``tight``, at most delta/2, read from
    the same stream of nested certificates (``rates`` when it is narrow
    enough, the stream read further otherwise).

    One transition graph feeds both ``graph_scc`` and the components'
    local graphs, and each distinct local graph opens one stream.
    ``periods``, when a dict, receives each nontrivial component's
    period, which its stream then takes as found.  ``lift`` gives a
    counter product its pairs' states and the automaton's ``dec``,
    ``rates`` and ``tight``, whose intervals ``_lifts``' components take
    without a stream.
    """
    dec = graph_scc(graph)
    lifted = {} if lift is None else _lifts(graph, dec, *lift[:2])
    rest = [cid for cid in dec.nontrivial.tolist() if cid not in lifted]
    comps = list(component_graphs(graph, [dec.members_of(cid) for cid in rest]))
    period_of = {}
    if periods is not None:
        for cid, comp in zip(rest, comps):
            periods[cid] = period_of[comp] = graph_period(comp)
    runs = {}
    for comp in dict.fromkeys(comps):
        stream = _certificates(comp, period_of.get(comp))
        at = next(iv for iv in stream if iv.width <= 2 * delta)
        runs[comp] = at, next(iv for iv in chain([at], stream) if iv.width <= delta / 2)
    rates = {cid: runs[comp][0] for cid, comp in zip(rest, comps)}
    tight = {cid: runs[comp][1] for cid, comp in zip(rest, comps)}
    for cid, c in lifted.items():
        rates[cid], tight[cid] = lift[2][c], lift[3][c]
    return dec, rates, tight


def _lifts(graph: WeightedDigraph, dec: SccDecomposition, states, base: SccDecomposition) -> dict:
    """The nontrivial components of a counter product (``graph``, ``dec``,
    pair i over state ``states[i]``) that share the stream of the
    automaton component (of ``base``) they lie over, mapped to it.

    Let P hold the pair (q, c), and C, of period p, hold q.  Closed walks
    at q have every large multiple of p as a length and no other, so P
    holds r / gcd(p, r) pairs over q, and as many over each state q' of C
    (a walk q -> q' -> q, then a closed walk at q back to c, passes one).
    So |P| = |C| exactly when r divides p.  Then (q, c) -> q maps P
    one-to-one onto C, and an edge q -> t of C is the edge (q, c) ->
    (t, c + 1) of P, of as many letters: a walk t -> q is one letter
    short of a multiple of p, hence of r.  The stream reads names only in
    the float pass, which adds each row's terms in order: two terms
    commute, three need not, so P's rows of three or more entries must
    list their targets in C's order, that of their states.
    """
    nontrivial = dec.nontrivial
    over = base.component_of[[states[i] for i in dec.members[dec.member_ptr[nontrivial]].tolist()]]
    lifted = np.diff(dec.member_ptr)[nontrivial] == np.diff(base.member_ptr)[over]
    pairs = dec.members[row_entries(dec.member_ptr, nontrivial[lifted])[0]]
    entry, row = row_entries(graph.indptr, pairs)
    inside = dec.component_of[graph.indices[entry]] == dec.component_of[pairs[row]]
    row, entry = row[inside], entry[inside]
    state = np.array([states[t] for t in graph.indices[entry].tolist()], dtype=np.int64)
    swapped = (np.bincount(row)[row[1:]] >= 3) & (row[1:] == row[:-1]) & (state[1:] < state[:-1])
    broken = np.bincount(dec.component_of[pairs[row[1:][swapped]]], minlength=len(dec))
    lifted &= broken[nontrivial] == 0
    return dict(zip(nontrivial[lifted].tolist(), over[lifted].tolist()))


def classify(dfa: Dfa) -> ComplexityClass:
    """Growth class of the language of a trimmed automaton.

    Finite when the graph is acyclic.  Exponential when some strongly
    connected component carries more internal edges (letters counted
    with multiplicity) than states, i.e. two distinct cycles share a
    state.  Otherwise every nontrivial component is a single cycle and
    the count grows polynomially; the degree is one less than the
    largest number of cycle components a single walk can visit.
    """
    graph = transition_graph(dfa)
    return _classify(graph, graph_scc(graph), dfa.initial)


def _classify(graph: WeightedDigraph, dec: SccDecomposition, initial) -> ComplexityClass:
    """``classify`` of the automaton whose transition graph is ``graph``,
    decomposed as ``dec``, with initial state ``initial``."""
    if not len(dec.nontrivial):
        return ComplexityClass("Finite")
    source, target = edge_components(graph, dec.component_of)
    inside = source == target
    letters = np.bincount(source[inside], weights=graph.weights[inside], minlength=len(dec))
    if (letters > np.diff(dec.member_ptr)).any():
        return ComplexityClass("Exponential")
    degree = path_intersection_bound(dec, dec.nontrivial.tolist(), dec.component_of[initial])
    return ComplexityClass("Polynomial", degree - 1)


def approximate_index(dfa: Dfa, delta=Fraction(1, 10**6)) -> IndexInterval:
    """Certified interval around the growth rate of a trimmed automaton.

    Width at most 2*delta.  A finite language reports [0, 0].  Raises on
    the empty automaton, whose rate is a matter of convention.
    """
    if dfa.state_count == 0:
        raise ValueError("growth rate of the empty automaton is undefined")
    return digraph_index(transition_graph(dfa), delta)


def polynomial_index_general(dfa: Dfa, delta=Fraction(1, 10**6)) -> int:
    """Degree bound for the per-residue polynomial factors.

    For an infinite language this is the largest number of maximal-rate
    components one walk can visit, minus one: the count along the
    dominating residues grows like n^pd * rate^n.  Components whose
    certified interval cannot be separated from the best lower bound all
    count as maximal, which can only overestimate, never underestimate.
    Raises for a finite language.
    """
    dfr = _as_fraction(delta)
    if dfr <= 0:
        raise ValueError("delta must be positive")
    dec, _, tight = _analyse(transition_graph(dfa), dfr)
    if not tight:
        raise ValueError("polynomial index undefined for a finite language")
    return _polynomial_index(dec, tight, dec.component_of[dfa.initial])


def _polynomial_index(dec: SccDecomposition, tight: dict, start: int) -> int:
    """One less than the most components of maximal rate among ``tight``'s
    that one condensation path from component ``start`` meets."""
    gr_lo = max(iv.lo for iv in tight.values())
    maximal = {cid for cid, iv in tight.items() if iv.hi >= gr_lo}
    return path_intersection_bound(dec, maximal, start) - 1


# ---------------------------------------------------------------------------
# per-residue asymptotics


@dataclass(frozen=True)
class ResidueAsymptotics:
    """Asymptotics of the counting function along one residue class:
    count(n) ~ poly(n) * alpha^n with deg(poly) = m, for n = residue
    (mod the report's residue_count).  alpha_hi == 0 marks a residue
    that is eventually empty."""

    residue: int
    alpha_lo: Fraction
    alpha_hi: Fraction
    m: int


@dataclass(frozen=True)
class GrowthReport:
    """Full growth profile of a regular language.

    ``gr`` bounds the global growth rate; ``pd`` is the polynomial index
    (0 for finite languages); ``residue_count`` is the eventual period r
    of the asymptotic regime and ``per_residue`` describes each class
    modulo r.  ``oscillation`` is one of NonOscillating, Oscillating,
    Wild, Indeterminate.
    """

    classification: ComplexityClass
    gr: IndexInterval
    pd: int
    residue_count: int
    per_residue: tuple
    oscillation: str
    delta: Fraction

    def to_json_text(self) -> str:
        doc = {
            "classification": {
                "tag": self.classification.tag,
                "degree": self.classification.degree,
            },
            "gr": {
                "lo": decimal_lower(self.gr.lo),
                "hi": decimal_upper(self.gr.hi),
            },
            "pd": self.pd,
            "residue_count": self.residue_count,
            "per_residue": [
                {
                    "residue": pr.residue,
                    "alpha_lo": decimal_lower(pr.alpha_lo),
                    "alpha_hi": decimal_upper(pr.alpha_hi),
                    "m": pr.m,
                }
                for pr in self.per_residue
            ],
            "oscillation": self.oscillation,
            "delta": str(self.delta),
        }
        return json.dumps(doc, indent=2, sort_keys=False)

    def to_text(self) -> str:
        lines = [
            f"class        {self.classification}",
            f"growth rate  [{decimal_lower(self.gr.lo)}, {decimal_upper(self.gr.hi)}]",
            f"poly index   {self.pd}",
            f"residues     {self.residue_count}",
        ]
        for pr in self.per_residue:
            lines.append(
                f"  n = {pr.residue} (mod {self.residue_count}): "
                f"alpha in [{decimal_lower(pr.alpha_lo)}, {decimal_upper(pr.alpha_hi)}], "
                f"poly degree {pr.m}"
            )
        lines.append(f"oscillation  {self.oscillation}")
        return "\n".join(lines) + "\n"


def _fold(bits: int, modulus: int, r: int) -> int:
    """``bits``, a set of residues mod ``modulus``, as the set of their
    residues mod r, a divisor of ``modulus``."""
    out = 0
    for shift in range(0, modulus, r):
        out |= bits >> shift
    return out & ((1 << r) - 1)


def _residue_sets(dfa: Dfa, dec: SccDecomposition, modulus: int, tail: list) -> dict:
    """For each nontrivial component C, the set of length residues mod
    ``modulus`` realized by accepting walks through C, as a bitmask;
    ``tail[q]`` holds the lengths mod ``modulus`` of the walks from q to
    acceptance, a backward ``length_masks`` from the accepting states.

    A walk entering a state q at length residue c and leaving it for
    acceptance with l more letters realizes c + l; ``head[q]`` and
    ``tail[q]`` collect every such c and l.  Since ``modulus`` is a
    multiple of every nontrivial component's imprimitivity, a walk
    through C can be pumped by closed walks of length 0 mod ``modulus``,
    so these sets capture exactly the residues with unboundedly many
    accepting walk lengths through C.

    One member q of C serves for all of C.  The closed walks through q
    have every large multiple of C's period p as a length, and p divides
    ``modulus``, so q's set is closed under adding p.  Another member q'
    is reached from q and back in a multiple of p letters, so each walk
    through q' gives one through q of the same length plus a multiple of
    p, and the other way round: q and q' realize the same set.
    """
    head = length_masks(dfa.table.tolist(), [dfa.initial], modulus)
    first = dec.members[dec.member_ptr[dec.nontrivial]]
    masks = {}
    for cid, q in zip(dec.nontrivial.tolist(), first.tolist()):
        masks[cid] = 0
        for c in range(modulus):
            if head[q] >> c & 1:
                masks[cid] |= rotate(tail[q], c, modulus)
    return masks


class ProfileSizeError(RuntimeError):
    """A growth profile's counter product reaches more pairs than
    ``_CounterProduct.PAIR_LIMIT``; raised during its breadth-first
    search, before any graph array is allocated."""

    def __init__(self, modulus: int, limit: int):
        super().__init__(
            f"the growth profile needs the pairs of a state and a word length "
            f"mod {modulus} that words reach; more than {limit} are reachable, "
            f"the limit a profile may hold in memory"
        )
        self.modulus = modulus
        self.limit = limit


class _CounterProduct:
    """The reachable part of an automaton times a length counter mod r.

    Pair i is ``(states[i], counters[i])``: the state a word leads to and
    the word's length mod r.  The pairs are numbered breadth first from
    (initial, 0), each pair's letters read in increasing order, and
    ``graph`` is the transition graph on these numbers, each edge
    weighted by its number of letters.

    Slice j, the words of length j mod r, is the part of the product that
    reaches a pair (accepting q, j).  A predecessor of such a pair reaches
    it too, so no pair outside slice j leads into it: the breadth-first
    order restricted to slice j is the order ``automaton.trim`` numbers
    the slice's own automaton in, and each strong component of the
    product lies wholly inside or wholly outside the slice.  Every
    component of a slice therefore has the local graph of the product
    component it is, and the product's decomposition serves all r slices.

    The search raises ProfileSizeError as soon as more than
    ``PAIR_LIMIT`` pairs are reachable.
    """

    # a profile's peak is this breadth-first search, about 0.35 kB per pair
    # where nearly every pair is a component of its own (0.3 kB on the
    # Thue-Morse products), so a product at the limit peaks near 400 MB
    PAIR_LIMIT = 1 << 20

    __slots__ = ("modulus", "states", "counters", "graph")

    def __init__(self, dfa: Dfa, modulus: int):
        limit = self.PAIR_LIMIT
        rows = [[t for t in row if t >= 0] for row in dfa.table.tolist()]
        number = {(dfa.initial, 0): 0}
        states, counters = [dfa.initial], [0]
        source, target = [], []
        # the lists are the queue: the loop reads the pairs appended to them
        for i, (q, c) in enumerate(zip(states, counters)):
            c = (c + 1) % modulus
            for t in rows[q]:
                j = number.get((t, c))
                if j is None:
                    j = number[t, c] = len(states)
                    if j == limit:
                        raise ProfileSizeError(modulus, limit)
                    states.append(t)
                    counters.append(c)
                source.append(i)
                target.append(j)
        self.modulus, self.states, self.counters = modulus, states, counters
        self.graph = WeightedDigraph.from_edges(len(states), source, target, [1] * len(target))


def _product_slices(tail: list, product: _CounterProduct, dec: SccDecomposition) -> dict:
    """For each nontrivial component of the counter product, the slices
    it lies in, as a bitmask: with (q, c) any of its pairs, slice j when
    some walk from q reaches acceptance in j - c letters mod r; ``tail``
    is the automaton's, as in ``_residue_sets``, at r."""
    r = product.modulus
    first = dec.members[dec.member_ptr[dec.nontrivial]]
    return {
        cid: rotate(tail[product.states[i]], product.counters[i], r)
        for cid, i in zip(dec.nontrivial.tolist(), first.tolist())
    }


def asymptotic_profile(dfa: Dfa, delta=Fraction(1, 10**6)) -> GrowthReport:
    """Full asymptotic description of a trimmed automaton's counting
    function.

    Finds the eventual period r of the asymptotic regime and, for each
    residue class mod r, a certified growth-rate interval and polynomial
    degree.  r is the lcm of the imprimitivity of the *important*
    components: those whose accepting-walk residues are not already
    covered by components of strictly larger certified rate.

    Two graphs are decomposed: the automaton's, and the reachable part
    of the automaton times a length counter mod r (``_CounterProduct``).
    Each residue slice is read off the product's one decomposition: a
    product component holding the pair (q, c) lies in slice j when some
    walk from q reaches acceptance in j - c letters mod r.  The slice's
    rate is the largest of its components', and its degree counts
    maximal ones along condensation paths of the product from the start,
    which meet slice j's components only inside slice j.  A slice without
    a nontrivial component, empty or not, has rate 0 and degree 0.  A
    product component that lifts an automaton component one to one takes
    its intervals, and every other distinct local graph of the product is
    certified once.  Raises ProfileSizeError when the product is too large.
    """
    dfr = _as_fraction(delta)
    if dfr <= 0:
        raise ValueError("delta must be positive")
    periods: dict = {}
    graph = transition_graph(dfa)
    dec, rates, tight = _analyse(graph, dfr, periods)
    cls = _classify(graph, dec, dfa.initial)
    gr = _rate(rates.values())
    if not rates:
        finite = ResidueAsymptotics(0, Fraction(0), Fraction(0), 0)
        return GrowthReport(cls, gr, 0, 1, (finite,), "NonOscillating", dfr)

    pd = _polynomial_index(dec, tight, dec.component_of[dfa.initial])
    rho = lcm(*periods.values())
    tail = length_masks(reverse_edges(dfa.state_count, *transition_edges(dfa)), dfa.accepting, rho)
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
    lift = product.states, dec, rates, tight
    pdec, prates, ptight = _analyse(product.graph, dfr, lift=lift)
    # r divides rho, so the tails mod r fold from those mod rho
    slices = _product_slices([_fold(t, rho, r) for t in tail], product, pdec)
    start = pdec.component_of[0]
    # slices with the same components have the same rate and degree
    seen = {}
    per_residue = []
    for j in range(r):
        inside = frozenset(cid for cid, bits in slices.items() if bits >> j & 1)
        if inside not in seen:
            m = _polynomial_index(pdec, {c: ptight[c] for c in inside}, start) if inside else 0
            seen[inside] = _rate(prates[c] for c in inside), m
        alpha, m = seen[inside]
        per_residue.append(ResidueAsymptotics(j, alpha.lo, alpha.hi, m))

    report = GrowthReport(cls, gr, pd, r, tuple(per_residue), "Indeterminate", dfr)
    tag = oscillation_type(report)
    return GrowthReport(cls, gr, pd, r, tuple(per_residue), tag, dfr)


def oscillation_type(report: GrowthReport) -> str:
    """Classify how the counting function behaves across residues.

    Wild when some residues die out while others grow, or when the
    per-residue rates are pairwise separated; NonOscillating when there
    is a single residue class; Oscillating when all rates agree but the
    polynomial degrees differ.  When the certified intervals are too
    wide to decide, Indeterminate.
    """
    rs = report.per_residue
    finite = [pr for pr in rs if pr.alpha_hi == 0]
    infinite = [pr for pr in rs if pr.alpha_lo >= 1]
    if finite and infinite:
        return "Wild"
    live = [pr for pr in rs if pr.alpha_hi > 0]
    if len(live) >= 2:
        separated = all(
            a.alpha_hi < b.alpha_lo or b.alpha_hi < a.alpha_lo
            for i, a in enumerate(live)
            for b in live[i + 1 :]
        )
        if separated:
            return "Wild"
    if report.residue_count == 1:
        return "NonOscillating"
    overlap = all(
        a.alpha_hi >= b.alpha_lo and b.alpha_hi >= a.alpha_lo
        for i, a in enumerate(live)
        for b in live[i + 1 :]
    )
    if overlap and live and not finite:
        degrees = {pr.m for pr in live}
        if len(degrees) > 1:
            return "Oscillating"
    return "Indeterminate"


# ---------------------------------------------------------------------------
# outward-rounded decimal rendering


def decimal_lower(x: Fraction, places: int = 12) -> str:
    """Decimal string <= x, rounded toward minus infinity."""
    q = 10**places
    scaled = x.numerator * q // x.denominator
    return _place(scaled, places)


def decimal_upper(x: Fraction, places: int = 12) -> str:
    """Decimal string >= x, rounded toward plus infinity."""
    q = 10**places
    scaled = -((-x.numerator * q) // x.denominator)
    return _place(scaled, places)


def _place(scaled: int, places: int) -> str:
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, frac = divmod(scaled, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"
