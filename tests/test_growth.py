"""Growth classification, certified index intervals, residue profiles."""

import itertools
import json
import math
import random
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import builders
from oracles import (
    bfs_imprimitivity,
    brute_count,
    component_interval,
    counter_slice,
    dfa_adjacency_rows,
    dict_component_rows,
    digraph_rows,
    exact_bounds,
    fraction_exact_bounds,
    interval_contains,
    list_extreme_ratios,
    member_residue_sets,
    per_component_product_profile,
    per_slice_profile,
    python_int_certificates,
    row_list_certificates,
    row_sum_float_vector,
    spectral_radius_root,
    successor_list_scc,
    tails,
    tarjan_components,
    tarjan_cyclic_components,
    tarjan_scc,
    trimmed_slice_rows,
)
from wordgrowth import automaton, growth
from wordgrowth.automaton import empty_dfa, graph_period, graph_scc, parse_dfa, scc, trim
from wordgrowth.fad import extendable_part, fad_automaton, tm_antidictionary
from wordgrowth.growth import (
    IndexBudgetError,
    ProfileSizeError,
    WeightedDigraph,
    approximate_index,
    asymptotic_profile,
    classify,
    count_words,
    cyclic_components,
    decimal_lower,
    decimal_upper,
    digraph_index,
    polynomial_index_general,
)

PINNED = Path(__file__).parent / "pinned"


def contains_root_of(lo, hi, a, b, c):
    """Exact check that [lo, hi] brackets the positive root of
    a x^2 + b x + c (the quadratic must open upward)."""
    f = lambda x: a * x * x + b * x + c
    return f(lo) <= 0 <= f(hi)


# ---------------------------------------------------------------------------
# counting


def test_count_words_known_formulas():
    assert [count_words(builders.two_loop_dfa(), n) for n in range(8)] == [
        1, 2, 3, 4, 5, 6, 7, 8,
    ]
    assert [count_words(builders.full_dfa(3), n) for n in range(5)] == [
        1, 3, 9, 27, 81,
    ]
    osc = builders.oscillating_dfa()
    for n in range(0, 20):
        expected = n // 2 + 1 if n % 2 == 0 else 1
        assert count_words(osc, n) == expected
    par = builders.parity_split_dfa()
    for n in range(1, 12):
        assert count_words(par, n) == (2**n if n % 2 == 0 else 1)


def test_count_words_matches_brute(dfa_corpus):
    for d in dfa_corpus:
        depth = 8 if d.alphabet_size == 2 else 6
        for n in range(depth + 1):
            assert count_words(d, n) == brute_count(d, n)


def test_count_words_empty_automaton():
    assert count_words(empty_dfa(2), 0) == 0
    assert count_words(empty_dfa(2), 3) == 0


# ---------------------------------------------------------------------------
# classification


def test_classify_trichotomy():
    assert classify(builders.chain_dfa(4)).tag == "Finite"
    assert classify(builders.full_dfa(2)).tag == "Exponential"
    assert classify(builders.phi_dfa()).tag == "Exponential"
    two = classify(builders.two_loop_dfa())
    assert (two.tag, two.degree) == ("Polynomial", 1)
    one = classify(builders.cycle_dfa(5))
    assert (one.tag, one.degree) == ("Polynomial", 0)


def test_classify_finite_means_counts_vanish(dfa_corpus):
    for d in dfa_corpus:
        if classify(d).tag == "Finite":
            s = d.state_count
            assert all(count_words(d, n) == 0 for n in range(s, s + 4))
        else:
            assert any(count_words(d, n) > 0 for n in range(1, 2 * d.state_count + 2))


def test_classify_str():
    assert str(classify(builders.chain_dfa(1))) == "Finite"
    assert str(classify(builders.two_loop_dfa())) == "Polynomial(degree=1)"


# ---------------------------------------------------------------------------
# certified index intervals


def test_digraph_index_exact_cases():
    assert digraph_index([{}]) == (0, 0)
    assert digraph_index([{0: 1}]) == (1, 1)
    assert digraph_index([{0: 7}]) == (7, 7)
    assert digraph_index([{1: 1}, {}]) == (0, 0)


def test_digraph_index_two_cycle():
    iv = digraph_index([{1: 2}, {0: 2}], Fraction(1, 10**9))
    assert iv.lo <= 2 <= iv.hi
    assert iv.width <= 2 * Fraction(1, 10**9)


def test_digraph_index_golden_ratio():
    rows = dfa_adjacency_rows(builders.phi_dfa())
    iv = digraph_index(rows, Fraction(1, 10**9))
    # the rate is the positive root of x^2 - x - 1
    assert contains_root_of(iv.lo, iv.hi, 1, -1, -1)
    assert iv.width <= 2 * Fraction(1, 10**9)


def test_digraph_index_picks_dominant_component():
    # rate-2 component unreachable from the rate-3 one; index is the max
    rows = [{0: 2}, {1: 3}]
    iv = digraph_index(rows)
    assert iv.lo <= 3 <= iv.hi and iv.lo > 2


def test_digraph_index_takes_rows_or_weighted_digraph():
    # the graph gets each weight as that many unit edges, shuffled, so
    # its build sorts targets and merges repeated ones
    rng = random.Random(31)
    for delta in (Fraction(1, 10**6), Fraction(1, 10**12)):
        for _ in range(25):
            rows = builders.random_digraph(rng)
            edges = [(u, t) for u, row in enumerate(rows) for t, w in row.items() for _ in range(w)]
            rng.shuffle(edges)
            graph = WeightedDigraph.from_edges(
                len(rows), [u for u, _ in edges], [t for _, t in edges], [1] * len(edges)
            )
            assert digraph_index(graph, delta) == digraph_index(rows, delta)


@st.composite
def weighted_edge_lists(draw, max_n=8, max_weight=4):
    """A vertex count, edges in any order with self-loops and repeated
    (source, target) pairs, and vertex sets to gather besides the
    strong components."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, st.integers(1, max_weight)), max_size=3 * n))
    subsets = draw(st.lists(st.lists(vertex, min_size=1, max_size=n, unique=True), max_size=3))
    return n, edges, subsets


@given(weighted_edge_lists())
@example((3, [(0, 1, 1), (0, 0, 2), (1, 0, 1), (0, 1, 3)], [[2], [1, 2], [0]]))
@settings(max_examples=300, deadline=None)
def test_component_graphs_match_dict_rows_oracle(case):
    # covers a self-loop, a merged repeated edge, a single state without
    # a loop and a vertex set without an edge between its members
    n, edges, subsets = case
    graph = WeightedDigraph.from_edges(
        n, [u for u, _, _ in edges], [t for _, t, _ in edges], [w for _, _, w in edges]
    )
    adjacency = [{} for _ in range(n)]
    for u, t, w in edges:
        adjacency[u][t] = adjacency[u].get(t, 0) + w
    assert digraph_rows(graph) == [sorted(row.items()) for row in adjacency]
    comps = tarjan_components(graph) + subsets
    for comp, local in zip(comps, automaton.component_graphs(graph, comps), strict=True):
        expected = dict_component_rows(adjacency, comp)
        assert (None if local is None else digraph_rows(local)) == expected, comp


@st.composite
def block_digraphs(draw, max_blocks=6):
    """A weighted digraph built from blocks of 1 to 4 vertices, each a
    cycle (a loop, for one vertex) or edgeless, joined by edges from
    earlier blocks to later ones, so that chains run into and out of
    cycles, plus up to two arbitrary edges, which may merge blocks; the
    vertices are shuffled."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_blocks))
    n = sum(sizes)
    block = [b for b, size in enumerate(sizes) for _ in range(size)]
    edges = []
    start = 0
    for size in sizes:
        if draw(st.booleans()):
            edges += [(start + i, start + (i + 1) % size) for i in range(size)]
        start += size
    vertex = st.integers(0, n - 1)
    joins = draw(st.lists(st.tuples(vertex, vertex), max_size=2 * n))
    edges += [(u, t) for u, t in joins if block[u] < block[t]]
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=2))
    perm = draw(st.permutations(range(n)))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges)))
    return WeightedDigraph.from_edges(
        n, [perm[u] for u, _ in edges], [perm[t] for _, t in edges], weights
    )


def edge_graph(n, edges):
    return WeightedDigraph.from_edges(
        n, [u for u, _ in edges], [t for _, t in edges], [1] * len(edges)
    )


def assert_components_match_tarjan(graph):
    found = cyclic_components(graph)
    assert all(c.dtype == np.int64 and len(set(c.tolist())) == len(c) for c in found)
    got = {frozenset(c.tolist()) for c in found}
    assert len(got) == len(found)
    assert got == {frozenset(c) for c in tarjan_cyclic_components(graph)}


@given(block_digraphs())
# a vertex between two loops is the core's first vertex, which reaches
# the loop after it but not the one before: graph_scc splits the core
@example(edge_graph(3, [(1, 1), (1, 0), (0, 2), (2, 2)]))
# a loop that reaches the core's first vertex, which does not reach it
@example(edge_graph(2, [(0, 0), (1, 1), (1, 0)]))
# a loop that the core's first vertex reaches, which does not reach it
@example(edge_graph(3, [(0, 1), (1, 0), (1, 2), (2, 2)]))
# a one-component core behind a peeled tail: both searches reach it all
@example(edge_graph(4, [(0, 1), (1, 2), (2, 3), (3, 2)]))
# a single looped vertex is the whole core
@example(edge_graph(3, [(0, 1), (1, 1), (1, 2)]))
# an edgeless graph, and a loopless singleton
@example(edge_graph(3, []))
@example(edge_graph(1, []))
@settings(max_examples=400, deadline=None)
def test_cyclic_components_match_tarjan_filter(graph):
    assert_components_match_tarjan(graph)


def between_cycles(graph) -> set:
    """The vertices that a cycle reaches and that reach a cycle, by
    depth-first search from Tarjan's cycle-carrying components."""
    cyclic = {v for comp in tarjan_cyclic_components(graph) for v in comp}
    pred = [[] for _ in range(len(graph))]
    for u in range(len(graph)):
        for t in graph[u]:
            pred[t].append(u)

    def closure(step):
        seen, todo = set(cyclic), list(cyclic)
        while todo:
            for t in step(todo.pop()):
                if t not in seen:
                    seen.add(t)
                    todo.append(t)
        return seen

    return closure(lambda u: graph[u]) & closure(lambda u: pred[u])


@given(block_digraphs())
@example(edge_graph(2, [(0, 0), (0, 1)]))
@example(edge_graph(2, [(0, 1), (1, 1)]))
@settings(max_examples=300, deadline=None)
def test_peeling_keeps_the_vertices_between_cycles(graph):
    # every peeled vertex lacks a live predecessor or successor, and what
    # is left is what a cycle reaches and what reaches a cycle
    core = growth._trimmed_core(graph, growth._predecessors(graph))
    assert set(core.tolist()) == between_cycles(graph)


def test_exact_continuation_certifies_thue_morse(monkeypatch):
    # at delta = 1e-20 neither the all-ones nor the float certificate is
    # tight enough, so the integer continuation loop has to finish the job
    calls = []
    certificates = growth._certificates

    def counting_certificates(comp, *args):
        calls.append(0)
        for iv in certificates(comp, *args):
            calls[-1] += 1
            yield iv

    monkeypatch.setattr(growth, "_certificates", counting_certificates)
    delta = Fraction(1, 10**20)
    iv = approximate_index(fad_automaton(tm_antidictionary(3)), delta)
    assert max(calls) > 2
    assert iv.hi - iv.lo <= 2 * delta
    # the level-3 rate is phi^(1/16); phi is the positive root of x^2 - x - 1
    assert contains_root_of(iv.lo**16, iv.hi**16, 1, -1, -1)


@st.composite
def component_rows(draw, max_n=9, max_weight=5):
    """Local rows as the engine gets them: every row nonempty, targets
    increasing."""
    n = draw(st.integers(1, max_n))
    targets = st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)
    weight = st.integers(1, max_weight)
    return [[(j, draw(weight)) for j in sorted(draw(targets))] for _ in range(n)]


DELTAS = [Fraction(1, 10**6), Fraction(1, 10**12), Fraction(1, 10**20)]


def weighted_rows_dfa(rows):
    """An automaton whose transition graph has the given local rows: an
    edge of weight w is w letters."""
    alphabet = max(sum(w for _, w in row) for row in rows)
    transitions = [dict(enumerate(t for t, w in row for _ in range(w))) for row in rows]
    return builders.dict_dfa(alphabet, transitions, 0, range(len(rows)))


def overlap(a, b) -> bool:
    return a[0] <= b[1] and b[0] <= a[1]


def assert_one_stream_matches_two_runs(comp, delta) -> bool:
    """One component's stream, and the profile's analysis of an automaton
    made of that component alone, against two runs of the earlier engine,
    at delta and delta/4; true when ``tight`` read the stream further.

    The earlier engine iterated A+I past the float certificate, as the
    stream still does on a component of period 1: there the intervals are
    equal.  On a periodic component the stream iterates A over whole
    periods, and its intervals only overlap the earlier ones, since both
    contain the index."""
    at, quarter = component_interval(comp, delta), component_interval(comp, delta / 4)
    previous = got_at = None
    for iv in growth._certificates(comp):
        assert previous is None or previous.lo <= iv.lo <= iv.hi <= previous.hi
        if got_at is None and iv.width <= 2 * delta:
            got_at = iv
        if iv.width <= delta / 2:
            break
        previous = iv
    narrow = iv
    assert digraph_index(comp, delta) == got_at
    graph = growth.transition_graph(weighted_rows_dfa(digraph_rows(comp)))
    _, rates, tight = growth._analyse(graph, delta)
    assert list(rates.values()) == [got_at]
    assert list(tight.values()) == [narrow]
    if graph_period(comp) == 1:
        assert got_at == at
        assert narrow == (max(at.lo, quarter.lo), min(at.hi, quarter.hi))
    else:
        assert overlap(got_at, at) and overlap(narrow, quarter)
    return narrow != got_at


def local_graphs(dfa):
    """The local graphs of an automaton's nontrivial components."""
    graph = growth.transition_graph(dfa)
    dec = graph_scc(graph)
    return automaton.component_graphs(graph, [dec.members_of(c) for c in dec.nontrivial])


def test_certificate_stream_matches_two_engine_runs_on_thue_morse():
    # the distinct components of the Thue-Morse level 1 to 3 automata and
    # of their residue slices
    comps = set()
    for level in (1, 2, 3):
        d = fad_automaton(tm_antidictionary(level))
        r = asymptotic_profile(d).residue_count
        for piece in [d] + [counter_slice(d, r, j) for j in range(r)]:
            comps.update(local_graphs(piece))
    assert len(comps) == 19
    further = [assert_one_stream_matches_two_runs(c, delta) for c in comps for delta in DELTAS]
    assert any(further)


@given(component_rows())
@settings(max_examples=60, deadline=None)
def test_certificate_stream_matches_two_engine_runs(rows):
    for comp in local_graphs(weighted_rows_dfa(rows)):
        for delta in DELTAS:
            assert_one_stream_matches_two_runs(comp, delta)


def test_certificate_stream_reuses_an_exact_first_certificate():
    # a plain cycle's all-ones certificate is exact, width 0: tight is
    # rates, with no step of the stream past it
    (comp,) = local_graphs(builders.cycle_dfa(5))
    assert next(growth._certificates(comp)) == (1, 1)
    for delta in DELTAS:
        assert not assert_one_stream_matches_two_runs(comp, delta)


@given(st.one_of(component_rows(), component_rows(max_n=4, max_weight=2000)))
@settings(max_examples=300, deadline=None)
def test_first_certificates_match_row_list_oracle(rows):
    # weights up to 2000 give row weight sums of 2^10 and more, which the
    # engine sums in Python ints rather than int64
    comp = WeightedDigraph.from_rows([dict(row) for row in rows])
    expected = row_list_certificates(comp)
    assert list(itertools.islice(growth._certificates(comp), len(expected))) == expected


@pytest.mark.parametrize(
    "rows,past_int64",
    [([{0: 5000}], 1), ([{1: 2000}, {0: 2000}], 1), ([{1: 1023}, {0: 1023}], 0)],
)
def test_first_certificates_sum_large_rows_in_python_ints(monkeypatch, rows, past_int64):
    # the float certificate's row sums are 5000 * 2^53 and 2000 * 2^53,
    # past int64, where an int64 sum would wrap; 1023 * 2^53 fits
    sums = []
    extreme_ratios = growth._extreme_ratios

    def recording_extreme_ratios(s, v):
        sums.append(s)
        return extreme_ratios(s, v)

    monkeypatch.setattr(growth, "_extreme_ratios", recording_extreme_ratios)
    comp = WeightedDigraph.from_rows(rows)
    first, second = itertools.islice(growth._certificates(comp), 2)
    (float_sums,) = sums
    # an int64 array where the sums fit, Python ints (dtype object) past it
    assert (float_sums.dtype == object) == bool(past_int64)
    assert int(max(float_sums.tolist()) >= 2**63) == past_int64
    rate = max(rows[0].values())
    assert first == second == (rate, rate) == digraph_index(rows)
    assert [first, second] == row_list_certificates(comp)


def test_narrow_weights_certify_as_their_int64_copy():
    # the power-free quotient holds int32 rows and uint8 weights; here two
    # edges of weight 200 leave state 0, a row sum of 400, past uint8, so
    # a sum in the quotient's own types would wrap
    wide = WeightedDigraph.from_rows([{0: 200, 1: 200}, {0: 200}])
    narrow = WeightedDigraph(
        wide.indptr.astype(np.int32), wide.indices.astype(np.int32), wide.weights.astype(np.uint8)
    )
    (local,) = automaton.component_graphs(narrow, [np.arange(2)])
    assert [a.dtype for a in (local.indptr, local.indices, local.weights)] == [np.int64] * 3
    (wide_local,) = automaton.component_graphs(wide, [np.arange(2)])
    expected = list(itertools.islice(growth._certificates(wide_local), 4))
    assert list(itertools.islice(growth._certificates(local), 4)) == expected
    assert expected[0] == (200, 400)
    for delta in DELTAS:
        assert digraph_index(narrow, delta) == digraph_index(wide, delta)


@given(st.one_of(component_rows(), component_rows(max_n=4, max_weight=2000)))
@example([[(0, 1), (1, 2), (2, 3)], [(0, 2)], [(1, 1), (2, 4)]])
@example([[(1, 5)], [(0, 1), (2, 3)], [(0, 2), (1, 1), (2, 1)]])
@example([[(0, 1), (1, 1)], [(1, 1)]])
@settings(max_examples=100, deadline=None)
def test_certificate_stream_matches_python_int_oracle(rows):
    # exact integer sums are the same in any order, so the object-dtype
    # products give the Python-int loop's stream, certificate for
    # certificate, wherever the engine keeps iterating A+I: on components
    # of period 1, and on graphs that are not strongly connected, such as
    # the last example, where the gap stalls and the precision doubles
    # every third checkpoint
    comp = WeightedDigraph.from_rows([dict(row) for row in rows])
    assume(graph_period(comp) == 1)
    n = 60
    expected = list(itertools.islice(python_int_certificates(comp), n))
    assert list(itertools.islice(growth._certificates(comp), n)) == expected


@pytest.mark.parametrize(
    "level,places,length",
    [(2, 20, 14), (2, 40, 77), (3, 20, 12), (3, 40, 69), (4, 20, 11), (4, 40, 73)],
)
def test_periodic_stream_certifies_the_thue_morse_rate(level, places, length):
    # the whole stream to width 2 * 10^-places of the one nontrivial
    # component, whose period is 2^(level + 1): the all-ones and float
    # certificates are the earlier stream's, and every later one, from
    # the iteration of A over whole periods, contains phi^(1/2^(i+1)) and
    # is nested in the one before
    (comp,) = local_graphs(fad_automaton(tm_antidictionary(level)))
    e = 2 ** (level + 1)
    assert graph_period(comp) == e
    delta = Fraction(1, 10**places)
    got = []
    for iv in growth._certificates(comp):
        assert not got or got[-1].lo <= iv.lo <= iv.hi <= got[-1].hi
        assert contains_root_of(iv.lo**e, iv.hi**e, 1, -1, -1)
        got.append(iv)
        if iv.width <= 2 * delta:
            break
    assert got[:2] == list(itertools.islice(python_int_certificates(comp), 2))
    assert len(got) == length


def test_periodic_stream_keeps_its_precision_on_a_long_cycle():
    # a 2-cycle and a 60-cycle through state 0, period 2: an error travels
    # round the long cycle unchanged between its passes through state 0,
    # so the width stays put for about 20 steps at a time although 96 bits
    # are ample; a stall window of whole periods spanning the 61 states
    # does not take that for truncation noise, and the stream reaches
    # 2e-20 without doubling its precision (with a window of one period
    # it doubled after nearly every period and did not finish in 20 s)
    rows = [{1: 1, 2: 1}, {0: 1}] + [{t + 1: 1} for t in range(2, 60)] + [{0: 1}]
    comp = WeightedDigraph.from_rows(rows)
    assert graph_period(comp) == 2
    delta = Fraction(1, 10**20)
    got = []
    for iv in growth._certificates(comp):
        assert not got or got[-1].lo <= iv.lo <= iv.hi <= got[-1].hi
        got.append(iv)
        if iv.width <= 2 * delta:
            break
    # the index is the square root of the largest root of y^30 - y^29 - 1
    f = lambda y: y**30 - y**29 - 1
    assert all(f(iv.lo**2) <= 0 <= f(iv.hi**2) for iv in got)
    # entries of a window sum of two vectors of 96 bits
    assert max(x.denominator.bit_length() for iv in got for x in iv) <= 98
    assert len(got) == 500


@st.composite
def periodic_rows(draw, max_classes=4, max_size=3, max_weight=5):
    """Local rows of a graph whose edges all go from cyclic class c to
    class c + 1 mod p, every vertex with at least one edge out and one in:
    its strong components have periods that are multiples of p."""
    p = draw(st.integers(2, max_classes))
    sizes = [draw(st.integers(1, max_size)) for _ in range(p)]
    first = list(itertools.accumulate([0] + sizes))
    n = first[-1]
    rows = [dict() for _ in range(n)]
    weight = st.integers(1, max_weight)
    for c in range(p):
        here = range(first[c], first[c + 1])
        there = range(first[(c + 1) % p], first[(c + 1) % p + 1])
        for u in here:
            for t in draw(st.lists(st.sampled_from(there), min_size=1, unique=True)):
                rows[u][t] = draw(weight)
        for t in there:
            if not any(t in rows[u] for u in here):
                rows[draw(st.sampled_from(here))][t] = draw(weight)
    return [sorted(row.items()) for row in rows]


@given(periodic_rows())
@settings(max_examples=40, deadline=None)
def test_periodic_stream_overlaps_the_earlier_stream(rows):
    # both streams contain the index, read to the same width, so every
    # certificate of one overlaps every certificate of the other; on up
    # to 6 vertices, each also contains the largest real root of the
    # characteristic polynomial, exactly
    delta = Fraction(1, 10**20)

    def stream(certificates):
        out = []
        for iv in certificates:
            out.append(iv)
            if iv.width <= 2 * delta:
                return out

    for comp in local_graphs(weighted_rows_dfa(rows)):
        assert graph_period(comp) > 1
        new, old = stream(growth._certificates(comp)), stream(python_int_certificates(comp))
        assert all(overlap(a, b) for a in new for b in old)
        if len(comp) <= 6:
            root = spectral_radius_root([dict(row) for row in digraph_rows(comp)])
            assert all(interval_contains(iv.lo, iv.hi, root) for iv in new)


@pytest.mark.parametrize("level", [1, 2, 3, 4, 5, 6])
def test_graph_period_matches_dict_search_on_thue_morse(level):
    # the engine reads the period off the local graph; the profile's
    # imprimitivity wraps the same search
    d = fad_automaton(tm_antidictionary(level))
    graph = growth.transition_graph(d)
    dec = graph_scc(graph)
    (c,) = dec.nontrivial.tolist()
    (comp,) = automaton.component_graphs(graph, [dec.members_of(c)])
    members = dec.members_of(c).tolist()
    period = 2 ** (level + 1)
    assert graph_period(comp) == automaton.imprimitivity(d, members) == period
    assert bfs_imprimitivity(d, members) == period


def test_continuation_budget_ends_in_a_typed_error(monkeypatch):
    # both continuations stop at the step budget: on the Thue-Morse level-3
    # component (period 16) after 64 // 16 periods, on the golden-ratio
    # graph (period 1) after 64 // 16 checkpoints of A+I
    monkeypatch.setattr(growth, "CONTINUATION_STEPS", 64)
    (periodic,) = local_graphs(fad_automaton(tm_antidictionary(3)))
    aperiodic = WeightedDigraph.from_rows([{0: 1, 1: 1}, {0: 1}])
    for comp in (periodic, aperiodic):
        stream = growth._certificates(comp)
        assert len(list(itertools.islice(stream, 6))) == 6
        with pytest.raises(IndexBudgetError) as err:
            next(stream)
        assert (err.value.states, err.value.steps) == (len(comp), 64)
        assert isinstance(err.value, RuntimeError)
    # level 3 needs 10 periods to reach 2e-20
    with pytest.raises(IndexBudgetError, match="64 exact iteration steps"):
        approximate_index(fad_automaton(tm_antidictionary(3)), Fraction(1, 10**20))
    monkeypatch.setattr(growth, "CONTINUATION_STEPS", 160)
    assert approximate_index(fad_automaton(tm_antidictionary(3)), Fraction(1, 10**20)).width <= Fraction(2, 10**20)


@st.composite
def rows_and_vector(draw):
    rows = draw(component_rows())
    # small entries give tied ratios; 2^53-scale ones are what the float
    # pass hands over
    entry = st.one_of(
        st.integers(1, 3), st.integers(2**53 - 4, 2**53 + 4), st.integers(1, 2**60)
    )
    return rows, draw(st.lists(entry, min_size=len(rows), max_size=len(rows)))


@given(rows_and_vector())
@settings(max_examples=300, deadline=None)
def test_exact_bounds_match_fraction_oracle(case):
    rows, v = case
    lo, hi = exact_bounds(rows, v)
    assert (lo, hi) == fraction_exact_bounds(rows, v)
    assert type(lo) is type(hi) is Fraction


CHUNK = growth.RATIO_CHUNK


def ratio_pairs(n, low_at, high_at, scale):
    """n (sum, v) pairs whose ratios lie in (3/2, 7/4), but for the
    lowest, 1, at the entries ``low_at``, and the highest, 2, at
    ``high_at``, from different pairs where there are several; v is near
    2^52 * ``scale``."""
    rng = random.Random(n)
    v = [rng.randrange(2**52, 2**53) * scale for _ in range(n)]
    sums = [x * 3 // 2 + rng.randrange(1, x // 4) for x in v]
    for at, ratio in ((low_at, 1), (high_at, 2)):
        for i in at:
            v[i] = (2**52 + i) * scale
            sums[i] = v[i] * ratio
    return sums, v


@pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
@pytest.mark.parametrize(
    "dtype,scale", [(np.int64, 1), (object, 2**70)], ids=["int64", "object"]
)
def test_chunked_extreme_ratios_match_whole_list_oracle(n, dtype, scale):
    # each extreme is once a tie that straddles a chunk boundary (the
    # first boundary, and the last chunk's first entry), once alone at the
    # first entry and once alone at the last; object arrays hold sums past
    # int64
    boundaries = {b for b in (CHUNK, (n - 1) // CHUNK * CHUNK) if 0 < b < n}
    straddles = [(b - 1, b) for b in sorted(boundaries)] or [(n - 2, n - 1)]
    placements = [(s, (0,)) for s in straddles] + [((0,), s) for s in straddles]
    placements += [((n - 1,), (0, 1)), ((0, 1), (n - 1,))]
    for low_at, high_at in placements:
        sums, v = ratio_pairs(n, low_at, high_at, scale)
        got = growth._extreme_ratios(np.array(sums, dtype=dtype), np.array(v, dtype=dtype))
        assert got == list_extreme_ratios(sums, v) == (1, 2), (low_at, high_at)


def counting_products(monkeypatch) -> list:
    """The length of v at each float product the pass computes from now
    on: one product per step and one per gap check."""
    sizes = []
    product = growth._float_product

    def counting_product(row, col, weight, v):
        sizes.append(len(v))
        return product(row, col, weight, v)

    monkeypatch.setattr(growth, "_float_product", counting_product)
    return sizes


NOT_FINITE_GAP_ROWS = [[(1, 197)], [(0, 507)], [(0, 1), (2, 1006)]]


def test_float_pass_stops_at_a_gap_that_is_not_finite(monkeypatch):
    # this graph is not strongly connected: two entries of the float vector
    # underflow to 0, the gap is 0/0, and the pass stops there, with no
    # RuntimeWarning, where it used to run all 20,000 iterations
    rows = NOT_FINITE_GAP_ROWS
    comp = WeightedDigraph.from_rows([dict(row) for row in rows])
    products = counting_products(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = growth._float_vector(comp)
        slow = row_sum_float_vector(rows, len(rows), growth.FLOAT_STEPS)
    assert fast.tobytes() == slow.tobytes()
    assert (fast == 0).any()
    assert len(products) < 2000


@given(st.one_of(
    component_rows(),
    component_rows(max_n=4, max_weight=2000),
    periodic_rows(),
    st.just(NOT_FINITE_GAP_ROWS),
))
@example(NOT_FINITE_GAP_ROWS)
@example([[(0, 1)]])
@example([[(1, 1)], [(0, 1), (1, 1)]])
@settings(max_examples=150, deadline=None)
def test_float_vector_matches_row_sum_oracle_bit_for_bit(rows):
    # small and heavy rows, periodic graphs, and the graph whose gap is
    # not finite, each to its own stop
    comp = WeightedDigraph.from_rows([dict(row) for row in rows])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fast = growth._float_vector(comp)
    slow = row_sum_float_vector(rows, len(rows), growth.FLOAT_STEPS)
    assert fast.tobytes() == slow.tobytes()


def test_float_pass_runs_to_its_own_stop(monkeypatch):
    # a 3-cycle's gap is 0 at the first check, after 32 steps; a 2-cycle and
    # a 61-cycle through one state mix slowly and run thousands of steps
    cycle = WeightedDigraph.from_rows([{1: 1}, {2: 1}, {0: 1}])
    rows = [{1: 1, 2: 1}, {0: 1}] + [{t + 1: 1} for t in range(2, 61)] + [{0: 1}]
    slow = WeightedDigraph.from_rows(rows)
    products = counting_products(monkeypatch)
    growth._float_vector(cycle)
    assert products == [3] * 33
    products.clear()
    growth._float_vector(slow)
    assert set(products) == {62}
    assert sum(products) > 1000 * 62


@given(st.lists(st.floats(0.0, 1.0, allow_subnormal=True), max_size=40))
@example([0.0, 1.0, 5e-324, 2.2250738585072014e-308, 1.1e-16, 2.0**-53, 0.5 - 2.0**-54])
@settings(max_examples=300, deadline=None)
def test_integer_vector_matches_per_entry_loop(xs):
    fv = np.array(xs, dtype=float)
    got = growth._integer_vector(fv).tolist()
    assert got == [max(1, int(x * (1 << 53))) for x in fv.tolist()]
    assert all(type(x) is int for x in got)


@pytest.mark.parametrize("delta", [Fraction(1, 100), Fraction(1, 10**9)])
def test_digraph_index_width_obeys_delta(delta):
    rng = random.Random(5)
    for _ in range(25):
        rows = builders.random_digraph(rng)
        iv = digraph_index(rows, delta)
        assert iv.width <= 2 * delta
        assert iv.lo >= 0


def test_digraph_index_matches_sympy_oracle():
    rng = random.Random(17)
    for _ in range(60):
        rows = builders.random_digraph(rng)
        iv = digraph_index(rows, Fraction(1, 10**6))
        assert interval_contains(iv.lo, iv.hi, spectral_radius_root(rows))


def test_digraph_index_edge_addition_is_monotone():
    rng = random.Random(23)
    for _ in range(20):
        rows = builders.random_digraph(rng, max_vertices=6)
        before = digraph_index(rows)
        u = rng.randrange(len(rows))
        t = rng.randrange(len(rows))
        rows[u][t] = rows[u].get(t, 0) + 1
        after = digraph_index(rows)
        assert after.hi + 2 * Fraction(1, 10**6) >= before.hi


def test_approximate_index_full_and_empty():
    iv = approximate_index(builders.full_dfa(4))
    assert iv == (4, 4)
    with pytest.raises(ValueError):
        approximate_index(empty_dfa(2))
    finite = trim(builders.chain_dfa(3))
    assert approximate_index(finite) == (0, 0)


def test_approximate_index_rejects_bad_delta():
    with pytest.raises(ValueError):
        approximate_index(builders.full_dfa(2), 0)
    with pytest.raises(ValueError):
        digraph_index([{0: 1}], Fraction(-1, 2))


# ---------------------------------------------------------------------------
# polynomial index


def test_polynomial_index_values():
    assert polynomial_index_general(builders.two_loop_dfa()) == 1
    assert polynomial_index_general(builders.full_dfa(2)) == 0
    assert polynomial_index_general(builders.phi_dfa()) == 0
    assert polynomial_index_general(builders.chained_phi_dfa()) == 1
    assert polynomial_index_general(builders.cycle_dfa(4)) == 0


def test_polynomial_index_ignores_slower_components():
    # phi block chained into a single cycle: the cycle never dominates
    base = builders.phi_dfa()
    s = base.state_count
    rows = builders.dict_rows(base)
    rows.append({0: s})
    for q in range(s):
        rows[q][2] = s
    d = builders.dict_dfa(3, rows, base.initial, range(s + 1))
    assert polynomial_index_general(d) == 0


def test_polynomial_index_undefined_for_finite():
    with pytest.raises(ValueError):
        polynomial_index_general(builders.chain_dfa(2))


# ---------------------------------------------------------------------------
# residue profiles


def test_profile_full_binary():
    rep = asymptotic_profile(builders.full_dfa(2))
    assert rep.classification.tag == "Exponential"
    assert rep.residue_count == 1
    assert rep.pd == 0
    assert rep.oscillation == "NonOscillating"
    (pr,) = rep.per_residue
    assert pr.alpha_lo <= 2 <= pr.alpha_hi and pr.m == 0


def test_profile_phi_single_residue():
    rep = asymptotic_profile(builders.phi_dfa())
    assert rep.residue_count == 1
    assert rep.oscillation == "NonOscillating"
    assert contains_root_of(rep.gr.lo, rep.gr.hi, 1, -1, -1)


def test_profile_even_only_language():
    rep = asymptotic_profile(trim(builders.even_only_dfa()))
    assert rep.residue_count == 2
    assert rep.oscillation == "Wild"
    even, odd = rep.per_residue
    assert even.alpha_lo <= 1 <= even.alpha_hi and even.m == 0
    assert odd.alpha_hi == 0


def test_profile_parity_split_rates():
    rep = asymptotic_profile(builders.parity_split_dfa())
    assert rep.residue_count == 2
    assert rep.oscillation == "Wild"
    even, odd = rep.per_residue
    assert even.alpha_lo <= 2 <= even.alpha_hi
    assert odd.alpha_lo <= 1 <= odd.alpha_hi
    assert even.alpha_lo > odd.alpha_hi


def test_profile_oscillating_degrees():
    rep = asymptotic_profile(builders.oscillating_dfa())
    assert rep.residue_count == 2
    assert rep.oscillation == "Oscillating"
    degrees = {pr.residue: pr.m for pr in rep.per_residue}
    assert degrees == {0: 1, 1: 0}
    for pr in rep.per_residue:
        assert pr.alpha_lo <= 1 <= pr.alpha_hi


def test_profile_finite_language():
    rep = asymptotic_profile(trim(builders.chain_dfa(3)))
    assert rep.classification.tag == "Finite"
    assert rep.gr == (0, 0)
    assert rep.pd == 0
    assert rep.oscillation == "NonOscillating"


@pytest.mark.parametrize("k", [1, 2, 3])
def test_profile_empty_automaton(k):
    # the 0-state automaton takes the general path: no component, no rate
    zero = Fraction(0)
    assert asymptotic_profile(empty_dfa(k), Fraction(1, 7)) == growth.GrowthReport(
        growth.ComplexityClass("Finite"),
        growth.IndexInterval(zero, zero),
        0,
        1,
        (growth.ResidueAsymptotics(0, zero, zero, 0),),
        "NonOscillating",
        Fraction(1, 7),
    )


def test_profile_residues_match_counts(dfa_corpus):
    """A residue with a dead profile counts zero eventually; a residue
    with rate >= 1 keeps producing words."""
    for d in dfa_corpus[:20]:
        rep = asymptotic_profile(d)
        r = rep.residue_count
        s = d.state_count
        horizon = range(2 * s, 2 * s + 2 * r)
        for pr in rep.per_residue:
            counts = [count_words(d, n) for n in horizon if n % r == pr.residue]
            if pr.alpha_hi == 0:
                assert all(c == 0 for c in counts)
            elif pr.alpha_lo >= 1:
                assert all(c > 0 for c in counts)


def test_profile_gr_agrees_with_approximate_index(dfa_corpus):
    for d in dfa_corpus[:20]:
        rep = asymptotic_profile(d)
        iv = approximate_index(d)
        assert rep.gr.lo <= iv.hi and iv.lo <= rep.gr.hi


PROFILE_BUILDERS = (
    builders.oscillating_dfa,
    builders.parity_split_dfa,
    builders.even_only_dfa,
    builders.chained_phi_dfa,
    builders.dominated_cycle_dfa,
    builders.three_target_cycle_dfa,
    builders.two_entry_lift_dfa,
    builders.swapped_three_target_dfa,
)


def profile_automata(dfa_corpus, levels):
    """The corpus, the builders' profile automata and the Thue-Morse
    automata of ``levels``."""
    automata = list(dfa_corpus) + [trim(build()) for build in PROFILE_BUILDERS]
    return automata + [fad_automaton(tm_antidictionary(i)) for i in levels]


def local_graphs_of(graph, dec, cids=None):
    """The local graphs of components ``cids`` of ``dec`` (default the
    nontrivial ones), in the order of their least members."""
    cids = dec.nontrivial if cids is None else cids
    members = sorted((dec.members_of(c).tolist() for c in cids), key=min)
    return list(automaton.component_graphs(graph, members))


def test_three_target_rows_reach_the_float_pass():
    # the product component of the ternary builder has rows of three
    # terms, whose float sum depends on their order
    d = builders.three_target_cycle_dfa()
    r = asymptotic_profile(d).residue_count
    assert r == 2
    product = growth._CounterProduct(d, r)
    (comp,) = local_graphs_of(product.graph, graph_scc(product.graph))
    assert int(np.diff(comp.indptr).max()) == 3


@pytest.mark.parametrize("delta", [Fraction(1, 10**6), Fraction(1, 10**9)])
def test_profile_matches_per_slice_oracle(dfa_corpus, delta):
    """The shared component analysis gives exactly the report of the
    per-slice pipeline, every field and every Fraction."""
    for d in profile_automata(dfa_corpus, range(4)):
        assert asymptotic_profile(d, delta) == per_slice_profile(d, delta)


@pytest.mark.parametrize("delta", [Fraction(1, 10**6), Fraction(1, 10**12)])
def test_profile_rows_match_trimmed_slices(dfa_corpus, delta):
    # the rows read off the product's one decomposition are the rows of
    # the earlier loop, which trimmed, decomposed and analysed each slice
    for d in profile_automata(dfa_corpus, range(-1, 4)):
        rep = asymptotic_profile(d, delta)
        assert rep.per_residue == trimmed_slice_rows(d, rep.residue_count, delta), d


def test_slice_components_are_product_components(dfa_corpus):
    """The restriction lemma: the nontrivial components of each trimmed
    slice have, in order, the local graphs of the product components the
    profile assigns to that slice."""
    for d in profile_automata(dfa_corpus, range(-1, 4)):
        r = asymptotic_profile(d).residue_count
        product = growth._CounterProduct(d, r)
        dec = graph_scc(product.graph)
        slices = growth._product_slices(tails(d, r), product, dec)
        for j in range(r):
            piece = counter_slice(d, r, j)
            graph = growth.transition_graph(piece)
            inside = [c for c in dec.nontrivial if slices[c] >> j & 1]
            expected = local_graphs_of(graph, graph_scc(graph))
            assert local_graphs_of(product.graph, dec, inside) == expected, (d, j)


@st.composite
def layered_accepting_dfas(draw, max_states=10):
    """Automata whose first two letters lead from state q to a state of
    class q + 1 mod p and whose third letter, now and then, leads
    anywhere, with any start and accepting states: components of several
    periods, some not reached or not reaching acceptance."""
    n = draw(st.integers(1, max_states))
    p = draw(st.integers(1, 4))
    rows = []
    for q in range(n):
        layer = [t for t in range(n) if t % p == (q + 1) % p]
        targets = draw(st.lists(st.sampled_from(layer), max_size=2, unique=True)) if layer else []
        if draw(st.integers(0, 5)) == 0:
            targets.append(draw(st.integers(0, n - 1)))
        rows.append(dict(enumerate(targets)))
    accepting = draw(st.lists(st.integers(0, n - 1), unique=True))
    return builders.dict_dfa(3, rows, draw(st.integers(0, n - 1)), accepting)


@given(layered_accepting_dfas())
@settings(max_examples=300, deadline=None)
def test_residue_masks_from_one_member_match_every_member(dfa):
    dec = graph_scc(growth.transition_graph(dfa))
    assume(len(dec.nontrivial))
    rho = math.lcm(*(
        automaton.imprimitivity(dfa, dec.members_of(c).tolist()) for c in dec.nontrivial.tolist()
    ))
    for modulus in (rho, 2 * rho):
        tail = tails(dfa, modulus)
        assert growth._residue_sets(dfa, dec, modulus, tail) == member_residue_sets(
            dfa, dec, modulus
        )
    # the tails mod each divisor of rho fold from those mod rho
    tail = tails(dfa, rho)
    for r in range(1, rho + 1):
        if rho % r == 0:
            assert [growth._fold(t, rho, r) for t in tail] == tails(dfa, r)


@pytest.mark.parametrize("delta", [Fraction(1, 10**6), Fraction(1, 10**12)])
def test_profile_matches_per_component_product_oracle(monkeypatch, dfa_corpus, delta):
    """Product components that lift an automaton component take its
    intervals: the report and every product component's two intervals
    are those of certifying each product component on its own, Fraction
    for Fraction."""
    calls = []
    analyse = growth._analyse

    def recording_analyse(*args, **kwargs):
        calls.append(analyse(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(growth, "_analyse", recording_analyse)
    for d in profile_automata(dfa_corpus, range(-1, 6)):
        calls.clear()
        rep = asymptotic_profile(d, delta)
        if len(calls) < 2:  # a finite language: no counter product
            continue
        _, prates, ptight = calls[1]
        assert (rep, prates, ptight) == per_component_product_profile(d, delta), d


def streams_opened(monkeypatch, dfa) -> int:
    """The certificate streams ``asymptotic_profile`` opens on ``dfa``."""
    streams = []
    certificates = growth._certificates

    def counting_certificates(comp, *args):
        streams.append(comp)
        return certificates(comp, *args)

    monkeypatch.setattr(growth, "_certificates", counting_certificates)
    asymptotic_profile(dfa)
    monkeypatch.setattr(growth, "_certificates", certificates)
    return len(streams)


def test_three_target_lifts_reuse_only_rows_in_state_order(monkeypatch):
    # each builder's counter product mod 2 holds one or two lifts of its
    # one period-2 component, with rows of three targets; a lift that
    # lists such a row's targets out of the order of their states opens a
    # stream of its own, and the two lifts of the swapped builder do
    for build, lifts, streams in ((builders.three_target_cycle_dfa, 1, 1),
                                  (builders.two_entry_lift_dfa, 2, 1),
                                  (builders.swapped_three_target_dfa, 2, 3)):
        d = build()
        assert asymptotic_profile(d).residue_count == 2
        product = growth._CounterProduct(d, 2)
        assert int(np.diff(product.graph.indptr).max()) == 3
        assert len(graph_scc(product.graph).nontrivial) == lifts
        assert streams_opened(monkeypatch, d) == streams, build


@given(layered_accepting_dfas(), st.integers(1, 6))
@settings(max_examples=200, deadline=None)
def test_product_components_of_automaton_size_are_renamed_automaton_components(dfa, r):
    """The lemma of ``growth._lifts``: a product component P over the
    automaton component C of period p has |C| * r / gcd(p, r) pairs, and
    when |P| = |C| the projection (q, c) -> q turns P's local graph into
    C's, weights and all.  ``_lifts`` maps P to C exactly then, when
    every row of P's local graph with three or more entries also lists
    its targets in the order of their states."""
    graph = growth.transition_graph(dfa)
    base = graph_scc(graph)
    product = growth._CounterProduct(dfa, r)
    dec = graph_scc(product.graph)
    states = np.array(product.states)
    lifts = growth._lifts(product.graph, dec, product.states, base)
    local = np.full(dfa.state_count, -1)
    for pid in dec.nontrivial.tolist():
        pairs = dec.members_of(pid)
        c = int(base.component_of[states[pairs[0]]])
        members = base.members_of(c)
        (comp,) = automaton.component_graphs(graph, [members])
        assert len(pairs) == len(members) * r // math.gcd(graph_period(comp), r)
        if len(pairs) != len(members):
            assert pid not in lifts
            continue
        (lifted,) = automaton.component_graphs(product.graph, [pairs])
        local[members] = np.arange(len(members))
        name = local[states[pairs]]
        assert sorted(name.tolist()) == list(range(len(members)))
        row = np.repeat(name, np.diff(lifted.indptr))
        renamed = WeightedDigraph.from_edges(
            len(members), row, name[lifted.indices], lifted.weights
        )
        assert renamed == comp
        rows = [[int(name[t]) for t, _ in row] for row in digraph_rows(lifted)]
        in_order = all(t == sorted(t) for t in rows if len(t) >= 3)
        assert lifts.get(pid) == (c if in_order else None)


def test_profile_residue_count_below_period_lcm():
    # the 4-cycle only adds words at lengths 0 mod 4, which the rate-2
    # block already carries; the 3-cycle adds lengths 1 mod 6: r = 6, not 12
    rep = asymptotic_profile(builders.dominated_cycle_dfa())
    assert rep.residue_count == 6
    assert rep.oscillation == "Wild"
    for pr in rep.per_residue:
        if pr.residue % 2 == 0:
            assert pr.alpha_lo <= 2 <= pr.alpha_hi
        elif pr.residue == 1:
            assert pr.alpha_lo <= 1 <= pr.alpha_hi < 2
        else:
            assert pr.alpha_hi == 0


def test_profile_certifies_each_component_once(monkeypatch):
    # Thue-Morse level 2 has r = 8 slices, and each of the counter
    # product's 8 components is a one-to-one lift of the automaton's one
    # component: the profile reads both widths of every component from
    # that one stream, and decomposes two graphs, the automaton's and the
    # counter product's
    streams, decompositions = [], []
    certificates = growth._certificates
    decompose = growth.graph_scc

    def counting_certificates(comp, *period):
        streams.append(comp)
        return certificates(comp, *period)

    def counting_scc(graph):
        decompositions.append(graph)
        return decompose(graph)

    monkeypatch.setattr(growth, "_certificates", counting_certificates)
    monkeypatch.setattr(growth, "graph_scc", counting_scc)
    rep = asymptotic_profile(fad_automaton(tm_antidictionary(2)))
    assert rep.residue_count == 8
    assert all(pr.alpha_hi > 0 for pr in rep.per_residue)
    assert len(streams) == len(set(streams)) == 1
    assert len(decompositions) == 2


def test_profile_runs_one_float_pass_per_decomposed_graph(monkeypatch):
    # the one component of the Thue-Morse level-2 automaton is wider than
    # delta/2 at all-ones and gets one float pass; the counter product's
    # components all lift it, so the product's graph opens no stream and
    # runs no pass
    passes = []
    float_vector = growth._float_vector

    def counting_float_vector(comp, *args):
        passes.append(comp)
        return float_vector(comp, *args)

    monkeypatch.setattr(growth, "_float_vector", counting_float_vector)
    asymptotic_profile(fad_automaton(tm_antidictionary(2)))
    assert len(passes) == 1


def assert_same_decomposition(dec, expected, case):
    """Every field of the array record ``dec`` holds what the reference
    record ``expected`` holds: members and condensation successors
    increasing, and every array int64."""
    fields = (dec.component_of, dec.member_ptr, dec.members, dec.nontrivial,
              dec.successor_ptr, dec.successors)
    assert all(a.dtype == np.int64 for a in fields), case
    assert dec.component_of.tolist() == list(expected.component_of), case
    members = [dec.members_of(c).tolist() for c in range(len(dec))]
    assert members == [sorted(c) for c in expected.components], case
    assert dec.nontrivial.tolist() == sorted(expected.nontrivial), case
    ptr = dec.successor_ptr.tolist()
    edges = [(c, t) for c in range(len(dec)) for t in dec.successors[ptr[c]:ptr[c + 1]].tolist()]
    assert edges == sorted(expected.condensation_edges), case


def test_one_graph_decomposition_matches_successor_lists(dfa_corpus):
    # the profile's decomposition, read off the engine's graph, equals
    # Tarjan on successor lists built from the rows
    rng = random.Random(1207)
    tm = [fad_automaton(tm_antidictionary(i)) for i in range(-1, 4)]
    corpus = tm + [extendable_part(d, side) for d in tm for side in ("right", "two")]
    corpus += dfa_corpus + [builders.random_dfa(rng, max_states=12, k=3) for _ in range(200)]
    corpus += [empty_dfa(2)]
    for d in corpus:
        expected = successor_list_scc(d)
        for dec in (scc(d), graph_scc(growth.transition_graph(d))):
            assert_same_decomposition(dec, expected, d)
    # and so does the decomposition of each Thue-Morse counter product
    for level in range(-1, 5):
        d = fad_automaton(tm_antidictionary(level))
        graph = growth._CounterProduct(d, asymptotic_profile(d).residue_count).graph
        assert_same_decomposition(graph_scc(graph), tarjan_scc(graph), level)


@st.composite
def random_digraph_rows(draw):
    """The rows of ``builders.random_digraph``, from a drawn generator
    and edge density."""
    rng = draw(st.randoms(use_true_random=False))
    return builders.random_digraph(rng, max_vertices=12, density=draw(st.floats(0, 0.6)))


@given(random_digraph_rows())
@example([])
@example([{0: 1}, {}, {0: 2, 2: 1}])
@settings(max_examples=300, deadline=None)
def test_graph_decomposition_matches_tarjan_oracle(rows):
    # includes the empty graph, self-loops and edgeless vertices
    graph = WeightedDigraph.from_rows(rows)
    assert_same_decomposition(graph_scc(graph), tarjan_scc(graph), rows)


def test_profile_builds_one_graph_per_automaton(monkeypatch):
    graphs, products = [], []
    adjacency = growth.transition_graph

    def counting_adjacency(dfa):
        graphs.append(dfa)
        return adjacency(dfa)

    class CountingProduct(growth._CounterProduct):
        def __init__(self, dfa, modulus):
            products.append(modulus)
            super().__init__(dfa, modulus)

    def refuse(dfa):
        raise AssertionError("scc built its own successor lists")

    # both names count, so a graph that scc(dfa) builds is counted too
    monkeypatch.setattr(growth, "transition_graph", counting_adjacency)
    monkeypatch.setattr(automaton, "transition_graph", counting_adjacency)
    monkeypatch.setattr(growth, "_CounterProduct", CountingProduct)
    monkeypatch.setattr(growth, "scc", refuse, raising=False)
    rep = asymptotic_profile(fad_automaton(tm_antidictionary(1)))
    assert len(graphs) == 1
    assert products == [rep.residue_count] == [4]


def test_profile_size_error_at_the_pair_limit(monkeypatch):
    # Thue-Morse level 2's product mod 8 reaches `pairs` pairs: a limit of
    # exactly that many passes, one fewer raises before the product's graph
    # is built
    d = fad_automaton(tm_antidictionary(2))
    pairs = len(growth._CounterProduct(d, 8).states)
    expected = asymptotic_profile(d)
    monkeypatch.setattr(growth._CounterProduct, "PAIR_LIMIT", pairs)
    assert asymptotic_profile(d) == expected
    built = []
    from_edges = WeightedDigraph.from_edges.__func__

    def counting_from_edges(cls, n, *edges):
        built.append(n)
        return from_edges(cls, n, *edges)

    monkeypatch.setattr(WeightedDigraph, "from_edges", classmethod(counting_from_edges))
    monkeypatch.setattr(growth._CounterProduct, "PAIR_LIMIT", pairs - 1)
    with pytest.raises(ProfileSizeError) as err:
        asymptotic_profile(d)
    assert (err.value.modulus, err.value.limit) == (8, pairs - 1)
    assert f"more than {pairs - 1} " in str(err.value)
    assert built == [d.state_count]


@pytest.mark.parametrize("level", [3, 4])
def test_profile_is_pinned(level):
    # the report the per-slice loop gave, every Fraction (repr) and every
    # byte of JSON
    rep = asymptotic_profile(fad_automaton(tm_antidictionary(level)), Fraction(1, 10**6))
    assert rep.to_json_text() + "\n" == (PINNED / f"tm{level}-profile.json").read_text()
    assert repr(rep) + "\n" == (PINNED / f"tm{level}-profile.repr").read_text()


def test_multi_component_profiles_are_pinned():
    # every Fraction of the profiles, at 1e-6 and 1e-12, of the automata
    # whose automaton or counter product had two or more components wider
    # than delta/2 at all-ones when the float passes of one graph ran as
    # one block-diagonal loop: sixteen random automata (builders.random_dfa)
    # and the twelve-component chain of scripts/timings.py. Each float
    # vector is its lone pass's, bit for bit, so the reports are the same
    for entry in json.loads((PINNED / "multi-component-profiles.json").read_text()):
        d = parse_dfa(entry["dfa"])
        for delta, expected in entry["profiles"].items():
            assert repr(asymptotic_profile(d, Fraction(delta))) == expected, entry["dfa"]


@pytest.mark.parametrize("level", [5, 6])
def test_profile_of_a_large_thue_morse_level(level):
    # about 1 s and 2 s; at level 6 the 512-state components are certified
    # past their float certificates, over one period of 128 steps
    rep = asymptotic_profile(fad_automaton(tm_antidictionary(level)))
    e = 2 ** (level + 1)
    assert (rep.residue_count, rep.pd) == (e, 0)
    assert rep.gr.width <= 2 * Fraction(1, 10**6)
    for lo, hi in [rep.gr] + [(pr.alpha_lo, pr.alpha_hi) for pr in rep.per_residue]:
        assert contains_root_of(lo**e, hi**e, 1, -1, -1)


def test_profile_rate_is_pinned():
    # the exact certificate, as first recorded: a float vector that
    # differs in one bit, from another summation order or schedule,
    # moves it
    gr = asymptotic_profile(fad_automaton(tm_antidictionary(2))).gr
    assert gr.lo == Fraction(605812568909975, 570446374702521)
    assert gr.hi == Fraction(6278400847727603, 5911879657696003)


# ---------------------------------------------------------------------------
# serialization


def test_report_json_shape():
    import json

    rep = asymptotic_profile(builders.oscillating_dfa())
    doc = json.loads(rep.to_json_text())
    assert doc["classification"]["tag"] == "Polynomial"
    assert doc["oscillation"] == "Oscillating"
    assert doc["residue_count"] == 2
    assert len(doc["per_residue"]) == 2
    assert float(doc["gr"]["lo"]) <= float(doc["gr"]["hi"])


def test_report_text_shape():
    text = asymptotic_profile(builders.phi_dfa()).to_text()
    assert "growth rate" in text
    assert "oscillation  NonOscillating" in text


def test_decimal_rounding_directions():
    third = Fraction(1, 3)
    assert decimal_lower(third, 6) == "0.333333"
    assert decimal_upper(third, 6) == "0.333334"
    exact = Fraction(5, 4)
    assert decimal_lower(exact, 6) == decimal_upper(exact, 6) == "1.250000"
    assert decimal_lower(Fraction(2), 3) == "2.000"
