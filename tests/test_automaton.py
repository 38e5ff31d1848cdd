"""Automaton core: text format, trimming, components, walk bounds."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import builders
from oracles import _counter_reach, bfs_graph_period, bfs_imprimitivity, bfs_reach, stack_trim
from wordgrowth.automaton import (
    Dfa,
    DfaFormatError,
    WeightedDigraph,
    cycle_intersection_bound,
    empty_dfa,
    format_dfa,
    graph_period,
    graph_scc,
    imprimitivity,
    length_masks,
    parse_dfa,
    reverse_edges,
    scc,
    transition_edges,
    transition_graph,
    trim,
)

PHI_TEXT = """\
# factors avoiding aaa and bbb
dfa 5 2 0
accept 0 1 2 3 4
0 0 1
0 1 3
1 0 2
1 1 3
2 1 3
3 0 1
3 1 4
4 0 1
"""


def all_words(k, n):
    return itertools.product(range(k), repeat=n)


def accepted_set(dfa, max_len):
    out = set()
    for n in range(max_len + 1):
        for w in all_words(dfa.alphabet_size, n):
            if dfa.accepts(w):
                out.add(w)
    return out


# ---------------------------------------------------------------------------
# construction and the text format


def test_dfa_validates_construction():
    for k, table, initial, accepting in [
        (0, np.empty((0, 0), int), None, []),  # no letter
        (2, [[0, -1]], 1, [0]),  # initial state out of range
        (2, [[0, -1]], 0, [3]),  # accepting state out of range
        (2, np.empty((0, 2), int), 0, []),  # no state, yet an initial one
        (2, [[0, -1, -1, -1, -1, 0]], 0, [0]),  # a letter past k: shape (1, 6)
        (2, [0, -1], 0, [0]),  # shape (2,)
        (2, [[[0, -1]]], 0, [0]),  # shape (1, 1, 2)
        (2, [[0, -1], [0]], 0, [0]),  # ragged rows
        (2, [[-2, 0]], 0, [0]),  # an entry below -1
        (2, [[1, 0]], 0, [0]),  # an entry at n
        (2, np.array([[2**32 - 1, 0]]), 0, [0]),  # int32 would wrap it to -1
        (2, [[0.0, -1.0]], 0, [0]),  # floats, even integral ones
        (2, [[0.5, -1]], 0, [0]),
        (2, [[True, False]], 0, [0]),
    ]:
        with pytest.raises(ValueError):
            Dfa(k, table, initial, accepting)
    # the stored table is an int32 copy that nothing can write to
    rows = [[1, 0], [0, 1]]
    given = np.array(rows, dtype=np.int64)
    d = Dfa(2, given, 0, [1])
    assert d.table.dtype == np.int32 and not d.table.flags.writeable
    with pytest.raises(ValueError):
        d.table[0, 0] = 1
    assert given.flags.writeable
    # tables of any integer dtype, and lists, give equal automata
    assert d == Dfa(2, np.array(rows, dtype=np.uint8), 0, [1]) == Dfa(2, rows, 0, [1])
    assert d != Dfa(2, [[1, 0], [0, 0]], 0, [1])


def test_run_rejects_letters_outside_the_alphabet():
    d = builders.two_loop_dfa()  # k = 2
    assert d.run((0, 1)) == 1 and type(d.run((0, 1))) is int
    assert d.run((1, 1)) is None  # no move
    for word in ((-1,), (2,), (0, -1), (0, 2)):
        assert d.run(word) is None
        assert not d.accepts(word)


def test_empty_dfa():
    d = empty_dfa(2)
    assert d.state_count == 0
    assert d.initial is None
    assert not d.accepts(())
    assert trim(d).state_count == 0


def test_parse_phi_text():
    d = parse_dfa(PHI_TEXT)
    assert d.state_count == 5
    assert d.alphabet_size == 2
    assert d.accepting == frozenset(range(5))
    assert d.accepts((0, 0)) and not d.accepts((0, 0, 0))
    assert d.accepts((1, 1)) and not d.accepts((1, 1, 1))


def test_format_roundtrip_fixed():
    for d in [
        parse_dfa(PHI_TEXT),
        builders.two_loop_dfa(),
        builders.chain_dfa(3),
        builders.full_dfa(3),
    ]:
        assert parse_dfa(format_dfa(d)) == d


def test_format_roundtrip_random(dfa_corpus):
    for d in dfa_corpus:
        assert parse_dfa(format_dfa(d)) == d


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("nonsense 1 2 3", 1),
        ("dfa 2 2", 1),
        ("dfa 2 2 5", 1),
        ("dfa x 2 0", 1),
        ("dfa 2 0 0", 1),
        ("# comment\ndfa 2 2 0\naccept 7", 3),
        ("dfa 2 2 0\naccept q", 2),
        ("dfa 2 2 0\n0 0", 2),
        ("dfa 2 2 0\n\n0 0 5", 3),
        ("dfa 2 2 0\n0 4 1", 2),
        ("dfa 2 2 0\n5 0 1", 2),
        ("dfa 2 2 0\n0 0 1\n0 0 1", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(DfaFormatError) as err:
        parse_dfa(text)
    assert err.value.line_no == line
    assert f"line {line}:" in str(err.value)


def test_parse_rejects_a_duplicate_transition():
    # the same source and letter twice, with another line between them
    with pytest.raises(DfaFormatError) as err:
        parse_dfa("dfa 2 2 0\n0 0 1\n1 0 0\n0 0 0")
    assert str(err.value) == "line 4: duplicate transition from state 0 on letter 0"


def test_parse_ignores_comments_and_blanks():
    d = parse_dfa("\n# x\ndfa 1 1 0  # header\naccept 0\n\n0 0 0 # loop\n")
    assert d.state_count == 1 and d.accepts((0, 0, 0))


# ---------------------------------------------------------------------------
# trimming


def test_trim_drops_unreachable_and_dead():
    # state 2 unreachable, state 3 cannot reach an accepting state
    d = builders.dict_dfa(2, [{0: 1, 1: 3}, {}, {0: 0}, {0: 3}], 0, [1])
    t = trim(d)
    assert t.state_count == 2
    assert accepted_set(t, 4) == accepted_set(d, 4) == {(0,)}


def test_trim_no_accepting_gives_empty():
    d = builders.dict_dfa(2, [{0: 0}], 0, [])
    assert trim(d).state_count == 0


def test_trim_idempotent_and_language_preserving(dfa_corpus):
    for d in dfa_corpus:
        t = trim(d)
        assert trim(t) == t
        assert accepted_set(t, 6) == accepted_set(d, 6)


def test_trim_keeps_all_states_of_consistent_automata():
    d = builders.phi_dfa()
    assert trim(d) == d


@given(builders.partial_dfas())
@settings(max_examples=300, deadline=None)
def test_trim_matches_stack_search_oracle(dfa):
    assert format_dfa(trim(dfa)) == format_dfa(stack_trim(dfa))


# ---------------------------------------------------------------------------
# walks


@given(builders.partial_dfas(), st.data())
@settings(max_examples=300, deadline=None)
def test_walk_at_modulus_one_is_reachability(dfa, data):
    n = dfa.state_count
    seeds = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    rows = [list(row.values()) for row in builders.dict_rows(dfa)]
    back = reverse_edges(n, *transition_edges(dfa))
    # each transition into t, once per letter, in state order
    assert back == [[q for q in range(n) for u in rows[q] if u == t] for t in range(n)]
    for edges in (rows, back):
        reached = bfs_reach(edges, seeds)
        assert length_masks(edges, seeds, 1) == [int(q in reached) for q in range(n)]


@given(builders.partial_dfas(), st.integers(1, 6), st.data())
@settings(max_examples=300, deadline=None)
def test_walk_lengths_are_counter_product_pairs(dfa, modulus, data):
    n = dfa.state_count
    seeds = data.draw(st.lists(st.integers(0, n - 1), max_size=3))
    pairs = set()
    for q in seeds:
        pairs |= _counter_reach(dfa, modulus, (q, 0))
    # the table's rows, -1 for no move, are the edges the library reads
    bits = length_masks(dfa.table.tolist(), seeds, modulus)
    assert {(q, c) for q in range(n) for c in range(modulus) if bits[q] >> c & 1} == pairs


# ---------------------------------------------------------------------------
# strongly connected components


def condensation_edges(dec):
    """The condensation's edges, as (component, component) pairs."""
    ptr = dec.successor_ptr.tolist()
    return [(c, t) for c in range(len(dec)) for t in dec.successors[ptr[c]:ptr[c + 1]].tolist()]


def test_graphs_compare_and_hash_by_value_whatever_their_dtypes():
    # the quotient holds int32 rows and narrow weights: a copy in int64,
    # the graph layer's own width, is the same graph
    wide = WeightedDigraph.from_rows([{0: 200, 1: 200}, {0: 200}])
    narrow = WeightedDigraph(
        wide.indptr.astype(np.int32), wide.indices.astype(np.int32), wide.weights.astype(np.uint8)
    )
    assert narrow == wide and hash(narrow) == hash(wide)
    assert narrow != WeightedDigraph.from_rows([{0: 200, 1: 201}, {0: 200}])
    assert narrow != WeightedDigraph.from_rows([{0: 200}, {0: 200, 1: 200}])


def test_tarjan_known_graph():
    # 0 <-> 1, 2 alone with a loop, 3 trivial sink
    dec = graph_scc(WeightedDigraph.from_rows([{1: 1}, {0: 1, 2: 1}, {2: 1, 3: 1}, {}]))
    comps = [dec.members_of(c).tolist() for c in range(len(dec))]
    as_sets = sorted(map(frozenset, comps), key=min)
    assert as_sets == [frozenset({0, 1}), frozenset({2}), frozenset({3})]


def test_tarjan_reports_reverse_topological_order():
    rng = random.Random(7)
    for _ in range(50):
        rows = builders.random_digraph(rng, max_vertices=7)
        position = graph_scc(WeightedDigraph.from_rows(rows)).component_of.tolist()
        # no edge runs to a component numbered earlier
        for u, row in enumerate(rows):
            for v in row:
                assert position[v] >= position[u]


def test_scc_partition_and_nontrivial(dfa_corpus):
    for d in dfa_corpus:
        dec = scc(d)
        components = [set(dec.members_of(c).tolist()) for c in range(len(dec))]
        seen = set()
        for i, comp in enumerate(components):
            assert comp, "empty component"
            for q in comp:
                assert dec.component_of[q] == i
                assert q not in seen
                seen.add(q)
        assert seen == set(range(d.state_count))
        rows = builders.dict_rows(d)
        for i, comp in enumerate(components):
            internal = any(
                t in comp for q in comp for t in rows[q].values()
            )
            assert (i in dec.nontrivial) == internal
        for a, b in condensation_edges(dec):
            assert a != b


def test_scc_condensation_acyclic(dfa_corpus):
    for d in dfa_corpus:
        dec = scc(d)
        m = len(dec)
        succ = [set() for _ in range(m)]
        for a, b in condensation_edges(dec):
            succ[a].add(b)
        color = [0] * m

        def dfs(c):
            color[c] = 1
            for t in succ[c]:
                assert color[t] != 1, "cycle in condensation"
                if color[t] == 0:
                    dfs(t)
            color[c] = 2

        for c in range(m):
            if color[c] == 0:
                dfs(c)


# ---------------------------------------------------------------------------
# imprimitivity


@pytest.mark.parametrize("length", [1, 2, 3, 5, 8, 12])
def test_imprimitivity_of_pure_cycle(length):
    d = builders.cycle_dfa(length)
    assert imprimitivity(d, range(length)) == length


def test_imprimitivity_gcd_of_cycle_lengths():
    # 6-cycle plus a chord closing a 4-cycle: gcd(6, 4) = 2
    rows = [{0: (i + 1) % 6} for i in range(6)]
    rows[3][1] = 0
    d = builders.dict_dfa(2, rows, 0, range(6))
    assert imprimitivity(d, range(6)) == 2
    # adding a self-loop forces gcd 1
    rows[2][1] = 2
    d = builders.dict_dfa(2, rows, 0, range(6))
    assert imprimitivity(d, range(6)) == 1


def test_imprimitivity_random_cycles():
    rng = random.Random(11)
    for _ in range(100):
        length = rng.randint(1, 20)
        d = builders.cycle_dfa(length)
        assert imprimitivity(d, range(length)) == length


def test_imprimitivity_trivial_component_raises():
    d = builders.chain_dfa(2)
    with pytest.raises(ValueError):
        imprimitivity(d, [0])


@st.composite
def layered_dfas(draw, max_states=14):
    """Automata whose letters mostly lead from state q to a state of class
    q + 1 mod p, with a few edges to any state: strong components of many
    periods, and graphs that are not strongly connected."""
    n = draw(st.integers(1, max_states))
    p = draw(st.integers(1, 5))
    rows = []
    for q in range(n):
        layer = [t for t in range(n) if t % p == (q + 1) % p]
        targets = draw(st.lists(st.sampled_from(layer), max_size=3, unique=True)) if layer else []
        if draw(st.integers(0, 7)) == 0:
            targets.append(draw(st.integers(0, n - 1)))
        rows.append(dict(enumerate(targets)))
    return builders.dict_dfa(4, rows, 0, range(n))


@given(layered_dfas())
@settings(max_examples=200, deadline=None)
def test_graph_period_matches_dict_search(dfa):
    graph = transition_graph(dfa)
    dec = graph_scc(graph)
    for c in dec.nontrivial.tolist():
        members = dec.members_of(c).tolist()
        assert imprimitivity(dfa, members) == bfs_imprimitivity(dfa, members)
    # the whole graph: its period when it is one strong component with a
    # cycle, else 1
    whole = len(dec) == 1 and len(dec.nontrivial) == 1
    expected = bfs_imprimitivity(dfa, range(dfa.state_count)) if whole else 1
    assert graph_period(graph) == bfs_graph_period(graph) == expected


def test_phi_component_is_primitive():
    d = builders.phi_dfa()
    dec = scc(d)
    (c,) = dec.nontrivial
    assert imprimitivity(d, dec.members_of(c).tolist()) == 1


# ---------------------------------------------------------------------------
# walks over the condensation


def brute_best_path(dfa, eligible):
    """Maximum number of eligible components on one condensation path."""
    dec = scc(dfa)
    m = len(dec)
    succ = [set() for _ in range(m)]
    for a, b in condensation_edges(dec):
        succ[a].add(b)
    elig = set(eligible)

    def walk(c):
        here = 1 if c in elig else 0
        return here + max((walk(t) for t in succ[c]), default=0)

    return walk(dec.component_of[dfa.initial]) if dfa.state_count else 0


def test_cycle_intersection_bound_fixed():
    assert cycle_intersection_bound(empty_dfa(2), set()) == 0
    two = builders.two_loop_dfa()
    dec = scc(two)
    assert cycle_intersection_bound(two, dec.nontrivial, dec) == 2
    assert cycle_intersection_bound(two, set(), dec) == 0
    chained = builders.chained_phi_dfa()
    dec = scc(chained)
    assert cycle_intersection_bound(chained, dec.nontrivial, dec) == 2


def test_cycle_intersection_bound_matches_brute(dfa_corpus):
    for d in dfa_corpus:
        dec = scc(d)
        for eligible in (dec.nontrivial, set(), set(range(len(dec))))[:3]:
            assert cycle_intersection_bound(d, eligible, dec) == brute_best_path(
                d, eligible
            )
