"""Automata, antidictionaries and exponent bounds shared across the test
modules."""

import numpy as np
from hypothesis import strategies as st

from wordgrowth.automaton import Dfa, trim
from wordgrowth.fad import Antidictionary, fad_automaton, tm_antidictionary
from wordgrowth.words import parse_word


# exponent-bound tokens: plain and plus, above and below 2
TRIM_TOKENS = (
    "2", "2+", "3", "3+", "5/2", "7/3", "7/3+", "11/4",
    "3/2", "5/3", "7/4", "7/5", "4/3", "5/4+",
)


def ad(k, words):
    return Antidictionary(k, [parse_word(w) for w in words])


def dict_dfa(k, rows, initial, accepting):
    """The ``Dfa`` of dict-row literals: row q maps each letter with a
    move to its target, and the move table holds -1 elsewhere."""
    table = np.full((len(rows), k), -1)
    for q, row in enumerate(rows):
        for x, t in row.items():
            table[q, x] = t
    return Dfa(k, table, initial, accepting)


def dict_rows(dfa):
    """The rows of a ``Dfa``'s move table as dicts, each letter with a
    move mapped to its target."""
    return [{x: t for x, t in enumerate(row) if t >= 0} for row in dfa.table.tolist()]


# (k, words): up to 12 nonempty words over 1 to 3 letters, not always
# antifactorial
word_sets = st.integers(1, 3).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(st.lists(st.integers(0, k - 1), min_size=1, max_size=7).map(tuple),
                 max_size=12),
    )
)


def antifactorial(words):
    """The shortest words that contain no shorter kept word: an
    antifactorial set."""
    kept = []
    for w in sorted(set(words), key=lambda w: (len(w), w)):
        if not any(v == w[i:i + len(v)] for v in kept for i in range(len(w))):
            kept.append(w)
    return kept


def random_dfa(rng, max_states=6, k=2, density=0.8, accept_all=False):
    n = rng.randint(1, max_states)
    rows = []
    for _ in range(n):
        rows.append({x: rng.randrange(n) for x in range(k) if rng.random() < density})
    if accept_all:
        accepting = range(n)
    else:
        accepting = [q for q in range(n) if rng.random() < 0.6]
    return dict_dfa(k, rows, 0, accepting)


@st.composite
def partial_dfas(draw, max_states=8, accept_all=False):
    """Partial automata with any initial state and accepting set: some
    states unreachable, some dead, the accepting set possibly empty
    (every state when ``accept_all``)."""
    n = draw(st.integers(1, max_states))
    k = draw(st.integers(1, 3))
    rows = [draw(st.dictionaries(st.integers(0, k - 1), st.integers(0, n - 1))) for _ in range(n)]
    accepting = range(n) if accept_all else draw(st.lists(st.integers(0, n - 1), unique=True))
    return dict_dfa(k, rows, draw(st.integers(0, n - 1)), accepting)


def random_trimmed(rng, **kw):
    """Random automaton that still has states after trimming."""
    while True:
        d = trim(random_dfa(rng, **kw))
        if d.state_count:
            return d


def random_digraph(rng, max_vertices=8, max_weight=3, density=0.35):
    n = rng.randint(1, max_vertices)
    rows = []
    for _ in range(n):
        rows.append(
            {t: rng.randint(1, max_weight) for t in range(n) if rng.random() < density}
        )
    return rows


def full_dfa(k):
    return dict_dfa(k, [{x: 0 for x in range(k)}], 0, [0])


def chain_dfa(length, k=2):
    """Acyclic path: a finite language with one word per length."""
    rows = [{0: i + 1} for i in range(length)] + [{}]
    return dict_dfa(k, rows, 0, range(length + 1))


def cycle_dfa(length):
    rows = [{0: (i + 1) % length} for i in range(length)]
    return dict_dfa(1, rows, 0, range(length))


def two_loop_dfa():
    """a-loop, bridge letter, a-loop: C(n) = n + 1."""
    return dict_dfa(2, [{0: 0, 1: 1}, {0: 1}], 0, [0, 1])


def ab_star_factors_dfa():
    """Factors of a* b*: a-loop with a one-way bridge into a b-loop."""
    return dict_dfa(2, [{0: 0, 1: 1}, {1: 1}], 0, [0, 1])


def even_only_dfa():
    """Words (aa)^m: one residue class alive, the other empty."""
    return dict_dfa(1, [{0: 1}, {0: 0}], 0, [0])


def phi_dfa():
    return fad_automaton(ad(2, ["aaa", "bbb"]))


def chained_phi_dfa():
    """Two copies of the golden-ratio block automaton in series.

    A third letter bridges every state of the first copy into the
    second, so one walk can cross two components of equal rate.
    """
    base = phi_dfa()
    s = base.state_count
    rows = dict_rows(base)
    rows += [{x: t + s for x, t in row.items()} for row in dict_rows(base)]
    for q in range(s):
        rows[q][2] = s + base.initial
    return dict_dfa(3, rows, base.initial, range(2 * s))


def dominated_cycle_dfa():
    """Rate 2 on even lengths, with two slower cycles beside it.

    Letters a,b feed a parity-tracked full binary block accepted at even
    times.  Letter c leads to a fork: a enters a 4-cycle accepted only
    at lengths 0 mod 4, residues the faster block already carries, so
    its period does not enter the residue count; b enters a 3-cycle
    accepted at lengths 1 mod 3, odd ones included, so its period does.
    r = 6 while the lcm of all component periods is 12.
    """
    rows = [
        {0: 1, 1: 1, 2: 3},
        {0: 2, 1: 2},
        {0: 1, 1: 1},
        {0: 4, 1: 8},
        {2: 5},
        {2: 6},
        {2: 7},
        {2: 4},
        {2: 9},
        {2: 10},
        {2: 8},
    ]
    return dict_dfa(3, rows, 0, [0, 2, 6, 10])


def parity_split_dfa():
    """Rate 2 on even lengths, a single word on odd lengths.

    Letters a,b feed a parity-tracked full binary block accepted only
    at even times; letter c feeds a 2-cycle accepted only at odd times.
    """
    rows = [
        {0: 1, 1: 1, 2: 3},
        {0: 2, 1: 2},
        {0: 1, 1: 1},
        {2: 4},
        {2: 3},
    ]
    return dict_dfa(3, rows, 0, [0, 2, 3])


def oscillating_dfa():
    """Equal rates, different polynomial degrees per parity.

    C(odd n) = 1 and C(even n) = n/2 + 1: an a-2-cycle accepted
    everywhere, plus a parity-preserving escape through cc into a
    b-2-cycle accepted only at even times.
    """
    rows = [
        {0: 1, 2: 4},
        {0: 0},
        {1: 3},
        {1: 2},
        {2: 2},
    ]
    return dict_dfa(3, rows, 0, [0, 1, 2])


def three_target_cycle_dfa():
    """A trimmed ternary automaton of one component with period 2, and
    rows of three distinct targets: letters a, b, c lead from the even
    states 0 and 4 to the three odd ones.  Only states 0 and 1 accept.
    The float sum of such a row adds three terms, and their order moves
    its last bits."""
    rows = [
        {0: 1, 1: 2, 2: 3},
        {0: 0, 1: 4},
        {0: 4},
        {0: 0, 2: 5},
        {0: 1, 1: 2, 2: 3},
        {0: 1, 1: 3},
    ]
    return dict_dfa(3, rows, 0, [0, 1])


def two_entry_lift_dfa():
    """The component of ``three_target_cycle_dfa``, renumbered 1-6 and
    entered from a new initial state 0 by a at state 1 and by b at state
    2, which lie in opposite classes of the period: the counter product
    mod 2 holds two one-to-one lifts of the component, and both list
    every three-target row's targets in the order of their states."""
    rows = [
        {0: 1, 1: 2},
        {0: 2, 1: 3, 2: 4},
        {0: 1, 1: 5},
        {0: 5},
        {0: 1, 2: 6},
        {0: 2, 1: 3, 2: 4},
        {0: 2, 1: 4},
    ]
    return dict_dfa(3, rows, 0, [1, 2])


def swapped_three_target_dfa():
    """A period-2 component on states 1-6, classes {1, 4, 5} and
    {2, 3, 6}, entered from a new initial state 0 by a at state 1 and by
    b at state 2, in opposite classes: the counter product mod 2 holds
    two one-to-one lifts of it.  Letters a, b, c lead from state 2 to
    states 4, 1 and 5, so both lifts number their copies of that row's
    targets breadth first out of the order of the states: (2, 1) leads
    to pairs 5, 6, 7 over states 4, 1, 5, and (2, 0) to pairs 1, 8, 9
    over states 1, 5, 4.  The lift through (1, 1) certifies to other
    Fractions than the automaton's component does."""
    rows = [
        {0: 1, 1: 2},
        {0: 3, 1: 2},
        {0: 4, 1: 1, 2: 5},
        {0: 1, 1: 5},
        {0: 3},
        {0: 3, 1: 6},
        {0: 5, 1: 4},
    ]
    return dict_dfa(3, rows, 0, [3, 4])


def subset_blowup_dfa(n):
    """n >= 2 states, all accepting, and three letters: a is the n-cycle,
    b swaps states 0 and 1, and c sends 0 to 1 and fixes every other
    state.  The three generate every map of the states, so the subset
    construction of the two-sided extendable part, which starts from all
    n states, reaches all 2^n - 1 nonempty subsets."""
    q = np.arange(n)
    b = q.copy()
    b[:2] = 1, 0
    c = q.copy()
    c[0] = 1
    return Dfa(3, np.column_stack([(q + 1) % n, b, c]), 0, range(n))


def corpus_antidictionaries():
    """Ten assorted antidictionaries for extendable-part exercises."""
    return [
        ad(2, ["aa", "bb"]),
        ad(2, ["aaa", "bbb"]),
        tm_antidictionary(0),
        tm_antidictionary(1),
        ad(2, ["ab"]),
        ad(2, ["aa"]),
        ad(3, ["ab", "bb", "cb", "ba", "bc"]),
        ad(3, ["ab", "bb", "cb"]),
        ad(3, ["aba", "bab", "cc"]),
        ad(3, ["abc"]),
    ]
