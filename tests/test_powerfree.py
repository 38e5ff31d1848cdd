"""Exponents, minimal violating words, certified power-free bounds."""

import itertools
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from builders import TRIM_TOKENS, antifactorial, word_sets
from oracles import (
    BreadthFirstTrie,
    breadth_first_tables,
    brute_minimal_powers_by_length,
    brute_minimal_powers_by_period,
    chain_walk_quotient_graph,
    digraph_rows,
    fraction_lower_bound,
    free_roots,
    goto_lifted_components,
    goto_loop_quotient_graph,
    goto_move_voltages,
    minimal_periods_of_suffixes,
    minimal_words,
    naive_exponent,
    naive_min_period,
    naive_violates,
    root_level_word_arrays,
    suffixes_stay_free,
    tarjan_cyclic_components,
    thue_morse_prefix,
    trie_check_antifactorial,
    trie_fad_automaton,
    trim_minimal_powers,
)
from wordgrowth import growth, powerfree
from wordgrowth.automaton import scc
from wordgrowth.fad import (
    Antidictionary,
    FailureTrie,
    TrieSizeError,
    tm_antidictionary,
)
from wordgrowth.powerfree import (
    FiniteApproximationError,
    NoLowerBoundError,
    approximation_bounds,
    asymptotic_formula,
    lower_bound,
)
from wordgrowth.words import (
    BudgetExceededError,
    ExponentBound,
    MinimalPower,
    ends_in_violation,
    exponent,
    is_free,
    minimal_period,
    minimal_powers,
    minimal_word_arrays,
    parse_word,
    periods_without_minimal_words,
    suffix_checks,
    target_periods,
    violates,
)
from wordgrowth.automaton import transition_graph
from wordgrowth.growth import cyclic_components
from wordgrowth.powerfree import _lifted_components, _quotient_graph

B = ExponentBound.parse

words_st = st.lists(st.integers(0, 2), min_size=1, max_size=40).map(tuple)


# ---------------------------------------------------------------------------
# exponent bounds


def test_bound_parse_and_str():
    assert B("2") == ExponentBound(2)
    assert B("7/3+") == ExponentBound(7, 3, plus=True)
    assert B("5/2") == ExponentBound(5, 2)
    for token in ("2", "7/3+", "5/2", "3+"):
        assert str(B(token)) == token


def test_bound_value_and_normalization():
    assert B("7/3").value == Fraction(7, 3)
    assert ExponentBound(14, 6) == ExponentBound(7, 3)
    assert ExponentBound(14, 6).num == 7
    assert ExponentBound(4, 2) == ExponentBound(2)
    assert ExponentBound(7, 3, plus=True) != ExponentBound(7, 3)


@pytest.mark.parametrize("token", ["1", "abc", "0/3", "3/3", "1/2", ""])
def test_bound_rejects_tokens_at_or_below_one(token):
    with pytest.raises(ValueError):
        B(token)


@pytest.mark.parametrize("token", ["3/0", "0/0", "5/0+"])
def test_bound_rejects_zero_denominator(token):
    with pytest.raises(ValueError, match="bad exponent token"):
        B(token)


@pytest.mark.parametrize("token", ["-3/-2", "3/-2", "-3", "+5/2"])
def test_bound_rejects_signs(token):
    # int() accepts signs, and Fraction(-3, -2) would cancel two of them
    with pytest.raises(ValueError, match="bad exponent token"):
        B(token)


# ---------------------------------------------------------------------------
# exponents of words


def test_exponent_examples():
    assert exponent(parse_word("aa")) == 2
    assert exponent(parse_word("ababa")) == Fraction(5, 2)
    assert exponent(parse_word("abcab")) == Fraction(5, 3)
    assert exponent(parse_word("a")) == 1
    assert minimal_period(parse_word("abcab")) == 3
    with pytest.raises(ValueError):
        exponent(())


def test_exponent_matches_naive_exhaustively():
    for k, max_n in ((2, 10), (3, 6)):
        for n in range(1, max_n + 1):
            for w in itertools.product(range(k), repeat=n):
                assert minimal_period(w) == naive_min_period(w)
                assert exponent(w) == naive_exponent(w)


@given(words_st)
@settings(max_examples=300, deadline=None)
def test_exponent_matches_naive_random(w):
    assert exponent(w) == naive_exponent(w)


@given(words_st)
@settings(max_examples=200, deadline=None)
def test_suffix_periods_match_naive(w):
    assert minimal_periods_of_suffixes(w) == [
        naive_min_period(w[i:]) for i in range(len(w))
    ]


def test_violates_contract():
    assert violates(2, B("2"))
    assert not violates(2, B("2+"))
    assert violates(Fraction(7, 3), B("7/3"))
    assert not violates(Fraction(7, 3), B("7/3+"))
    assert violates(Fraction(5, 2), B("7/3+"))


# ---------------------------------------------------------------------------
# freeness


def test_is_free_examples():
    assert is_free(parse_word("abcacb"), B("2"))
    assert not is_free(parse_word("abab"), B("2"))
    assert is_free(parse_word("ababa"), B("5/2+"))
    assert not is_free(parse_word("ababa"), B("5/2"))
    assert is_free((), B("2"))


@pytest.mark.parametrize("token", ["2", "2+", "7/3", "7/3+", "5/2"])
def test_is_free_matches_naive(token):
    bound = B(token)
    for n in range(1, 9):
        for w in itertools.product(range(2), repeat=n):
            assert is_free(w, bound) == (not naive_violates(w, bound.value, bound.plus))
    for n in range(1, 6):
        for w in itertools.product(range(3), repeat=n):
            assert is_free(w, bound) == (not naive_violates(w, bound.value, bound.plus))


@given(words_st, st.sampled_from(["2", "2+", "7/3", "5/2"]), st.integers(2, 10))
@settings(max_examples=200, deadline=None)
def test_is_free_max_factor_only_relaxes(w, token, m):
    bound = B(token)
    if is_free(w, bound):
        assert is_free(w, bound, max_factor=m)
    assert is_free(w, bound, max_factor=len(w)) == is_free(w, bound)


def test_thue_morse_prefix_freeness():
    prefix = thue_morse_prefix(128)
    assert is_free(prefix, B("2+"))
    assert is_free(prefix, B("7/3"))
    assert not is_free(prefix, B("2"))


def test_letters_beyond_a_byte():
    # 300 and 44 agree modulo 256, so a byte-sized word would see a square
    assert is_free((44, 300), B("2"))
    assert is_free((256, 257, 300, 256, 257), B("2"))
    assert not is_free((256, 300, 256, 300), B("2"))
    powers = minimal_powers(300, B("2"), 2)
    assert len(powers) == 300 + 300 * 299
    assert MinimalPower(2, (43, 299, 43, 299), Fraction(2)) in powers
    assert powers[-1].word == (299, 298, 299, 298)


# ---------------------------------------------------------------------------
# minimal violating words


def words_of(powers):
    return [mp.word for mp in powers]


def test_minimal_powers_cube_example():
    got = words_of(minimal_powers(2, B("3"), 2))
    assert got == [
        parse_word("aaa"),
        parse_word("bbb"),
        parse_word("ababab"),
        parse_word("bababa"),
    ]


def test_minimal_powers_square_example():
    assert words_of(minimal_powers(3, B("2"), 1)) == [
        parse_word("aa"),
        parse_word("bb"),
        parse_word("cc"),
    ]
    longer = words_of(minimal_powers(3, B("2"), 2))
    expected_pairs = {
        (x, y, x, y) for x in range(3) for y in range(3) if x != y
    }
    assert set(longer[3:]) == expected_pairs


def test_minimal_powers_overlap_periods():
    got = minimal_powers(2, B("2+"), 4)
    assert {mp.period for mp in got} == {1, 2, 3, 4}
    assert parse_word("aaa") in words_of(got)
    assert parse_word("ababa") in words_of(got)


def test_minimal_powers_excess_mode():
    got = words_of(minimal_powers(2, B("2+"), 2, "excess"))
    assert got == [parse_word("aaa"), parse_word("bbb")]
    with pytest.raises(ValueError):
        minimal_powers(2, B("2"), 2, "sideways")
    with pytest.raises(ValueError):
        minimal_powers(2, B("2"), 0)


BRUTE_CASES = [
    (2, "2", 6),
    (2, "2+", 6),
    (2, "7/3", 6),
    (2, "5/2", 6),
    (2, "3", 6),
    (3, "2", 6),
    (3, "2+", 5),
    (3, "7/3", 5),
    (3, "5/2", 4),
    (2, "3/2", 6),
    (3, "7/4", 5),
    (3, "3/2", 5),
    (4, "7/5", 4),
]


@pytest.mark.parametrize("k,token,cap", BRUTE_CASES)
def test_minimal_powers_match_brute_force(k, token, cap):
    bound = B(token)
    got = words_of(minimal_powers(k, bound, cap))
    assert got == brute_minimal_powers_by_period(k, bound.value, bound.plus, cap)


@pytest.mark.parametrize("k,cap", [(2, 12), (3, 7), (4, 5)])
def test_minimal_powers_match_trim_oracle(k, cap):
    # the fast minimality test against is_free on both trims
    for token in TRIM_TOKENS:
        for mode in ("period", "excess"):
            for canonical in (False, True):
                case = (k, token, cap, mode, canonical)
                fast = minimal_powers(k, B(token), cap, mode, canonical)
                assert fast == trim_minimal_powers(k, B(token), cap, mode, canonical), case


LEVEL_TOKENS = ("2", "2+", "3", "7/3+", "5/2", "7/4", "3/2")


@pytest.mark.parametrize(
    "k,cap,tokens",
    # at (4, 7/5, cap 7) one root, abcdb, extends to a word whose prefix
    # is free but whose w[1:] is not: bcdbab ends in bab
    [(1, 12, LEVEL_TOKENS), (2, 12, LEVEL_TOKENS), (3, 7, LEVEL_TOKENS), (4, 5, LEVEL_TOKENS),
     (4, 7, ("7/5",))],
)
def test_level_search_matches_depth_first_and_trim_oracles(k, cap, tokens):
    # minimal_powers searches level by level; minimal_words walks depth
    # first, and trim_minimal_powers checks both trims with border tables
    for token in tokens:
        bound = B(token)
        for mode in ("period", "excess"):
            periods = target_periods(bound, cap, mode)
            for canonical in (False, True):
                case = (k, token, cap, mode, canonical)
                levels = minimal_powers(k, bound, cap, mode, canonical)
                assert levels == sorted(minimal_words(k, bound, periods, canonical)), case
                assert levels == trim_minimal_powers(k, bound, cap, mode, canonical), case
                # the docstring's proof: no minimal-period check is needed
                assert all(minimal_period(mp.word) == mp.period for mp in levels), case
                _, visited = minimal_word_arrays(k, bound, periods, canonical)
                assert visited == sum(1 for _ in free_roots(k, bound, periods, canonical)), case


@pytest.mark.parametrize("k", [128, 200, 257])
def test_level_search_takes_letters_beyond_a_signed_byte(k):
    for token, cap, canonical in (("2", 2, False), ("2+", 6, True), ("3/2", 3, True)):
        bound = B(token)
        periods = target_periods(bound, cap, "period")
        levels = minimal_powers(k, bound, cap, canonical=canonical)
        assert levels == sorted(minimal_words(k, bound, periods, canonical))
        assert all(minimal_period(mp.word) == mp.period for mp in levels)
    top = minimal_powers(k, B("2"), 1)
    assert top[-1].word == (k - 1, k - 1)


@pytest.mark.parametrize(
    "k,token,cap,mode",
    [(3, "2", 6, "period"), (2, "3", 8, "period"), (2, "7/3+", 4, "excess"), (3, "5/2", 3, "excess")],
)
@pytest.mark.parametrize("canonical", [False, True])
def test_level_search_budget_boundary_is_the_depth_first_one(k, token, cap, mode, canonical):
    bound = B(token)
    periods = target_periods(bound, cap, mode)
    visited = sum(1 for _ in free_roots(k, bound, periods, canonical))
    full = minimal_powers(k, bound, cap, mode, canonical)
    assert minimal_powers(k, bound, cap, mode, canonical, budget=visited) == full
    with pytest.raises(BudgetExceededError) as depth_first:
        list(free_roots(k, bound, periods, canonical, budget=visited - 1))
    with pytest.raises(BudgetExceededError) as levels:
        minimal_powers(k, bound, cap, mode, canonical, budget=visited - 1)
    assert levels.value.period == depth_first.value.period == max(periods)
    assert str(levels.value) == str(depth_first.value)


# the eleven bounds of the extension grid, and each alphabet's largest period
EXTENSION_TOKENS = ("11/10", "5/4", "4/3", "3/2", "5/3", "7/4", "2", "2+", "5/2", "3", "3+")
EXTENSION_CAPS = {1: 14, 2: 12, 3: 9, 4: 7}


def assert_same_arrays(got, expected, case):
    arrays, visited = got
    assert visited == expected[1], case
    assert list(arrays) == list(expected[0]), case
    for p, words in arrays.items():
        assert words.dtype == expected[0][p].dtype, case
        assert words.tolist() == expected[0][p].tolist(), case


@pytest.mark.parametrize("k", sorted(EXTENSION_CAPS))
def test_extension_from_the_last_searched_level_matches_root_level_oracle(k):
    # each period is extended from level min(L_p - 1, p_max), off the rows
    # that have period p there; the oracle extends it from level p, off
    # every root.  Same arrays, dtypes, row order and visited count, and
    # the same budget boundary
    cap = EXTENSION_CAPS[k]
    period_sets = (range(1, cap + 1), [cap], range(1, cap + 1, 2),
                   [1, cap // 2, cap], range(cap // 2, cap + 1))
    for token in EXTENSION_TOKENS:
        bound = B(token)
        for periods in period_sets:
            for canonical in (False, True):
                case = (k, token, list(periods), canonical)
                expected = root_level_word_arrays(k, bound, periods, canonical)
                assert_same_arrays(minimal_word_arrays(k, bound, periods, canonical),
                                   expected, case)
                visited = expected[1]
                got = minimal_word_arrays(k, bound, periods, canonical, budget=visited)
                assert_same_arrays(got, expected, case)
                if visited > 1:
                    with pytest.raises(BudgetExceededError) as err:
                        minimal_word_arrays(k, bound, periods, canonical, budget=visited - 1)
                    assert err.value.period == max(periods), case


@st.composite
def words_over_k(draw):
    k = draw(st.integers(1, 4))
    return tuple(draw(st.lists(st.integers(0, k - 1), max_size=40)))


@given(words_over_k(), st.sampled_from(TRIM_TOKENS))
@settings(max_examples=400, deadline=None)
def test_slice_check_matches_border_table(w, token):
    # one slice comparison per period against the minimal period of every suffix
    bound = B(token)
    pairs = suffix_checks(bound, len(w))
    for end in range(1, len(w) + 1):
        slice_says = ends_in_violation(w, end, pairs)
        assert slice_says == (not suffixes_stay_free(w[:end], bound)), (w[:end], token)


@given(words_over_k(), st.sampled_from(TRIM_TOKENS), st.integers(0, 42))
@settings(max_examples=300, deadline=None)
def test_is_free_windows_match_border_table(w, token, m):
    bound = B(token)
    border = all(
        suffixes_stay_free(w[max(0, end - m):end], bound) for end in range(2, len(w) + 1)
    )
    assert is_free(w, bound, max_factor=m) == border


def test_root_search_budget_is_exact():
    # the search visits 19 free words at (3, 2, cap 6): a budget of 19
    # is enough, 18 is not, and the error names the largest period
    bound = B("2")
    visited = sum(1 for _ in free_roots(3, bound, range(1, 7), canonical=True))
    assert visited == 19
    full = minimal_powers(3, bound, 6, canonical=True)
    assert minimal_powers(3, bound, 6, canonical=True, budget=visited) == full
    with pytest.raises(BudgetExceededError) as info:
        minimal_powers(3, bound, 6, canonical=True, budget=visited - 1)
    assert info.value.period == 6 and info.value.budget == visited - 1


def test_budgets_below_one_are_rejected():
    for budget in (0, -5):
        with pytest.raises(ValueError, match="budget must be at least 1"):
            periods_without_minimal_words(3, B("2"), 3, budget=budget)
        with pytest.raises(ValueError, match="budget must be at least 1"):
            minimal_powers(3, B("2"), 3, budget=budget)


def test_bounds_honour_the_budget():
    with pytest.raises(BudgetExceededError, match="budget of 10 candidate roots"):
        approximation_bounds(3, B("2"), 24, budget=10)
    unbounded = approximation_bounds(2, B("3"), 8)
    assert approximation_bounds(2, B("3"), 8, budget=10**6) == unbounded


def test_minimal_powers_match_brute_by_length():
    brute = brute_minimal_powers_by_length(2, Fraction(2), False, 10)
    assert sorted(brute) == sorted(words_of(minimal_powers(2, B("2"), 2)))


@pytest.mark.parametrize("k,token,cap", [(2, "7/3", 8), (3, "2", 6), (3, "2+", 5)])
def test_minimal_powers_fields_consistent(k, token, cap):
    bound = B(token)
    powers = minimal_powers(k, bound, cap)
    assert powers == sorted(powers)
    for mp in powers:
        assert mp.period == naive_min_period(mp.word)
        assert mp.exponent == Fraction(len(mp.word), mp.period)
        assert violates(mp.exponent, bound)
        assert is_free(mp.word[1:], bound)
        assert is_free(mp.word[:-1], bound)
    # pairwise factor-free, so they form a valid antidictionary
    Antidictionary(k, [mp.word for mp in powers])


def canonical_form(word):
    seen = {}
    for x in word:
        if x not in seen:
            seen[x] = len(seen)
    return tuple(seen[x] for x in word)


def orbit(word, k):
    used = sorted(set(word))
    out = set()
    for image in itertools.permutations(range(k), len(used)):
        table = dict(zip(used, image))
        out.add(tuple(table[x] for x in word))
    return out


@pytest.mark.parametrize("k,token,cap", [(2, "3", 5), (3, "2", 5), (3, "7/3", 4)])
def test_minimal_powers_canonical_expansion(k, token, cap):
    bound = B(token)
    full = set(words_of(minimal_powers(k, bound, cap)))
    canon = words_of(minimal_powers(k, bound, cap, canonical=True))
    assert all(w == canonical_form(w) for w in canon)
    expanded = set()
    for w in canon:
        expanded |= orbit(w, k)
    assert expanded == full


# ---------------------------------------------------------------------------
# certified bounds


def overlaps(a, b):
    return a.lo <= b.hi and b.lo <= a.hi


def test_bounds_widths_and_symmetry_agreement():
    # the two paths certify intervals of the same rate on different
    # graphs, so the intervals and the lower bounds derived from them need
    # not be equal fractions; they must be consistent, and the component
    # verdict and the note must be equal
    delta = Fraction(1, 10**6)
    for k, top in ((2, 13), (3, 6), (4, 4)):
        for token in ("2", "3", "5/2", "7/3", "2+", "7/3+"):
            for cap in range(1, top + 1):
                case = (k, token, cap)
                try:
                    fast = approximation_bounds(k, B(token), cap, delta=delta)
                except FiniteApproximationError:
                    with pytest.raises(FiniteApproximationError):
                        approximation_bounds(k, B(token), cap, delta=delta, symmetry=False)
                    continue
                slow = approximation_bounds(k, B(token), cap, delta=delta, symmetry=False)
                for r in (fast, slow):
                    assert r.upper.hi - r.upper.lo <= 2 * delta, case
                assert overlaps(fast.upper, slow.upper), case
                assert fast.antidictionary_size == slow.antidictionary_size, case
                assert fast.automaton_states <= slow.automaton_states, case
                assert fast.unique_component == slow.unique_component, case
                assert fast.lower_note == slow.lower_note, case
                assert (fast.lower is None) == (slow.lower is None), case
                if fast.lower is not None:
                    assert fast.lower <= slow.upper.hi and slow.lower <= fast.upper.hi, case


def test_bounds_finite_approximation_raises():
    for cap in (2, 4):
        with pytest.raises(FiniteApproximationError):
            approximation_bounds(2, B("2"), cap)


def test_bounds_overlap_free_approximations_stay_exponential():
    # the approximations of the binary overlap-free language never feel
    # its polynomial growth: every cap leaves an exponential language
    for cap in (4, 8):
        r = approximation_bounds(2, B("2+"), cap, with_lower=False)
        assert r.upper.lo > 1


def test_bounds_upper_shrinks_with_cap():
    delta = Fraction(1, 10**7)
    results = [approximation_bounds(2, B("3"), cap, delta=delta) for cap in range(3, 9)]
    for a, b in zip(results, results[1:]):
        assert b.upper.hi <= a.upper.hi + 2 * delta


def test_bounds_lower_bound_fields():
    # the penalty term swamps small caps; 14 is the scale where a
    # nontrivial lower bound first comfortably exists for binary cubes
    r = approximation_bounds(2, B("3"), 14)
    assert r.unique_component is True
    assert r.lower is not None
    assert 1 < r.lower <= r.upper.lo
    assert r.lower_note == ""


def test_bounds_certificates_are_pinned():
    # the exact certificates, as first recorded: a float vector that
    # differs in one bit, from another summation order or schedule,
    # moves them
    r = approximation_bounds(2, B("3"), 15, delta=1e-7)
    assert r.upper == (
        Fraction(2792295161396679, 1915707331892120),
        Fraction(1714477816982270, 1176250193663797),
    )
    assert r.lower == Fraction(
        3221382297525249871838722454681690686056136603253258922549,
        2230074519853062314153571827264836150598041600000000000000,
    )
    r = approximation_bounds(3, B("2"), 24, delta=1e-6)
    assert r.upper == (
        Fraction(1721900773680165, 1322567291322092),
        Fraction(270982586047424, 208137838313537),
    )


def test_bounds_lower_bound_unavailable_cases():
    r = approximation_bounds(2, B("3"), 4, "excess")
    assert r.lower is None and "period" in r.lower_note
    r = approximation_bounds(3, B("7/4+"), 1, "excess")
    assert r.lower is None and "beta" in r.lower_note
    r = approximation_bounds(2, B("3"), 4, with_lower=False)
    assert r.lower is None and r.lower_note == "not requested"
    assert r.unique_component is None


def test_bounds_serializers():
    r = approximation_bounds(2, B("3"), 4)
    blob = json.loads(r.to_json_text())
    assert blob["k"] == 2 and blob["beta"] == "3" and blob["cap"] == 4
    assert blob["upper"]["lo"] <= blob["upper"]["hi"]
    assert blob["antidictionary_size"] == r.antidictionary_size
    text = r.to_text()
    assert "upper" in text and "lower" in text


# ---------------------------------------------------------------------------
# cycle components certified from the symmetry quotient


def assert_components_match_tarjan(graph, case):
    got = [frozenset(c.tolist()) for c in cyclic_components(graph)]
    assert len(set(got)) == len(got), case
    assert set(got) == {frozenset(c) for c in tarjan_cyclic_components(graph)}, case


def quotient_cycle_components(k, words):
    """Cycle-carrying components of the full automaton, counted from the
    quotient alone; the quotient's own components are checked against
    Tarjan's on the way."""
    graph, moves = _quotient_graph(k, by_length(words))
    assert_components_match_tarjan(graph, (k, words))
    return sum(_lifted_components(moves, k, c) for c in cyclic_components(graph))


def full_cycle_components(k, words):
    """Cycle-carrying components of the full automaton, built by the
    chain-walk oracle, which shares no trie with the quotient."""
    full_words = [w for cw in words for w in orbit(cw, k)]
    return len(scc(trie_fad_automaton(Antidictionary(k, full_words))).nontrivial)


GRID_BOUNDS = ["2", "3", "5/2", "7/3", "2+", "7/3+", "3/2", "5/3", "7/4"]
GRID_CAPS = {2: 13, 3: 9, 4: 5}


def grid_cases(k):
    # at k = 3 the period-mode automata for bounds >= 2 pass 36k states
    # at cap 8 (200k at cap 9), so those stop at cap 7
    for token in GRID_BOUNDS:
        bound = B(token)
        for mode in ("period", "excess"):
            top = GRID_CAPS[k]
            if k == 3 and mode == "period" and bound.value >= 2:
                top = 7
            for cap in range(1, top + 1):
                yield bound, mode, cap


def by_length(words):
    """The words as one 2-D array per length, the form in which the
    level search hands them to the quotient."""
    return [np.array([w for w in words if len(w) == n]) for n in sorted({*map(len, words)})]


def assert_quotient_matches_chain_walk(k, words, case):
    graph, moves = _quotient_graph(k, by_length(words))
    # the quotient is narrow: int32 rows, and weights as narrow as k
    assert [a.dtype for a in (graph.indptr, graph.indices, graph.weights)] == [
        np.int32, np.int32, np.min_scalar_type(k)
    ], case
    oracle_trie, expected = chain_walk_quotient_graph(k, words)
    rows = digraph_rows(graph)
    assert rows == [sorted(row.items()) for row in expected], case
    assert rows == [sorted(row.items()) for row in goto_loop_quotient_graph(k, words)[1]], case
    # Tarjan and the engine read each row in target order
    assert all(list(graph[q]) == sorted(set(graph[q])) for q in range(len(graph))), case
    assert moves.nletters.tolist() == [oracle_trie.nletters[u] for u in oracle_trie.order], case


@pytest.mark.parametrize("k", [2, 3, 4])
def test_quotient_matches_chain_walk_oracle(k):
    for bound, mode, cap in grid_cases(k):
        words = [mp.word for mp in minimal_powers(k, bound, cap, mode, canonical=True)]
        assert_quotient_matches_chain_walk(k, words, (k, str(bound), mode, cap))


@pytest.mark.parametrize(
    "k,token,cap", [(2, "3", 17), (3, "2", 24), (3, "7/3", 9), (4, "2", 10)]
)
def test_quotient_matches_chain_walk_oracle_long_chains(k, token, cap):
    words = [mp.word for mp in minimal_powers(k, B(token), cap, canonical=True)]
    assert_quotient_matches_chain_walk(k, words, (k, token, cap))


@st.composite
def orbit_closures(draw):
    """A random permutation-closed word set, antifactorial or not: the
    orbits of random words over 1 to 4 letters."""
    k = draw(st.integers(1, 4))
    words = draw(st.lists(
        st.lists(st.integers(0, k - 1), min_size=1, max_size=8).map(tuple), max_size=10
    ))
    return k, set().union(*(orbit(w, k) for w in words))


def canonical_antidictionaries():
    """Letter-canonical representatives of a random permutation-closed
    antifactorial set: an orbit closure minus every word that contains a
    shorter kept one."""
    return orbit_closures().map(
        lambda case: (case[0], sorted({canonical_form(w) for w in antifactorial(case[1])}))
    )


@given(canonical_antidictionaries())
@settings(max_examples=300, deadline=None)
def test_quotient_matches_chain_walk_oracle_on_random_sets(case):
    # unlike minimal powers, these sets have links that are not the
    # child of the parent's link, so the translating walk runs too
    k, words = case
    assert_quotient_matches_chain_walk(k, words, case)


def assert_voltages_match_goto(k, words, case):
    """Every move the lift reads, its target state and its voltage row H,
    equals what the oracle's failure-chain walk gives, state by state and
    slot by slot; a forbidden move has target -1."""
    _, moves = _quotient_graph(k, by_length(words))
    expected = goto_move_voltages(BreadthFirstTrie(k, words, canonical=True), k)
    assert len(expected) == len(moves.nletters), case
    # the rows are as wide as the trie, padded to k with FRESH
    pad = [FailureTrie.FRESH] * (k - moves.voltages.shape[2])
    for q, row in enumerate(expected):
        assert len(row) == min(int(moves.nletters[q]) + 1, k), (case, q)
        for x, move in enumerate(row):
            t = int(moves.targets[q, x])
            got = None if t < 0 else (t, moves.voltages[q, x].tolist() + pad)
            assert got == move, (case, q, x)
        assert (moves.targets[q, len(row):] == -1).all(), (case, q)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_move_voltages_match_goto_oracle(k):
    for bound, mode, cap in grid_cases(k):
        words = [mp.word for mp in minimal_powers(k, bound, cap, mode, canonical=True)]
        assert_voltages_match_goto(k, words, (k, str(bound), mode, cap))


@given(canonical_antidictionaries())
@settings(max_examples=300, deadline=None)
def test_move_voltages_match_goto_oracle_on_random_sets(case):
    # links that are no child of the parent's link compose more than one
    # level of H
    k, words = case
    assert_voltages_match_goto(k, words, case)


# ---------------------------------------------------------------------------
# the trie, depth by depth, against the node-by-node build


def assert_trie_matches_oracle(k, words, case, arrays=None, canonical=True):
    """Every table of the numpy trie equals the Python breadth-first
    build's, once the oracle's insertion-order nodes are renumbered
    breadth first.  The letter-canonical trie is built from ``arrays``,
    or else from the words grouped by length; the identity-frame trie
    (``canonical`` false), whose ``nletters`` is k and ``fsig`` the
    identity, from the words."""
    if canonical:
        trie = FailureTrie.letter_canonical(k, by_length(words) if arrays is None else arrays)
    else:
        trie = FailureTrie(k, words)
    expected = breadth_first_tables(BreadthFirstTrie(k, words, canonical=canonical), k)
    got = {name: list(getattr(trie, name)) for name in expected}
    w = trie.width
    assert w == min(k, max(expected["nletters"]) + 1), case
    got["fsig"] = [v for i, v in enumerate(got["fsig"]) if not trie.terminal[i // w]]
    # the oracle's rows are k wide: past the trie's width, no child, a
    # move to the root, a FRESH name
    for name, fill in (("children", -1), ("delta", 0), ("fsig", trie.FRESH)):
        rows = [got[name][i:i + w] for i in range(0, len(got[name]), w)]
        got[name] = [v for row in rows for v in row + [fill] * (k - w)]
    for name, table in expected.items():
        assert got[name] == table, (case, name)
    assert (trie.voltage is None) == (not canonical), case
    return trie


@pytest.mark.parametrize("k", [2, 3, 4])
def test_canonical_trie_matches_oracle(k):
    for bound, mode, cap in grid_cases(k):
        words = [mp.word for mp in minimal_powers(k, bound, cap, mode, canonical=True)]
        assert_trie_matches_oracle(k, words, (k, str(bound), mode, cap))


@pytest.mark.parametrize(
    "k,token,cap", [(2, "3", 17), (3, "2", 24), (3, "7/3", 9), (4, "2", 10)]
)
def test_canonical_trie_matches_oracle_long_chains(k, token, cap):
    words = [mp.word for mp in minimal_powers(k, B(token), cap, canonical=True)]
    assert_trie_matches_oracle(k, words, (k, token, cap))


@given(canonical_antidictionaries())
@settings(max_examples=300, deadline=None)
def test_canonical_trie_matches_oracle_on_random_sets(case):
    k, words = case
    assert_trie_matches_oracle(k, words, case)


@given(word_sets)
@settings(max_examples=300, deadline=None)
def test_identity_trie_matches_oracle_on_random_sets(case):
    # antifactorial or not: a prefix pair keeps its nodes, and a link onto
    # a forbidden word follows it
    k, words = case
    assert_trie_matches_oracle(k, antifactorial(words), case, canonical=False)
    assert_trie_matches_oracle(k, words, case, canonical=False)


@pytest.mark.parametrize("level", range(-1, 6))
def test_identity_trie_matches_oracle_on_thue_morse(level):
    assert_trie_matches_oracle(2, tm_antidictionary(level).words, level, canonical=False)


@pytest.mark.parametrize("k,token,top", [(2, "3", 12), (3, "2", 8)])
def test_identity_trie_matches_oracle_on_full_orbits(k, token, top):
    # the orbits of the canonical minimal powers, as the full automaton
    # of --no-symmetry reads them
    for cap in range(1, top + 1):
        words = [w for mp in minimal_powers(k, B(token), cap, canonical=True)
                 for w in orbit(mp.word, k)]
        assert_trie_matches_oracle(k, words, (k, token, cap), canonical=False)


def test_canonical_trie_walks_when_the_link_is_no_child():
    # the link of aab is b, a in canonical form, but fail(aa) = a has no
    # child on its fresh slot, so aab's names come from H(a, fresh), which
    # composes one level further, through the root
    trie = assert_trie_matches_oracle(2, [(0, 0, 1, 1)], "aabb")
    assert_quotient_matches_chain_walk(2, [(0, 0, 1, 1)], "aabb")
    assert list(trie.fail) == [0, 0, 1, 1, 2]
    assert_voltages_match_goto(2, [(0, 0, 1, 1)], "aabb")


@pytest.mark.parametrize(
    "k,words",
    [
        (2, []),  # the root alone
        (3, []),
        (1, [(0, 0, 0)]),  # one letter
        (1, [(0,)]),
        # 257 letters: words of dtype uint16, keys past 2^16
        (257, [tuple(range(257)) + (0,), (0, 1, 0, 2)]),
    ],
)
def test_canonical_trie_edge_cases(k, words):
    assert_trie_matches_oracle(k, words, (k, words))
    assert_quotient_matches_chain_walk(k, words, (k, words))


def test_canonical_tables_are_as_wide_as_the_most_letters_plus_one():
    # the minimal squares of period <= 4 use at most 4 of the 400 letters,
    # so every table is 5 slots wide, not 400
    k = 400
    words = [mp.word for mp in minimal_powers(k, B("2"), 4, canonical=True)]
    assert max(max(w) for w in words) + 1 == 4
    trie = assert_trie_matches_oracle(k, words, k)
    assert len(trie.voltage) == len(trie.terminal) * 5**2
    assert_quotient_matches_chain_walk(k, words, k)
    assert_voltages_match_goto(k, words, k)


def test_canonical_trie_reads_periods_with_no_minimal_words():
    # binary square-free words stop at length 3: periods 3 to 6 give
    # empty arrays, which the trie skips
    arrays, _ = minimal_word_arrays(2, B("2"), range(1, 7), canonical=True)
    assert [len(a) for a in arrays.values()] == [1, 1, 0, 0, 0, 0]
    words = [tuple(w) for a in arrays.values() for w in a.tolist()]
    assert_trie_matches_oracle(2, words, "square-free", arrays.values())
    graph, _ = _quotient_graph(2, arrays.values())
    expected = goto_loop_quotient_graph(2, words)[1]
    assert digraph_rows(graph) == [sorted(row.items()) for row in expected]


def test_canonical_trie_rejects_what_the_frame_cannot_hold():
    with pytest.raises(ValueError, match="frame"):
        FailureTrie.letter_canonical(2, [np.array([[1, 0]])])  # not canonical
    with pytest.raises(ValueError, match="frame"):
        FailureTrie.letter_canonical(2, [np.array([[0, 1, 2]])])  # letter 2 of 2
    with pytest.raises(AssertionError, match="not antifactorial"):
        FailureTrie.letter_canonical(2, [np.array([[0, 1]]), np.array([[0, 1, 0]])])
    with pytest.raises(AssertionError, match="not antifactorial"):
        # abb ends in bb, of aa's orbit: the link of abb is forbidden
        FailureTrie.letter_canonical(2, [np.array([[0, 0]]), np.array([[0, 1, 1]])])


@given(orbit_closures())
@example((2, set(orbit((0, 1), 2)) | set(orbit((0, 1, 0), 2))))  # a prefix pair
@example((2, set(orbit((0, 0), 2)) | set(orbit((0, 1, 1), 2))))  # a link onto bb
@settings(max_examples=300, deadline=None)
def test_canonical_trie_rejects_exactly_the_sets_that_are_not_antifactorial(case):
    # the canonical build raises AssertionError, and nothing else, exactly
    # when the identity-frame chain walk finds a word inside another
    k, closure = case
    try:
        trie_check_antifactorial(sorted(closure, key=lambda w: (len(w), w)))
        antifactorial_set = True
    except ValueError:
        antifactorial_set = False
    words = sorted({canonical_form(w) for w in closure})
    try:
        FailureTrie.letter_canonical(k, by_length(words))
        accepted = True
    except AssertionError:
        accepted = False
    assert accepted == antifactorial_set, case


def test_trie_size_limit_is_checked_before_the_tables(monkeypatch):
    arrays, _ = minimal_word_arrays(3, B("2"), range(1, 9), canonical=True)
    nodes = len(FailureTrie.letter_canonical(3, arrays.values()).terminal)
    monkeypatch.setattr(FailureTrie, "NODE_LIMIT", nodes)
    FailureTrie.letter_canonical(3, arrays.values())
    monkeypatch.setattr(FailureTrie, "NODE_LIMIT", nodes - 1)
    shapes = []

    def recording(make):
        def wrapper(shape, *args, **kwargs):
            shapes.append(shape)
            return make(shape, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "full", recording(np.full))
    monkeypatch.setattr(np, "zeros", recording(np.zeros))
    with pytest.raises(TrieSizeError, match=f"needs {nodes} nodes, above the limit of {nodes - 1}"):
        FailureTrie.letter_canonical(3, arrays.values())
    # no table with a row per node was allocated
    assert shapes and not any(np.ndim(s) and s[0] >= nodes - 1 for s in shapes), shapes
    with pytest.raises(TrieSizeError):
        approximation_bounds(3, B("2"), 8)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_lifted_component_count_matches_full_automaton(k):
    for bound, mode, cap in grid_cases(k):
        words = [mp.word for mp in minimal_powers(k, bound, cap, mode, canonical=True)]
        got = quotient_cycle_components(k, words)
        assert got == full_cycle_components(k, words), (k, str(bound), mode, cap)


@pytest.mark.parametrize(
    "k,token,cap,count",
    [(3, "5/3", 4, 3), (3, "7/4", 8, 2), (3, "3/2", 2, 2)],
)
def test_lifted_component_count_several_components(k, token, cap, count):
    # one quotient component whose letter permutations generate a proper
    # subgroup of S_k: the full automaton splits into [S_k : K] copies
    words = [mp.word for mp in minimal_powers(k, B(token), cap, canonical=True)]
    graph, _ = _quotient_graph(k, by_length(words))
    assert len(cyclic_components(graph)) == 1
    assert quotient_cycle_components(k, words) == count
    assert full_cycle_components(k, words) == count


def assert_lift_matches_goto_oracle(k, words, case) -> list:
    """The lift from the voltage tables counts what the oracle's
    goto-walk lift counts, over every cycle-carrying quotient component;
    returns the counts."""
    graph, moves = _quotient_graph(k, by_length(words))
    trie = BreadthFirstTrie(k, words, canonical=True)
    counts = []
    for c in cyclic_components(graph):
        counts.append(_lifted_components(moves, k, c))
        assert counts[-1] == goto_lifted_components(trie, k, c.tolist()), case
    return counts


@pytest.mark.parametrize("k", [2, 3, 4])
def test_lift_matches_goto_oracle(k):
    for bound, mode, cap in grid_cases(k):
        words = [mp.word for mp in minimal_powers(k, bound, cap, mode, canonical=True)]
        assert_lift_matches_goto_oracle(k, words, (k, str(bound), mode, cap))


@pytest.mark.parametrize(
    "k,token,cap,counts",
    [
        (3, "5/3", 4, [3]),
        (3, "7/4", 8, [2]),
        (3, "3/2", 2, [2]),
        # the unique component of the lower bound, over larger quotients
        (3, "2", 32, [1]),
        (2, "3", 20, [1]),
    ],
)
def test_lift_matches_goto_oracle_on_larger_cases(k, token, cap, counts):
    words = [mp.word for mp in minimal_powers(k, B(token), cap, canonical=True)]
    assert assert_lift_matches_goto_oracle(k, words, (k, token, cap)) == counts


@pytest.mark.parametrize(
    "k,token,cap,count",
    [(3, "5/3", 4, 3), (3, "7/4", 8, 2), (3, "3/2", 2, 2)],
)
def test_full_automaton_components_match_tarjan(k, token, cap, count):
    # the --no-symmetry path: the full automaton, with several components
    words = [mp.word for mp in minimal_powers(k, B(token), cap, canonical=True)]
    graph = transition_graph(powerfree._full_automaton(k, words))
    assert_components_match_tarjan(graph, (k, token, cap))
    assert len(cyclic_components(graph)) == count


def test_symmetry_path_never_builds_full_automaton(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the full automaton was built")

    monkeypatch.setattr(powerfree, "_full_automaton", refuse)
    monkeypatch.setattr(powerfree, "fad_automaton", refuse)
    r = approximation_bounds(2, B("3"), 12)
    assert r.unique_component is True
    assert r.lower is not None
    with pytest.raises(AssertionError, match="full automaton"):
        approximation_bounds(2, B("3"), 12, symmetry=False)


@pytest.mark.parametrize(
    "k,token,cap,options",
    [
        (2, "3", 12, {}),
        (2, "3", 15, {}),
        (2, "3", 17, {}),
        (3, "2", 24, {"with_lower": False}),
        (2, "3", 12, {"symmetry": False}),
    ],
)
def test_benchmark_cores_are_one_component(monkeypatch, k, token, cap, options):
    # the benchmark's quotients and automata trim to a core that is one
    # component, which cyclic_components confirms without graph_scc
    def refuse(graph):
        raise AssertionError("cyclic_components fell back to graph_scc")

    monkeypatch.setattr(growth, "graph_scc", refuse)
    r = approximation_bounds(k, B(token), cap, **options)
    assert r.upper.hi > 1


# ---------------------------------------------------------------------------
# the analytic lower bound


def penalty(g, m):
    return g + Fraction(1) / (g ** (m - 1) * (g - 1))


def test_lower_bound_is_the_largest_solution():
    g = lower_bound(2, 10)
    assert Fraction("1.997") < g < 2
    assert penalty(g, 10) <= 2
    assert penalty(g + Fraction(2, 10**12), 10) > 2


def test_lower_bound_monotone():
    assert lower_bound(2, 12) > lower_bound(2, 10)
    assert lower_bound(Fraction("2.02"), 10) > lower_bound(2, 10)


def lower_bound_outcome(solve, upper_lo, m):
    try:
        return solve(upper_lo, m)
    except (NoLowerBoundError, ValueError) as exc:
        return type(exc), str(exc)


@given(
    st.one_of(
        st.fractions(1, 3, max_denominator=10**30).filter(lambda x: 1 < x < 3),
        st.floats(1, 3, exclude_min=True, exclude_max=True),
    ),
    st.integers(1, 40),
)
@example(Fraction(1), 5)  # the target does not exceed 1
@example(1 + Fraction(1, 10**16), 5)  # nor once rounded down to the grid
@example(Fraction("1.2"), 3)  # the penalty term exceeds the bound everywhere
@example(Fraction(2), 0)  # m below 1
@example(Fraction("1.3017619"), 20)
@example(Fraction("1.3017619"), 24)
@settings(max_examples=200, deadline=None)
def test_lower_bound_matches_fraction_oracle(upper_lo, m):
    got = lower_bound_outcome(lower_bound, upper_lo, m)
    assert got == lower_bound_outcome(fraction_lower_bound, upper_lo, m)
    assert type(got) in (Fraction, tuple)


def test_lower_bound_errors():
    with pytest.raises(NoLowerBoundError):
        lower_bound(Fraction("1.2"), 3)
    with pytest.raises(ValueError):
        lower_bound(2, 0)
    with pytest.raises(NoLowerBoundError):
        lower_bound(1, 5)


# ---------------------------------------------------------------------------
# the closed-form expansion


def test_asymptotic_formula_exact_values():
    assert asymptotic_formula(10, B("3")) == Fraction(991, 100)
    assert asymptotic_formula(12, B("2+")) == (
        12 - Fraction(1, 12) - Fraction(1, 12**3) - Fraction(1, 12**4)
    )
    assert asymptotic_formula(10, B("2")) == (
        9 - Fraction(1, 9) - Fraction(1, 9**3)
    )


def test_asymptotic_formula_reference_points():
    assert abs(asymptotic_formula(10, B("3")) - Fraction("9.9074705")) <= Fraction("5e-3")
    assert abs(asymptotic_formula(12, B("2+")) - Fraction("11.9160348")) <= Fraction("5e-4")
    assert abs(asymptotic_formula(10, B("2")) - Fraction("8.8874856")) <= Fraction("5e-4")


def test_asymptotic_formula_window_boundaries():
    k = 10
    assert asymptotic_formula(k, B("5/2")) == Fraction(k) - Fraction(1, k)
    assert asymptotic_formula(k, B("5/2+")) == (
        Fraction(k) - Fraction(1, k) + Fraction(1, k**2)
    )
    assert asymptotic_formula(k, B("3")) == asymptotic_formula(k, B("5/2+"))
    assert asymptotic_formula(k, B("3+")) == (
        Fraction(k) - Fraction(1, k**2) + Fraction(1, k**3) - Fraction(1, k**4)
    )


def test_asymptotic_formula_domain_errors():
    with pytest.raises(ValueError):
        asymptotic_formula(10, B("7/4"))
    with pytest.raises(ValueError):
        asymptotic_formula(2, B("2"))
    with pytest.raises(ValueError):
        asymptotic_formula(1, B("3"))


def test_asymptotic_formula_stays_below_alphabet_size():
    for k in (5, 8, 12):
        for token in ("2", "2+", "7/3", "5/2", "3", "7/2+", "4"):
            assert 1 < asymptotic_formula(k, B(token)) < k
