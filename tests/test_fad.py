"""Antidictionaries, their automata, extendable parts, staircase language."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import builders
from oracles import (
    brute_right_extendable,
    brute_two_extendable,
    condensation_extendable_part,
    recursive_intermediate_count,
    staircase_factors,
    theta_pow,
    thue_morse_prefix,
    trie_check_antifactorial,
    trie_fad_automaton,
)
from wordgrowth import fad
from wordgrowth.automaton import DfaFormatError, format_dfa, trim
from wordgrowth.fad import (
    Antidictionary,
    extendable_part,
    fad_automaton,
    format_antidictionary,
    intermediate_count,
    intermediate_member,
    parse_antidictionary,
    tm_antidictionary,
)
from wordgrowth.growth import approximate_index, count_words
from wordgrowth.words import parse_word, word_to_str


def contains_factor(word, forbidden):
    for f in forbidden:
        m = len(f)
        if m == 0:
            return True
        if any(word[i : i + m] == f for i in range(len(word) - m + 1)):
            return True
    return False


def accepted_words(dfa, n):
    return {
        w
        for w in itertools.product(range(dfa.alphabet_size), repeat=n)
        if dfa.accepts(w)
    }


# ---------------------------------------------------------------------------
# antidictionary type


def test_words_parse_and_render():
    assert parse_word("aba") == (0, 1, 0)
    assert word_to_str((0, 1, 0)) == "aba"
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_word("a!b")


def test_antidictionary_rejects_nested_factors():
    with pytest.raises(ValueError):
        builders.ad(2, ["ab", "aab"])
    with pytest.raises(ValueError):
        builders.ad(2, ["ab", "ba", "abba"])


def test_antidictionary_collapses_duplicates():
    a = builders.ad(2, ["aa", "aa", "bb"])
    assert len(a) == 2


def test_antidictionary_letter_range():
    with pytest.raises(ValueError):
        Antidictionary(2, [(0, 5)])


def test_antidictionary_empty_word_is_exclusive():
    a = Antidictionary(2, [()])
    assert len(a) == 1
    with pytest.raises(ValueError):
        Antidictionary(2, [(), (0,)])


# ---------------------------------------------------------------------------
# the automaton of a finite antidictionary


def test_fad_alternating_words():
    d = fad_automaton(builders.ad(2, ["aa", "bb"]))
    assert count_words(d, 0) == 1
    for n in range(1, 9):
        assert count_words(d, n) == 2


def test_fad_golden_ratio_language():
    d = fad_automaton(builders.ad(2, ["aaa", "bbb"]))
    iv = approximate_index(d)
    # rate is the positive root of x^2 - x - 1
    assert iv.lo**2 - iv.lo - 1 <= 0 <= iv.hi**2 - iv.hi - 1


def test_fad_empty_antidictionary_full_language():
    d = fad_automaton(Antidictionary(3, []))
    for n in range(5):
        assert count_words(d, n) == 3**n


def test_fad_empty_word_kills_everything():
    d = fad_automaton(Antidictionary(2, [()]))
    assert d.state_count == 0
    assert not d.accepts(())


def test_fad_is_trimmed_and_factorial(fad_corpus):
    # fad_automaton does not trim: every state is reachable and accepts,
    # and the trie numbers the states breadth first, letter by letter, as
    # trim does
    for a in fad_corpus + [tm_antidictionary(i) for i in range(-1, 6)]:
        d = fad_automaton(a)
        assert trim(d) == d, a
        assert d.accepting == frozenset(range(d.state_count))


@given(builders.word_sets)
@settings(max_examples=300, deadline=None)
def test_fad_automaton_is_its_own_trim_on_random_sets(case):
    k, words = case
    d = fad_automaton(Antidictionary(k, builders.antifactorial(words)))
    assert trim(d) == d


def test_fad_accepts_iff_no_forbidden_factor(fad_corpus):
    for a in fad_corpus:
        d = fad_automaton(a)
        k = a.alphabet_size
        depth = 10 if k == 2 else 7
        for n in range(depth + 1):
            for w in itertools.product(range(k), repeat=n):
                assert d.accepts(w) == (not contains_factor(w, a.words))


def test_fad_matches_chain_walk_oracle(fad_corpus):
    corpus = fad_corpus + [tm_antidictionary(i) for i in range(-1, 4)]
    corpus += [Antidictionary(3, []), Antidictionary(2, [()])]
    for a in corpus:
        assert fad_automaton(a) == trie_fad_automaton(a), a


def test_fad_automaton_builds_one_trie(monkeypatch, fad_corpus):
    # the antifactorial check and the automaton share the identity-frame trie
    built = []

    class CountingTrie(fad.FailureTrie):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(fad, "FailureTrie", CountingTrie)
    for a in fad_corpus + [tm_antidictionary(2)]:
        built.clear()
        fad_automaton(Antidictionary(a.alphabet_size, a.words))
        assert len(built) == 1, a


@given(builders.word_sets)
@settings(max_examples=300, deadline=None)
def test_fad_matches_chain_walk_oracle_on_random_sets(case):
    k, words = case
    a = Antidictionary(k, builders.antifactorial(words))
    assert fad_automaton(a) == trie_fad_automaton(a)


def antifactorial_error(check, *args):
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


@given(builders.word_sets)
@example((2, [(0, 0), (0, 0, 1)]))  # a prefix pair: the forbidden aa has a child
@example((2, [(1,), (0, 1, 0)]))  # the link of ab is the forbidden b
@settings(max_examples=400, deadline=None)
def test_antifactorial_check_matches_chain_walk_oracle(case):
    # same decision, and the same first offending word in the message
    k, words = case
    normalized = sorted(set(words), key=lambda w: (len(w), w))
    expected = antifactorial_error(trie_check_antifactorial, normalized)
    assert antifactorial_error(Antidictionary, k, words) == expected
    # the identity-frame trie takes any set; the check runs after it
    fad.FailureTrie(k, words)
    text = "\n".join([f"ad {k}", *map(word_to_str, words)])
    if expected is None:
        parse_antidictionary(text)
    else:
        with pytest.raises(DfaFormatError) as err:
            parse_antidictionary(text)
        assert str(err.value) == f"line 1: {expected}"


# ---------------------------------------------------------------------------
# the iterated-morphism antidictionaries


def test_tm_level_minus_one():
    a = tm_antidictionary(-1)
    assert set(a.words) == {(0, 0, 0), (1, 1, 1)}


def test_tm_level_zero():
    a = tm_antidictionary(0)
    expected = {"aaa", "bbb", "aabaa", "bbabb", "ababa", "babab"}
    assert {word_to_str(w) for w in a.words} == expected


def test_tm_level_sizes_and_lengths():
    for i in range(-1, 4):
        a = tm_antidictionary(i)
        assert len(a) == 2 + 4 * (i + 1)
        lengths = {len(w) for w in a.words}
        assert lengths == {3} | {3 * 2**j + 2 for j in range(i + 1)}


def test_tm_rejects_below_minus_one():
    with pytest.raises(ValueError):
        tm_antidictionary(-2)


def test_tm_words_never_occur_in_the_fixed_point():
    for i in range(-1, 4):
        prefix = thue_morse_prefix(2 ** (i + 6))
        for w in tm_antidictionary(i).words:
            assert not contains_factor(prefix, [w])


def test_tm_prefix_is_accepted_up_to_level():
    # the level-i automaton must accept the fixed point's prefixes
    for i in range(-1, 3):
        d = fad_automaton(tm_antidictionary(i))
        assert d.accepts(thue_morse_prefix(64))


def test_theta_iterates():
    assert theta_pow((0,), 1) == (0, 1)
    assert theta_pow((0,), 3) == tuple(thue_morse_prefix(8))


# ---------------------------------------------------------------------------
# extendable parts


def test_extendable_full_language_unchanged():
    d = builders.full_dfa(2)
    for side in ("right", "two_sided"):
        part = extendable_part(d, side)
        for n in range(5):
            assert accepted_words(part, n) == accepted_words(d, n)


def test_extendable_ab_star_factors_unchanged():
    d = builders.ab_star_factors_dfa()
    for side in ("right", "two_sided"):
        part = extendable_part(d, side)
        for n in range(7):
            assert accepted_words(part, n) == accepted_words(d, n)


def test_extendable_right_prunes_dead_branch():
    # b may only start a word; right extension dies after the b-branch sink
    d = fad_automaton(builders.ad(3, ["ab", "bb", "cb"]))
    right = extendable_part(d, "right")
    counts = [count_words(right, n) for n in range(6)]
    assert counts == [count_words(d, n) for n in range(6)]
    two = extendable_part(d, "two_sided")
    assert [count_words(two, n) for n in range(6)] == [1, 2, 4, 8, 16, 32]


def test_extendable_two_sided_drops_initial_only_letter():
    d = fad_automaton(builders.ad(3, ["ab", "bb", "cb", "ba", "bc"]))
    for side in ("right", "two_sided"):
        part = extendable_part(d, side)
        assert [count_words(part, n) for n in range(6)] == [1, 2, 4, 8, 16, 32]


def test_extendable_side_tokens():
    d = builders.full_dfa(2)
    assert extendable_part(d, "two") == extendable_part(d, "two_sided")
    with pytest.raises(ValueError):
        extendable_part(d, "left")


def test_extendable_rejects_non_factorial_automaton():
    d = builders.dict_dfa(1, [{0: 1}, {0: 0}], 0, [0])  # even-length words only
    with pytest.raises(ValueError):
        extendable_part(trim(d), "right")


def test_extendable_empty_language():
    from wordgrowth.automaton import empty_dfa

    for side in ("right", "two_sided"):
        assert extendable_part(empty_dfa(2), side).state_count == 0


def test_two_sided_subset_construction_stops_at_its_limit():
    assert fad.SUBSET_LIMIT == 1 << 16
    # 16 states reach all 2^16 - 1 nonempty subsets, one short of the limit
    part = extendable_part(builders.subset_blowup_dfa(16), "two_sided")
    assert part.state_count == (1 << 16) - 1
    assert extendable_part(builders.subset_blowup_dfa(16), "right").state_count == 16
    # 17 states would need 2^17 - 1: the construction stops at subset 65,537
    with pytest.raises(fad.SubsetLimitError, match="more than 65536 subsets"):
        extendable_part(builders.subset_blowup_dfa(17), "two_sided")


def part_text(part, dfa, side):
    """The text of ``part(dfa, side)``, or the error it raises."""
    try:
        return format_dfa(part(dfa, side))
    except ValueError as exc:
        return repr(exc)


@given(
    st.one_of(builders.partial_dfas(), builders.partial_dfas(accept_all=True)),
    st.sampled_from(["right", "two_sided"]),
)
@settings(max_examples=400, deadline=None)
def test_extendable_part_matches_condensation_oracle(dfa, side):
    expected = part_text(condensation_extendable_part, dfa, side)
    assert part_text(extendable_part, dfa, side) == expected


def test_extendable_matches_pumping_oracle(fad_corpus):
    for a in fad_corpus:
        d = fad_automaton(a)
        if d.state_count > 4:
            continue
        right = extendable_part(d, "right")
        two = extendable_part(d, "two_sided")
        k = a.alphabet_size
        for n in range(5):
            for w in itertools.product(range(k), repeat=n):
                assert right.accepts(w) == brute_right_extendable(d, w)
                assert two.accepts(w) == brute_two_extendable(d, w)


def test_extendable_rate_invariance(fad_corpus):
    """Pruning to the extendable part never changes the growth rate."""
    delta = __import__("fractions").Fraction(1, 10**6)
    for a in fad_corpus:
        d = fad_automaton(a)
        ivs = [approximate_index(d, delta)]
        for side in ("right", "two_sided"):
            part = extendable_part(d, side)
            assert part.state_count > 0
            ivs.append(approximate_index(part, delta))
        for x in ivs:
            for y in ivs:
                assert x.lo <= y.hi and y.lo <= x.hi


# ---------------------------------------------------------------------------
# the staircase language


def test_intermediate_member_examples():
    assert intermediate_member(parse_word("abc"), 3)
    assert intermediate_member(parse_word("aabb"), 2)
    assert intermediate_member(parse_word("bbaa"), 2)
    assert intermediate_member(parse_word("abaa"), 2)
    assert not intermediate_member(parse_word("aaba"), 2)
    assert intermediate_member((), 2)
    assert intermediate_member((1,), 3)
    assert not intermediate_member(parse_word("ba"), 3)  # successor of b is c
    assert intermediate_member(parse_word("aab"), 3)  # final block is free
    # exponents must be nondecreasing on all blocks but the last
    assert intermediate_member(parse_word("abbccc"), 3)
    assert not intermediate_member(parse_word("aabbc" + "a"), 3)


def test_intermediate_member_matches_generated_factors():
    for k in (2, 3):
        for n in range(1, 9):
            expected = staircase_factors(k, n)
            got = {
                w
                for w in itertools.product(range(k), repeat=n)
                if intermediate_member(w, k)
            }
            assert got == expected


def test_intermediate_count_matches_enumeration():
    for k, max_n in ((1, 8), (2, 11), (3, 8)):
        for n in range(max_n + 1):
            direct = sum(
                1
                for w in itertools.product(range(k), repeat=n)
                if intermediate_member(w, k)
            )
            assert intermediate_count(n, k) == direct


def test_intermediate_count_matches_recursive_count():
    # the block-by-block recursion holds for two letters or more
    for k, max_n in ((2, 400), (3, 60), (5, 60)):
        for n in range(max_n + 1):
            assert intermediate_count(n, k) == recursive_intermediate_count(n, k)


def test_intermediate_count_small_values():
    assert intermediate_count(0, 2) == 1
    assert intermediate_count(1, 3) == 3
    assert intermediate_count(4, 2) == 14


def test_intermediate_count_growth_shape():
    """Subexponential but superpolynomial growth."""
    values = {n: intermediate_count(n, 2) for n in range(20, 61)}
    roots = [values[n] ** (1.0 / n) for n in range(20, 61)]
    assert all(a >= b for a, b in zip(roots, roots[1:]))
    for d in (1, 2, 3, 4):
        tail = [values[n] / n**d for n in range(40, 61)]
        assert all(a < b for a, b in zip(tail, tail[1:]))


# ---------------------------------------------------------------------------
# file format


def test_parse_antidictionary_letters_and_indices():
    a = parse_antidictionary("ad 3\nab\n2 2\n# comment\n\nbca\n")
    assert {word_to_str(w) for w in a.words} == {"ab", "cc", "bca"}


def test_parse_antidictionary_errors():
    with pytest.raises(DfaFormatError) as err:
        parse_antidictionary("")
    assert err.value.line_no == 1
    with pytest.raises(DfaFormatError):
        parse_antidictionary("ad x\naa")
    with pytest.raises(DfaFormatError) as err:
        parse_antidictionary("ad 2\naa bb cc")
    assert err.value.line_no == 2
    # a letter out of range is reported at its own line, in either form
    for text, message in [
        ("ad 2\naaa\nbbb\nabc", "^line 4: letter 2 out of range$"),
        ("ad 2\naaa\n0 5", "^line 3: letter 5 out of range$"),
        ("ad 2\n# c\n\n0 -1 0", "^line 4: letter -1 out of range$"),
        ("ad 1\na\nab", "^line 3: letter 1 out of range$"),
    ]:
        with pytest.raises(DfaFormatError, match=message):
            parse_antidictionary(text)
    # not antifactorial: a prefix pair, and a link onto a forbidden word
    with pytest.raises(DfaFormatError, match="^line 1: not antifactorial: a forbidden "
                       "word occurs inside aab$"):
        parse_antidictionary("ad 2\naa\naab")
    with pytest.raises(DfaFormatError, match="^line 1: not antifactorial: a forbidden "
                       "word occurs inside aba$"):
        parse_antidictionary("ad 2\nb\naba")


def test_format_antidictionary_roundtrip(fad_corpus):
    for a in fad_corpus:
        assert parse_antidictionary(format_antidictionary(a)) == a
