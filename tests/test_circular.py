"""Circular square-free words, minimal roots, period scans."""

import ast
import itertools
import random
from pathlib import Path

import pytest

from builders import TRIM_TOKENS
from oracles import (
    free_roots,
    minimal_words,
    naive_circular_square_free,
    naive_min_period,
    per_period_root_complexity,
    per_period_scan,
    rotation_renaming_class,
)
import wordgrowth
from wordgrowth.circular import (
    CircularWord,
    circular_is_square_free,
    enumerate_circular_square_free,
    forbidden_period_scan,
    minimal_roots,
    root_complexity,
    root_table,
)
from wordgrowth.words import BudgetExceededError, ExponentBound, least_rotation, parse_word

B = ExponentBound.parse
SQ = B("2")


# ---------------------------------------------------------------------------
# rotation machinery


def test_least_rotation_examples():
    assert least_rotation(parse_word("bca")) == parse_word("abc")
    assert least_rotation(parse_word("cab")) == parse_word("abc")
    assert least_rotation(parse_word("baba")) == parse_word("abab")
    assert least_rotation(()) == ()


def test_least_rotation_is_minimum_of_rotations():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 12)
        w = tuple(rng.randrange(3) for _ in range(n))
        rotations = [w[i:] + w[:i] for i in range(n)]
        assert least_rotation(w) == min(rotations)


def test_circular_word_identity():
    assert CircularWord(parse_word("ba")) == CircularWord(parse_word("ab"))
    assert hash(CircularWord(parse_word("ba"))) == hash(CircularWord(parse_word("ab")))
    assert CircularWord(parse_word("ab")) != CircularWord(parse_word("ac"))
    assert CircularWord(parse_word("cab")).representative == parse_word("abc")
    assert len(CircularWord(parse_word("cab"))) == 3


def test_circular_word_order_by_length_then_word():
    items = [
        CircularWord(parse_word("abc")),
        CircularWord(parse_word("ab")),
        CircularWord(parse_word("acb")),
    ]
    assert sorted(items) == [items[1], items[0], items[2]]


def test_circular_word_order_rejects_other_types():
    with pytest.raises(TypeError):
        CircularWord((0, 1)) < 3
    with pytest.raises(TypeError):
        CircularWord((0, 1)) < (0, 1)


# ---------------------------------------------------------------------------
# the square-free test


def test_circular_square_free_examples():
    assert circular_is_square_free(parse_word("ab"))
    assert not circular_is_square_free(parse_word("aa"))
    assert circular_is_square_free(parse_word("abc"))
    assert not circular_is_square_free(parse_word("aba"))  # wraps into aa
    assert circular_is_square_free(())


def test_no_ternary_length_five_survives():
    for w in itertools.product(range(3), repeat=5):
        assert not circular_is_square_free(w)


def test_circular_square_free_rotation_invariant():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 10)
        w = tuple(rng.randrange(3) for _ in range(n))
        value = circular_is_square_free(w)
        for i in range(n):
            assert circular_is_square_free(w[i:] + w[:i]) == value
        assert circular_is_square_free(CircularWord(w)) == value


def test_circular_square_free_matches_naive():
    for n in range(1, 8):
        for w in itertools.product(range(3), repeat=n):
            assert circular_is_square_free(w) == naive_circular_square_free(w)
    for n in range(1, 9):
        for w in itertools.product(range(2), repeat=n):
            assert circular_is_square_free(w) == naive_circular_square_free(w)


def test_circular_square_free_alphabet_check():
    assert circular_is_square_free(parse_word("abc"), 3)
    with pytest.raises(ValueError):
        circular_is_square_free(parse_word("abd"), 3)
    with pytest.raises(ValueError):
        circular_is_square_free((0, 1, 2), 2)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_small_cases():
    reps = [c.representative for c in enumerate_circular_square_free(3, 3)]
    assert reps == [parse_word("abc"), parse_word("acb")]
    assert enumerate_circular_square_free(0, 3) == [CircularWord(())]
    with pytest.raises(ValueError):
        enumerate_circular_square_free(-1, 3)


@pytest.mark.parametrize("n", [0, 1, 4])
def test_enumerate_rejects_empty_alphabet_at_every_length(n):
    with pytest.raises(ValueError, match="alphabet must have at least 1 letter"):
        enumerate_circular_square_free(n, 0)


def test_enumerate_binary_collapses():
    assert [len(enumerate_circular_square_free(n, 2)) for n in range(1, 5)] == [
        2,
        1,
        0,
        0,
    ]


def test_enumerate_matches_naive():
    for n in range(1, 10):
        brute = {
            least_rotation(w)
            for w in itertools.product(range(3), repeat=n)
            if naive_circular_square_free(w)
        }
        got = {c.representative for c in enumerate_circular_square_free(n, 3)}
        assert got == brute


def test_enumerate_empty_lengths():
    empty = {n for n in range(1, 21) if not enumerate_circular_square_free(n, 3)}
    assert empty == {5, 7, 9, 10, 14, 17}


# ---------------------------------------------------------------------------
# minimal roots and their complexity


def test_minimal_roots_are_circular_square_free_words():
    for n in range(1, 10):
        brute = sorted(
            w
            for w in itertools.product(range(3), repeat=n)
            if naive_circular_square_free(w)
        )
        assert minimal_roots(3, SQ, n) == brute


def test_minimal_roots_length_four():
    roots = minimal_roots(3, SQ, 4)
    assert len(roots) == 12
    assert parse_word("abac") in roots
    assert parse_word("abcb") in roots
    assert all(naive_min_period(r) == 4 for r in roots)


def test_roots_decompose_into_rotation_classes():
    # every root is aperiodic, so its n rotations are distinct words
    for n in range(1, 15):
        roots = minimal_roots(3, SQ, n)
        classes = enumerate_circular_square_free(n, 3)
        assert len(roots) == n * len(classes)


ROOT_COMPLEXITY_TABLE = {
    1: 3,
    2: 6,
    3: 6,
    4: 6,
    5: 0,
    6: 6,
    7: 0,
    8: 6,
    9: 0,
    10: 0,
    11: 6,
    12: 6,
}


def test_root_complexity_small_table():
    for n, expected in ROOT_COMPLEXITY_TABLE.items():
        assert root_complexity(3, SQ, n) == expected


def test_single_class_lengths():
    """Wherever the table shows 6, all roots are one rotation-renaming
    class; the count is the k!/(k-used)! weight of that lone class."""
    for n in (2, 3, 4, 6, 8, 11, 12):
        classes = {rotation_renaming_class(r) for r in minimal_roots(3, SQ, n)}
        assert len(classes) == 1


def test_root_complexity_binary_squares():
    # ab is the only binary root class, with both letter assignments
    assert root_complexity(2, SQ, 1) == 2
    assert root_complexity(2, SQ, 2) == 2
    assert root_complexity(2, SQ, 3) == 0


# ---------------------------------------------------------------------------
# period scans


def test_scan_binary_five_halves():
    forbidden = forbidden_period_scan(2, B("5/2"), 8)
    assert isinstance(forbidden, set)
    assert forbidden == {5}


def test_scan_ternary_squares_matches_enumeration():
    assert forbidden_period_scan(3, SQ, 14) == {5, 7, 9, 10, 14}


def test_scan_agrees_with_root_complexity():
    forbidden = forbidden_period_scan(3, SQ, 12)
    for p in range(1, 13):
        assert (root_complexity(3, SQ, p) == 0) == (p in forbidden)


def test_scan_budget_exhaustion():
    # period 1 is settled by its first root; period 2 needs a second one
    with pytest.raises(BudgetExceededError) as err:
        forbidden_period_scan(2, B("5/2"), 8, budget=1)
    assert err.value.budget == 1
    assert err.value.period == 2
    assert "budget" in str(err.value)


def test_scan_budget_is_exact():
    # the one search of this scan visits 27 free words (62 if it kept
    # every period to the end); period 5 admits no minimal word, so it is
    # the smallest period still open when one fewer runs out
    bound = B("5/2")
    assert forbidden_period_scan(2, bound, 8, budget=27) == {5}
    with pytest.raises(BudgetExceededError) as err:
        forbidden_period_scan(2, bound, 8, budget=26)
    assert (err.value.period, err.value.budget) == (5, 26)


def test_root_budget_exhaustion():
    # the canonical square-free search visits a and ab to length 2;
    # the search of minimal_roots visits 3 + 6 to length 2, and 12 more at length 3
    assert root_complexity(3, SQ, 2, budget=2) == root_complexity(3, SQ, 2)
    with pytest.raises(BudgetExceededError) as err:
        minimal_roots(3, SQ, 3, budget=10)
    assert (err.value.period, err.value.budget) == (3, 10)
    with pytest.raises(BudgetExceededError) as err:
        root_complexity(3, SQ, 2, budget=1)
    assert (err.value.period, err.value.budget) == (2, 1)


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        forbidden_period_scan(2, SQ, 0)
    with pytest.raises(ValueError):
        forbidden_period_scan(2, SQ, 3, budget=0)


# (k, largest n of the root table, largest period of the scan): about 10 s in all
DIFFERENTIAL_CAPS = [(2, 14, 28), (3, 9, 26), (4, 6, 20)]


@pytest.mark.parametrize("k,n_max,p_max", DIFFERENTIAL_CAPS)
def test_root_table_matches_per_period_oracle(k, n_max, p_max):
    # one canonical search against one search over all roots per n
    for token in TRIM_TOKENS:
        bound = B(token)
        expected = [per_period_root_complexity(k, bound, n) for n in range(1, n_max + 1)]
        assert root_table(k, bound, n_max) == expected, (k, token)


@pytest.mark.parametrize("k,n_max,p_max", DIFFERENTIAL_CAPS)
def test_scan_matches_per_period_oracle(k, n_max, p_max):
    # one search dropping periods as it goes against one search per period
    for token in TRIM_TOKENS:
        bound = B(token)
        assert forbidden_period_scan(k, bound, p_max) == per_period_scan(k, bound, p_max), (
            k, token)


@pytest.mark.parametrize("k,n_max", [(2, 12), (3, 8), (4, 6)])
def test_roots_and_budgets_match_depth_first_oracle(k, n_max):
    # the level search against the depth-first walk: the same roots, and
    # a budget runs out at the same count of free words visited
    for token in TRIM_TOKENS:
        bound = B(token)
        for n in range(1, n_max + 1):
            case = (k, token, n)
            visited = sum(1 for _ in free_roots(k, bound, range(1, n + 1)))
            expected = sorted(mp.word[:n] for mp in minimal_words(k, bound, [n]))
            assert minimal_roots(k, bound, n, budget=visited) == expected, case
            with pytest.raises(BudgetExceededError) as err:
                minimal_roots(k, bound, n, budget=visited - 1)
            assert err.value.period == n, case
        visited = sum(1 for _ in free_roots(k, bound, range(1, n_max + 1), canonical=True))
        table = root_table(k, bound, n_max)
        assert root_table(k, bound, n_max, budget=visited) == table, (k, token)
        with pytest.raises(BudgetExceededError) as err:
            root_table(k, bound, n_max, budget=visited - 1)
        assert err.value.period == n_max, (k, token)


def test_root_table_rejects_empty_tables_and_alphabets():
    with pytest.raises(ValueError, match="period must be at least 1"):
        root_table(3, SQ, 0)
    with pytest.raises(ValueError, match="alphabet must have at least 1 letter"):
        root_table(0, SQ, 3)


# ---------------------------------------------------------------------------
# module boundaries

# (module, name): the private helpers another package module may import
ALLOWED_PRIVATE_IMPORTS = {("growth", "_as_fraction")}


def private_cross_imports():
    """(module, name, importer) for every underscore name imported from
    one package module into another."""
    found = set()
    for path in sorted(Path(wordgrowth.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:
                module = node.module or ""
            elif (node.module or "").startswith("wordgrowth."):
                module = node.module[len("wordgrowth."):]
            else:
                continue
            for alias in node.names:
                if alias.name.startswith("_") and module != path.stem:
                    found.add((module, alias.name, path.stem))
    return found


def test_no_new_private_cross_imports():
    # circular reads the minimal-word step through public names only
    found = private_cross_imports()
    assert ("growth", "_as_fraction", "powerfree") in found  # the scan sees imports
    assert {(m, name) for m, name, _ in found} <= ALLOWED_PRIVATE_IMPORTS, sorted(found)


def package_imports(path):
    """(module, name) for every import of a ``wordgrowth`` module in a
    file: ``from m import n`` gives (m, n) and ``import m`` gives (m, None),
    with relative imports resolved inside the package and ``from
    wordgrowth import n`` read as the module wordgrowth.n."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update((alias.name, None) for alias in node.names)
            continue
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level:
            module = "wordgrowth" + ("." + module if module else "")
        for alias in node.names:
            if module == "wordgrowth":
                found.add((f"wordgrowth.{alias.name}", None))
            else:
                found.add((module, alias.name))
    return {(m, n) for m, n in found if m == "wordgrowth" or m.startswith("wordgrowth.")}


def test_words_is_the_bottom_layer():
    src = Path(wordgrowth.__file__).parent
    assert package_imports(src / "words.py") == set()
    assert {m for m, _ in package_imports(src / "circular.py")} == {"wordgrowth.words"}
    # tests and scripts read words through its public names only
    root = Path(__file__).resolve().parent.parent
    files = sorted([*(root / "tests").glob("*.py"), *(root / "scripts").glob("*.py")])
    taken = set()
    for path in files:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        private_attributes = {
            node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "words" and node.attr.startswith("_")
        }
        assert not private_attributes, (path.name, private_attributes)
        for module, name in package_imports(path):
            if module == "wordgrowth.words" and name is not None:
                taken.add(name)
                assert not name.startswith("_"), (path.name, name)
    assert {"ends_in_violation", "suffix_checks", "target_length"} <= taken  # the scan sees imports


def test_automaton_is_the_graph_layer():
    # automata, graphs, strong components, periods, local graphs and the
    # walk search sit below every other module
    src = Path(wordgrowth.__file__).parent
    assert package_imports(src / "automaton.py") == set()
    # growth reads the local graphs and the walk search from it
    taken = {n for m, n in package_imports(src / "growth.py") if m == "wordgrowth.automaton"}
    assert {"component_graphs", "length_masks", "reverse_edges", "rotate", "row_entries"} <= taken
