"""Circular square-free words, minimal roots, period scans."""

import ast
import itertools
import random
from pathlib import Path

import pytest

from oracles import naive_circular_square_free, naive_min_period
import wordgrowth
from wordgrowth import circular
from wordgrowth.circular import (
    BudgetExceededError,
    CircularWord,
    circular_is_square_free,
    enumerate_circular_square_free,
    forbidden_period_scan,
    least_rotation,
    minimal_roots,
    root_complexity,
)
from wordgrowth.circular import _scan_workers
from wordgrowth.fad import parse_word
from wordgrowth.powerfree import ExponentBound

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


def rotation_renaming_class(word):
    n = len(word)
    best = None
    for i in range(n):
        rotated = word[i:] + word[:i]
        seen = {}
        relabeled = tuple(seen.setdefault(x, len(seen)) for x in rotated)
        if best is None or relabeled < best:
            best = relabeled
    return best


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
    for threads in (1, 2):
        with pytest.raises(BudgetExceededError) as err:
            forbidden_period_scan(2, B("5/2"), 8, budget=1, threads=threads)
        assert err.value.budget == 1
        assert err.value.period == 2, threads
        assert "budget" in str(err.value)


def test_root_budget_exhaustion():
    # the square-free search visits 3 + 6 free words to length 2, and 12 more at length 3
    assert root_complexity(3, SQ, 2, budget=9) == root_complexity(3, SQ, 2)
    with pytest.raises(BudgetExceededError) as err:
        minimal_roots(3, SQ, 3, budget=10)
    assert (err.value.period, err.value.budget) == (3, 10)
    with pytest.raises(BudgetExceededError):
        root_complexity(3, SQ, 2, budget=8)


def test_scan_parallel_matches_serial():
    serial = forbidden_period_scan(2, B("7/3"), 10)
    parallel = forbidden_period_scan(2, B("7/3"), 10, threads=2)
    assert serial == parallel


def test_scan_argument_validation():
    with pytest.raises(ValueError):
        forbidden_period_scan(2, SQ, 0)
    with pytest.raises(ValueError):
        forbidden_period_scan(2, SQ, 3, budget=0)
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads"):
            forbidden_period_scan(2, SQ, 3, threads=threads)


def test_scan_workers_are_clamped(monkeypatch):
    monkeypatch.setattr(circular.os, "cpu_count", lambda: 4)
    assert _scan_workers(1, 30) == 1
    assert _scan_workers(3, 30) == 3
    assert _scan_workers(10**9, 30) == 4
    assert _scan_workers(10**9, 2) == 2
    monkeypatch.setattr(circular.os, "cpu_count", lambda: None)
    assert _scan_workers(8, 30) == 1
    for threads in (0, -1, -(10**9)):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            _scan_workers(threads, 30)


# ---------------------------------------------------------------------------
# module boundaries

# (module, name): the private helpers another package module may import
ALLOWED_PRIVATE_IMPORTS = {("growth", "_as_fraction"), ("growth", "_dfa_adjacency")}


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
