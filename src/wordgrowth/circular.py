"""Square-free circular words, root tables and period existence scans.

A circular word is a word up to rotation; it is square-free when no
factor of length up to the word's own length, read around the circle,
is a square.  Circular square-free words of length n are exactly the
roots of the minimal squares of period n.  Roots, root tables and
enumerations read them from the level search of ``words``, and a period
scan runs its depth-first walk."""

from __future__ import annotations

import math
from typing import Iterable, Optional

from wordgrowth.words import (
    ExponentBound,
    is_free,
    least_rotation,
    minimal_word_arrays,
    periods_without_minimal_words,
    word_to_str,
)

__all__ = [
    "CircularWord",
    "circular_is_square_free",
    "enumerate_circular_square_free",
    "forbidden_period_scan",
    "minimal_roots",
    "root_complexity",
    "root_table",
]


class CircularWord:
    """A word considered up to rotation, stored by its least rotation."""

    __slots__ = ("representative",)

    def __init__(self, word: Iterable[int]):
        self.representative = least_rotation(tuple(word))

    def __len__(self):
        return len(self.representative)

    def __eq__(self, other):
        if not isinstance(other, CircularWord):
            return NotImplemented
        return self.representative == other.representative

    def __hash__(self):
        return hash(self.representative)

    def __lt__(self, other):
        if not isinstance(other, CircularWord):
            return NotImplemented
        return (len(self.representative), self.representative) < (
            len(other.representative),
            other.representative,
        )

    def __repr__(self):
        return f"CircularWord({word_to_str(self.representative)})"


def circular_is_square_free(word, k: Optional[int] = None) -> bool:
    """No factor of length <= n read around the circle is a square.

    Accepts a plain word or a CircularWord; rotation-invariant by
    construction (every factor of w + w up to length n is checked).  When
    an alphabet size k is supplied the letters are range-checked.
    """
    w = word.representative if isinstance(word, CircularWord) else tuple(word)
    if k is not None:
        codes = [x if isinstance(x, int) else ord(x) - ord("a") for x in w]
        if any(not 0 <= x < k for x in codes):
            raise ValueError("letter out of range for the given alphabet size")
    return is_free(w + w, ExponentBound(2), len(w))


def enumerate_circular_square_free(
    n: int, alphabet_size: int = 3, budget: Optional[int] = None
) -> list:
    """All square-free circular words of length n, sorted.

    These are the roots of the minimal squares of period n, deduplicated
    through least rotations; ``budget`` caps their search as in
    ``minimal_roots``.  An empty alphabet raises ValueError at every n,
    n = 0 included.
    """
    if n < 0:
        raise ValueError("length must be nonnegative")
    if alphabet_size < 1:
        raise ValueError("alphabet must have at least 1 letter")
    if n == 0:
        return [CircularWord(())]
    square = ExponentBound(2)
    found = {least_rotation(root) for root in minimal_roots(alphabet_size, square, n, budget)}
    return [CircularWord(w) for w in sorted(found)]


def _rotation_renaming_key(word) -> tuple:
    """Canonical form of a root under rotation and letter renaming:
    the least first-occurrence relabeling over all rotations."""
    n = len(word)
    doubled = word + word
    best = None
    for j in range(n):
        seen: dict = {}
        relabeled = []
        for x in doubled[j:j + n]:
            if x not in seen:
                seen[x] = len(seen)
            relabeled.append(seen[x])
        cand = tuple(relabeled)
        if best is None or cand < best:
            best = cand
    return best


def minimal_roots(k: int, bound: ExponentBound, n: int, budget: Optional[int] = None) -> list:
    """All length-n words whose periodic extension is a minimal power,
    sorted; for squares these are exactly the words whose circular
    closure is square-free.  ``budget`` caps the search as in
    ``words.minimal_word_arrays``."""
    if n < 1:
        raise ValueError("period must be at least 1")
    arrays, _ = minimal_word_arrays(k, bound, [n], budget=budget)
    return list(map(tuple, arrays[n][:, :n].tolist()))


def root_table(k: int, bound: ExponentBound, n_max: int, budget: Optional[int] = None) -> list:
    """Root complexities for n = 1..n_max, in order, from one search.

    The root complexity of n counts the minimal bound-violating words of
    period exactly n with roots up to rotation.  Conjugate roots describe
    one cyclic object, so each class of roots equivalent under rotation
    and renaming contributes the number of distinct letter assignments
    of one representative, k!/(k-used)!: a lone one-letter class counts
    k, a lone class using all letters counts k!.  Renaming a root to
    first-occurrence form keeps it minimal and in its class, so the
    letter-canonical roots meet every class.  ``budget`` caps the search
    as in ``words.minimal_word_arrays``.
    """
    if n_max < 1:
        raise ValueError("period must be at least 1")
    arrays, _ = minimal_word_arrays(
        k, bound, range(1, n_max + 1), canonical=True, budget=budget
    )
    table = []
    for p, words in arrays.items():
        keys = {_rotation_renaming_key(root) for root in map(tuple, words[:, :p].tolist())}
        table.append(sum(math.perm(k, 1 + max(key)) for key in keys))
    return table


def root_complexity(k: int, bound: ExponentBound, n: int, budget: Optional[int] = None) -> int:
    """The root complexity of n alone, ``root_table(...)[n - 1]``: its
    search visits the same words as one for period n only."""
    return root_table(k, bound, n, budget)[n - 1]


def forbidden_period_scan(
    k: int,
    bound: ExponentBound,
    p_max: int,
    budget: int = 20_000_000,
) -> set:
    """Periods up to p_max admitting no minimal bound-violating word,
    from the walk of ``words.periods_without_minimal_words``, which
    ``budget`` caps as there."""
    if p_max < 1:
        raise ValueError("p_max must be at least 1")
    return periods_without_minimal_words(k, bound, p_max, budget)
