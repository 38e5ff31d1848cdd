"""Words: how they are written, measured and searched.

A word is a tuple of letter indices, written over a..z by ``parse_word``
and ``word_to_str``.  An ``ExponentBound`` says which exponents (length
over minimal period) a power-free language forbids; ``is_free`` checks
every factor of a word through ``ends_in_violation``.

A minimal word violates a bound while both one-letter trims stay free;
its length is ``target_length`` of its period.  ``minimal_word_arrays``
lists the minimal words level by level with numpy.  Only the period
scan walks depth first (``periods_without_minimal_words``): it closes a
period at its first minimal word, which a level search, finishing each
length first, cannot do.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

__all__ = [
    "BudgetExceededError",
    "ExponentBound",
    "MinimalPower",
    "ends_in_violation",
    "exponent",
    "is_free",
    "least_rotation",
    "minimal_period",
    "minimal_powers",
    "minimal_word_arrays",
    "orbit",
    "parse_word",
    "periods_without_minimal_words",
    "suffix_checks",
    "target_length",
    "target_periods",
    "violates",
    "word_to_str",
]


def parse_word(s: str) -> tuple:
    """ASCII word over a..z into letter indices; 'eps' is the empty word."""
    if s == "eps":
        return ()
    out = []
    for ch in s:
        x = ord(ch) - ord("a")
        if not 0 <= x < 26:
            raise ValueError(f"letter {ch!r} outside a..z")
        out.append(x)
    return tuple(out)


def word_to_str(w: Iterable[int]) -> str:
    w = tuple(w)
    if not w:
        return "eps"
    if any(not 0 <= x < 26 for x in w):
        return " ".join(str(x) for x in w)
    return "".join(chr(ord("a") + x) for x in w)


def least_rotation(word) -> tuple:
    w = tuple(word)
    if not w:
        return w
    return min(w[i:] + w[:i] for i in range(len(w)))


def orbit(word, k: int) -> Iterator[tuple]:
    """A letter-canonical word's images under permutations of k letters."""
    used = 1 + max(word) if word else 0
    for perm in itertools.permutations(range(k), used):
        yield tuple(perm[x] for x in word)


class BudgetExceededError(RuntimeError):
    """A root search ran out of its budget; names the first period that
    could not be settled."""

    def __init__(self, period: int, budget: int):
        super().__init__(
            f"budget of {budget} candidate roots exhausted at period {period}"
        )
        self.period = period
        self.budget = budget


@dataclass(frozen=True)
class ExponentBound:
    """A rational exponent threshold, optionally strict ("plus").

    A word violates the bound when its exponent is >= num/den, or
    strictly > num/den for a plus bound.  Plus bounds describe the
    classical "beta-plus-free" languages.
    """

    num: int
    den: int = 1
    plus: bool = False

    def __post_init__(self):
        if self.den < 1 or self.num < 1:
            raise ValueError("exponent bound must be a positive rational")
        frac = Fraction(self.num, self.den)
        if frac <= 1:
            raise ValueError("exponent bound must exceed 1")
        # keep num/den coprime so equality and ordering follow the value
        object.__setattr__(self, "num", frac.numerator)
        object.__setattr__(self, "den", frac.denominator)

    @property
    def value(self) -> Fraction:
        return Fraction(self.num, self.den)

    @classmethod
    def parse(cls, token: str) -> "ExponentBound":
        s = token.strip()
        plus = s.endswith("+")
        if plus:
            s = s[:-1]
        a, slash, b = s.partition("/")
        if not slash:
            b = "1"
        # unsigned digits only: int() would accept signs, and two of them cancel
        if not all(x.isascii() and x.isdigit() for x in (a, b)) or int(b) == 0:
            raise ValueError(f"bad exponent token {token!r}")
        return cls(int(a), int(b), plus)

    def __str__(self):
        body = str(self.num) if self.den == 1 else f"{self.num}/{self.den}"
        return body + ("+" if self.plus else "")


# ---------------------------------------------------------------------------
# exponents of words and factors


def _border_table(word) -> list:
    """border[i] = length of the longest proper border of word[:i]."""
    n = len(word)
    border = [0] * (n + 1)
    j = 0
    for i in range(1, n):
        while j and word[i] != word[j]:
            j = border[j]
        if word[i] == word[j]:
            j += 1
        else:
            j = 0
        border[i + 1] = j
    return border


def minimal_period(word) -> int:
    w = tuple(word)
    if not w:
        raise ValueError("the empty word has no period")
    border = _border_table(w)
    return len(w) - border[len(w)]


def exponent(word) -> Fraction:
    """|w| divided by the minimal period of w."""
    w = tuple(word)
    return Fraction(len(w), minimal_period(w))


def violates(e, bound: ExponentBound) -> bool:
    """True when exponent e crosses the bound (>= for plain bounds,
    strict > for plus bounds)."""
    e = Fraction(e)
    return e > bound.value if bound.plus else e >= bound.value


def is_free(word, bound: ExponentBound, max_factor: Optional[int] = None) -> bool:
    """True when no factor of the word violates the bound.

    ``max_factor`` restricts the check to factors up to that length,
    which some callers can justify on structural grounds.
    """
    w = tuple(word)
    pairs = suffix_checks(bound, len(w) if max_factor is None else min(max_factor, len(w)))
    return not any(ends_in_violation(w, end, pairs) for end in range(2, len(w) + 1))


def suffix_checks(bound: ExponentBound, n_max: int) -> list:
    """The pairs (q, L_q), L_q = ``target_length(bound, q)``, with
    L_q <= n_max, that is q * beta <= n_max (< for a plus bound)."""
    q_max = (n_max * bound.den - bound.plus) // bound.num
    return [(q, target_length(bound, q)) for q in range(1, q_max + 1)]


def ends_in_violation(word, end: int, pairs: list) -> bool:
    """True when a factor of word[:end] ending at ``end``, of length at
    most n_max, violates the bound; ``pairs`` is ``suffix_checks(bound,
    n_max)``.  One exists exactly when the factor of length L_q there has
    period q for some q.  If: its exponent is at least L_q/q, which
    crosses.  Only if: a violating factor of minimal period p is at least
    L_p long (crossing is monotone in length), and its suffix of length
    L_p has period p.  L_q increases with q, ending the loop; comparing
    last letters first skips most periods.
    """
    last = word[end - 1]
    for q, length in pairs:
        if length > end:
            return False
        if word[end - 1 - q] == last and word[end - length:end - q] == word[end - length + q:end]:
            return True
    return False


# ---------------------------------------------------------------------------
# minimal violating words


@dataclass(frozen=True, order=True)
class MinimalPower:
    """A shortest bound-violating word: it violates, both one-letter
    trims are free, and ``period`` is its minimal period."""

    period: int
    word: tuple
    exponent: Fraction

    def __str__(self):
        return f"{word_to_str(self.word)} (period {self.period}, exponent {self.exponent})"


def target_length(bound: ExponentBound, period: int) -> int:
    """Length of a minimal violating word of the given period.

    Smallest L with L/p >= beta (plain) or L/p > beta (plus): any longer
    violating word of the same period still violates after dropping its
    last letter, so minimal words have exactly this length.
    """
    if bound.plus:
        return (bound.num * period) // bound.den + 1
    return -((-bound.num * period) // bound.den)


def target_periods(bound: ExponentBound, cap: int, mode: str) -> list:
    """The periods a cap admits: 1..cap, or those with L_p - p <= cap."""
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if mode == "period":
        return list(range(1, cap + 1))
    if mode == "excess":
        periods = []
        p = 1
        while True:
            excess = target_length(bound, p) - p
            if excess > cap:
                return periods
            periods.append(p)
            p += 1
    raise ValueError("mode must be 'period' or 'excess'")


def periods_without_minimal_words(
    k: int,
    bound: ExponentBound,
    p_max: int,
    budget: Optional[int] = None,
) -> set:
    """The periods up to ``p_max`` that admit no minimal bound-violating
    word, from one depth-first walk over the letter-canonical free words.

    Permuting letters preserves minimality, so the letter-canonical
    words (first occurrences in increasing order) meet every period with
    a minimal word.  Each new letter is checked on the factors it
    closes, so every word walked is free, as every root is.  A root of
    an open period p is extended periodically to L_p: the prefix
    w[:L_p-1] is checked letter by letter past the root, and w[1:],
    whose other factors lie in that prefix, only at its last letter; the
    minimal period is then p (``minimal_word_arrays`` proves it).  A
    period closes at its first minimal word, the walk descends no deeper
    than the largest period still open, and it ends when none is.
    ``budget`` caps the free words visited; one more raises
    BudgetExceededError naming the smallest period still open.  An
    empty alphabet or a budget below 1 raises ValueError.
    """
    if k < 1:
        raise ValueError("alphabet must have at least 1 letter")
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    open_periods = set(range(1, p_max + 1))
    pairs = suffix_checks(bound, target_length(bound, p_max))
    visited = 0
    word: list = []
    stack = [(0, 0)]  # (length before, letter) pairs, depth first
    while stack:
        n, x = stack.pop()
        if n >= p_max:  # pushed before the longest open periods closed
            continue
        del word[n:]
        word.append(x)
        n += 1
        if ends_in_violation(word, n, pairs):
            continue
        visited += 1
        if budget is not None and visited > budget:
            raise BudgetExceededError(min(open_periods), budget)
        if n in open_periods:
            length = target_length(bound, n)
            w = word[:]
            while len(w) < length - 1:
                w.append(w[-n])
                if ends_in_violation(w, len(w), pairs):
                    break
            else:  # w is the free prefix w[:L-1]
                w.append(w[-n])
                if not ends_in_violation(w[1:], length - 1, pairs):
                    open_periods.discard(n)
                    p_max = max(open_periods, default=0)
        if n < p_max:
            stack.extend([(n, y) for y in range(min(max(word) + 2, k) - 1, -1, -1)])
    return open_periods


def minimal_word_arrays(
    k: int,
    bound: ExponentBound,
    periods: Iterable[int],
    canonical: bool = False,
    budget: Optional[int] = None,
) -> tuple:
    """The minimal bound-violating words of the given periods, searched
    one length at a time: ``(arrays, visited)``, where ``arrays`` maps
    each period p, increasing, to the lexicographically sorted 2-D array
    of its minimal words (one per row, length L_p), and ``visited``
    counts the free words visited.

    The search visits every free word of every length up to the largest
    period; with ``canonical``, only the letter-canonical ones (first
    occurrences of letters in increasing order).  ``budget`` caps the
    free words visited and is checked before each level is materialised;
    one more raises BudgetExceededError naming the largest period.  An
    empty alphabet or a budget below 1 raises ValueError.  The roots of
    period p are ``arrays[p][:, :p]``, sorted as the rows are.

    All free words of one length form one array, kept in
    lexicographic order; R, one row per word, holds for each period q
    below the largest one R_q, the length of the longest suffix with
    period q.  Appending letter x to a word w of length n sets R_q to
    R_q + 1 when w[n-q] = x, else to min(q, n + 1).  A word no longer
    than q has R_q = its length, so at length n R keeps only the columns
    q <= min(n, p_max - 1), and each level appends the column of q = n + 1.
    Everything is read from R:

    - a factor ending at the new letter violates exactly when some q has
      L_q <= n + 1 and R_q >= L_q after the append (the statement
      ``ends_in_violation`` proves); before it, that is R_q >= L_q - 1
      and w[n-q] = x, so each row's forbidden letters are gathered from
      the q with R_q >= L_q - 1;
    - period p is extended from level m_p = min(L_p - 1, p_max), whose
      rows with R_p >= m_p are its roots' free periodic extensions: one
      update runs on them all at once, letter by letter, to L_p and
      drops a row when its prefix w[:L_p-1] stops being free;
    - w[1:] is free exactly when no q with L_q <= L_p - 1 has R_q >= L_q:
      its other factors lie in the free prefix.

    The minimal period of a kept word needs no check.  L_q strictly
    increases with q (L_q/q crosses beta, and beta > 1), so every q < p
    has L_q <= L_p - 1.  A word of period p and minimal period q < p
    would have period q on its prefix w[:L_q], a violating factor of the
    free prefix w[:L_p-1].  Hence the minimal period is p.
    """
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
    arrays, visited = dict.fromkeys(sorted(targets)), 0
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
        for p in [p for p in arrays if min(lengths[p - 1] - 1, p_max) == n + 1]:
            rows = runs[:, p - 1] >= n + 1 if p <= n else slice(None)
            arrays[p] = _periodic_extensions(words[rows], runs[rows], lengths, p)
    return arrays, visited


def _periodic_extensions(roots, runs, lengths, p: int):
    """The rows of ``roots`` (free words of period p and length m, p <= m
    < L_p, with their R table; see ``minimal_word_arrays``) whose periodic
    extension to L_p is a minimal violating word, extended, in their
    order.  The letters of the extension are read off the roots' first p
    letters, so only the rows kept are ever extended."""
    length, m = int(lengths[p - 1]), roots.shape[1]
    runs = runs[:, :p - 1]
    qs = np.arange(1, p, dtype=runs.dtype)
    keep = np.arange(len(roots))
    # the extension repeats the root: w[n-q] = root[(n-q) % p], q = 1..p-1
    cols = (np.arange(m, length)[:, None] - np.arange(1, p)) % p
    for n in range(m, length):
        back = roots.take(keep, 0).take(cols[n - m], 1)
        runs = np.where(back == roots[keep, n % p][:, None], runs + 1, qs)
        # the prefix w[:L_p-1] stays free; then w[1:] is free
        qn = int(np.searchsorted(lengths[:p - 1], min(n + 1, length - 1), "right"))
        ok = ~(runs[:, :qn] >= lengths[:qn]).any(1)
        keep, runs = keep[ok], runs[ok]
    return roots.take(keep, 0).take(np.arange(length) % p, 1)


def minimal_powers(
    k: int,
    bound: ExponentBound,
    cap: int,
    mode: str = "period",
    canonical: bool = False,
    budget: Optional[int] = None,
) -> list:
    """All minimal bound-violating words with period (or excess) up to
    ``cap``, sorted by period then word.

    A minimal violating word of period p has exactly the target length
    for p, so generation searches the free roots of each target period,
    one length at a time, and extends them periodically
    (``minimal_word_arrays``).  With ``canonical`` only orbit
    representatives under letter permutation are produced.  ``budget``
    caps the free words that one search over all the periods visits, as
    in ``minimal_word_arrays``.
    """
    arrays, _ = minimal_word_arrays(
        k, bound, target_periods(bound, cap, mode), canonical, budget
    )
    out = []
    for p, words in arrays.items():
        e = Fraction(words.shape[1], p)
        out.extend(MinimalPower(p, w, e) for w in map(tuple, words.tolist()))
    return out
