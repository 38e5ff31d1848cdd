"""Two-sided growth-rate bounds for power-free languages.

A power-free language L(k, beta) consists of the words over k letters
none of whose factors has exponent at least beta (strictly above beta
for a "plus" bound).  These languages are not regular, but forbidding
only the minimal violating words up to a period or excess cap yields a
regular superset whose growth rate is an upper bound for the language,
and a classical inequality converts a good upper bound into a certified
lower bound.  Everything numeric here is exact: rates come from the
certified interval engine, the lower bound from rational bisection.

Minimal words: ``minimal_word_arrays`` lists them level by level with
numpy: all free words of one length are one array, and a per-row table
of the longest suffix with each period decides every check on the
factors that end at a new letter.  ``minimal_powers``, the bounds
pipeline and the circular-word module's root tables and enumerations
read its sorted word arrays.  Only the period scan walks depth first
(``periods_without_minimal_words``): it closes a period at its first
minimal word, which a level search, finishing each length first, cannot
do.

Symmetry: the languages are stable under permuting letters, so the walk
counts of their approximating automata factor through a quotient whose
states are letter-canonical forbidden-word prefixes.  The quotient is
built directly by ``fad.FailureTrie.letter_canonical``, with
relabeling-aware failure links and a breadth-first move table, on numpy,
one trie depth at a time, from the level search's sorted word arrays;
no word becomes a Python tuple.  The move table already groups the
moves by state, so the compressed sparse rows that feed the interval
engine, weighted edges and all, need no global sort.  The lower
bound's condition, a unique cycle-carrying component of the full
automaton, is decided on the quotient too: the full automaton has
[S_k : K] such components over each cycle-carrying quotient component,
K being generated by its states' stabilizers and the letter permutations
read around its cycles, the voltages the trie fills with its moves
(``_lifted_components``).  The full automaton is built only without
symmetry (``--no-symmetry``), the path tests use as the oracle.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional

import numpy as np

from wordgrowth.automaton import Dfa
from wordgrowth.fad import Antidictionary, FailureTrie, fad_automaton, word_to_str
from wordgrowth.growth import (
    IndexInterval,
    WeightedDigraph,
    _as_fraction,
    _dfa_adjacency,
    cyclic_components,
    decimal_lower,
    decimal_upper,
    digraph_index,
)

__all__ = [
    "BudgetExceededError",
    "ExponentBound",
    "FiniteApproximationError",
    "MinimalPower",
    "NoLowerBoundError",
    "PowerFreeBounds",
    "approximation_bounds",
    "asymptotic_formula",
    "exponent",
    "is_free",
    "lower_bound",
    "minimal_periods_of_suffixes",
    "minimal_powers",
    "minimal_word_arrays",
    "periods_without_minimal_words",
    "violates",
]


class FiniteApproximationError(ValueError):
    """The regular approximation is a finite language; no growth rate."""


class BudgetExceededError(RuntimeError):
    """A root search ran out of its budget; names the first period that
    could not be settled."""

    def __init__(self, period: int, budget: int):
        super().__init__(
            f"budget of {budget} candidate roots exhausted at period {period}"
        )
        self.period = period
        self.budget = budget


class NoLowerBoundError(ValueError):
    """The lower-bound inequality has no solution above 1."""


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
    pairs = _suffix_checks(bound, len(w) if max_factor is None else min(max_factor, len(w)))
    return not any(_ends_in_violation(w, end, pairs) for end in range(2, len(w) + 1))


def minimal_periods_of_suffixes(word) -> list:
    """Minimal periods of every suffix; entry i is for word[i:].

    Computed from one border table of the reversed word: reversal maps
    suffixes to prefixes and preserves periods.
    """
    w = tuple(word)[::-1]
    n = len(w)
    border = _border_table(w)
    out = [0] * n
    for length in range(1, n + 1):
        out[n - length] = length - border[length]
    return out


def _suffix_checks(bound: ExponentBound, n_max: int) -> list:
    """The pairs (q, L_q), L_q = ``_target_length(bound, q)``, with
    L_q <= n_max, that is q * beta <= n_max (< for a plus bound)."""
    q_max = (n_max * bound.den - bound.plus) // bound.num
    return [(q, _target_length(bound, q)) for q in range(1, q_max + 1)]


def _ends_in_violation(word, end: int, pairs: list) -> bool:
    """True when a factor of word[:end] ending at ``end``, of length at
    most n_max, violates the bound; ``pairs`` is ``_suffix_checks(bound,
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


def _target_length(bound: ExponentBound, period: int) -> int:
    """Length of a minimal violating word of the given period.

    Smallest L with L/p >= beta (plain) or L/p > beta (plus): any longer
    violating word of the same period still violates after dropping its
    last letter, so minimal words have exactly this length.
    """
    if bound.plus:
        return (bound.num * period) // bound.den + 1
    return -((-bound.num * period) // bound.den)


def _target_periods(bound: ExponentBound, cap: int, mode: str) -> list:
    if cap < 1:
        raise ValueError("cap must be at least 1")
    if mode == "period":
        return list(range(1, cap + 1))
    if mode == "excess":
        periods = []
        p = 1
        while True:
            excess = _target_length(bound, p) - p
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
    pairs = _suffix_checks(bound, _target_length(bound, p_max))
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
        if _ends_in_violation(word, n, pairs):
            continue
        visited += 1
        if budget is not None and visited > budget:
            raise BudgetExceededError(min(open_periods), budget)
        if n in open_periods:
            length = _target_length(bound, n)
            w = word[:]
            while len(w) < length - 1:
                w.append(w[-n])
                if _ends_in_violation(w, len(w), pairs):
                    break
            else:  # w is the free prefix w[:L-1]
                w.append(w[-n])
                if not _ends_in_violation(w[1:], length - 1, pairs):
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
      ``_ends_in_violation`` proves); before it, that is R_q >= L_q - 1
      and w[n-q] = x, so each row's forbidden letters are gathered from
      the q with R_q >= L_q - 1;
    - the periodic extension of a period-p root to L_p applies the same
      update to all roots at once, letter by letter, and drops a row
      when its prefix w[:L_p-1] stops being free;
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
    lengths = np.array([_target_length(bound, q) for q in range(1, p_max + 1)])
    run_type = np.min_scalar_type(int(lengths[-1]))
    qs = np.arange(1, p_max, dtype=run_type)  # the periods R keeps
    words = np.zeros((1, 0), np.min_scalar_type(k - 1))
    runs = np.zeros((1, 0), run_type)
    used = np.zeros(1, np.intp)  # letters a canonical word has used
    arrays, visited = {}, 0
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
        if n + 1 in targets:
            arrays[n + 1] = _periodic_extensions(words, runs, lengths, n + 1)
    return arrays, visited


def _periodic_extensions(roots, runs, lengths, p: int):
    """The rows of ``roots`` (free words of length p, with their R table;
    see ``minimal_word_arrays``) whose periodic extension to L_p is a
    minimal violating word, extended, in their order.  The letters of
    the extension are read off the roots, so only the rows kept are
    ever extended."""
    length = int(lengths[p - 1])
    runs = runs[:, :p - 1]
    qs = np.arange(1, p, dtype=runs.dtype)
    keep = np.arange(len(roots))
    # the extension repeats the root: w[n-q] = root[(n-q) % p], q = 1..p-1
    cols = (np.arange(p, length)[:, None] - np.arange(1, p)) % p
    for n in range(p, length):
        back = roots.take(keep, 0).take(cols[n - p], 1)
        runs = np.where(back == roots[keep, n % p][:, None], runs + 1, qs)
        # the prefix w[:L_p-1] stays free; then w[1:] is free
        qn = int(np.searchsorted(lengths[:p - 1], min(n + 1, length - 1), "right"))
        ok = ~(runs[:, :qn] >= lengths[:qn]).any(1)
        keep, runs = keep[ok], runs[ok]
    return roots.take(keep, 0).take(np.arange(length) % p, 1)


def _expand_orbit(word, k: int) -> Iterator[tuple]:
    used = 1 + max(word) if word else 0
    for perm in itertools.permutations(range(k), used):
        yield tuple(perm[x] for x in word)


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
        k, bound, _target_periods(bound, cap, mode), canonical, budget
    )
    out = []
    for p, words in arrays.items():
        e = Fraction(words.shape[1], p)
        out.extend(MinimalPower(p, w, e) for w in map(tuple, words.tolist()))
    return out


# ---------------------------------------------------------------------------
# letter-canonical quotient automaton

_FRESH = FailureTrie.FRESH


QuotientMoves = namedtuple("QuotientMoves", "nletters targets voltages")


def _quotient_graph(k: int, word_arrays: Iterable):
    """The ``WeightedDigraph`` of the letter-permutation quotient of the
    forbidden-prefix automaton of the words in ``word_arrays`` (2-D
    arrays, one word per row), and the ``QuotientMoves`` the lift reads,
    per state: ``nletters``, the ``targets`` of its slots (-1 for none)
    and its moves' ``voltages`` rows, the trie's H (see ``fad.FailureTrie``).

    State q is node ``states[q]`` of the words' letter-canonical trie;
    state 0 is the root.  Its moves are read off the trie's move table,
    all states at once, with numpy, and the trie is dropped on return.
    An existing-letter move has weight 1, the fresh-letter move carries
    the number of unused concrete letters, and the weights of moves to
    one target add up.  The move table already groups the moves by
    source, so no global sort is needed: each state's at most k moves,
    target and weight packed into one key, are sorted in place, and equal
    targets merged.
    Weighted walk counts from the root equal the word counts of the full
    language, so index and polynomial structure are preserved.
    """
    trie = FailureTrie.letter_canonical(k, word_arrays)
    states = np.asarray(trie.states)
    n = len(states)
    nl = np.asarray(trie.nletters)[states].astype(np.min_scalar_type(k))
    moves = np.asarray(trie.delta).reshape(-1, k).take(states, axis=0)
    slot = np.arange(k)
    # a negative move is forbidden (its wrapped state_of read is discarded)
    targets = np.where((slot > nl[:, None]) | (moves < 0), -1, np.asarray(trie.state_of)[moves])
    voltages = np.asarray(trie.voltage).reshape(-1, k, k).take(states, axis=0)
    del trie, moves
    # pack target and weight into one key, 32-bit while it fits; the moves
    # that go nowhere sort last
    key = targets.astype(np.int32 if n * (k + 1) < 2**31 else np.int64)
    key *= k + 1
    key += np.where(slot < nl[:, None], 1, k - nl[:, None])
    key[targets < 0] = n * (k + 1)
    # odd-even transposition sort of each state's k keys
    for r in range(k):
        a, b = key[:, r % 2:k - 1:2], key[:, r % 2 + 1:k:2]
        low = np.minimum(a, b)
        np.maximum(a, b, out=b)
        a[...] = low
    target, weight = np.divmod(key, k + 1)
    # equal targets are adjacent: each run's weight goes to its first move
    for j in range(k - 1, 0, -1):
        same = target[:, j] == target[:, j - 1]
        weight[:, j - 1] += weight[:, j] * same
        target[:, j][same] = n
    keep = target < n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.count_nonzero(keep, axis=1), out=indptr[1:])
    graph = WeightedDigraph(indptr, target[keep].astype(np.int64), weight[keep].astype(np.int64))
    return graph, QuotientMoves(nl, targets, voltages)


def _lifted_components(moves: QuotientMoves, k: int, comp) -> int:
    """Number of cycle-carrying strongly connected components of the full
    automaton that lie over one cycle-carrying component C, an array of
    states of the quotient whose ``QuotientMoves`` is ``moves``.

    A full state is a pair (u, phi): a quotient state u and an injection
    phi of u's ``nletters[u]`` frame letters into the alphabet.  Reading
    letter a moves (u, phi) to (t, phi o pi) along the quotient edge e
    for frame letter phi^-1(a), or for the fresh slot nletters[u] when a
    is not in phi's image; pi, the inverse of the move's voltage row,
    sends t's letters to the slots of u they came from.  Every
    quotient edge lifts from every state over its source, so each
    component of the full automaton over C projects onto all of C, and
    none lies over a quotient component without a cycle.

    Proof of the count.  Lift further to the frame bundle P, whose
    states are (u, g) with g in S_k, and whose edges (u, g) -> (t, g pi_e)
    have voltages pi_e (Gross & Tucker, Topological Graph Theory, ch. 2).
    P covers the quotient, so over the strongly connected C it splits
    into strongly connected components.  Fix a spanning tree of C rooted
    at u0, with transports T_u0 = id and T_t = T_u pi_e along tree
    edges.  The component of (u0, h) is {(u, h y T_u) : y in K0, u in C},
    where K0 is generated by T_u pi_e T_t^-1 over the edges e: u -> t of
    C (each a closed walk through the tree).  The full state (u, phi) is
    the image of every (u, g) with g restricted to u's letters equal to
    phi, i.e. of the coset g Stab_u, Stab_u permuting the unused letters
    nletters[u]..k-1.  The fresh edge out of (u, phi) reads any unused
    letter, so the full edges are exactly the images of P's edges, and
    the full components over C are the P-components glued along these
    identifications: (u, h y T_u) ~ (u, h y (T_u s T_u^-1) T_u) for s in
    Stab_u.  With

        K = < T_u pi_e T_t^-1 (edges e in C),
              T_u s T_u^-1 (u in C, s in Stab_u) >,

    the component of (u0, h) is labelled by the coset hK, so there are
    exactly [S_k : K] of them.  Letters are not acted on freely: a state
    with fewer than k-1 letters has a nontrivial stabilizer, which is
    why the stabilizer conjugates are generators.  The choice of pi_e's
    values outside t's letters only moves T_t within T_t Stab_t.

    Computation.  K contains Stab_u0 (T_u0 = id), the stabilizer in S_k
    of the tuple iota = (0, .., n-1) with n = nletters[u0].  So
    [S_k : K] = |F| / |K iota|, where F is the set of injections of u0's
    letters into the alphabet, of size k!/(k-n)!.  The orbit K iota is
    grown while C is searched breadth first from the state u0 of fewest
    letters: tree edges set transports, every other edge and every
    adjacent transposition (i i+1) of a state's unused letters adds a
    generator.  The search stops as soon as the orbit is
    all of F, that is when K = S_k, so a unique component usually costs
    a small part of C; otherwise it takes O(|C| k) permutation steps,
    plus the orbit closures.
    """
    nletters, targets, voltages = moves
    inside = np.zeros(len(nletters), bool)
    inside[comp] = True
    u0 = int(comp[np.argmin(nletters[comp])])
    identity = tuple(range(k))
    iota = identity[: nletters[u0]]
    fibre = math.perm(k, len(iota))
    orbit = {iota}
    gens: set = set()

    def generate(g: tuple) -> None:
        if g in gens:
            return
        gens.add(g)
        todo = [tuple(g[a] for a in p) for p in orbit]
        while todo:
            p = todo.pop()
            if p in orbit:
                continue
            orbit.add(p)
            todo.extend(tuple(h[a] for a in p) for h in gens)

    transport = {u0: identity}
    queue = [u0]
    for u in queue:
        if len(orbit) == fibre:
            return 1
        tu = transport[u]
        nl = int(nletters[u])
        for i in range(nl, k - 1):
            # conjugating the transposition (i i+1) by T_u
            g = list(identity)
            g[tu[i]], g[tu[i + 1]] = tu[i + 1], tu[i]
            generate(tuple(g))
        for x, t in enumerate(targets[u].tolist()):
            if t < 0 or not inside[t]:
                continue
            # pi: the voltage row, inverted; letters outside t's frame
            # take the unused slots in increasing order
            pi = [_FRESH] * k
            for i, j in enumerate(voltages[u, x].tolist()):
                if j != _FRESH:
                    pi[j] = i
            spare = iter([i for i in range(k) if i not in pi])
            moved = tuple(tu[i if i != _FRESH else next(spare)] for i in pi)
            tt = transport.get(t)
            if tt is None:
                transport[t] = moved
                queue.append(t)
            else:
                # moved o tt^-1
                g = [0] * k
                for j in range(k):
                    g[tt[j]] = moved[j]
                generate(tuple(g))
    return fibre // len(orbit)


# ---------------------------------------------------------------------------
# the bounds pipeline


@dataclass(frozen=True)
class PowerFreeBounds:
    """Certified two-sided growth-rate information for one power-free
    language approximation."""

    k: int
    bound: ExponentBound
    mode: str
    cap: int
    upper: IndexInterval
    lower: Optional[Fraction]
    delta: Fraction
    antidictionary_size: int
    automaton_states: int
    unique_component: Optional[bool]
    lower_note: str = ""

    def to_json_text(self) -> str:
        doc = {
            "k": self.k,
            "beta": str(self.bound),
            "mode": self.mode,
            "cap": self.cap,
            "upper": {
                "lo": decimal_lower(self.upper.lo),
                "hi": decimal_upper(self.upper.hi),
            },
            "lower": decimal_lower(self.lower) if self.lower is not None else None,
            "delta": str(self.delta),
            "antidictionary_size": self.antidictionary_size,
            "automaton_states": self.automaton_states,
            "unique_component": self.unique_component,
            "lower_note": self.lower_note,
        }
        return json.dumps(doc, indent=2)

    def to_text(self) -> str:
        lines = [
            f"language     L({self.k}, {self.bound})",
            f"mode         {self.mode} cap {self.cap}",
            f"forbidden    {self.antidictionary_size} words",
            f"states       {self.automaton_states}",
            f"upper        [{decimal_lower(self.upper.lo)}, {decimal_upper(self.upper.hi)}]",
        ]
        if self.lower is not None:
            lines.append(f"lower        {decimal_lower(self.lower)}")
        else:
            lines.append(f"lower        unavailable ({self.lower_note})")
        return "\n".join(lines) + "\n"


def approximation_bounds(
    k: int,
    bound: ExponentBound,
    cap: int,
    mode: str = "period",
    delta=Fraction(1, 10**6),
    symmetry: bool = True,
    with_lower: bool = True,
    budget: Optional[int] = None,
) -> PowerFreeBounds:
    """Certified upper and (when possible) lower bounds for the growth
    rate of L(k, bound) from the cap-limited regular approximation.

    The upper interval encloses the approximation's growth rate, which
    dominates the language's.  The lower bound additionally needs
    bound >= 2, period mode, and a unique cycle-carrying strongly
    connected component in the full approximation automaton; when any of
    these fails the lower bound is omitted with a note.  Raises
    FiniteApproximationError when the approximation itself is finite.

    With ``symmetry`` the automaton is the letter-symmetry quotient, and
    uniqueness is certified from it alone: the full automaton has one
    cycle-carrying component exactly when the quotient has one, C, and
    the letter permutations gathered around C's cycles, with the
    stabilizers of its states, generate all of S_k (see
    ``_lifted_components``).  The full automaton is never built.  Without
    ``symmetry`` (the CLI's ``--no-symmetry``) the full automaton is
    built and its components are counted directly; tests use that path
    as the oracle.  ``budget`` caps the free words the minimal-power
    search visits, as in ``minimal_powers``, and raises
    BudgetExceededError when the search outgrows it.
    """
    dfr = _as_fraction(delta)
    if dfr <= 0:
        raise ValueError("delta must be positive")
    arrays, _ = minimal_word_arrays(
        k, bound, _target_periods(bound, cap, mode), canonical=True, budget=budget
    )
    ad_size = sum(
        math.perm(k, 1 + top) for words in arrays.values() for top in words.max(1).tolist()
    )

    if symmetry:
        graph, moves = _quotient_graph(k, arrays.values())
    else:
        canon_words = [w for words in arrays.values() for w in words.tolist()]
        graph = _dfa_adjacency(_full_automaton(k, canon_words))
    cyclic = cyclic_components(graph)
    upper = digraph_index(graph, dfr, cyclic)
    if upper.hi == 0:
        raise FiniteApproximationError(
            f"the cap-{cap} approximation of L({k}, {bound}) is finite"
        )

    lower = None
    unique = None
    note = ""
    if not with_lower:
        note = "not requested"
    elif bound.value < 2:
        note = "lower bound needs beta >= 2"
    elif mode != "period":
        note = "lower bound needs a period-capped antidictionary"
    else:
        unique = len(cyclic) == 1 and (
            not symmetry or _lifted_components(moves, k, cyclic[0]) == 1
        )
        if not unique:
            note = "automaton has several cycle components"
        else:
            try:
                lower = lower_bound(upper.lo, cap)
            except NoLowerBoundError as exc:
                note = str(exc)
    return PowerFreeBounds(
        k, bound, mode, cap, upper, lower, dfr, ad_size, len(graph), unique, note
    )


def _full_automaton(k: int, canon_words) -> Dfa:
    full_words = [w for cw in canon_words for w in _expand_orbit(cw, k)]
    return fad_automaton(Antidictionary(k, full_words))


def lower_bound(upper_lo, m: int) -> Fraction:
    """Largest g with  g + 1/(g^(m-1) * (g-1)) <= upper_lo, to 1e-12.

    m is the period cap of the approximation.  For a period-capped
    approximation with a unique cycle component and bound >= 2 every
    such g is a growth-rate lower bound for the power-free language
    itself.  Raises NoLowerBoundError when the inequality has no
    solution above 1.

    A solution exists only if  min over g > 1 of
    g + 1/(g^(m-1) * (g-1))  is at most upper_lo.  The penalty term
    shrinks as m grows, so small caps get NoLowerBoundError however
    tight the upper bound is: at m = 20 the minimum is about 1.30739
    (near g = 1.2549), above the ternary square-free rate 1.30176.

    The bisection points are ``Fraction``s; f is evaluated as an
    unreduced numerator and denominator of ints, and compared by
    cross-multiplication, with no ``Fraction`` arithmetic inside f.
    """
    if m < 1:
        raise ValueError("m must be a positive integer")
    g_target = _as_fraction(upper_lo)
    # round the target down to a short fraction; only makes the
    # inequality harder, so the result stays certified
    grid = 10**15
    target = Fraction((g_target.numerator * grid) // g_target.denominator, grid)
    if target <= 1:
        raise NoLowerBoundError("upper bound does not exceed 1")

    def f(g: Fraction) -> tuple:
        # with g = p/q > 1: f(g) = (p^m (p-q) + q^(m+1)) / (q p^(m-1) (p-q)),
        # an unreduced fraction with a positive denominator
        p, q = g.numerator, g.denominator
        head = p ** (m - 1) * (p - q)
        return p * head + q ** (m + 1), q * head

    def at_most(a: tuple, b: tuple) -> bool:
        return a[0] * b[1] <= b[0] * a[1]

    limit = target.numerator, target.denominator
    # the function is strictly convex on (1, target]: bracket its
    # minimum with a dyadic quarter-point search
    lo = 1 + (target - 1) / (1 << 20)
    hi = target
    for _ in range(80):
        if hi - lo <= Fraction(1, 10**10):
            break
        mid = (lo + hi) / 2
        quarter = (mid + hi) / 2
        if at_most(f(mid), f(quarter)):
            hi = quarter
        else:
            lo = mid
    candidates = [lo, (lo + hi) / 2, hi]
    feasible = None
    for g in candidates:
        if 1 < g <= target and at_most(f(g), limit):
            feasible = g
    if feasible is None:
        raise NoLowerBoundError(
            "no solution: the penalty term exceeds the upper bound everywhere"
        )
    left, right = feasible, target
    while right - left > Fraction(1, 10**12):
        mid = (left + right) / 2
        if at_most(f(mid), limit):
            left = mid
        else:
            right = mid
    return left


def asymptotic_formula(k: int, bound: ExponentBound) -> Fraction:
    """Large-alphabet growth-rate expansion for L(k, bound), exact in k.

    Defined for bound >= 2.  The expansions for squares and
    squares-plus are special; above that the shape depends only on
    which half-integer window the bound falls in.  Accuracy improves
    with k; for k around 10 the worst branch is within a few 1e-3.
    """
    if k < 2:
        raise ValueError("needs at least 2 letters")
    b, plus = bound.value, bound.plus
    if b < 2:
        raise ValueError("no closed expansion below exponent 2")
    if b == 2:
        if plus:
            return (
                Fraction(k)
                - Fraction(1, k)
                - Fraction(1, k**3)
                - Fraction(1, k**4)
            )
        if k < 3:
            raise ValueError("square expansion needs at least 3 letters")
        return Fraction(k - 1) - Fraction(1, k - 1) - Fraction(1, (k - 1) ** 3)
    if b.denominator == 1 and not plus:
        n = int(b) - 1
    else:
        n = int(b)
    half = Fraction(2 * n + 1, 2)
    in_lower_window = b < half or (b == half and not plus)
    base = Fraction(k) - Fraction(1, k ** (n - 1)) + Fraction(1, k**n)
    if in_lower_window:
        return base - Fraction(1, k ** (2 * n - 2))
    return base
