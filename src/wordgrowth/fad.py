"""Antidictionaries and the automata of the languages they define.

An antidictionary is an antifactorial set of words: none is a factor of
another.  The language it defines is every word containing none of them.
Such a language is factorial (closed under factors) and is recognized by
an automaton whose states are the proper prefixes of the forbidden
words, built here by ``FailureTrie``: failure links and a move table
filled once, breadth first.  The same trie, in its letter-canonical
frame, builds ``powerfree``'s symmetry quotients and their voltages.  One numpy
build, one depth at a time, serves both frames: the small identity-frame
tries of antidictionaries read from files and of the Thue-Morse
approximations, and the letter-canonical tries of the power-free bounds,
which reach millions of nodes.  Its linker is the one check, in both
frames, that a word set is antifactorial.

The module also carries a few concrete language families used to
exercise the growth machinery: truncated antidictionaries of the
Thue-Morse word, right- and two-sided extendable parts, and a language
of staircase-shaped power products whose counting function sits strictly
between polynomial and exponential.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from wordgrowth.automaton import (
    Dfa,
    DfaFormatError,
    empty_dfa,
    length_masks,
    reverse_edges,
    scc,
    transition_edges,
    trim,
)
from wordgrowth.words import parse_word, word_to_str

__all__ = [
    "Antidictionary",
    "FailureTrie",
    "SUBSET_LIMIT",
    "SubsetLimitError",
    "TrieSizeError",
    "extendable_part",
    "fad_automaton",
    "format_antidictionary",
    "intermediate_count",
    "intermediate_member",
    "parse_antidictionary",
    "tm_antidictionary",
]

Word = tuple


class TrieSizeError(RuntimeError):
    """A trie would have more nodes than its int32 tables can number;
    raised before any table is allocated."""

    def __init__(self, nodes: int, limit: int):
        super().__init__(
            f"the letter-canonical trie needs {nodes} nodes, above the limit "
            f"of {limit} that 32-bit node ids allow"
        )
        self.nodes = nodes
        self.limit = limit


class SubsetLimitError(RuntimeError):
    """The two-sided extendable part's subset construction reaches more
    subsets than ``SUBSET_LIMIT``; raised as it would add the next one."""

    def __init__(self, limit: int):
        super().__init__(
            f"the two-sided extendable part needs more than {limit} subsets of "
            f"states, the limit of its subset construction"
        )
        self.limit = limit


class FailureTrie:
    """Trie of forbidden words with failure links and a move table: the
    automaton of the language avoiding the words.

    Node u reads through a frame of slots.  In the identity frame each
    slot is its letter.  In the letter-canonical frame, for orbit
    representatives under letter permutation, slot i below
    ``nletters[u]`` is the i-th letter, from 0, to occur in u's word, and
    slot ``nletters[u]``, when below k, is the fresh slot for every
    unused letter.  ``fsig[u]`` names u's slots in the frame of
    ``fail[u]``, the longest proper suffix of u's word that is a node,
    with ``FRESH`` for a letter that does not occur there; composing
    these along a failure chain replays the full automaton on a whole
    orbit at once.

    Storage is flat, ``width`` entries per node: entry u*width + y of
    ``children``, ``fsig`` and ``delta`` belongs to slot y of u.  The
    width is k, or min(k, m + 1) in the letter-canonical frame, m the most
    letters a word uses, past which no node has a slot.  ``delta`` is filled
    once, breadth first (Aho & Corasick, CACM 1975): delta(u, y) is u's
    child on y, else the root at the root, else delta(fail(u),
    fsig[u][y]), FRESH going to fail(u)'s fresh slot.  A forbidden word t
    is stored as ~t, so negative entries are forbidden moves.  ``states``
    lists the other nodes breadth first, children by slot: automaton
    state q is node ``states[q]``, and ``state_of`` maps back (-1 for
    forbidden words and the nodes below one).  A forbidden word's
    ``fsig`` row is never read.

    In the letter-canonical frame, ``voltage`` row u*width + y, width
    entries, is H(u, y), the renaming that reading y applies: u's slots, and y
    when it is the fresh one, named in the frame of delta(u, y), FRESH
    past them (see ``_build``).  The identity frame keeps none (None).

    One build fills the tables in either frame; the frame is data, the
    first ``nletters`` and ``fsig``.  ``FailureTrie(k, words)`` builds the
    identity frame, where ``nletters`` is k and ``fsig`` the identity, for
    ``Antidictionary``, ``fad_automaton`` and the Thue-Morse
    approximations; ``FailureTrie.letter_canonical`` the frame of
    ``powerfree``'s symmetry quotients.  Any set builds: the nodes below a
    forbidden word are no states, and a link onto one follows it.  The
    build is the one antifactorial check: ``ends[u]``, filled by the
    linker, says that a suffix of u's word is forbidden, and a forbidden
    word offends when ``ends`` holds at a proper prefix of it or at its
    link.  None does when no forbidden word has a child, no other node has
    ``ends`` and no forbidden word's link has it; else ``offender`` is the
    first's rank in (length, lexicographic) order, the order of node ids,
    and None when none offends.  Every table reads back plain ints.
    """

    FRESH = -1
    # node ids and ~id must fit the int32 tables
    NODE_LIMIT = 2**31 - 1

    __slots__ = (
        "k", "width", "children", "terminal", "nletters", "fsig", "fail", "delta",
        "voltage", "states", "state_of", "offender",
    )

    def __init__(self, k: int, words: Iterable[Word]):
        by_length: dict = {}
        for w in words:
            by_length.setdefault(len(w), []).append(w)
        self._build(k, [np.array(ws) for _, ws in sorted(by_length.items())], False)

    @classmethod
    def letter_canonical(cls, k: int, word_arrays: Iterable) -> "FailureTrie":
        """The letter-canonical trie of the words, given as 2-D integer
        arrays, one word per row (one array per word length, say).  Each
        word must bring its letters in first-occurrence order
        (ValueError otherwise), and the set must be antifactorial
        (AssertionError otherwise, from ``offender``)."""
        trie = object.__new__(cls)
        trie._build(k, word_arrays, True)
        if trie.offender is not None:
            raise AssertionError("the word set is not antifactorial")
        return trie

    def _build(self, k: int, word_arrays: Iterable, canonical: bool) -> None:
        """Fill the tables from 2-D word arrays, one word per row.

        Insertion sorts all words lexicographically, each padded with k,
        which is no letter.  Word i then adds a node at each depth d with
        lcp(w_{i-1}, w_i) <= d < len(w_i), and numbering the new nodes by
        (depth, word index) is breadth-first order, children by slot: the
        node ids, ``states`` and every table are those of a breadth-first
        build.  The node count is known before a table is allocated; above
        ``NODE_LIMIT`` it raises TrieSizeError.

        Linking runs one depth at a time.  fail(u) is shallower than u, so
        its rows are complete: one gather through ``fsig`` and
        ``delta[fail]`` gives a whole depth's moves and its children's
        links, and in the letter-canonical frame one through
        ``voltage[fail]`` gives H by the same recurrence: H(u, y) names u's
        slots and y themselves when u has a child on y, and else is H(fail(u),
        read) o ``fsig[u]`` with slot y renamed read, the slot that
        delta(fail(u), .) reads.  The child u.y takes that second form as
        its ``fsig``.  Raises ValueError for a word outside the frame.
        """
        children, terminal, nletters, depth_start = _sorted_insert(
            k, word_arrays, self.NODE_LIMIT, canonical
        )
        n, w = children.shape
        if canonical:
            fsig = np.full((n, w), self.FRESH, np.intc)
            # one FRESH entry past the last row, for the build's reads
            voltage = np.full(n * w * w + 1, self.FRESH, np.min_scalar_type(-w))
        else:
            fsig = np.tile(np.arange(w, dtype=np.intc), (n, 1))
            voltage = None
        fail = np.zeros(n, np.intc)
        delta = np.zeros((n, w), np.intc)
        self.k, self.width = k, w
        # Python readers (fad_automaton) index these
        (self.children, self.terminal, self.nletters, self.fsig, self.fail,
         self.delta) = (
            memoryview(a.reshape(-1)) for a in (children, terminal, nletters, fsig, fail, delta)
        )
        # forbidden words, and the nodes below one
        no_state = terminal.astype(bool)
        # ends[u]: a suffix of u's word, the word included, is forbidden
        ends = no_state.copy()
        self._link_by_depth(children, no_state, ends, nletters, fsig, fail, delta, voltage,
                            depth_start)
        term = terminal.view(bool)
        forbidden = np.flatnonzero(term)
        self.offender = None
        if ((children.take(forbidden, axis=0) >= 0).any() or (ends & ~term).any()
                or ends.take(fail.take(forbidden)).any()):
            # inside[u]: a forbidden word ends at a proper prefix of u's word
            inside = np.zeros_like(ends)
            for lo, hi in zip(depth_start, depth_start[1:]):
                u, y = np.nonzero(children[lo:hi] >= 0)
                inside[children[lo + u, y]] = inside[lo + u] | ends[lo + u]
            self.offender = np.count_nonzero(term[:np.argmax(term & (inside | ends[fail]))])
        self.voltage = None if voltage is None else memoryview(voltage[:-1])
        states = np.flatnonzero(~no_state).astype(np.intc)
        state_of = np.full(n, -1, np.intc)
        state_of[states] = np.arange(len(states), dtype=np.intc)
        self.states, self.state_of = memoryview(states), memoryview(state_of)

    def _link_by_depth(self, children, no_state, ends, nletters, fsig, fail, delta, voltage,
                       depth_start):
        w, FRESH = self.width, self.FRESH
        canonical = voltage is not None
        # the root moves to its children and stays on every other slot;
        # its children link to it
        c = children[0]
        delta[0] = np.where(c < 0, 0, np.where(no_state[c], ~c, c))
        slots = np.arange(w)[:, None]
        flat_delta = delta.reshape(-1)
        if canonical:
            # the root's one live slot is its fresh one; a child there names it
            if c[0] >= 0:
                voltage[0] = 0
            rows = voltage[:-1].reshape(-1, w)
            # row nl: a move to a child of nl letters names each of them itself
            own = np.where(slots.T < np.arange(w + 1)[:, None], slots.T, FRESH).astype(voltage.dtype)
            # the same rows as single items, so that np.put moves whole rows
            item = np.dtype((np.void, w * voltage.itemsize))
            row_items, own_items = rows.view(item).reshape(-1), own.view(item).reshape(-1)
        for lo, hi, end in zip(depth_start, depth_start[1:], depth_start[2:]):
            # nodes lo..hi-1 are one depth; their children are hi..end-1.
            # Entry (y, i) of the depth's arrays is slot y of node lo + i, so
            # that every pass runs along the depth
            f = fail[lo:hi].astype(np.int64)
            sig = fsig[lo:hi].T.copy()
            fresh = sig == FRESH
            dead = (slots > nletters[lo:hi]) | no_state[lo:hi]
            read = np.where(fresh, nletters[f], sig)
            # a dead slot reads itself, so that the children of a forbidden
            # word, in the identity frame, keep the identity
            np.copyto(read, slots, where=dead)
            at = f * w + read
            t = flat_delta[at]
            t[dead] = 0
            # child hi + i is node lo + r[i]'s child on slot y[i], at link_at
            moved = np.flatnonzero(children[lo:hi] >= 0)
            r = moved // w
            y = moved - r * w
            link_at = y * (hi - lo) + r
            link = t.reshape(-1)[link_at]
            # a link that lands on a forbidden word follows it
            fail[hi:end] = np.maximum(link, ~link)
            ends[hi:end] |= ends.take(fail[hi:end])
            # a node below a forbidden word is no state
            no_state[hi:end] |= no_state[lo:hi][r]
            ids = np.arange(hi, end)
            t.reshape(-1)[link_at] = np.where(no_state[hi:end], ~ids, ids)
            t[dead] = 0
            delta[lo:hi] = t.T
            if not canonical:
                continue
            # H(u, y) = H(f, read) o fsig[u], y renamed read: entry (y, j, i)
            # reads name j's image off the flat table, a FRESH name clipped
            # onto the FRESH entry past the last row
            start = at * w
            names = start[:, None] + np.where(fresh, len(voltage), sig)
            names.reshape(w * w, -1)[::w + 1] = start + read
            rows.reshape(-1, w, w)[lo:hi] = voltage.take(names, mode="clip").transpose(2, 0, 1)
            # a child's names are those of the move it would be without it
            moved += lo * w
            fsig[hi:end] = rows.take(moved, axis=0)
            np.put(row_items, moved, own_items.take(nletters[hi:end]))


def _sorted_insert(k: int, word_arrays: Iterable, limit: int, canonical: bool) -> tuple:
    """``children``, ``terminal`` and ``nletters`` of the trie of the
    words, in the letter-canonical or the identity frame, as numpy tables,
    and each depth's first node id; see ``FailureTrie._build``."""
    blocks = [a for a in map(np.asarray, word_arrays) if len(a)]
    if any(a.shape[1] == 0 for a in blocks):
        raise ValueError("the empty word forbids every word")
    m = sum(len(a) for a in blocks)
    width = max((a.shape[1] for a in blocks), default=0)
    # one word per column; key arithmetic below runs in int64
    cols = np.full((width, m), k, np.min_scalar_type(k))
    lengths = np.zeros(m, np.intp)
    at = 0
    for a in blocks:
        if a.min() < 0 or a.max() >= k:
            raise ValueError("a word does not fit the trie's frame")
        cols[:a.shape[1], at:at + len(a)] = a.T
        lengths[at:at + len(a)] = a.shape[1]
        at += len(a)
    if m:
        order = np.lexsort(cols[::-1])
        cols, lengths = cols[:, order], lengths[order]
    inside = np.arange(width)[:, None] < lengths
    if canonical:
        # a canonical word brings its letters in first-occurrence order
        seen = np.maximum.accumulate(np.where(inside, cols, 0), axis=0)
        if (cols[:1] > 0).any() or ((cols[1:] > seen[:-1] + 1) & inside[1:]).any():
            raise ValueError("a word does not fit the trie's frame")
    lcp = np.zeros(m, np.intp)
    if m > 1:
        differ = cols[:, 1:] != cols[:, :-1]
        lcp[1:] = np.where(differ.any(0), differ.argmax(0), lengths[1:])
    new = inside & (np.arange(width)[:, None] >= lcp)
    n = 1 + int(np.count_nonzero(new))
    if n > limit:
        raise TrieSizeError(n, limit)
    made = np.flatnonzero(new)  # (depth, word) order: nodes 1..n-1
    ids = np.arange(1, n, dtype=np.intc)
    node = np.zeros((width, m), np.intc)
    node.flat[made] = ids
    # a word's first lcp nodes are the word before's
    np.maximum.accumulate(node, axis=1, out=node)
    top = int(np.count_nonzero(new[:1]))  # the root's children
    parent = np.zeros(n - 1, np.int64)
    parent[top:] = node.reshape(-1)[made[top:] - m]
    nletters = np.full(n, k, np.intc)
    if canonical:
        nletters[0] = 0
        nletters[1:] = seen.reshape(-1)[made] + 1
    w = min(k, int(nletters.max()) + 1)
    children = np.full((n, w), -1, np.intc)
    children.reshape(-1)[parent * w + cols.reshape(-1)[made]] = ids
    terminal = np.zeros(n, np.uint8)
    terminal[node[lengths - 1, np.arange(m)]] = 1
    depth_start = np.concatenate([[1], 1 + np.cumsum(np.count_nonzero(new, axis=1))])
    return children, terminal, nletters, depth_start.tolist()


class Antidictionary:
    """A validated antifactorial word set over an indexed alphabet.

    Construction fails, with ValueError naming the trie's ``offender``, if
    any word is a factor of another (duplicates are collapsed first).  The
    empty word is only allowed alone, where it forbids everything.
    ``trie`` is the identity-frame ``FailureTrie`` of the nonempty words,
    built once, for the check and for ``fad_automaton``.
    """

    __slots__ = ("alphabet_size", "words", "trie")

    def __init__(self, alphabet_size: int, words: Iterable[Word]):
        if alphabet_size < 1:
            raise ValueError("alphabet_size must be at least 1")
        normalized = sorted({tuple(w) for w in words}, key=lambda w: (len(w), w))
        for w in normalized:
            for x in w:
                if not 0 <= x < alphabet_size:
                    raise ValueError(f"letter {x} out of range in {word_to_str(w)}")
        if () in normalized and len(normalized) > 1:
            raise ValueError("empty word subsumes every other forbidden word")
        self.alphabet_size = alphabet_size
        self.words = tuple(normalized)
        self.trie = FailureTrie(alphabet_size, [w for w in self.words if w])
        if self.trie.offender is not None:
            w = word_to_str(self.words[self.trie.offender])
            raise ValueError(f"not antifactorial: a forbidden word occurs inside {w}")

    def __len__(self):
        return len(self.words)

    def __iter__(self):
        return iter(self.words)

    def __eq__(self, other):
        if not isinstance(other, Antidictionary):
            return NotImplemented
        return self.alphabet_size == other.alphabet_size and self.words == other.words

    def __repr__(self):
        return f"Antidictionary(k={self.alphabet_size}, words={len(self.words)})"


def fad_automaton(ad: Antidictionary) -> Dfa:
    """Automaton of the factorial language avoiding ``ad``.

    States are the proper prefixes of the forbidden words; reading a
    letter follows the trie when possible and otherwise the longest
    matching suffix.  A move whose longest matching suffix is a
    forbidden word is dropped, so the automaton is partial.  All states
    accept.

    The table is one gather of the trie's ``delta`` (a forbidden move -1)
    through ``state_of``, trimmed as built, in ``trim``'s numbering.  The set
    is antifactorial, so a state's word, a proper prefix of a forbidden
    word, has no forbidden factor: each of its prefixes is a state, and
    from the root the word's letters follow trie edges to it.  Every
    state is reachable, and every state accepts.  ``trim``'s breadth-first
    search from the root, letters in order, then numbers the states as
    ``trie.states`` lists them, breadth first with children by slot,
    which in the identity frame is by letter: a move from a state at
    depth d lands at depth d + 1 only on the state's own child, so each
    depth is discovered whole, parent by parent and letter by letter,
    before the next.
    """
    k = ad.alphabet_size
    if () in ad.words:
        return empty_dfa(k)
    trie = ad.trie
    delta = np.asarray(trie.delta).reshape(-1, k)[np.asarray(trie.states)]
    table = np.where(delta >= 0, np.asarray(trie.state_of)[delta], -1)
    return Dfa(k, table, 0, range(len(table)))


# ---------------------------------------------------------------------------
# Thue-Morse


def _theta(word: Word) -> Word:
    out = []
    for x in word:
        out.extend((0, 1) if x == 0 else (1, 0))
    return tuple(out)


def _theta_pow(word: Word, j: int) -> Word:
    for _ in range(j):
        word = _theta(word)
    return word


def tm_antidictionary(i: int) -> Antidictionary:
    """Antidictionary of the Thue-Morse factor language, truncated at
    level i.

    Level -1 forbids only the two letter cubes.  Each later level j
    contributes four forbidden words of length 3 * 2^j + 2, and the
    avoiding languages shrink toward the Thue-Morse factors as i grows.
    """
    if i < -1:
        raise ValueError("level must be at least -1")
    words = [(0, 0, 0), (1, 1, 1)]
    for j in range(i + 1):
        u = _theta_pow((0, 1, 0), j)
        v = _theta_pow((1, 0, 1), j)
        c = _theta_pow((0,), j)[-1]
        d = _theta_pow((1,), j)[-1]
        words.append((c,) + u + (0,))
        words.append((d,) + v + (1,))
        words.append((c,) + v + (0,))
        words.append((d,) + u + (1,))
    return Antidictionary(2, words)


# ---------------------------------------------------------------------------
# extendable parts

# the most subsets the two-sided part's subset construction holds: a CLI
# run that stops there, on subsets of about 20 states, peaks near 50 MiB
SUBSET_LIMIT = 1 << 16


def extendable_part(dfa: Dfa, side: str = "right") -> Dfa:
    """Automaton of the right- or two-sided-extendable words.

    ``right`` keeps the words that admit arbitrarily long right
    extensions inside the language: runs must end in a state from which
    a cycle is reachable.  ``two_sided`` (alias ``two``) keeps the
    words w such that u w v stays in the language for some arbitrarily
    long u and v: w must be readable from a state reachable out of a
    cycle, ending in a state that reaches a cycle.  Input states must
    all accept (the operation is meant for factor-closed languages);
    raises otherwise.

    Both sides start from the cycle-carrying states.  The right side is
    ``trim`` of the table with them as the accepting states, every state
    then accepting; the two-sided one walks from them forward and backward
    (``length_masks``) and runs a subset construction over the first set,
    reading the table's columns.  It can need 2^n - 1 subsets, so it
    raises SubsetLimitError once it would hold more than ``SUBSET_LIMIT``.
    """
    if side == "two":
        side = "two_sided"
    if side not in ("right", "two_sided"):
        raise ValueError("side must be 'right' or 'two_sided'")
    d = trim(dfa)
    k = d.alphabet_size
    if len(d.accepting) < d.state_count:
        raise ValueError("every state must accept")
    dec = scc(d)
    cyclic = np.flatnonzero(np.isin(dec.component_of, dec.nontrivial)).tolist()
    if side == "right":
        part = trim(Dfa(k, d.table, d.initial, cyclic))
        return Dfa(k, part.table, part.initial, range(part.state_count))

    reaches = length_masks(reverse_edges(d.state_count, *transition_edges(d)), cyclic, 1)
    reached = length_masks(d.table.tolist(), cyclic, 1)
    ext = {q for q, b in enumerate(reaches) if b}
    columns = d.table.T.tolist()
    # subset construction: start from every state a cycle reaches at once,
    # accept when some thread sits on a state that still reaches a cycle;
    # with no cycle the one subset is empty and nothing survives the trim;
    # a subset is a sorted tuple: 192 bytes at 19 states, a frozenset's 2,264
    subsets = [tuple(q for q, b in enumerate(reached) if b)]
    ids = {subsets[0]: 0}
    rows = []
    # the list is the queue: the loop reads the subsets appended to it
    for s in subsets:
        rows.append([-1] * k)
        for x, column in enumerate(columns):
            t = {column[p] for p in s}
            t.discard(-1)
            if not t:
                continue
            t = tuple(sorted(t))
            if t not in ids:
                if len(subsets) == SUBSET_LIMIT:
                    raise SubsetLimitError(SUBSET_LIMIT)
                ids[t] = len(subsets)
                subsets.append(t)
            rows[-1][x] = ids[t]
    accepting = [q for q, s in enumerate(subsets) if not ext.isdisjoint(s)]
    return trim(Dfa(k, rows, 0, accepting))


# ---------------------------------------------------------------------------
# staircase power products


def intermediate_member(word: Sequence[int], alphabet_size: int) -> bool:
    """Membership in the staircase language over k letters.

    A member factors into maximal letter blocks whose letters step
    cyclically (x, x+1, x+2, ... mod k) and whose block lengths are
    nondecreasing except possibly for the final block.  The counting
    function of this language grows faster than any polynomial and
    slower than any exponential.
    """
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be at least 1")
    w = tuple(word)
    for x in w:
        if not 0 <= x < alphabet_size:
            raise ValueError(f"letter {x} out of range")
    if not w:
        return True
    blocks = []
    run_letter, run_len = w[0], 1
    for x in w[1:]:
        if x == run_letter:
            run_len += 1
        else:
            blocks.append((run_letter, run_len))
            run_letter, run_len = x, 1
    blocks.append((run_letter, run_len))
    for (a, _), (b, _) in zip(blocks, blocks[1:]):
        if b != (a + 1) % alphabet_size:
            return False
    lens = [m for _, m in blocks]
    return all(lens[i] <= lens[i + 1] for i in range(len(lens) - 2))


def intermediate_count(n: int, alphabet_size: int) -> int:
    """Number of staircase words of length exactly n, exact integer.

    Over k >= 2 letters a nonempty member is a first letter, the
    nondecreasing block lengths of some x < n and a final block of n - x
    letters: k times the partitions of 0 to n - 1.  Over one letter every
    word is a single block."""
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be at least 1")
    if n < 0:
        raise ValueError("length must be nonnegative")
    if n == 0 or alphabet_size == 1:
        return 1
    partitions = [1] + [0] * (n - 1)  # of each x < n, one part size at a time
    for part in range(1, n):
        for x in range(part, n):
            partitions[x] += partitions[x - part]
    return alphabet_size * sum(partitions)


# ---------------------------------------------------------------------------
# file format


def parse_antidictionary(text: str) -> Antidictionary:
    """Parse the antidictionary text format.

    Header ``ad <alphabet>``, then one word per line: either ASCII
    letters a..z, the token ``eps``, or whitespace-separated letter
    indices.  ``#`` starts a comment.
    """
    k = None
    words = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if k is None:
            if fields[0] != "ad" or len(fields) != 2:
                raise DfaFormatError(line_no, "expected header 'ad <alphabet>'")
            try:
                k = int(fields[1])
            except ValueError:
                raise DfaFormatError(line_no, "alphabet size must be an integer") from None
            if k < 1:
                raise DfaFormatError(line_no, "alphabet size must be at least 1")
            continue
        if all(f.lstrip("-").isdigit() for f in fields):
            try:
                word = tuple(int(f) for f in fields)
            except ValueError:
                raise DfaFormatError(line_no, "bad letter index") from None
        elif len(fields) == 1:
            try:
                word = parse_word(fields[0])
            except ValueError as exc:
                raise DfaFormatError(line_no, str(exc)) from None
        else:
            raise DfaFormatError(line_no, "one word per line")
        for x in word:
            if not 0 <= x < k:
                raise DfaFormatError(line_no, f"letter {x} out of range")
        words.append(word)
    if k is None:
        raise DfaFormatError(1, "empty input, expected an 'ad' header")
    try:
        return Antidictionary(k, words)
    except ValueError as exc:
        raise DfaFormatError(1, str(exc)) from None


def format_antidictionary(ad: Antidictionary) -> str:
    lines = [f"ad {ad.alphabet_size}"]
    for w in ad.words:
        lines.append(word_to_str(w) if ad.alphabet_size <= 26 else " ".join(map(str, w)))
    return "\n".join(lines) + "\n"
