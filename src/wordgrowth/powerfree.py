"""Two-sided growth-rate bounds for power-free languages.

A power-free language L(k, beta) consists of the words over k letters
none of whose factors has exponent at least beta (strictly above beta
for a "plus" bound).  These languages are not regular, but forbidding
only the minimal violating words up to a period or excess cap yields a
regular superset whose growth rate is an upper bound for the language,
and a classical inequality converts a good upper bound into a certified
lower bound.  Everything numeric here is exact: rates come from the
certified interval engine, the lower bound from rational bisection.
The minimal words come from ``words.minimal_word_arrays``.

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

import json
import math
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from wordgrowth.automaton import Dfa, WeightedDigraph, transition_graph
from wordgrowth.fad import Antidictionary, FailureTrie, fad_automaton
from wordgrowth.growth import (
    IndexInterval,
    _as_fraction,
    cyclic_components,
    decimal_lower,
    decimal_upper,
    digraph_index,
)
# not used here: the benchmark's self-test reads wordgrowth.powerfree.is_free
from wordgrowth.words import ExponentBound, is_free, minimal_word_arrays, orbit, target_periods

__all__ = [
    "FiniteApproximationError",
    "NoLowerBoundError",
    "PowerFreeBounds",
    "approximation_bounds",
    "asymptotic_formula",
    "lower_bound",
]


class FiniteApproximationError(ValueError):
    """The regular approximation is a finite language; no growth rate."""


class NoLowerBoundError(ValueError):
    """The lower-bound inequality has no solution above 1."""


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
    all states at once, with numpy.
    An existing-letter move has weight 1, the fresh-letter move carries
    the number of unused concrete letters, and the weights of moves to
    one target add up.  The move table already groups the moves by
    source, so no global sort is needed: each state's moves, one per slot
    of the trie's width, target and weight packed into one key, are sorted
    in place, and equal targets merged.
    Weighted walk counts from the root equal the word counts of the full
    language, so index and polynomial structure are preserved.

    The graph is narrow: ``indptr`` and ``indices`` are int32 (int64
    only past 2^31 - 1 edges) and ``weights`` ``np.min_scalar_type(k)``,
    which holds every row sum, k; ``component_graphs`` widens what the
    index engine reads.  ``targets`` is int32 and ``voltages`` the
    trie's type.  No table of the n states' w slots is int64 while
    n (k + 1) < 2^31, and the trie's tables are dropped, each once read,
    before the rows are sorted, so that the build holds no more than the
    trie did.
    """
    trie = FailureTrie.letter_canonical(k, word_arrays)
    w = trie.width
    # the tables read here; the trie's others go before any row is copied,
    # and each of these once read.  The states become intp once: take
    # would copy int32 ones at every call, and row indexing is far slower
    states, nletters, voltage, delta, state_of = (
        np.asarray(a) for a in (trie.states, trie.nletters, trie.voltage, trie.delta, trie.state_of)
    )
    del trie
    states = states.astype(np.intp)
    n = len(states)
    narrow = np.min_scalar_type(k)
    nl = nletters.take(states).astype(narrow)
    voltages = voltage.reshape(-1, w, w).take(states, axis=0)
    del nletters, voltage
    moves = delta.reshape(-1, w).take(states, axis=0)
    del delta, states
    slot = np.arange(w)
    gone = (slot > nl[:, None]) | (moves < 0)
    # a negative move is forbidden (its wrapped state_of read is discarded)
    targets = state_of[moves]
    del moves, state_of
    targets[gone] = -1
    del gone
    # pack target and weight into one key, 32-bit while it fits; the moves
    # that go nowhere sort last
    key = targets.astype(np.int32 if n * (k + 1) < 2**31 else np.int64)
    key *= k + 1
    key += np.where(slot < nl[:, None], 1, k - nl[:, None])
    key[targets < 0] = n * (k + 1)
    # odd-even transposition sort of each state's w keys
    for r in range(w):
        a, b = key[:, r % 2:w - 1:2], key[:, r % 2 + 1:w:2]
        low = np.minimum(a, b)
        np.maximum(a, b, out=b)
        a[...] = low
    del low
    # the key splits in place into the target and the weight, a remainder
    # at most k, which the narrow type holds
    weight = np.empty(key.shape, narrow)
    target, _ = np.divmod(key, k + 1, out=(key, weight), casting="unsafe")
    # equal targets are adjacent: each run's weight goes to its first move
    for j in range(w - 1, 0, -1):
        same = target[:, j] == target[:, j - 1]
        weight[:, j - 1] += weight[:, j] * same
        target[:, j][same] = n
    keep = target < n
    count = np.count_nonzero(keep, axis=1)
    index = np.int32 if count.sum() < 2**31 else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(count, dtype=index, out=indptr[1:])
    graph = WeightedDigraph(indptr, target[keep].astype(index, copy=False), weight[keep])
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
    search visits, as in ``words.minimal_word_arrays``, and raises
    BudgetExceededError when the search outgrows it.

    The stages run in this order, and each frees what no later one
    reads, so that the index stage, the largest, holds the least:
    the minimal-word search, whose word arrays are dropped once the
    quotient (``_quotient_graph``) is built; the cycle-carrying
    components (``cyclic_components``); the lift (``_lifted_components``),
    decided as soon as the components are known, after which the
    ``QuotientMoves`` are dropped; the index (``digraph_index``); and the
    lower bound, read off the index's lower end.
    """
    dfr = _as_fraction(delta)
    if dfr <= 0:
        raise ValueError("delta must be positive")
    arrays, _ = minimal_word_arrays(
        k, bound, target_periods(bound, cap, mode), canonical=True, budget=budget
    )
    ad_size = sum(
        math.perm(k, 1 + top) for words in arrays.values() for top in words.max(1).tolist()
    )

    if symmetry:
        graph, moves = _quotient_graph(k, arrays.values())
    else:
        canon_words = [w for words in arrays.values() for w in words.tolist()]
        graph = transition_graph(_full_automaton(k, canon_words))
        moves = None
    del arrays
    cyclic = cyclic_components(graph)

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
    del moves
    upper = digraph_index(graph, dfr, cyclic)
    if upper.hi == 0:
        raise FiniteApproximationError(
            f"the cap-{cap} approximation of L({k}, {bound}) is finite"
        )
    if unique:
        try:
            lower = lower_bound(upper.lo, cap)
        except NoLowerBoundError as exc:
            note = str(exc)
    return PowerFreeBounds(
        k, bound, mode, cap, upper, lower, dfr, ad_size, len(graph), unique, note
    )


def _full_automaton(k: int, canon_words) -> Dfa:
    full_words = [w for cw in canon_words for w in orbit(cw, k)]
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
