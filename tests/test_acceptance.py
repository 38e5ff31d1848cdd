"""Acceptance gate: one check per shipped guarantee.

Every test prints one [criterion N] PASS/FAIL line before asserting, so
a plain pytest run doubles as the acceptance report.  Stated runtime
ceilings are asserted along with the values.
"""

import itertools
import random
import time
from fractions import Fraction
from math import isqrt

import builders
from oracles import (
    brute_minimal_powers_by_period,
    interval_contains,
    spectral_radius_root,
)
from wordgrowth.circular import forbidden_period_scan, root_complexity
from wordgrowth.fad import (
    extendable_part,
    fad_automaton,
    intermediate_count,
    tm_antidictionary,
)
from wordgrowth.growth import (
    approximate_index,
    classify,
    digraph_index,
    polynomial_index_general,
)
from wordgrowth.powerfree import (
    NoLowerBoundError,
    approximation_bounds,
    asymptotic_formula,
    lower_bound,
)
from wordgrowth.words import ExponentBound, minimal_powers

B = ExponentBound.parse
DELTA6 = Fraction(1, 10**6)
DELTA7 = Fraction(1, 10**7)


def report(criterion: str, ok: bool, detail: str = ""):
    tail = f"  {detail}" if detail else ""
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"criterion {criterion}: {detail}"


def _checked(conditions, detail: str):
    """(ok, detail) for named (label, result) pairs; names the failures."""
    failed = [label for label, good in conditions if not good]
    return not failed, detail + (f"; failed: {', '.join(failed)}" if failed else "")


def sqrt_fraction(x: Fraction) -> Fraction:
    """Floor square root at 30 decimal digits; error < 1e-30."""
    scale = 10**30
    return Fraction(isqrt((x * scale * scale).__trunc__()), scale)


def test_criterion_1_iterated_morphism_rates():
    started = time.perf_counter()
    phi = (1 + sqrt_fraction(Fraction(5))) / 2
    ok = True
    detail = []
    for i in range(-1, 4):
        target = phi
        for _ in range(i + 1):
            target = sqrt_fraction(target)
        iv = approximate_index(fad_automaton(tm_antidictionary(i)), DELTA7)
        if not iv.lo <= target <= iv.hi:
            ok = False
            detail.append(f"level {i} misses {float(target):.9f}")
    elapsed = time.perf_counter() - started
    if elapsed >= 5:
        ok = False
        detail.append(f"took {elapsed:.1f}s")
    report("1", ok, "; ".join(detail) or f"5 levels in {elapsed:.2f}s")


def test_criterion_2a_binary_cubes_bracket():
    started = time.perf_counter()
    r = approximation_bounds(2, B("3"), 18, delta=DELTA7)
    elapsed = time.perf_counter() - started
    ok = (
        r.lower is not None
        and r.lower <= Fraction("1.4575732")
        and r.upper.hi >= Fraction("1.4575773")
        and r.upper.hi - r.lower <= Fraction("1e-2")
        and elapsed < 300
    )
    detail = (
        f"[{float(r.lower):.7f}, {float(r.upper.hi):.7f}] in {elapsed:.1f}s"
        if r.lower is not None
        else f"no lower bound: {r.lower_note}"
    )
    report("2a", ok, detail)


def test_criterion_2b_ternary_squares_bracket():
    # The lower bound solves g + 1/(g^(m-1) (g-1)) <= upper_lo for the
    # period cap m.  At m = 20 the left side stays above 1.3073 for all
    # g > 1, over the published upper bound 1.3017619, so no cap-20
    # approximation can yield a lower bound.  Cap 24 is the smallest cap
    # whose bracket closes to width 1e-2 (cap 23 gives 0.013).
    started = time.perf_counter()
    r = approximation_bounds(3, B("2"), 24, delta=DELTA7)
    elapsed = time.perf_counter() - started
    lower = r.lower
    conditions = [
        ("lower <= 1.3017597", lower is not None and lower <= Fraction("1.3017597")),
        ("upper hi >= 1.3017619", r.upper.hi >= Fraction("1.3017619")),
        ("width <= 1e-2", lower is not None and r.upper.hi - lower <= Fraction("1e-2")),
        ("under 300s", elapsed < 300),
    ]
    lower_text = f"{float(lower):.7f}" if lower is not None else f"none ({r.lower_note})"
    detail = f"cap 24: [{lower_text}, {float(r.upper.hi):.7f}] in {elapsed:.1f}s"
    report("2b", *_checked(conditions, detail))

    # At cap 20 the upper interval is certified, and the missing lower
    # bound comes from the inequality, not from the approximation.
    r20 = approximation_bounds(3, B("2"), 20, delta=DELTA7)
    try:
        lower_bound(Fraction("1.3017619"), 20)
        published_has_none = False
    except NoLowerBoundError:
        published_has_none = True
    conditions = [
        ("upper hi >= 1.3017619", r20.upper.hi >= Fraction("1.3017619")),
        ("upper width <= 2 delta", r20.upper.hi - r20.upper.lo <= 2 * DELTA7),
        ("lower absent", r20.lower is None),
        ("lower note given", bool(r20.lower_note)),
        ("no lower bound from 1.3017619", published_has_none),
    ]
    lower_text = "none" if r20.lower is None else f"{float(r20.lower):.7f}"
    detail = (
        f"cap 20: upper [{float(r20.upper.lo):.7f}, {float(r20.upper.hi):.7f}], "
        f"lower {lower_text} ({r20.lower_note or 'no note'})"
    )
    report("2b", *_checked(conditions, detail))


def test_criterion_3_monotone_convergence():
    rows = [approximation_bounds(2, B("3"), cap, delta=DELTA6) for cap in range(3, 19)]
    ok = True
    detail = []
    for a, b in zip(rows, rows[1:]):
        if b.upper.hi > a.upper.hi + 2 * DELTA6:
            ok = False
            detail.append(f"upper rose at cap {b.cap}")
    lowers = [(r.cap, r.lower) for r in rows if r.lower is not None]
    for (c1, l1), (c2, l2) in zip(lowers, lowers[1:]):
        if l2 < l1 - Fraction(1, 10**12):
            ok = False
            detail.append(f"lower fell at cap {c2}")
    report("3", ok, "; ".join(detail) or f"caps 3..18, lower present from cap {lowers[0][0]}")


def test_criterion_4_root_complexity_table():
    started = time.perf_counter()
    sq = B("2")
    table = {n: root_complexity(3, sq, n) for n in range(1, 22)}
    elapsed = time.perf_counter() - started
    ok = table[1] == 3
    for n in (2, 3, 4, 6, 8, 11, 12, 13, 15, 16, 21):
        ok = ok and table[n] == 6
    for n in (5, 7, 9, 10, 14, 17):
        ok = ok and table[n] == 0
    for n in (18, 19, 20):
        ok = ok and table[n] >= 12
    ok = ok and elapsed < 120
    report("4", ok, f"n=1..21 in {elapsed:.1f}s")


def test_criterion_5_forbidden_period_scans():
    started = time.perf_counter()
    ok = forbidden_period_scan(2, B("5/2"), 18) == {5, 9, 11, 17, 18}
    allowed = set(range(1, 17)) - forbidden_period_scan(2, B("7/3"), 16)
    ok = ok and allowed == {1, 2, 3, 4, 6, 8, 12, 16}
    ok = ok and forbidden_period_scan(4, B("2"), 10) == set()
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 600
    report("5", ok, f"three scans in {elapsed:.1f}s")


def test_criterion_6_classification_trichotomy():
    finite = classify(builders.chain_dfa(4))
    expo = classify(builders.phi_dfa())
    poly = classify(builders.two_loop_dfa())
    ok = (
        finite.tag == "Finite"
        and expo.tag == "Exponential"
        and poly.tag == "Polynomial"
        and poly.degree == 1
        and polynomial_index_general(builders.chained_phi_dfa()) == 1
    )
    report("6", ok, f"{finite.tag}/{expo.tag}/{poly.tag}(1), chained poly index 1")


def test_criterion_7_digraph_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(424242)
    misses = 0
    for _ in range(1000):
        rows = builders.random_digraph(rng)
        iv = digraph_index(rows, DELTA6)
        if not interval_contains(iv.lo, iv.hi, spectral_radius_root(rows)):
            misses += 1
    elapsed = time.perf_counter() - started
    ok = misses == 0 and elapsed < 60
    report("7", ok, f"1000 digraphs, {misses} misses, {elapsed:.1f}s")


def test_criterion_8_extendable_rate_invariance(fad_corpus):
    ok = True
    worst = ""
    for a in fad_corpus:
        d = fad_automaton(a)
        ivs = [
            approximate_index(d, DELTA6),
            approximate_index(extendable_part(d, "right"), DELTA6),
            approximate_index(extendable_part(d, "two_sided"), DELTA6),
        ]
        for x, y in itertools.combinations(ivs, 2):
            if x.lo > y.hi or y.lo > x.hi:
                ok = False
                worst = f"disjoint intervals for a {a.alphabet_size}-letter antidictionary"
    report("8", ok, worst or "10 corpora, all three rates overlap")


def test_criterion_9_asymptotic_formula_reference():
    checks = [
        (10, "3", Fraction("9.9074705"), Fraction("5e-3")),
        (12, "2+", Fraction("11.9160348"), Fraction("5e-4")),
        (10, "2", Fraction("8.8874856"), Fraction("5e-4")),
    ]
    ok = True
    detail = []
    for k, token, reference, tol in checks:
        err = abs(asymptotic_formula(k, B(token)) - reference)
        if err > tol:
            ok = False
            detail.append(f"({k},{token}) off by {float(err):.2e}")
    report("9", ok, "; ".join(detail) or "three reference points within tolerance")


def test_criterion_10_threshold_rates_coincide():
    started = time.perf_counter()
    ivs = []
    for k in (5, 6, 7):
        r = approximation_bounds(
            k, ExponentBound(k, k - 1, plus=True), 2, "excess", delta=DELTA6
        )
        ivs.append(r.upper)
    ok = all(
        x.lo <= y.hi + 4 * DELTA6 and y.lo <= x.hi + 4 * DELTA6
        for x, y in itertools.combinations(ivs, 2)
    )
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 120
    report("10", ok, f"k=5,6,7 rates near {float(ivs[0].lo):.6f}, {elapsed:.1f}s")


def test_criterion_11_property_suite():
    ok = True
    detail = []
    for k, token, cap in [
        (2, "2", 6),
        (2, "2+", 6),
        (2, "7/3", 6),
        (2, "3", 6),
        (3, "2", 6),
        (3, "2+", 6),
        (3, "7/3", 6),
    ]:
        bound = B(token)
        got = [mp.word for mp in minimal_powers(k, bound, cap)]
        if got != brute_minimal_powers_by_period(k, bound.value, bound.plus, cap):
            ok = False
            detail.append(f"brute mismatch at ({k}, {token})")
    for k, token, cap in [(2, "3", 8), (3, "2", 8)]:
        fast = approximation_bounds(k, B(token), cap, delta=DELTA6, with_lower=False)
        slow = approximation_bounds(
            k, B(token), cap, delta=DELTA6, symmetry=False, with_lower=False
        )
        if abs(fast.upper.lo - slow.upper.lo) > 2 * DELTA6:
            ok = False
            detail.append(f"symmetry mismatch at ({k}, {token}, {cap})")
    counts = {n: intermediate_count(n, 2) for n in range(20, 61)}
    roots = [counts[n] ** (1.0 / n) for n in range(20, 61)]
    if not all(a >= b for a, b in zip(roots, roots[1:])):
        ok = False
        detail.append("n-th roots not decreasing")
    cubic = [counts[n] / n**3 for n in range(40, 61)]
    if not all(a < b for a, b in zip(cubic, cubic[1:])):
        ok = False
        detail.append("count/n^3 not increasing")
    report("11", ok, "; ".join(detail) or "oracle, symmetry, and shape checks hold")
