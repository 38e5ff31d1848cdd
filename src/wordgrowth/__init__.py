"""Combinatorial complexity of regular languages and power-free words.

The package measures how fast formal languages grow.  Its core is a
certified interval engine for the index (spectral radius) of a
nonnegative integer matrix; everything else is built on top of it:

* ``words``      -- words written, measured and searched: periods,
  exponents, exponent bounds, freeness and the minimal-word searches;
* ``automaton``  -- the graph layer, importing no other module: partial
  DFAs, trimming, CSR digraphs, strong components, periods, local
  graphs, the walk search and walk bounds over the condensation;
* ``growth``     -- complexity classes, growth-rate intervals,
  polynomial indices, per-residue asymptotics, oscillation tagging;
* ``fad``        -- antidictionaries, the automata of the languages
  they define, extendable parts, and a family of test languages;
* ``powerfree``  -- two-sided growth-rate bounds for power-free
  languages via regular approximations;
* ``circular``   -- square-free circular words and period scans.

All reported numeric bounds are exact fractions certified by integer
arithmetic; floating point is used only to accelerate convergence.
"""

from wordgrowth.automaton import (
    Dfa,
    DfaFormatError,
    SccDecomposition,
    cycle_intersection_bound,
    empty_dfa,
    format_dfa,
    imprimitivity,
    parse_dfa,
    scc,
    trim,
)
from wordgrowth.growth import (
    ComplexityClass,
    GrowthReport,
    IndexBudgetError,
    IndexInterval,
    ProfileSizeError,
    approximate_index,
    asymptotic_profile,
    classify,
    count_words,
    digraph_index,
    oscillation_type,
    polynomial_index_general,
)
from wordgrowth.fad import (
    Antidictionary,
    SubsetLimitError,
    TrieSizeError,
    extendable_part,
    fad_automaton,
    intermediate_count,
    intermediate_member,
    parse_antidictionary,
    tm_antidictionary,
)
from wordgrowth.words import (
    BudgetExceededError,
    ExponentBound,
    MinimalPower,
    exponent,
    is_free,
    minimal_powers,
    parse_word,
    violates,
    word_to_str,
)
from wordgrowth.powerfree import (
    PowerFreeBounds,
    approximation_bounds,
    asymptotic_formula,
    lower_bound,
)
from wordgrowth.circular import (
    CircularWord,
    circular_is_square_free,
    enumerate_circular_square_free,
    minimal_roots,
    forbidden_period_scan,
    root_complexity,
)

__all__ = [
    "Dfa",
    "DfaFormatError",
    "SccDecomposition",
    "cycle_intersection_bound",
    "empty_dfa",
    "format_dfa",
    "imprimitivity",
    "parse_dfa",
    "scc",
    "trim",
    "ComplexityClass",
    "GrowthReport",
    "IndexBudgetError",
    "IndexInterval",
    "ProfileSizeError",
    "approximate_index",
    "asymptotic_profile",
    "classify",
    "count_words",
    "digraph_index",
    "oscillation_type",
    "polynomial_index_general",
    "Antidictionary",
    "SubsetLimitError",
    "TrieSizeError",
    "extendable_part",
    "fad_automaton",
    "intermediate_count",
    "intermediate_member",
    "parse_antidictionary",
    "parse_word",
    "tm_antidictionary",
    "word_to_str",
    "ExponentBound",
    "MinimalPower",
    "PowerFreeBounds",
    "approximation_bounds",
    "asymptotic_formula",
    "exponent",
    "is_free",
    "lower_bound",
    "minimal_powers",
    "violates",
    "BudgetExceededError",
    "CircularWord",
    "circular_is_square_free",
    "enumerate_circular_square_free",
    "minimal_roots",
    "forbidden_period_scan",
    "root_complexity",
]
