"""Exact combinatorics engine for signed labeled plane forests.

Forests, signed words and labelings, and linear extensions live in
``forest``; the permutation- and forest-level statistics in ``stats``;
exact (t, q)-polynomials in ``qpoly``; the closed-form products in
``formulas``; the verification machinery, partitions, bijections and
counterexample search in ``verify``, whose distributions run on the
two dynamic programs of ``chaindp``: the value walk for term sets with
an inv or n2 term, the chain walk for the rest.
"""

from . import formulas, stats, verify
from .forest import (MODES, Forest, ForestParseError, chain_forest,
                     enumerate_forests, enumerate_labelings, enumerate_words,
                     forest_from_parents, hook_lengths, linear_extensions,
                     parse_forest, parse_forest_input)
from .qpoly import BiPoly, Series, geometric_series, q_factorial, q_number
from .verify import (CheckReport, check_theorem, counterexample_search,
                     distribution, sweep)

__all__ = [
    "MODES", "Forest", "ForestParseError", "chain_forest",
    "enumerate_forests", "enumerate_labelings", "enumerate_words",
    "forest_from_parents", "hook_lengths", "linear_extensions", "parse_forest",
    "parse_forest_input", "BiPoly", "Series", "geometric_series", "q_factorial",
    "q_number", "CheckReport", "check_theorem", "counterexample_search",
    "distribution", "sweep", "formulas", "stats", "verify",
]
