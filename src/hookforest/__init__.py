"""Exact combinatorics engine for signed labeled plane forests.

Forests, signed labelings and linear extensions live in ``forest``;
the permutation- and forest-level statistics in ``stats``; exact
(t, q)-polynomials in ``qpoly``; the closed-form products in
``formulas``; the verification machinery, partitions, bijections and
counterexample search in ``verify``, whose distributions run on the
ancestor-chain dynamic program of ``chaindp``.
"""

from . import formulas, stats, verify
from .forest import (MODES, Forest, ForestParseError, chain_forest,
                     decreasing_labeling, enumerate_forests,
                     enumerate_labelings, forest_from_parents, hook_lengths,
                     is_strict_ancestor, linear_extensions, parse_forest,
                     parse_forest_input, render_forest)
from .qpoly import BiPoly, Series, geometric_series, q_factorial, q_number
from .verify import (CheckReport, check_theorem, counterexample_search,
                     distribution, sweep)

__all__ = [
    "MODES", "Forest", "ForestParseError", "chain_forest",
    "decreasing_labeling", "enumerate_forests", "enumerate_labelings",
    "forest_from_parents", "hook_lengths", "is_strict_ancestor",
    "linear_extensions", "parse_forest", "parse_forest_input",
    "render_forest", "BiPoly", "Series", "geometric_series", "q_factorial",
    "q_number", "CheckReport", "check_theorem", "counterexample_search",
    "distribution", "sweep", "formulas", "stats", "verify",
]
