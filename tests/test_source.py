"""Rules the library source keeps."""

import ast
import pathlib
from collections import Counter

import hookforest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hookforest"
BENCH = SRC.parent.parent / "bench"


def test_no_check_depends_on_assert():
    # python -O strips assert statements, so a check must raise instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _named(nodes, strings):
    """Names that the nodes' code refers to: identifiers, attributes,
    imported names and, with ``strings``, whole string constants."""
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.name
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                yield node.value


def _uncalled(private, outside=()):
    """Top-level functions of src/, private or public ones, that src/
    names nowhere outside their own bodies, leaving out the names in
    ``outside``."""
    modules = [ast.parse(path.read_text(), filename=str(path)).body
               for path in sorted(SRC.glob("*.py"))]
    # a string counts in src/, since THEOREMS names its closed forms
    in_src = Counter(_named([node for body in modules for node in body], True))
    return [node.name for body in modules for node in body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("_") == private and node.name not in outside
            # the definition's own body does not count
            and in_src[node.name] == Counter(_named([node], True))[node.name]]


def test_every_public_function_has_a_caller():
    # the library keeps only what it, the benchmark or its public API
    # uses; helpers that only tests call belong in the tests
    outside = set(hookforest.__all__)
    # in bench/ only code counts: the tracer's name lists are strings
    for path in sorted(BENCH.glob("*.py")):
        outside.update(_named([ast.parse(path.read_text(), filename=str(path))], False))
    assert _uncalled(False, outside) == []


def test_every_private_function_has_a_caller_in_src():
    # a private helper serves the library alone: one that only tests or
    # the benchmark reach is dead code or belongs in the public API
    assert _uncalled(True) == []


def test_no_environment_knobs():
    # options are the only settings: no code in src/ reads or writes the
    # environment
    found = [f"{path.name}:{name}"
             for path in sorted(SRC.glob("*.py"))
             for name in _named([ast.parse(path.read_text(), filename=str(path))], False)
             if name in ("environ", "getenv", "putenv")]
    assert found == []


def test_cli_reaches_verify_through_public_names():
    # every check the CLI runs goes through verify's public functions;
    # the partitions command alone still reads two private helpers
    tree = ast.parse((SRC / "cli.py").read_text(), filename="cli.py")
    private = {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
               and node.value.id == "verify" and node.attr.startswith("_")}
    private.update(alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.module == "verify"
                   for alias in node.names if alias.name.startswith("_"))
    assert private <= {"_check_at_least", "_partition_pair"}


def _verify_users(name):
    """Top-level statements of verify, imports left out, whose code names
    ``name``: functions by their names, others by their node types."""
    tree = ast.parse((SRC / "verify.py").read_text(), filename="verify.py")
    return {getattr(node, "name", type(node).__name__) for node in tree.body
            if not isinstance(node, ast.ImportFrom) and name in set(_named([node], False))}


def test_per_labeling_checks_go_through_the_orbit_scan():
    # inside verify only the orbit scan's re-scan and the callable path
    # of distribution visit every labeling
    assert _verify_users("enumerate_labelings") == {"_orbit_scan", "distribution"}


def test_only_the_size_rows_oracle_visits_every_word():
    # the word pass is the brute-force oracle of the size rows that read
    # n2 (len-b and len-d); psi's tests and the sides of eq-reiner read
    # sign-order patterns alone, so they go through the chain's orbits
    assert _verify_users("enumerate_words") == {"check_theorem"}


def test_only_pattern_checks_and_pattern_rows_read_labeling_orbits():
    # the orbit scan serves the per-labeling checks, and check_theorem
    # tallies the size rows whose statistics are in stats.PATTERN_STATS
    assert _verify_users("labeling_orbits") == {"_orbit_scan", "check_theorem"}


def test_row_faults_and_labeled_rows_share_the_orbit_scan():
    # check_theorem scans a row's fault, _check_labeled a labeled row's
    # sides; no check keeps a scan of its own
    assert _verify_users("_orbit_scan") == {"check_theorem", "_check_labeled"}


def _cached(module):
    """Functions and properties of a src/ module under a caching decorator."""
    tree = ast.parse((SRC / module).read_text(), filename=module)
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            and {"lru_cache", "cache", "cached_property"} & set(_named(node.decorator_list, False))}


def test_chaindp_caches_only_the_gap_code_maps():
    # nothing is cached between calls but the code maps of _takes, which
    # depend on n alone: a cache keyed on a forest or a state would turn
    # repeated inputs into lookups
    assert _cached("chaindp.py") == {"_takes"}


def test_the_brute_force_oracle_caches_only_forest_shapes():
    # the oracle's statistics and enumerators recompute every word and
    # labeling on each call; forest caches only what a forest's shape
    # fixes: its hooks, its comparable pairs and its children
    assert _cached("stats.py") == set()
    assert _cached("forest.py") == {"hook_lengths", "comparable_pairs", "children"}
