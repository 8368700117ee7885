"""Properties of the library source itself."""

import ast
import collections
import fnmatch
from pathlib import Path

import pytest

import ccodes

SOURCES = sorted(Path(ccodes.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert; invariants must raise real exceptions
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found


# The closed forms, which no exhaustive oracle may call, and the oracle-side
# scans and oracles, which no closed form may call.
CLOSED_FORMS = (
    "rth_of_deg_*", "values_deg_ge", "lex_segment", "min_shadow_size", "count_deg_*",
    "_suffix_counts", "max_common_zeros",
    "hierarchy", "dual_hierarchy", "_hierarchy_at_degree", "footprint_upper_bound",
)

ORACLE_SIDE = (
    "shadow*", "all_tuples", "tuples_deg_*", "brute_*", "hilbert_fn", "box_ideal",
    "_span_words", "_support_masks", "_subspace_supports", "_mask_table", "_half_span_masks",
)

ORACLES = {
    "codes.py": ("brute_ghw", "brute_min_weight", "_span_words", "_support_masks",
                 "_subspace_supports", "_fast_digits", "_mask_table", "_half_span_masks"),
    "grid.py": ("brute_min_shadow", "shadow"),
    "hilbert.py": ("hilbert_fn", "box_ideal"),
}


def _mentions(node) -> list:
    """Every Name and Attribute in node's subtree, with repeats."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _names(node) -> set:
    """Every name and attribute that node's subtree mentions."""
    return set(_mentions(node))


def _matches(name: str, patterns) -> bool:
    return any(fnmatch.fnmatchcase(name, pattern) for pattern in patterns)


def _is_closed_form(name: str) -> bool:
    return _matches(name, CLOSED_FORMS) or name.startswith("lex_segment")


def _oracle_bodies(filename: str) -> dict:
    """The module-level definitions of the oracles listed for filename."""
    tree = ast.parse((Path(ccodes.__file__).parent / filename).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name in ORACLES[filename]}


def _closed_forms_used(node) -> list:
    return sorted(n for n in _names(node) if _is_closed_form(n))


def test_oracles_share_no_code_with_closed_forms():
    for filename, oracles in ORACLES.items():
        bodies = _oracle_bodies(filename)
        assert set(bodies) == set(oracles), filename
        for name, node in bodies.items():
            used = _closed_forms_used(node)
            assert not used, f"{filename}:{name} calls closed-form machinery {used}"


@pytest.mark.parametrize("filename,oracle", [(filename, oracle)
                                             for filename, oracles in ORACLES.items()
                                             for oracle in oracles])
def test_closed_form_planted_in_an_oracle_is_caught(filename, oracle):
    node = _oracle_bodies(filename)[oracle]
    node.body.insert(0, ast.parse("min_shadow_size(shape, d, r)").body[0])
    assert _closed_forms_used(node) == ["min_shadow_size"]


def test_cli_leaves_the_oracles_to_verification():
    tree = ast.parse((Path(ccodes.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    used = _names(tree) & {"brute_ghw", "brute_min_weight", "gaussian_binomial"}
    assert not used


def test_cli_calls_lower_layers_by_imported_name():
    # bench/spans.py times a gf, grid or hilbert function under the names
    # other modules bind to it, so a call through a module attribute such as
    # grid.min_shadow_size would go untimed
    tree = ast.parse((Path(ccodes.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    through = sorted(f"{n.value.id}.{n.attr}" for n in ast.walk(tree)
                     if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                     and n.value.id in ("gf", "grid", "hilbert"))
    assert not through


def test_verify_checks_the_printed_hierarchy():
    # the GHWs verify checks are the list `ccodes hierarchy` prints, not the
    # per-rank unrank that max_common_zeros, its other comparand, shares
    tree = ast.parse((Path(ccodes.__file__).parent / "verification.py").read_text(encoding="utf-8"))
    names = _names(tree)
    assert "hierarchy" in names and not names & {"min_shadow_size", "rth_of_deg_le"}


def test_integer_codes_are_the_only_element_form():
    # FieldElement is gf's view for notation; the rest of the library holds codes
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        used = (_names(tree) & {"FieldElement", "from_int", "to_int"}
                | attributes & {"one", "zero"})
        assert path.name == "gf.py" or not used, f"{path.name} names {sorted(used)}"


def _module_functions() -> dict:
    """Module-level function definitions of the library, by name."""
    return {node.name: node
            for path in SOURCES
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)}


def test_closed_forms_name_no_oracle_side_scan():
    functions = _module_functions()
    closed = {name for name in functions if _matches(name, CLOSED_FORMS)}
    assert all(fnmatch.filter(closed, pattern) for pattern in CLOSED_FORMS)
    for name in sorted(closed):
        # follow the library functions a closed form calls, transitively
        seen, todo = set(), [name]
        while todo:
            current = todo.pop()
            if current in seen:
                continue
            seen.add(current)
            todo += [n for n in _names(functions[current]) if n in functions]
        used = sorted(n for node in seen for n in _names(functions[node])
                      if _matches(n, ORACLE_SIDE))
        assert not used, f"{name} reaches oracle-side names {used}"


def test_every_private_function_is_used():
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
    mentions = collections.Counter(n for tree in trees for n in _mentions(tree))
    # a function named only inside its own body has no caller
    unused = sorted(node.name for tree in trees for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
                    and mentions[node.name] == _mentions(node).count(node.name))
    assert not unused


# Public names that only the tests call, each with the reason it stays.  A
# method or property of a library class is listed as Class.member.
REFERENCE_ONLY = {
    "hilbert_fn": "oracle for footprint_upper_bound",
    "box_ideal": "oracle for footprint_upper_bound, with hilbert_fn",
    "FieldElement": "the tests' element view; bench/spans.py names it, so it goes "
                    "with a change to the benchmark",
    "FieldElement.to_int": "stays with FieldElement until bench/spans.py stops naming "
                           "the class",
}


def _public_definitions(trees) -> dict:
    """Public module-level functions and classes by name, and the public
    methods and properties of those classes as Class.member."""
    public = {}
    for tree in trees:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            public[node.name] = node
            if isinstance(node, ast.ClassDef):
                public.update({f"{node.name}.{member.name}": member for member in node.body
                               if isinstance(member, ast.FunctionDef)
                               and not member.name.startswith("_")})
    return public


def test_every_public_name_has_a_library_caller():
    # a public function, class, method or property that no library code
    # names, other than in its own body or an __init__ re-export, must be a
    # listed reference.  Members are matched by name alone, so any attribute
    # of the same name counts as a caller.
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES if path.name != "__init__.py"]
    mentions = collections.Counter(n for tree in trees for n in _mentions(tree))
    uncalled = set()
    for key, node in _public_definitions(trees).items():
        name = key.rpartition(".")[2]
        if mentions[name] == _mentions(node).count(name):
            uncalled.add(key)
    assert sorted(uncalled - set(REFERENCE_ONLY)) == []
    assert sorted(set(REFERENCE_ONLY) - uncalled) == []  # no stale entries
