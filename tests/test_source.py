"""Properties of the library source itself."""

import ast
from pathlib import Path

import ccodes

SOURCES = sorted(Path(ccodes.__file__).parent.glob("*.py"))


def test_no_assert_statements():
    # python -O strips assert; invariants must raise real exceptions
    found = [f"{path.name}:{node.lineno}"
             for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found


# The closed forms' machinery, which no exhaustive oracle may call.
CLOSED_FORM_NAMES = {
    "rth_of_deg_le", "rth_of_deg_ge", "values_deg_ge", "_suffix_counts",
    "count_deg_le", "count_deg_ge", "level_counts", "min_shadow_size",
    "ghw_closed_form", "max_common_zeros", "hierarchy", "dual_hierarchy",
    "_hierarchy_at_degree", "min_distance_closed_form",
}

ORACLES = {
    "codes.py": ("brute_ghw", "brute_min_weight", "_span_words", "_support_masks",
                 "_subspace_supports", "_fast_digits"),
    "grid.py": ("brute_min_shadow", "shadow"),
}


def _names(node) -> set:
    """Every name and attribute that node's subtree mentions."""
    return ({n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)})


def _is_closed_form(name: str) -> bool:
    return name in CLOSED_FORM_NAMES or name.startswith("lex_segment")


def test_oracles_share_no_code_with_closed_forms():
    root = Path(ccodes.__file__).parent
    for filename, oracles in ORACLES.items():
        tree = ast.parse((root / filename).read_text(encoding="utf-8"))
        bodies = {node.name: node for node in tree.body
                  if isinstance(node, ast.FunctionDef) and node.name in oracles}
        assert set(bodies) == set(oracles), filename
        for name, node in bodies.items():
            used = sorted(n for n in _names(node) if _is_closed_form(n))
            assert not used, f"{filename}:{name} calls closed-form machinery {used}"


def test_cli_leaves_the_oracles_to_verification():
    tree = ast.parse((Path(ccodes.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    used = _names(tree) & {"brute_ghw", "brute_min_weight", "gaussian_binomial"}
    assert not used
