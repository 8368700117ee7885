"""Properties of the library source itself."""

import ast
import collections
import fnmatch
import re
from pathlib import Path

import pytest

import ccodes
from ccodes import gf

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
    "hierarchy", "dual_hierarchy", "_hierarchy_at_degree", "dual_hierarchy_array",
    "footprint_upper_bound",
)

ORACLE_SIDE = (
    "shadow*", "all_tuples", "tuples_deg_*", "brute_*", "hilbert_fn", "box_ideal",
    "_span_words", "_mask_type", "_bit_planes", "_span_planes", "_oracle_table",
    "_plane_tables", "_row_multiples", "_planes_differ", "_pair_masks", "_word_masks",
    "_tail_masks", "_subspace_masks", "_digit_rows", "_mask_weights",
)

# The oracles' entry points.  They, and every library function they call,
# transitively, must name no closed form.
ORACLES = ("brute_ghw", "brute_min_weight", "brute_min_shadow", "shadow", "hilbert_fn",
           "box_ideal")


def _mentions(node) -> list:
    """Every Name and Attribute in node's subtree, with repeats."""
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, (ast.Name, ast.Attribute))]


def _attributes(node) -> list:
    """Every attribute that node's subtree reads or writes, with repeats."""
    return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]


def _names(node) -> set:
    """Every name and attribute that node's subtree mentions."""
    return set(_mentions(node))


def _matches(name: str, patterns) -> bool:
    return any(fnmatch.fnmatchcase(name, pattern) for pattern in patterns)


def _is_closed_form(name: str) -> bool:
    return _matches(name, CLOSED_FORMS) or name.startswith("lex_segment")


def _closed_forms_used(node) -> list:
    return sorted(n for n in _names(node) if _is_closed_form(n))


def _module_functions() -> dict:
    """Module-level function definitions of the library, by name."""
    return {node.name: node
            for path in SOURCES
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef)}


def _reached(functions: dict, names) -> set:
    """names and every library function they name, transitively."""
    seen, todo = set(), list(names)
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.add(current)
            todo += [n for n in _names(functions[current]) if n in functions]
    return seen


def _oracle_side(functions: dict) -> set:
    """The oracles and the functions they name, transitively, up to closed forms.

    The walk stops at a closed form: naming one is the breach.
    """
    other = {name: node for name, node in functions.items() if not _is_closed_form(name)}
    return _reached(other, ORACLES)


def _oracle_side_closed_forms(functions: dict) -> dict:
    """The closed forms named by each oracle-side function, where any are."""
    used = {name: _closed_forms_used(functions[name]) for name in _oracle_side(functions)}
    return {name: names for name, names in used.items() if names}


def test_oracles_share_no_code_with_closed_forms():
    functions = _module_functions()
    assert set(ORACLES) <= set(functions)
    assert _oracle_side_closed_forms(functions) == {}


def _oracle_side_by_file() -> list:
    """(file name, function name) of each oracle-side function, in file order."""
    side = _oracle_side(_module_functions())
    return [(path.name, node.name) for path in SOURCES
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.FunctionDef) and node.name in side]


@pytest.mark.parametrize("filename,oracle", _oracle_side_by_file())
def test_closed_form_planted_in_an_oracle_is_caught(filename, oracle):
    functions = _module_functions()
    functions[oracle].body.insert(0, ast.parse("min_shadow_size(shape, d, r)").body[0])
    assert _oracle_side_closed_forms(functions) == {oracle: ["min_shadow_size"]}


def test_closed_form_planted_in_a_called_helper_is_caught():
    # _sum_into is no entry point: the walk reaches it through brute_min_weight
    # and matmul, so a closed form planted there is caught
    functions = _module_functions()
    assert "_sum_into" not in ORACLES and "_sum_into" in _oracle_side(functions)
    functions["_sum_into"].body.insert(0, ast.parse("min_shadow_size(shape, d, r)").body[0])
    assert _oracle_side_closed_forms(functions) == {"_sum_into": ["min_shadow_size"]}


def test_only_sum_into_reads_the_addition_table():
    # one addition of codes in codes.py: XOR or one flat-table lookup
    tree = ast.parse((Path(ccodes.__file__).parent / "codes.py").read_text(encoding="utf-8"))
    readers = sorted(node.name for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and "add_table" in _names(node))
    assert readers == ["_sum_into"]


def test_split_and_plane_tables_have_one_reader_each():
    # the subspace oracle cuts a code's generator rows in two in one place,
    # and one function reads the tables of the two sides
    tree = ast.parse((Path(ccodes.__file__).parent / "codes.py").read_text(encoding="utf-8"))
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    halving = sorted(node.name for node in functions
                     if "code" in {a.arg for a in node.args.args}
                     and any(isinstance(n, ast.BinOp) and isinstance(n.op, ast.FloorDiv)
                             and isinstance(n.right, ast.Constant) and n.right.value == 2
                             for n in ast.walk(node)))
    assert halving == ["_plane_tables"]
    readers = sorted(node.name for node in functions
                     if "_plane_tables" in _names(node) and node.name != "_plane_tables")
    assert readers == ["_word_masks"]


def _calls(node) -> set:
    """The names and attributes that node's subtree calls."""
    return {call.func.id if isinstance(call.func, ast.Name) else call.func.attr
            for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, (ast.Name, ast.Attribute))}


def test_one_kronecker_product_and_no_field_call_per_coefficient():
    # the evaluation matrix and the dual's column scalars share _kron_rows;
    # field arithmetic goes over whole arrays (the extremal families' one
    # Field.mul per coordinate is counted in test_codes)
    tree = ast.parse((Path(ccodes.__file__).parent / "codes.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("monomial_evaluations", "dual_point_weights"):
        assert "_kron_rows" in _calls(functions[name]), name
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    scalar = sorted(f"line {node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, comprehensions)
                    and _calls(node) & {"add", "mul", "neg", "pow", "inv"})
    assert not scalar


def test_construction_multiplies_codes_only_through_product():
    # one entrywise product of code arrays in construction: the evaluation
    # matrix, its ladders of powers, the dual's weights and its column scaling
    # take from the multiplication table through _product alone
    tree = ast.parse((Path(ccodes.__file__).parent / "codes.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in ("_kron_rows", "monomial_evaluations", "_evaluation_code", "dual_point_weights"):
        assert "mul_table" not in _names(functions[name]), name
    assert {"_product"} <= _calls(functions["_kron_rows"]) & _calls(functions["_evaluation_code"])
    assert "mul_table" in _names(functions["_product"])


def _over_coordinates(loop) -> bool:
    """Whether a for loop steps through the box's m coordinates: its
    iterable is range(shape.m), maybe reversed, and names nothing else."""
    return (isinstance(loop, ast.For)
            and set(_mentions(loop.iter)) <= {"reversed", "range", "shape", "m"}
            and "m" in _mentions(loop.iter))


def test_lex_segment_is_a_view_of_the_band_listing():
    # one closed-form band listing: lex_segment_digits decodes values_deg_ge's
    # values, a whole column per coordinate, lex_segment converts those
    # digits, and neither walks tuples
    tree = ast.parse((Path(ccodes.__file__).parent / "grid.py").read_text(encoding="utf-8"))
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert "values_deg_ge" in _calls(functions["lex_segment_digits"])
    assert "lex_segment_digits" in _calls(functions["lex_segment"])
    for name in ("lex_segment_digits", "lex_segment"):
        loops = [n for n in ast.walk(functions[name])
                 if isinstance(n, (ast.For, ast.While, ast.comprehension))
                 and not _over_coordinates(n)]
        assert not loops, name
    for loop in ("for i in reversed(range(shape.m)): pass", "for i in range(shape.m): pass"):
        assert _over_coordinates(ast.parse(loop).body[0])
    for loop in ("for t in values: pass", "for i in range(len(values)): pass",
                 "for i in range(r): pass", "while shape.m: pass"):
        assert not _over_coordinates(ast.parse(loop).body[0])


def test_both_sweeps_step_their_slow_digits_through_one_walk():
    # one counter of base-q digits, _digit_rows, and no mixed-radix counter
    # of their own, such as itertools.product: the codeword oracle names it,
    # and the subspace sweep reaches it through _word_masks
    functions = _module_functions()
    for name in ("_word_masks", "brute_min_weight"):
        names = _names(functions[name])
        assert "_digit_rows" in names and "itertools" not in names, name
    assert "_word_masks" in _names(functions["_subspace_masks"])


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


def test_cli_flags_are_added_in_one_place():
    # each subcommand's flags are its row of cli._COMMANDS, so no helper adds
    # flags of its own and no switch picks among them
    tree = ast.parse((Path(ccodes.__file__).parent / "cli.py").read_text(encoding="utf-8"))
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Attribute) and n.func.attr == "add_argument"]
    assert len(calls) == 1
    switched = sorted(n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
                      and "budget" in {a.arg for a in ast.walk(n.args) if isinstance(a, ast.arg)})
    assert not switched


def test_verify_checks_the_printed_hierarchy():
    # the GHWs verify checks are the list `ccodes hierarchy` prints, not the
    # per-rank unrank that max_common_zeros, its other comparand, shares
    tree = ast.parse((Path(ccodes.__file__).parent / "verification.py").read_text(encoding="utf-8"))
    names = _names(tree)
    assert "hierarchy" in names and not names & {"min_shadow_size", "rth_of_deg_le"}


def test_integer_codes_are_the_only_element_form():
    # elements are int codes, and the Field methods are their arithmetic
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        attributes = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        used = (_names(tree) & {"FieldElement", "from_int", "to_int"}
                | attributes & {"one", "zero"})
        assert not used, f"{path.name} names {sorted(used)}"


def test_field_element_is_an_empty_placeholder():
    # bench/spans.py compares classes against gf.FieldElement, so the name
    # stays; a class body of its docstring alone keeps the view from growing back
    tree = ast.parse((Path(ccodes.__file__).parent / "gf.py").read_text(encoding="utf-8"))
    (node,) = [n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "FieldElement"]
    assert not (node.bases or node.keywords or node.decorator_list)
    (docstring,) = node.body
    assert isinstance(docstring, ast.Expr) and isinstance(docstring.value, ast.Constant)
    # and nothing is attached to the class after its statement
    bare = {}
    exec(compile(ast.Module([node], type_ignores=[]), "gf.py", "exec"), bare)
    assert vars(gf.FieldElement).keys() == vars(bare["FieldElement"]).keys()


def test_closed_forms_name_no_oracle_side_scan():
    functions = _module_functions()
    closed = {name for name in functions if _matches(name, CLOSED_FORMS)}
    assert all(fnmatch.filter(closed, pattern) for pattern in CLOSED_FORMS)
    for name in sorted(closed):
        # follow the library functions a closed form calls, transitively
        used = sorted(n for node in _reached(functions, [name]) for n in _names(functions[node])
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
    "FieldElement": "an empty placeholder that bench/spans.py names; it goes with a "
                    "change to the benchmark",
    "Field.inv": "element-wise reference for inv_table and the tests' Gauss-Jordan",
    "lex_segment": "lex_segment_digits as tuples, which the grid tests compare and "
                   "shadow takes",
    "extremal_polynomials": "the extremal family as terms dicts, the form README shows",
    "format_polynomial": "the text of one terms dict, the form README shows",
    "graded_lex_key": "the order format_polynomials sorts by, as a key for max and sorted",
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
    # listed reference.  A member is named only as an attribute, x.member:
    # a bare name such as the builtin pow or a local inv does not call it.
    # Any attribute of the same name still counts, whatever its owner.
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in SOURCES if path.name != "__init__.py"]
    mentions = collections.Counter(n for tree in trees for n in _mentions(tree))
    attributes = collections.Counter(n for tree in trees for n in _attributes(tree))
    uncalled = set()
    for key, node in _public_definitions(trees).items():
        owner, _, name = key.rpartition(".")
        counted, own = (attributes, _attributes) if owner else (mentions, _mentions)
        if counted[name] == own(node).count(name):
            uncalled.add(key)
    assert sorted(uncalled - set(REFERENCE_ONLY)) == []
    assert sorted(set(REFERENCE_ONLY) - uncalled) == []  # no stale entries


def test_sources_parse_at_the_declared_python_floor():
    # pyproject declares requires-python = ">=X.Y"; CI runs a newer Python,
    # so syntax that X.Y lacks would go unnoticed there
    pyproject = (Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    floor = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, flags=re.M)
    version = (int(floor[1]), int(floor[2]))
    for path in SOURCES:
        ast.parse(path.read_text(encoding="utf-8"), path.name, feature_version=version)
