"""Tests of the benchmark's output checkers.

    python3 -m pytest bench/selftest_checks.py

The file name keeps the repository's own test run from collecting it.
Each checker must accept the real ccodes output and reject a corrupted
copy of it.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
from ccodes import cli, codes  # noqa: E402


def run_cli(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return out.getvalue()


def spec_args(p, e, sets, d):
    return ["--field", f"{p}^{e}", "--sets", ";".join(",".join(map(str, s)) for s in sets),
            "--d", str(d)]


# -- reference arithmetic ---------------------------------------------------

@pytest.mark.parametrize("p,e,modulus", [
    (2, 2, (1, 1, 1)), (2, 3, (1, 0, 1, 1)), (2, 4, (1, 0, 0, 1, 1)),
    (3, 2, (1, 0, 1)), (5, 1, (0, 1)),
])
def test_modulus_and_field_axioms(p, e, modulus):
    field = checks.RefField(p, e)
    assert field.modulus == modulus
    q = field.q
    a = np.arange(q)
    assert (field.mul == field.mul.T).all()
    assert (field.mul[field.mul[a[:, None, None], a[None, :, None]], a[None, None, :]]
            == field.mul[a[:, None, None], field.mul[a[None, :, None], a[None, None, :]]]).all()
    assert (field.mul[a[:, None, None], field.add[a[None, :, None], a[None, None, :]]]
            == field.add[field.mul[a[:, None, None], a[None, :, None]],
                         field.mul[a[:, None, None], a[None, None, :]]]).all()
    assert (field.mul[a[1:], field.inv[1:]] == 1).all()
    assert (field.add[a, field.neg] == 0).all()


def test_reference_field_agrees_with_ccodes_tables():
    for p, e in ((2, 3), (2, 4), (3, 2), (2, 6)):
        ours = checks.RefField(p, e)
        theirs = codes.parse_field(f"{p}^{e}")
        assert (ours.mul == theirs.mul_table).all()
        assert (ours.add == theirs.add_table).all()


def greedy_min_distance(dims, d):
    """The closed form: d = sum_{i<=j}(d_i - 1) + l, distance (d_{j+1} - l) * rest."""
    j, spent = 0, 0
    while j < len(dims) and spent + dims[j] - 1 < d:
        spent += dims[j] - 1
        j += 1
    if j == len(dims):
        return 1
    return (dims[j] - (d - spent)) * math.prod(dims[j + 1:])


@pytest.mark.parametrize("dims", [(2,) * 6, (3, 4, 6, 8, 9), (4, 4, 4), (7,) * 3, (2, 5, 5)])
def test_min_distance_matches_the_closed_form(dims):
    for d in range(sum(s - 1 for s in dims) + 1):
        assert checks.min_distance(dims, d) == greedy_min_distance(dims, d)


# -- hierarchy --------------------------------------------------------------

HIER = (3, 1, ((0, 2, 1), (2, 1, 0), (1, 0, 2)), 3)
DIMS = (3, 3, 3)


def hierarchy_output():
    return json.loads(run_cli(["hierarchy", "--format", "json"] + spec_args(*HIER)))


def test_hierarchy_accepts_real_output():
    assert checks.check_hierarchy(json.dumps(hierarchy_output()), DIMS, 3) == []


@pytest.mark.parametrize("corrupt", [
    lambda h: h["hierarchy"].__setitem__(slice(1, 3), h["hierarchy"][2:0:-1]),  # swap
    lambda h: h["hierarchy"].__setitem__(0, h["hierarchy"][0] + 1),  # off by one
    lambda h: h["hierarchy"].pop(),
    lambda h: h["dual_hierarchy"].__setitem__(0, h["dual_hierarchy"][0] - 1),
    lambda h: h.__setitem__("min_distance", h["min_distance"] - 1),
    lambda h: h.__setitem__("dimension", h["dimension"] + 1),
])
def test_hierarchy_rejects_corruption(corrupt):
    data = hierarchy_output()
    corrupt(data)
    assert checks.check_hierarchy(json.dumps(data), DIMS, 3)


def test_wei_partition_rejects_overlap():
    assert checks.check_wei([1, 2, 4], [1, 3], 5) == []
    assert checks.check_wei([1, 2, 4], [1, 2], 5)


# -- dual and generator matrix ---------------------------------------------

DUAL = (2, 2, ((3, 0, 2, 1), (1, 2, 3, 0)), 3)


def dual_output():
    return json.loads(run_cli(["dual", "--format", "json"] + spec_args(*DUAL)))


def test_dual_accepts_real_output():
    assert checks.check_dual(json.dumps(dual_output()), *DUAL) == []


@pytest.mark.parametrize("corrupt", [
    lambda m: m["matrix"][0].__setitem__(0, m["matrix"][0][0] ^ 1),  # wrong entry
    lambda m: m["matrix"].__setitem__(1, list(m["matrix"][0])),  # repeated row
    lambda m: m["matrix"].__setitem__(0, [(x + 1) % 4 for x in m["matrix"][0]]),
    lambda m: m["matrix"].pop(),
    lambda m: m["hierarchy"].reverse(),
])
def test_dual_rejects_corruption(corrupt):
    data = dual_output()
    corrupt(data)
    assert checks.check_dual(json.dumps(data), *DUAL)


def test_generator_check():
    p, e, sets, d = DUAL
    spec = codes.spec_from_parts(f"{p}^{e}", ";".join(",".join(map(str, s)) for s in sets), d)
    matrix = np.array(codes.generator_matrix(spec).matrix)
    assert checks.check_generator(matrix, *DUAL) == []
    matrix[0, 0] ^= 1
    assert checks.check_generator(matrix, *DUAL)
    assert checks.check_generator(matrix[1:], *DUAL)


# -- maxzeros ---------------------------------------------------------------

MAXZ = (5, 1, ((4, 0, 2, 1, 3), (2, 3, 1, 4, 0)), 4)


def maxzeros_output(r):
    return json.loads(run_cli(["maxzeros", "--format", "json", "--r", str(r)]
                              + spec_args(*MAXZ)))


@pytest.mark.parametrize("r", [1, 4, 9])
def test_maxzeros_accepts_real_output(r):
    assert checks.check_maxzeros(json.dumps(maxzeros_output(r)), *MAXZ, r) == []


@pytest.mark.parametrize("corrupt", [
    lambda z: z.__setitem__("value", z["value"] + 1),  # off-by-one zero count
    lambda z: z.__setitem__("value", z["value"] - 1),
    lambda z: z["polynomials"].__setitem__(1, z["polynomials"][0]),  # dependent
    lambda z: z["polynomials"].__setitem__(0, "x1^3*x2^2"),  # degree above d
    lambda z: z["polynomials"].pop(),
    lambda z: z["polynomials"].__setitem__(0, "x1 + y2"),  # unreadable
])
def test_maxzeros_rejects_corruption(corrupt):
    data = maxzeros_output(4)
    corrupt(data)
    assert checks.check_maxzeros(json.dumps(data), *MAXZ, 4)


def test_polynomial_parser_reads_ccodes_repr():
    assert checks.parse_polynomial("x1^2*x3 + 4*x2 + 3", 3) == {
        (2, 0, 1): 1, (0, 1, 0): 4, (0, 0, 0): 3}
    assert checks.parse_polynomial("0", 2) == {}


# -- verify -----------------------------------------------------------------

def test_verify_check():
    text = run_cli(["verify"] + spec_args(3, 1, ((0, 1, 2), (2, 0, 1)), 2))
    problems, checked = checks.check_verify(text)
    assert problems == [] and checked > 0
    lines = text.splitlines()
    mismatch = lines[:]
    mismatch[0] = mismatch[0].replace(" ok", " MISMATCH")
    assert checks.check_verify("\n".join(mismatch))[0]
    assert checks.check_verify("\n".join(lines[:-1] + ["VERIFY FAILED"]))[0]
    assert checks.check_verify("VERIFY OK\n")[0]
