"""Command-line interface behavior and output stability."""

import contextlib
import hashlib
import io
import json
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccodes import cli, codes, verify
from ccodes.cli import main
from ccodes.errors import InvariantError


def run_cli(capsys, *argv):
    status = main(list(argv))
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_hierarchy_json_example(capsys):
    status, out, _ = run_cli(capsys, "hierarchy", "--field", "2^1",
                             "--sets", "0,1;0,1", "--d", "1", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload == {
        "length": 4,
        "dimension": 3,
        "degree": 1,
        "hierarchy": [2, 3, 4],
        "dual_hierarchy": [4],
        "min_distance": 2,
    }


def test_hierarchy_table(capsys):
    status, out, _ = run_cli(capsys, "hierarchy", "--field", "3^1",
                             "--sets", "0,1,2", "--d", "1")
    assert status == 0
    assert "hierarchy   2 3" in out
    assert "length      3" in out


def test_output_is_deterministic(capsys):
    args = ("hierarchy", "--field", "2^2", "--sets", "0,1,2;0,1,2,3",
            "--d", "3", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_json_roundtrip_recompute(capsys):
    args = ("hierarchy", "--field", "3^1", "--sets", "0,1;0,1,2", "--d", "2",
            "--format", "json")
    _, out, _ = run_cli(capsys, *args)
    payload = json.loads(out)
    from ccodes.codes import code_summary, spec_from_parts
    spec = spec_from_parts("3^1", "0,1;0,1,2", payload["degree"])
    summary = code_summary(spec)
    for key in ("hierarchy", "dual_hierarchy"):
        summary[key] = summary[key].tolist()
    assert summary == payload


# one --format json call per subcommand: verify skips checks over its budget,
# shadow runs its brute check, and maxzeros works past the table limit
JSON_CALLS = {
    "hierarchy": ("--field", "2^1", "--sets", ";".join(["0,1"] * 12), "--d", "6"),
    "dual": ("--field", "2^4", "--sets", "0,3,9;5,12,15", "--d", "2"),
    "verify": ("--field", "2^2", "--sets", "0,1,2,3;0,1,2,3", "--d", "3", "--budget", "10"),
    "shadow": ("--grid", "2x3", "--v", "3", "--r", "2", "--brute"),
    "footprint": ("--grid", "2x3", "--lts", "1,1;0,2"),
    "maxzeros": ("--field", "2^11", "--sets", "0,1,2047;5,6,2000", "--d", "2", "--r", "3"),
}


def test_json_calls_cover_every_subcommand():
    assert JSON_CALLS.keys() == cli._COMMANDS.keys()


@pytest.mark.parametrize("command", JSON_CALLS)
def test_json_output_is_canonical(command, capsys):
    # the bytes json.dumps(..., separators=(",", ":")) writes, on one line
    status, out, err = run_cli(capsys, command, *JSON_CALLS[command], "--format", "json")
    assert (status, err) == (0, "")
    line = out.removesuffix("\n")
    assert "\n" not in line
    assert json.dumps(json.loads(line), separators=(",", ":")) == line
    if command == "verify":
        assert json.loads(line)["skipped"]


def test_shadow_example(capsys):
    status, out, _ = run_cli(capsys, "shadow", "--grid", "2x3", "--v", "2", "--r", "1")
    assert status == 0
    assert out.strip() == "2"


def test_shadow_brute_agreement(capsys):
    status, out, _ = run_cli(capsys, "shadow", "--grid", "2x3", "--v", "3",
                             "--r", "2", "--brute", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["min_shadow"] == payload["brute_min_shadow"] == 2


def test_shadow_brute_mismatch_exits_one(capsys, monkeypatch):
    monkeypatch.setattr(cli, "brute_min_shadow", lambda shape, v, r, budget: 3)
    status, out, err = run_cli(capsys, "shadow", "--grid", "2x3", "--v", "3",
                               "--r", "2", "--brute")
    assert (status, out, err) == (1, "2\nbrute 3\nMISMATCH\n", "")


def test_verify_exits_zero(capsys):
    status, out, _ = run_cli(capsys, "verify", "--field", "3^1",
                             "--sets", "0,1,2", "--d", "1")
    assert status == 0
    assert "VERIFY OK" in out
    assert "MISMATCH" not in out


def test_verify_json_matches_text(capsys):
    args = ("verify", "--field", "2^2", "--sets", "0,1;0,1,2", "--d", "2")
    status, text, err = run_cli(capsys, *args)
    json_status, out, _ = run_cli(capsys, *args, "--format", "json")
    assert status == json_status == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["skipped"] == [] and err == ""
    checks = payload["checks"]
    assert [set(c) for c in checks] == [{"name", "closed", "oracle", "ok"}] * len(checks)
    assert all(c["ok"] and c["closed"] == c["oracle"] for c in checks)
    lines = [f"{c['name']}: closed={c['closed']} oracle={c['oracle']} ok" for c in checks]
    assert text.splitlines() == lines + ["VERIFY OK"]


def test_verify_records_over_budget_skips(capsys):
    args = ("verify", "--field", "2^2", "--sets", "0,1,2,3;0,1,2,3", "--d", "3",
            "--budget", "10")
    status, text, err = run_cli(capsys, *args)
    json_status, out, json_err = run_cli(capsys, *args, "--format", "json")
    assert status == json_status == 0
    payload = json.loads(out)
    skipped = payload["skipped"]
    assert [s["name"] for s in skipped] == (
        [f"ghw r={r}" for r in range(1, 10)] + ["min_distance"]
        + [f"dual ghw r={r}" for r in range(1, 6)])
    # [10 choose 1]_4 = (4^10 - 1) / 3 subspaces
    assert skipped[0]["reason"] == "349525 subspaces exceed budget 10"
    assert skipped[9]["reason"] == "1048576 codewords exceed budget 10"
    checks = payload["checks"]
    assert not {c["name"] for c in checks} & {s["name"] for s in skipped}
    assert "ghw r=10" in {c["name"] for c in checks}
    # stdout keeps its format; the skips go to one stderr line
    lines = [f"{c['name']}: closed={c['closed']} oracle={c['oracle']} ok" for c in checks]
    assert text.splitlines() == lines + ["VERIFY OK"]
    assert err.count("\n") == 1
    assert err == (f"verify: skipped 15 of {15 + len(checks)} checks by their oracles: "
                   "ghw r=1..9, min_distance, dual ghw r=1..5\n")
    assert json_err == ""


def test_verify_gf4_spec(capsys):
    status, out, _ = run_cli(capsys, "verify", "--field", "2^2",
                             "--sets", "0,1;0,1,2", "--d", "2")
    assert status == 0
    assert "VERIFY OK" in out


def test_footprint_command(capsys):
    status, out, _ = run_cli(capsys, "footprint", "--grid", "2x3", "--lts", "1,1")
    assert status == 0
    assert out.strip() == "4"
    status, out, _ = run_cli(capsys, "footprint", "--grid", "2x2",
                             "--lts", "0,2", "--format", "json")
    assert status == 0
    assert json.loads(out)["bound"] == 4


@pytest.mark.parametrize("lts", ["-1,0", "1,-5"])
def test_footprint_negative_exponent_exits_two(capsys, lts):
    status, out, err = run_cli(capsys, "footprint", "--grid", "2x3", f"--lts={lts}")
    assert status == 2
    assert not out
    assert err.startswith("error: negative exponent")


def test_footprint_on_a_deep_grid(capsys):
    # one coordinate per level, not per stack frame: 1500 dims end in no RecursionError
    m = 1500
    status, out, err = run_cli(capsys, "footprint", "--grid", "x".join(["2"] * m),
                               "--lts", ",".join(["1"] * m))
    assert (status, out, err) == (0, f"{2 ** m - 1}\n", "")


def test_maxzeros_command(capsys):
    status, out, _ = run_cli(capsys, "maxzeros", "--field", "3^1",
                             "--sets", "0,1,2", "--d", "2", "--r", "1",
                             "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert payload["polynomials"] == ["x1^2 + 2*x1"]


def test_parse_errors_exit_two(capsys):
    status, _, err = run_cli(capsys, "hierarchy", "--field", "4^1",
                             "--sets", "0,1", "--d", "1")
    assert status == 2 and "error:" in err
    status, _, err = run_cli(capsys, "hierarchy", "--field", "2^1",
                             "--sets", "0,1,1", "--d", "1")
    assert status == 2
    status, _, err = run_cli(capsys, "hierarchy", "--field", "2^1",
                             "--sets", "0,1", "--d", "9")
    assert status == 2
    status, _, err = run_cli(capsys, "hierarchy", "--field", "2^1", "--d", "1")
    assert status == 2


@pytest.mark.parametrize("argv,message", [
    (("hierarchy", "--field", "3", "--sets", "0,a", "--d", "1"), "bad evaluation set '0,a'"),
    (("maxzeros", "--field", "3", "--sets", "0,1,2", "--d", "1", "--r", "0"),
     "rank 0 outside [1, 2]"),
])
def test_bad_inline_input_exits_two(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


def test_budget_error_exits_two(capsys):
    status, _, err = run_cli(capsys, "shadow", "--grid", "3x3", "--v", "4",
                             "--r", "4", "--brute", "--budget", "3")
    assert status == 2
    assert "budget" in err


def test_env_budget_override(capsys, monkeypatch):
    # --budget is the one way to set the cap; the environment changes nothing
    monkeypatch.setenv("CCODES_BUDGET", "3")
    status, _, _ = run_cli(capsys, "shadow", "--grid", "3x3", "--v", "4",
                           "--r", "4", "--brute")
    assert status == 0
    status, _, _ = run_cli(capsys, "shadow", "--grid", "3x3", "--v", "4",
                           "--r", "4", "--brute", "--budget", "3")
    assert status == 2
    monkeypatch.setenv("CCODES_BUDGET", "notanumber")
    status, _, err = run_cli(capsys, "shadow", "--grid", "2x3", "--v", "1",
                             "--r", "1", "--brute")
    assert (status, err) == (0, "")


@pytest.mark.parametrize("command", [
    ("verify", "--field", "3", "--sets", "0,1,2", "--d", "1"),
    ("shadow", "--grid", "2x3", "--v", "1", "--r", "1", "--brute"),
])
def test_negative_budget_exits_two(capsys, command):
    for budget in ("-5", "-1", "ten"):
        with pytest.raises(SystemExit) as exc:
            main([*command, "--budget", budget])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(
            f"error: argument --budget: must be a non-negative integer, got '{budget}'\n")


def test_zero_budget_runs_no_oracle(capsys):
    status, out, err = run_cli(capsys, "verify", "--field", "3", "--sets", "0,1,2",
                               "--d", "1", "--budget", "0", "--format", "json")
    assert (status, err) == (0, "")
    skipped = [s["name"] for s in json.loads(out)["skipped"]]
    assert skipped == ["ghw r=1", "ghw r=2", "min_distance", "dual ghw r=1"]
    status, out, _ = run_cli(capsys, "shadow", "--grid", "2x3", "--v", "1", "--r", "1",
                             "--budget", "0")
    assert (status, out) == (0, "3\n")
    status, out, err = run_cli(capsys, "shadow", "--grid", "2x3", "--v", "1", "--r", "1",
                               "--brute", "--budget", "0")
    assert (status, out) == (2, "")
    assert err == "error: 3 subsets exceed budget 0\n"


@pytest.mark.parametrize("command", ["verify", "shadow"])
def test_budget_help_says_zero_runs_no_oracle(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert "0 runs no oracle" in " ".join(capsys.readouterr().out.split())


def test_spec_file_json(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"field": "2^1", "sets": "0,1;0,1", "d": 1}))
    status, out, _ = run_cli(capsys, "hierarchy", "--spec-file", str(path),
                             "--format", "json")
    assert status == 0
    assert json.loads(out)["hierarchy"] == [2, 3, 4]


def test_spec_file_text(tmp_path, capsys):
    path = tmp_path / "spec.txt"
    path.write_text("# a comment\nfield = 3^1\nsets = 0,1,2\nd = 1\n")
    status, out, _ = run_cli(capsys, "hierarchy", "--spec-file", str(path),
                             "--format", "json")
    assert status == 0
    assert json.loads(out)["hierarchy"] == [2, 3]


def test_spec_file_inline_overrides(tmp_path, capsys):
    path = tmp_path / "spec.txt"
    path.write_text("field: 3^1\nsets: 0,1,2\nd: 1\n")
    status, out, _ = run_cli(capsys, "hierarchy", "--spec-file", str(path),
                             "--d", "2", "--format", "json")
    assert status == 0
    assert json.loads(out)["degree"] == 2


@pytest.mark.parametrize("data", [
    {"field": "2^1", "sets": [[0, 1], [0, 1]], "d": 1},
    {"field": 2, "sets": "0,1;0,1", "d": 1},
    {"field": "2^1", "sets": "0,1;0,1", "d": 1.5},
])
def test_spec_file_wrong_types_exit_two(tmp_path, capsys, data):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data))
    status, out, err = run_cli(capsys, "hierarchy", "--spec-file", str(path))
    assert status == 2
    assert out == ""
    assert err.startswith("error: spec file ")


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "spec file {path} must hold an object"),
    ("garbage\n", "cannot parse spec file line 'garbage'"),
    ("field = 3^1\nsets = 0,1,2\nd = abc\n", "spec file d must be an integer, got 'abc'"),
])
def test_spec_file_errors_exit_two(tmp_path, capsys, text, message):
    path = tmp_path / "spec"
    path.write_text(text)
    status, out, err = run_cli(capsys, "hierarchy", "--spec-file", str(path))
    assert (status, out, err) == (2, "", f"error: {message.format(path=path)}\n")


def test_missing_spec_file(capsys):
    status, _, err = run_cli(capsys, "hierarchy", "--spec-file", "/nonexistent")
    assert status == 2


def test_dual_command(capsys):
    status, out, _ = run_cli(capsys, "dual", "--field", "3^1",
                             "--sets", "0,1,2", "--d", "1", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["dimension"] == 1
    assert payload["matrix"] == [[2, 2, 2]]
    assert payload["hierarchy"] == [3]


def test_dual_command_top_degree(capsys):
    status, out, _ = run_cli(capsys, "dual", "--field", "2^1",
                             "--sets", "0,1;0,1", "--d", "2", "--format", "json")
    assert status == 0
    payload = json.loads(out)
    assert payload["dimension"] == 0
    assert payload["matrix"] == []


def test_unknown_command_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_huge_grid_maxzeros_exact_and_hierarchy_refused(capsys):
    sets = ";".join(["0,1"] * 64)
    status, out, _ = run_cli(capsys, "maxzeros", "--field", "2^1", "--sets", sets,
                             "--d", "1", "--r", "3", "--format", "json")
    assert status == 0
    assert json.loads(out)["value"] == 2 ** 61
    # the code's own hierarchy would list 2^64 - 65 weights
    status, out, err = run_cli(capsys, "hierarchy", "--field", "2^1", "--sets", sets,
                               "--d", "62")
    assert (status, out) == (2, "")
    assert err == "error: hierarchy of 18446744073709551551 weights exceeds the limit 10000000\n"
    # a dual hierarchy that long is summarised: 2^64 - 65 weights from 4 to 2^64
    status, out, err = run_cli(capsys, "hierarchy", "--field", "2^1", "--sets", sets,
                               "--d", "1")
    assert (status, err) == (0, "")
    assert out.splitlines()[-1] == \
        f"dual_hierarchy 4 ... {2 ** 64} ({2 ** 64 - 65} weights)"


def test_maxzeros_refuses_families_past_the_limit(capsys):
    # 10^11 polynomials are refused before the segment is listed, and the
    # 2^24 terms of f1 = (x1 + 1)...(x24 + 1) before any term is expanded
    binary = ("maxzeros", "--field", "2^1", "--sets")
    start = time.process_time()
    tracemalloc.start()
    try:
        polys = run_cli(capsys, *binary, ";".join(["0,1"] * 40), "--d", "20",
                        "--r", "100000000000")
        terms = run_cli(capsys, *binary, ";".join(["1,0"] * 24), "--d", "24", "--r", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.process_time() - start < 1.0
    assert peak < 2 ** 20, f"peak {peak} bytes"
    assert polys == (2, "", "error: extremal family of rank 100000000000 exceeds the limit "
                            "of 10000000 polynomials\n")
    assert terms == (2, "", "error: extremal family of rank 1 exceeds the limit "
                            "of 10000000 terms\n")


def test_maxzeros_refuses_families_past_the_entry_limit(capsys):
    # 250001 polynomials of 40 segment digits each are refused before the
    # segment is listed, and the 2^20 terms of f1 = (x1 + 1)...(x20 + 1),
    # 20 exponents each, before any term is expanded
    binary = ("maxzeros", "--field", "2^1", "--sets")
    start = time.process_time()
    tracemalloc.start()
    try:
        digits = run_cli(capsys, *binary, ";".join(["0,1"] * 40), "--d", "20",
                         "--r", "250001")
        exponents = run_cli(capsys, *binary, ";".join(["1,0"] * 20), "--d", "20", "--r", "1")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.process_time() - start < 1.0
    assert peak < 2 ** 20, f"peak {peak} bytes"
    assert digits == (2, "", "error: extremal family of rank 250001 in 40 variables exceeds "
                             "the limit of 10000000 entries\n")
    assert exponents == (2, "", "error: extremal family of rank 1 in 20 variables exceeds "
                                "the limit of 10000000 entries\n")


def test_hierarchy_summarises_a_dual_past_the_limit(capsys):
    # RM(3, 30): 4526 weights of its own, 2^30 - 4526 in the dual
    args = ("hierarchy", "--field", "2^1", "--sets", ";".join(["0,1"] * 30), "--d", "3")
    start = time.process_time()
    status, text, err = run_cli(capsys, *args)
    json_status, out, json_err = run_cli(capsys, *args, "--format", "json")
    assert time.process_time() - start < 1.0
    assert (status, err, json_status, json_err) == (0, "", 0, "")
    payload = json.loads(out)
    assert len(payload["hierarchy"]) == payload["dimension"] == 4526
    assert payload["dual_hierarchy"] is None
    assert payload["dual_hierarchy_summary"] == {
        "length": 1073737298, "first": 16, "last": 2 ** 30}
    assert list(payload).index("dual_hierarchy_summary") == 5
    lines = text.splitlines()
    assert lines[-2] == "hierarchy   " + " ".join(map(str, payload["hierarchy"]))
    assert lines[-1] == "dual_hierarchy 16 ... 1073741824 (1073737298 weights)"


def test_verify_longer_than_64_skips_the_subspace_oracle(capsys):
    nine = ",".join(str(x) for x in range(9))
    args = ("verify", "--field", "3^2", "--sets", f"{nine};{nine}", "--d", "1")
    status, text, err = run_cli(capsys, *args)
    assert status == 0
    assert text.splitlines()[-1] == "VERIFY OK"
    assert err.startswith("verify: skipped ")
    status, out, _ = run_cli(capsys, *args, "--format", "json")
    assert status == 0
    payload = json.loads(out)
    reasons = {s["name"]: s["reason"] for s in payload["skipped"]}
    for r in (1, 2, 3):
        assert reasons[f"ghw r={r}"] == "support masks limited to length 64, code has 81"
    # 9^3 = 729 codewords fit the budget, so the codeword oracle still runs
    checks = {c["name"]: c for c in payload["checks"]}
    assert checks["min_distance"]["ok"] and checks["min_distance"]["oracle"] == 72


def test_verify_counts_no_subspaces_past_the_length_cap(capsys):
    # GF(16) 16x16 at d=7: n = 256, K = 36.  Counting the dual's 220-dimensional
    # subspaces used to overflow int-to-str conversion before the length check.
    sixteen = ",".join(str(x) for x in range(16))
    start = time.process_time()
    status, text, err = run_cli(capsys, "verify", "--field", "2^4",
                                "--sets", f"{sixteen};{sixteen}", "--d", "7")
    # the 36 extremal polynomials are evaluated by one matmul (about 0.09 s in all)
    assert time.process_time() - start < 0.3
    assert status == 0
    assert text.splitlines()[-1] == "VERIFY OK"
    assert err == ("verify: skipped 257 of 333 checks by their oracles: "
                   "ghw r=1..36, min_distance, dual ghw r=1..220\n")


@pytest.mark.parametrize("field,sets,d,skipped", [
    # no plane table past its cut
    ("3^1", "0,1,2;0,1,2;0,1,2", 3, "24 of 66 checks by their oracles: "
                                    "ghw r=1..16, min_distance, dual ghw r=2..8"),
    # swept on 4 bit planes
    ("2^4", "0,1,2,3;0,1,2,3", 2, "13 of 33 checks by their oracles: "
                                  "ghw r=2..4, min_distance, dual ghw r=1..9"),
    # the codeword oracle walks the rows before its held span, and the
    # rank-1 sweep streams the rows that its tail table does not reach
    ("2^2", "0,1,2,3;0,1,2,3", 3, "7 of 41 checks by their oracles: ghw r=2..8"),
    # no pair masks, row multiples or plane tables: one subspace, packed row by row
    ("2^10", "0,1,2,3,4,5,6,7;0,1,2,3,4,5,6,7", 14, "64 of 195 checks by their oracles: "
                                                    "ghw r=1..63, min_distance"),
], ids=["27,17-GF3", "16,6-GF16", "16,10-GF4", "64,64-GF1024"])
def test_verify_oracle_coverage_is_pinned(capsys, field, sets, d, skipped):
    # the same codes and skip lists as the installed-script checks in CI, so
    # that no oracle's coverage shrinks unseen
    status, text, err = run_cli(capsys, "verify", "--field", field, "--sets", sets,
                                "--d", str(d))
    assert (status, text.splitlines()[-1]) == (0, "VERIFY OK")
    assert err == f"verify: skipped {skipped}\n"


def test_verify_reports_mismatch(capsys, monkeypatch):
    exact = codes.brute_min_weight
    monkeypatch.setattr(codes, "brute_min_weight",
                        lambda code, budget: exact(code, budget=budget) + 1)
    spec = codes.spec_from_parts("3^1", "0,1,2", 1)
    assert verify(spec).ok is False
    args = ("verify", "--field", "3^1", "--sets", "0,1,2", "--d", "1")
    status, text, _ = run_cli(capsys, *args)
    assert status == 1
    lines = text.splitlines()
    assert [line for line in lines if line.endswith("MISMATCH")] == [
        "min_distance: closed=2 oracle=3 MISMATCH"]
    assert lines[-1] == "VERIFY FAILED"
    status, out, _ = run_cli(capsys, *args, "--format", "json")
    assert status == 1
    assert json.loads(out)["ok"] is False


def test_verify_checks_the_printed_hierarchy(capsys, monkeypatch):
    # d_2 one too large in the hierarchy `ccodes hierarchy` prints: both GHW
    # checks of rank 2 must catch it, and wei duality, which lists it too
    exact = codes.hierarchy
    monkeypatch.setattr(codes, "hierarchy", lambda spec: tuple(
        w + (r == 2) for r, w in enumerate(exact(spec), start=1)))
    status, text, _ = run_cli(capsys, "verify", "--field", "3^1",
                              "--sets", "0,1;0,1,2", "--d", "2")
    assert status == 1
    lines = text.splitlines()
    assert [line for line in lines if line.endswith("MISMATCH")] == [
        "ghw r=2: closed=4 oracle=3 MISMATCH",
        "ghw+zeros r=2: closed=4 oracle=3 MISMATCH",
        "wei duality: closed=True oracle=False MISMATCH"]
    assert lines[-1] == "VERIFY FAILED"


@pytest.mark.parametrize("command", [
    ("hierarchy", "--field", "2^1", "--sets", "0,1", "--d", "1"),
    ("footprint", "--grid", "2x3", "--lts", "1,1"),
])
def test_budget_only_on_oracle_commands(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([*command, "--budget", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --budget 3" in capsys.readouterr().err


def test_large_prime_characteristic_is_decided_at_once(capsys):
    # 2^61 - 1 is prime; trial division up to its square root never finished
    start = time.process_time()
    status, out, _ = run_cli(capsys, "hierarchy", "--field", "2305843009213693951",
                             "--sets", "0,1;0,1", "--d", "1")
    assert time.process_time() - start < 1.0
    assert status == 0 and "hierarchy   2 3 4" in out
    status, out, err = run_cli(capsys, "hierarchy", "--field", "2305843009213693953",
                               "--sets", "0,1;0,1", "--d", "1")  # 2^61 + 1, divisible by 3
    assert (status, out, err) == (2, "", "error: 2305843009213693953 is not prime\n")
    status, out, err = run_cli(capsys, "hierarchy", "--field", str(10 ** 25),
                               "--sets", "0,1;0,1", "--d", "1")
    assert status == 2 and out == "" and err.startswith(f"error: characteristic {10 ** 25} ")


def test_large_characteristic_extension_field_is_found_at_once(capsys):
    # the modulus search counts candidates up lazily and never scans GF(p)
    start = time.process_time()
    status, out, err = run_cli(capsys, "hierarchy", "--field", "2305843009213693951^2",
                               "--sets", "0,1;0,1", "--d", "1")
    assert time.process_time() - start < 1.0
    assert (status, err) == (0, "")
    assert "hierarchy   2 3 4" in out


def test_maxzeros_past_the_table_limit(capsys):
    # no lookup tables above order 1024; an int64 wrap would change the coefficients
    status, out, err = run_cli(capsys, "maxzeros", "--field", "2^11",
                               "--sets", "0,1,2047;5,6,2000", "--d", "2", "--r", "3")
    assert (status, err) == (0, "")
    assert out == "3\nf1: x1^2 + x1\nf2: x1*x2 + 5*x1\nf3: x1\n"
    status, out, err = run_cli(capsys, "maxzeros", "--field", "4294967291",
                               "--sets", "0,1,4294967290;5,4294967290,7", "--d", "2",
                               "--r", "3", "--format", "json")
    assert (status, err) == (0, "")
    assert out == ('{"value":3,"polynomials":["x1^2 + 4294967290*x1",'
                   '"x1*x2 + 4294967286*x1","x1"]}\n')


def test_dual_past_the_table_limit_exits_two(capsys):
    status, out, err = run_cli(capsys, "dual", "--field", "2^11", "--sets", "0,1;0,1", "--d", "1")
    assert (status, out) == (2, "")
    assert err == "error: lookup tables limited to order 1024, field has 2048\n"


def test_too_large_grid_exits_two(capsys):
    status, out, err = run_cli(capsys, "shadow", "--grid", "100000000000000000000",
                               "--v", "1", "--r", "1")
    assert (status, out) == (2, "")
    assert err == "error: cannot fit 'int' into an index-sized integer\n"


def test_out_of_memory_exits_two(capsys, monkeypatch):
    # exit 1 means a mismatch; a construction too large for memory is bad input
    def dual_code(spec):
        raise MemoryError("Unable to allocate 384. MiB for an array")

    monkeypatch.setattr(codes, "dual_code", dual_code)
    status, out, err = run_cli(capsys, "dual", "--field", "2^1", "--sets", "0,1;0,1", "--d", "1")
    assert (status, out) == (2, "")
    assert err == "error: Unable to allocate 384. MiB for an array\n"
    # a list too long to address raises a bare MemoryError before allocating;
    # the message names the subcommand
    monkeypatch.setattr(codes, "dual_code", lambda spec: [0] * 2 ** 62)
    status, out, err = run_cli(capsys, "dual", "--field", "2^1", "--sets", "0,1;0,1", "--d", "1")
    assert (status, out, err) == (2, "", "error: dual: out of memory (MemoryError)\n")
    # other errors without a message name their type
    def dual_code(spec):
        raise OverflowError

    monkeypatch.setattr(codes, "dual_code", dual_code)
    status, out, err = run_cli(capsys, "dual", "--field", "2^1", "--sets", "0,1;0,1", "--d", "1")
    assert (status, out, err) == (2, "", "error: dual: OverflowError\n")


# sha256 of repr((exit status, stdout, stderr)) per argv: any change to what
# the CLI prints shows here.  Dual matrices and extremal coefficients depend
# on the field modulus, so the runs span nine fields up to the table limit
# (prime and binary, ternary and up to 2^10), two past it and three large
# characteristics, in both output formats, plus two exit-2 errors.  The
# hierarchy depends only on the grid's shape, so it runs once per shape;
# the last rows pin the decimal writer's edge cases: weights of two to four
# digits, weights past int64 next to a summarised dual, and a dual of no rows.
_BITS_12 = ";".join(["0,1"] * 12)
_BITS_64 = ";".join(["0,1"] * 64)
_BITS_8 = ";".join(["0,1"] * 8)
_BITS_5 = ";".join(["0,1"] * 5)
_GF16_16 = ";".join([",".join(map(str, range(16)))] * 2)
_GF9_9 = ";".join([",".join(map(str, range(9)))] * 2)
RECORDED_DIGESTS = {
    "hierarchy --field 2^1 --sets 0,1;0,1;0,1 --d 1 --format table":
        "278e2cba3959826a2ad6dbfc8b955474f548302d255574249f0e67e8ed1670ec",
    "hierarchy --field 2^1 --sets 0,1;0,1;0,1 --d 1 --format json":
        "0ad366bbec980ea2db4a3adc81f3339067dae9bfd49c887d227eee29613b48e5",
    "dual --field 2^1 --sets 0,1;0,1;0,1 --d 1 --format table":
        "c865248f171d6c773e6a8584f9e4044d44d718a009a710f116167a49547bb92d",
    "dual --field 2^1 --sets 0,1;0,1;0,1 --d 1 --format json":
        "1b4567996c71e5b0791b6538a24abd775be1fffbc1ccaaa444408f8ec219f3ae",
    "verify --field 2^1 --sets 0,1;0,1;0,1 --d 1 --format table":
        "271ebd77126650e9dece55fb3ce15b4a2b3ea3bdac184f5348e7e4d5235fb26e",
    "verify --field 2^1 --sets 0,1;0,1;0,1 --d 1 --format json":
        "86853bf63fc74350bdbd2536276671633ad7d5bb1d6a547b5dc6f7a4930c6e95",
    "maxzeros --field 2^1 --sets 0,1;0,1;0,1 --d 1 --r 2 --format table":
        "d3edd537611ee0f979e116ba775d0a99c05a76c29222571e53c43e41e015b289",
    "maxzeros --field 2^1 --sets 0,1;0,1;0,1 --d 1 --r 2 --format json":
        "5933bde300367e0a49ef8b0da2004873bb13727dac127a2744e54394af572fb3",
    "hierarchy --field 3^1 --sets 0,1;0,1,2 --d 2 --format table":
        "23bb9ff433d3fdd699b5c618951a3ab91517f6b500940cce25e42b7239d8680a",
    "hierarchy --field 3^1 --sets 0,1;0,1,2 --d 2 --format json":
        "10e272c57eae12146d2db9ec0814e8f3c9a9024c159dcd887ac1c8cca96c5c0f",
    "dual --field 3^1 --sets 0,1;0,1,2 --d 2 --format table":
        "a4ed524961fc4f8287a729de92090389bd2783f78f1493bb2c94899417b6a8a7",
    "dual --field 3^1 --sets 0,1;0,1,2 --d 2 --format json":
        "a507ed596a435d41d3cec624e3185af07250e741963377d44af37d46a044825b",
    "verify --field 3^1 --sets 0,1;0,1,2 --d 2 --format table":
        "d02012494736ad1e20ef895e5013af9605eef763d9a6f358351a437284a95a46",
    "verify --field 3^1 --sets 0,1;0,1,2 --d 2 --format json":
        "0fc535707e375eff8e71e10543638f359248c4d25788876e6e811ab21d410dac",
    "maxzeros --field 3^1 --sets 0,1;0,1,2 --d 2 --r 2 --format table":
        "ca2395a54873b671040987b93673844af9603bee20e276477e9b06e963524805",
    "maxzeros --field 3^1 --sets 0,1;0,1,2 --d 2 --r 2 --format json":
        "eb08317d3be521de50fdb25495229fda2acca901d3161a81039b49135453a01d",
    "hierarchy --field 2^2 --sets 1,2,3;0,1,2,3 --d 2 --format table":
        "65ff34341c19f63b9051e54cd200a7b145343f4ef37a1b0177d5ac7bdb6186b2",
    "hierarchy --field 2^2 --sets 1,2,3;0,1,2,3 --d 2 --format json":
        "83a804fe6794ab9fd204ca419a71753a50366af35a67f10531e5109f038f7a3f",
    "dual --field 2^2 --sets 1,2,3;0,1,2,3 --d 2 --format table":
        "b8bd26dda292c8db77e0e8161549498b63b69113570e5b5cae278fec9f6c482e",
    "dual --field 2^2 --sets 1,2,3;0,1,2,3 --d 2 --format json":
        "e6143209d3358d2242f2c035742ac3519cb8a9cb11aadbbeadfeeb5251872d87",
    "verify --field 2^2 --sets 1,2,3;0,1,2,3 --d 2 --format table":
        "b2acc84501083d15264f058361c50cca629e89bb79c9fb76504c8bb3395f70cf",
    "verify --field 2^2 --sets 1,2,3;0,1,2,3 --d 2 --format json":
        "6cc765d1e2790fd14920c92c6ed14fa78e148a4f0af66ed712ec8cb8d72f994a",
    "maxzeros --field 2^2 --sets 1,2,3;0,1,2,3 --d 2 --r 2 --format table":
        "54887ee58f0754591f294ab5a0aa3bc004abc052f015397bff902d0390abe1a3",
    "maxzeros --field 2^2 --sets 1,2,3;0,1,2,3 --d 2 --r 2 --format json":
        "04330254b4ff091286a9ba650f34085ce6b8248ac33e92a2e5916797fcd4f423",
    "hierarchy --field 5^1 --sets 0,2,4;0,1,2,3 --d 3 --format table":
        "f9ada4ecf4872d4ba999ab9a0e3f573524496bbaf616a9f260e9423fb0ecdb84",
    "hierarchy --field 5^1 --sets 0,2,4;0,1,2,3 --d 3 --format json":
        "72fb7570543505c3473e56e4b5d9e4f63c039ff2c6b2ec1ae3abffbf04c80a0f",
    "dual --field 5^1 --sets 0,2,4;0,1,2,3 --d 3 --format table":
        "0b99b8eaa9805d38ad24ff377b509c5c78b29bfcc6bb639cb46e8b884badfb12",
    "dual --field 5^1 --sets 0,2,4;0,1,2,3 --d 3 --format json":
        "0ba341e40cc73dbe94f68c58dd42a00f93974885ed86c9af994a9d2525989560",
    "verify --field 5^1 --sets 0,2,4;0,1,2,3 --d 3 --format table":
        "ab2b9ac1b9cee4ae3e7bc7bc244cec68e6b5f5c995d4bbfadbcab89b93054c40",
    "verify --field 5^1 --sets 0,2,4;0,1,2,3 --d 3 --format json":
        "93828fa70f91f795923837889e1360974cea81e79506eaa480166cb2e9adbc18",
    "maxzeros --field 5^1 --sets 0,2,4;0,1,2,3 --d 3 --r 2 --format table":
        "33ffd8fd45a37d2956afa521b554a21459e61ef4c439b3ac181efb1e6316304f",
    "maxzeros --field 5^1 --sets 0,2,4;0,1,2,3 --d 3 --r 2 --format json":
        "a5efd487f2faed2016e1bc8a27446461581e183c2350d8c583a16e914341c1f9",
    "dual --field 2^3 --sets 2,3,7;0,1,5,6 --d 2 --format table":
        "f4e1f393029555b86bc6e881943b12bb42f461b162b7d086e4f2e7140c870726",
    "dual --field 2^3 --sets 2,3,7;0,1,5,6 --d 2 --format json":
        "bd5deefbbee9bdf9361c03bf7c8e0b11e1ed7b50e66d8d9a34eeb5d86adec31a",
    "verify --field 2^3 --sets 2,3,7;0,1,5,6 --d 2 --format table":
        "cd16a83f88ce9d976906041f46bf05bd6d2734778a4677d80218ead0745846aa",
    "verify --field 2^3 --sets 2,3,7;0,1,5,6 --d 2 --format json":
        "9b1b1299649cb304b34842335414ec7a734c5f50a6ee00835b123737d7c2c0d0",
    "maxzeros --field 2^3 --sets 2,3,7;0,1,5,6 --d 2 --r 2 --format table":
        "e063010fdfdc6e5e60087d28173897d04b3acf2074ec3b29e7bd49ae653fb2a1",
    "maxzeros --field 2^3 --sets 2,3,7;0,1,5,6 --d 2 --r 2 --format json":
        "733f0a037453f11ceb69fac0acb12785700e006688cd7ae4475ce522d4cad043",
    "hierarchy --field 3^2 --sets 0,4,8;1,5,7 --d 2 --format table":
        "6e0158614bac19c6b02fdd34fa0211886702fc72d2a2042fb84aea464f6ba5f7",
    "hierarchy --field 3^2 --sets 0,4,8;1,5,7 --d 2 --format json":
        "0c22f9356d84d99cc1397b5e72ed59f073f4e0c206ccb0a0e7a04aead3a1a791",
    "dual --field 3^2 --sets 0,4,8;1,5,7 --d 2 --format table":
        "e5eec5d9197fdce9271801db0d18b277ddbb0c491f29cabeb1eb42b7d2377f4e",
    "dual --field 3^2 --sets 0,4,8;1,5,7 --d 2 --format json":
        "bec48065a4f9d874e5cfcb122ea8e8668f7179d51ad5489e34c04b0e23aed0b7",
    "verify --field 3^2 --sets 0,4,8;1,5,7 --d 2 --format table":
        "f699faa743b0f172cb2ce577b63df98ba007c7c8372bc95e595797af42009be1",
    "verify --field 3^2 --sets 0,4,8;1,5,7 --d 2 --format json":
        "2052ce8aeddfc7729a6ac923effc9371d246a02c8cf56d37ca389cfe0c3c86dc",
    "maxzeros --field 3^2 --sets 0,4,8;1,5,7 --d 2 --r 2 --format table":
        "fb0f9a2100429b5cb3611c1e4d5898d6cf07739ee0577a0072021189bf70852f",
    "maxzeros --field 3^2 --sets 0,4,8;1,5,7 --d 2 --r 2 --format json":
        "55d088be09d3a0cf9a96e483ce009dbf21071e8d3d656d55422b74074713f881",
    "dual --field 2^4 --sets 0,3,9;5,12,15 --d 2 --format table":
        "ae791645dc058e080e12f9052eed9e30a9027b6c5bad27770fc2c7d0e1c3fb35",
    "dual --field 2^4 --sets 0,3,9;5,12,15 --d 2 --format json":
        "018cf3a39d958deddc40207c4279c406ac2f78d7808f6804d035e7f9bb0d4bd8",
    "verify --field 2^4 --sets 0,3,9;5,12,15 --d 2 --format table":
        "eeae2e698f23e7d127bb5072ad63e20b3ede28f38b2beeb2364bcf07cc5a35c5",
    "verify --field 2^4 --sets 0,3,9;5,12,15 --d 2 --format json":
        "41bb7daf83dc3304810bda1a1b88a84d5e1e6ce922c371c15a4308eba2d2cab0",
    "maxzeros --field 2^4 --sets 0,3,9;5,12,15 --d 2 --r 2 --format table":
        "675217d79f5862a5f8afde6323b4f48027706de8070193bac3f6be87dcb6e0a0",
    "maxzeros --field 2^4 --sets 0,3,9;5,12,15 --d 2 --r 2 --format json":
        "fb862d7c722922abb9bc36892e9cab6af41b1a3e396e871de4a50428db8773b5",
    "dual --field 2^6 --sets 0,9,33;17,40,63 --d 2 --format table":
        "4aee1925f620c89774346a2533b17c09b603ce4863313e051e762b1d1c82dd50",
    "dual --field 2^6 --sets 0,9,33;17,40,63 --d 2 --format json":
        "7cc5bba445f99a6c342ac67efff0e7a1053dcca50c1d91cab99865cdb744d546",
    "verify --field 2^6 --sets 0,9,33;17,40,63 --d 2 --format table":
        "4f86ba390eb3391a6c08da427ffaa401700ca22262d309c8d4a91f2b0a14a9d1",
    "verify --field 2^6 --sets 0,9,33;17,40,63 --d 2 --format json":
        "4914527d182eb2c84288957a75d3e270a5786a0efc1792ca9f108f3c3d78f70a",
    "maxzeros --field 2^6 --sets 0,9,33;17,40,63 --d 2 --r 2 --format table":
        "66c5adb686eb8f08b6663243ce698147015f7999673a3d8625e553214ca513d4",
    "maxzeros --field 2^6 --sets 0,9,33;17,40,63 --d 2 --r 2 --format json":
        "157a87915ed89e793272abccc460738910029b96f9938ff43cd61dddbaa55734",
    "dual --field 2^10 --sets 0,7,1000;3,512,1023 --d 2 --format table":
        "fe7d9dfb3c26a12dbb2cb55c437b132b47cb94710741e516696766d7b7eb0367",
    "dual --field 2^10 --sets 0,7,1000;3,512,1023 --d 2 --format json":
        "473fc7b7b8b5c81fa262b4040cd9d048f97ce2a2f382ac73a7fc64f7d2f79cb0",
    "verify --field 2^10 --sets 0,7,1000;3,512,1023 --d 2 --format table":
        "4f86ba390eb3391a6c08da427ffaa401700ca22262d309c8d4a91f2b0a14a9d1",
    "verify --field 2^10 --sets 0,7,1000;3,512,1023 --d 2 --format json":
        "db234a03cd007a3379ba6812b7905e77359306100a84697d9afe922ae7fca8b9",
    "maxzeros --field 2^10 --sets 0,7,1000;3,512,1023 --d 2 --r 2 --format table":
        "167dc57ec032ca557d30ee832766a412ff7955f4de9f6243e78b7cc468b85720",
    "maxzeros --field 2^10 --sets 0,7,1000;3,512,1023 --d 2 --r 2 --format json":
        "ab4f829742017f4676123ec48911c60480fc7d0f90f62cbbdb57aff811d1bf02",
    "maxzeros --field 2^11 --sets 1,1024;0,5,2047 --d 2 --r 2 --format table":
        "3b9b641090c6378c7741920173cc65761a669c8ae0ac5ff8038efadb6d44c676",
    "maxzeros --field 3^7 --sets 7,8;0,100,2186 --d 1 --r 2 --format table":
        "9c4d83ac698a0aa94f7510c0ab7a5b4c826c162c75562179300a88f81ca9e92c",
    "maxzeros --field 2^11 --sets 1,1024;0,5,2047 --d 2 --r 2 --format json":
        "5f776c63a260ffa02089c963c3f613caff963d0922aff0875f187c703a900140",
    "maxzeros --field 3^7 --sets 7,8;0,100,2186 --d 1 --r 2 --format json":
        "cf516ad04f67a240b33b193b8015ababe7b5cb41b83035beb8ab051938b6cf6e",
    # over the quadratic extensions these coefficients depend on the modulus
    "maxzeros --field 2305843009213693951^1 --sets 5,6,2305843009213693950"
    " --d 2 --r 1 --format table":
        "1a0165d30faf82a43d499ac0a1130e95cc2125b5197fbf605f0b5b31313c0e04",
    "maxzeros --field 2305843009213693951^1 --sets 5,6,2305843009213693950"
    " --d 2 --r 2 --format json":
        "e19dcafc282da86df2b00db404fab3056a22c54de7741e3df27c9d591d22516c",
    "maxzeros --field 2305843009213693951^2"
    " --sets 2305843009213693951,2305843009213693952,4611686018427387905"
    " --d 2 --r 1 --format table":
        "cebac14841a61fa39b2e267e756e22aacfca5b7e98219dd6a0eeea1e7f89e71f",
    "maxzeros --field 2305843009213693951^2"
    " --sets 2305843009213693951,2305843009213693952,4611686018427387905"
    " --d 2 --r 2 --format json":
        "b37ae6df859582b34b66e213172b0c7a3f2ae2c765332b98275e2b2a9d7def96",
    "maxzeros --field 2147483647^2 --sets 2147483647,2147483648,4294967297"
    " --d 2 --r 2 --format table":
        "b71cdbf5f05d8ab11896987d090c3bed13826952ce4c75fc6a02ecf5404861b0",
    "hierarchy --field 4^1 --sets 0,1 --d 1":
        "104b4eba840b9d38b2689e8933f58830870f958c8742d129537a6b4fbebf1dcb",
    "dual --field 2^3 --sets 0,8 --d 1":
        "e8eccf0d01f59760edbfd8ed7dbd251282fccf1e585b37ba08d649caaa31ea33",
    f"hierarchy --field 2^1 --sets {_BITS_12} --d 6 --format table":
        "99cfe062632bfce8ee3936e29b064c471336f7ed41d0463fc522cb51b80cba80",
    f"hierarchy --field 2^1 --sets {_BITS_12} --d 6 --format json":
        "78b09099065d4e90cff4bd474d5695380e2117c80684227fda02d8ddd114b651",
    f"hierarchy --field 2^1 --sets {_BITS_64} --d 1 --format table":
        "c8e2fd240b8c2e75bcde539e78f135d6b26982713d8f125196555ea3c855194e",
    f"hierarchy --field 2^1 --sets {_BITS_64} --d 1 --format json":
        "acf4ebd1314425bb55e94378685d9167a1ce3503f89b3c974c5d305395e75ae0",
    "dual --field 2^1 --sets 0,1 --d 1 --format table":
        "5e3939d75dc27d16ed8ca64e6725f91df80ac62bb294ee7a7c707b666b1b0b34",
    "dual --field 2^1 --sets 0,1 --d 1 --format json":
        "302ef9929001d0a6209e5e3d9f089a9f80c85405870bb4794a7269b9a79d260e",
    # duals whose rank checks take each update of rank: 120 rows over GF(16),
    # 36 rows over GF(9) through the addition table, and the 247 rows of
    # RM(1,8)'s dual, whose pivot columns are sparse
    f"dual --field 2^4 --sets {_GF16_16} --d 15 --format table":
        "07d2ae2f23e9d0c3f238f3e2ad3b31fe508d7e0ca5d0be696b5c7356160d74d4",
    f"dual --field 2^4 --sets {_GF16_16} --d 15 --format json":
        "b150f0a68a8778afa6a74aa7304e38403b8749c96e5f6c1404236f0859717826",
    f"dual --field 3^2 --sets {_GF9_9} --d 8 --format table":
        "0728c368f96a6f69c002b9b5aa897d3bbccf202f4ac178bc279ae195f3b3a7c5",
    f"dual --field 3^2 --sets {_GF9_9} --d 8 --format json":
        "0ac3894efa09ce518cb32b3f00385bac1474a16ec78280a0d298ad1e1961e0bd",
    f"dual --field 2^1 --sets {_BITS_8} --d 1 --format table":
        "efdf9255630c1444b6f1aa3329a2ea5fb6c11b40d8041748fa48d262a42749be",
    f"dual --field 2^1 --sets {_BITS_8} --d 1 --format json":
        "c59fb0c09882006ce99e1792476641b0d52cc82e3b3c6916d05bcd3e45d204bd",
    # the verify benchmark's codes, whose rank-1 subspace sweeps reach rows
    # with more later rows than one oracle chunk spans: [16,10] over GF(4),
    # RM(2,5) and its dual, [12,9] over GF(4) and the [27,10] ternary dual
    "verify --field 2^2 --sets 0,1,2,3;0,1,2,3 --d 3 --format table":
        "fe3fe8d7ffddb7e9c5b75114fd168de7da90b98005f9fcee68eb096ac3265bb8",
    "verify --field 2^2 --sets 0,1,2,3;0,1,2,3 --d 3 --format json":
        "bdc732fa230c0959bc66bb6f6a4541cb57c82820614a1d850c1bb70f2dda0aaf",
    f"verify --field 2^1 --sets {_BITS_5} --d 2 --format table":
        "81499381107e7b195c05c41834b2f03c01c74bf88680c2ad4b912a6145159b25",
    f"verify --field 2^1 --sets {_BITS_5} --d 2 --format json":
        "912f6382bda3d3d2cfa8dad58d1ac411977c19eb29470d619dd163bb0f1e35bb",
    "verify --field 2^2 --sets 0,1,2;0,1,2,3 --d 3 --format table":
        "ab2b9ac1b9cee4ae3e7bc7bc244cec68e6b5f5c995d4bbfadbcab89b93054c40",
    "verify --field 2^2 --sets 0,1,2;0,1,2,3 --d 3 --format json":
        "3279414747e40a4c138eba0cc4cfa1bc53a18369e2a5c64388a354669812a965",
    "verify --field 3^1 --sets 0,1,2;0,1,2;0,1,2 --d 3 --format table":
        "ed0a85d77d22b3c429500cb42549bca930bc5a0dd619c71f8d7a4bbaf05e12a5",
    "verify --field 3^1 --sets 0,1,2;0,1,2;0,1,2 --d 3 --format json":
        "715012ee795bb267d40076b8ed3f1ef34d0301f65715d67e90248948b43cc2fd",
}


def test_outputs_match_recorded_digests(capsys):
    start = time.process_time()
    changed = []
    for text, digest in RECORDED_DIGESTS.items():
        result = run_cli(capsys, *text.split(" "))
        if hashlib.sha256(repr(result).encode()).hexdigest() != digest:
            changed.append(text)
    assert changed == []
    assert time.process_time() - start < 2.0


# sha256 of repr((exit code, stdout, stderr)) with COLUMNS=80: help and usage
# text printed before argparse exits, recorded with one parser holding every
# subcommand
RECORDED_HELP_DIGESTS = {
    "--help":
        "09bc256e8ed7795b9ef8c607786682c07511c3c1ce11ef2c68c9c3d1f9768c9e",
    "-h":
        "09bc256e8ed7795b9ef8c607786682c07511c3c1ce11ef2c68c9c3d1f9768c9e",
    "":
        "c634bb7491dcb4f00ecb289ea2ef3c51ebc2d8aa5016cd38bcbad4e0a7ac0416",
    "frobnicate":
        "ab5a9d372df948274b3ac0106efabdb6a29cf78823477b45c131954ec72feacc",
    "hierarchy --help":
        "0dee89422c2d811901571b1c4422a1c53dbebe1285b0b6b3a58b214d07b18136",
    "dual --help":
        "1200c1d4bb2e986071077ce3422554e53e3edb04ea9eeed5e2ef9a645ed8b8bd",
    "verify --help":
        "b193d53bc3f3b9246e26279c60dc5e017197ff29299b7746ceaa93bb4313eecb",
    "shadow --help":
        "b59452c3628f86c6c458dc11e1a6eaadc2ae8bf3d99fe1cfd154a58026be22f3",
    "footprint --help":
        "aef017523cdf156810ec9c59558310812a6b9d3b17a226c70ae8a84ccf9d524d",
    "maxzeros --help":
        "0cf8bf61ba1133c48fd46d04fd453666a87cbc1dcc59d11c3660981cc3ce424c",
    "dual --field 2 --sets 0,1 --d 1 stray":
        "f1a077df1880887c043223e20c889e0521c0ee0a25b156520ab35782bef51cd6",
}


def run_cli_to_exit(capsys, *argv):
    """run_cli, with the code of an argparse exit in place of a status."""
    try:
        status = main(list(argv))
    except SystemExit as exc:
        status = exc.code
    captured = capsys.readouterr()
    return status, captured.out, captured.err


def test_help_and_usage_match_recorded_digests(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    changed = [text for text, digest in RECORDED_HELP_DIGESTS.items()
               if hashlib.sha256(repr(run_cli_to_exit(capsys, *text.split())).encode())
               .hexdigest() != digest]
    assert changed == []


_SPEC_PAIRS = [("--field", "2^1"), ("--field", "3"), ("--sets", "0,1;0,1"), ("--d", "1"),
               ("--spec-file", "spec.json"), ("--format", "json"), ("--form", "table")]
_GOOD_PAIRS = {  # flags and good values of each subcommand, with abbreviations
    "hierarchy": _SPEC_PAIRS,
    "dual": _SPEC_PAIRS,
    "verify": _SPEC_PAIRS + [("--budget", "0"), ("--bud", "7")],
    "shadow": [("--grid", "2x3"), ("--v", "2"), ("--r", "1"), ("--brute",), ("--budget", "9"),
               ("--format", "json")],
    "footprint": [("--grid", "2x3"), ("--lts", "1,1;0,2"), ("--format", "table")],
    "maxzeros": _SPEC_PAIRS + [("--r", "2")],
}
_FLAGS = ["--field", "--sets", "--d", "--spec-file", "--format", "--budget", "--grid", "--v",
          "--r", "--brute", "--lts", "-h", "--help", "--form", "--bud", "--f", "--s", "--"]
_VALUES = ["2^1", "0,1", "-3", "x", "json", "xml", "1,1", "stray", "hierarchy"]


@st.composite
def cli_argvs(draw):
    """argv lists: a subcommand or not, its flags with good values, and maybe noise."""
    if draw(st.integers(0, 9)) == 0:
        return []
    head = draw(st.sampled_from([*_GOOD_PAIRS, "frobnicate", "hier", "-h", "--help", "--"]))
    good = draw(st.lists(st.sampled_from(_GOOD_PAIRS.get(head, _SPEC_PAIRS)), max_size=6))
    noise = draw(st.lists(st.one_of(st.tuples(st.sampled_from(_FLAGS), st.sampled_from(_VALUES)),
                                    st.tuples(st.sampled_from(_FLAGS + _VALUES))), max_size=2))
    cut = draw(st.integers(0, len(good)))  # noise goes anywhere among the good flags
    return [head, *(token for pair in good[:cut] + noise + good[cut:] for token in pair)]


def _parse_outcome(parse, argv):
    """vars() of the namespace parse(argv) returns, or the exit code, plus the output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(cli_argvs())
def test_one_subcommand_parser_parses_like_the_full_parser(argv):
    assert _parse_outcome(cli._parse_args, argv) == \
        _parse_outcome(lambda a: cli.build_parser().parse_args(a), argv)


def test_a_subcommand_call_builds_no_full_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("built the parser of every subcommand")

    monkeypatch.setattr(cli, "build_parser", refuse)
    spec = ("--field", "2^1", "--sets", "0,1;0,1", "--d", "1")
    for argv in [("hierarchy", *spec), ("dual", *spec, "--format", "json"),
                 ("verify", *spec, "--budget", "100"), ("maxzeros", *spec, "--r", "2"),
                 ("shadow", "--grid", "2x3", "--v", "2", "--r", "1", "--brute"),
                 ("footprint", "--grid", "2x3", "--lts", "1,1")]:
        assert run_cli(capsys, *argv)[0] == 0, argv


# -- decimal writer ----------------------------------------------------------------------

_DTYPE_MAX = {np.int8: 2 ** 7 - 1, np.int16: 2 ** 15 - 1, np.int32: 2 ** 31 - 1,
              np.int64: 2 ** 63 - 1, np.uint8: 2 ** 8 - 1, np.uint16: 2 ** 16 - 1,
              np.uint32: 2 ** 32 - 1, np.uint64: 2 ** 64 - 1, object: 2 ** 70}
_EDGES = [0, 2 ** 63 - 1, *(10 ** j + e for j in range(1, 20) for e in (-1, 0))]


@st.composite
def code_arrays(draw):
    """1-D or 2-D arrays of codes: (0, n), (k, 1) and single rows included."""
    dtype = draw(st.sampled_from(list(_DTYPE_MAX)))
    top = _DTYPE_MAX[dtype]
    low = 2 ** 63 if dtype is object else 0  # object arrays hold codes past int64
    value = st.one_of(st.sampled_from([e for e in _EDGES if low <= e <= top] or [low]),
                      st.integers(low, top), st.integers(0, min(top, 99)))
    shape = draw(st.one_of(st.tuples(st.integers(0, 6)),
                           st.tuples(st.integers(0, 4), st.integers(1, 5)),
                           st.tuples(st.just(0), st.integers(1, 5)),
                           st.tuples(st.integers(1, 4), st.just(1)),
                           st.tuples(st.just(1), st.integers(1, 8))))
    count = int(np.prod(shape))
    return np.array(draw(st.lists(value, min_size=count, max_size=count)),
                    dtype=dtype).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(code_arrays())
def test_decimal_writer_matches_json_and_str(a):
    assert "".join(cli._json_codes(a)) == json.dumps(a.tolist(), separators=(",", ":"))
    rows = a.tolist() if a.ndim == 2 else [a.tolist()]
    assert cli._decimal(a, " ", "\n") == "\n".join(" ".join(map(str, row)) for row in rows)


@st.composite
def increasing_codes(draw):
    """Strictly increasing 1-D arrays, as hierarchies are, whose digit-count
    pieces often start or end on a power of ten."""
    dtype = draw(st.sampled_from(list(_DTYPE_MAX)))
    top = _DTYPE_MAX[dtype]
    low = 2 ** 63 if dtype is object else 0
    value = st.one_of(st.sampled_from([e for e in _EDGES if low <= e <= top] or [low]),
                      st.integers(low, top), st.integers(0, min(top, 999)))
    return np.array(sorted(draw(st.sets(value, max_size=12))), dtype=dtype)


@settings(max_examples=300, deadline=None)
@given(increasing_codes())
def test_block_writer_matches_json_and_str(a):
    assert "".join(cli._json_codes(a)) == json.dumps(a.tolist(), separators=(",", ":"))
    assert cli._decimal(a, " ", "\n") == " ".join(map(str, a.tolist()))


@pytest.mark.parametrize("values, blocks", [
    ([5, 100, 20], False),  # 20 lies in the piece of three-digit codes
    ([100, 5, 20], False),
    ([7, 3, 15, 12], True),  # unsorted, but no digit count falls
])
def test_block_writer_checks_every_piece(values, blocks):
    a = np.array(values, dtype=np.int16)
    text = " ".join(map(str, values))
    assert (cli._digit_blocks(a, len(str(max(values))), " ") == text) is blocks
    assert cli._decimal(a, " ") == text
    assert "".join(cli._json_codes(a)) == json.dumps(values, separators=(",", ":"))


@pytest.mark.parametrize("a", [np.array([3, -1]), np.array([[0, 1], [-10, 2]]),
                               np.array([2 ** 64, -1], dtype=object)])
def test_decimal_writer_rejects_negative_codes(a):
    with pytest.raises(InvariantError, match="negative code"):
        cli._json_codes(a)


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("key", ["hierarchy", "dual_hierarchy"])
def test_output_is_all_or_nothing(capsys, monkeypatch, fmt, key):
    # every piece is built before the first is written, so a weight that has
    # no text stops the call before the lines or keys ahead of it print
    summary = codes.code_summary

    def bad_summary(spec):
        result = summary(spec)
        result[key] = np.array([*result[key], -1])
        return result

    monkeypatch.setattr(codes, "code_summary", bad_summary)
    with pytest.raises(InvariantError, match="negative code -1"):
        main(["hierarchy", "--field", "2^1", "--sets", "0,1;0,1", "--d", "1", "--format", fmt])
    assert capsys.readouterr().out == ""


class _ByteCount:
    """A stdout that keeps only the number of characters written to it."""

    def __init__(self):
        self.count = 0

    def write(self, text):
        self.count += len(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_hierarchy_text_memory_is_bounded_by_its_size(fmt):
    # RM(10,20): 1,048,576 weights in two hierarchies, 7.4 MB of text.  The
    # peak holds the weights (0.57 bytes per character), the first text, and
    # the second text twice (its byte buffer and its str) with two working
    # arrays of its longest digit-count piece: 2.21x (JSON) and 2.19x (table).
    # The offset writer, with the JSON document joined whole, took 2.93x and
    # 2.91x; writing through Python ints per weight took 7.7x and 11.6x.
    argv = ["hierarchy", "--field", "2^1", "--sets", ";".join(["0,1"] * 20), "--d", "10",
            "--format", fmt]
    sink = _ByteCount()
    with contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert sink.count > 7 * 10 ** 6
    assert peak < 2.5 * sink.count, f"peak {peak} bytes for {sink.count} characters"
