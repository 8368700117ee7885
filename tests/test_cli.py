"""Command-line interface behavior and output stability."""

import json
import time

import pytest

from ccodes import cli, codes, verify
from ccodes.cli import main


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
    assert code_summary(spec) == payload


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
