"""Command-line front end.

Subcommands:
    hierarchy   length, dimension and the full weight hierarchy of a code
    dual        dual generator matrix and dual hierarchy
    verify      closed forms vs exhaustive oracles; nonzero exit on mismatch
    shadow      minimal shadow size of a lex segment, optional brute check
    footprint   upper bound on common zeros from leading terms
    maxzeros    maximal common-zero count and the polynomials attaining it

Code specs are given inline (--field p^e --sets "a,b;c,d,e" --d D) or via
--spec-file pointing at JSON or key=value text with the same three parts.
Exit codes: 0 ok, 1 verification mismatch, 2 parse or validation error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import codes, grid, hilbert
from .errors import BudgetExceededError
from .grid import DEFAULT_BUDGET


def _default_budget() -> int:
    env = os.environ.get("CCODES_BUDGET")
    if env:
        try:
            return int(env)
        except ValueError:
            raise ValueError(f"CCODES_BUDGET must be an integer, got {env!r}") from None
    return DEFAULT_BUDGET


def _load_spec_file(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"spec file {path} must hold an object")
        return data
    except json.JSONDecodeError:
        pass
    data = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        for sep in ("=", ":"):
            if sep in line:
                key, _, value = line.partition(sep)
                data[key.strip()] = value.strip()
                break
        else:
            raise ValueError(f"cannot parse spec file line {line!r}")
    return data


def _spec_file_degree(value) -> int:
    """The d of a spec file: an integer, or a string of one (key=value files)."""
    if not isinstance(value, bool) and isinstance(value, (int, str)):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"spec file d must be an integer, got {value!r}")


def _spec_from_args(args) -> codes.CartesianCodeSpec:
    field_text, sets_text, d = args.field, args.sets, args.d
    if args.spec_file:
        data = _load_spec_file(args.spec_file)
        for key, example in (("field", "2^1"), ("sets", "0,1;0,1,2")):
            if key in data and not isinstance(data[key], str):
                raise ValueError(
                    f"spec file {key} must be a string like {example!r}, got {data[key]!r}")
        field_text = field_text or data.get("field")
        sets_text = sets_text or data.get("sets")
        if d is None and "d" in data:
            d = _spec_file_degree(data["d"])
    if not field_text or not sets_text or d is None:
        raise ValueError("need --field, --sets and --d (inline or via --spec-file)")
    return codes.spec_from_parts(field_text, sets_text, int(d))


def _add_spec_flags(parser):
    parser.add_argument("--field", help="field as p^e, e.g. 2^1 or 3^2")
    parser.add_argument("--sets", help="evaluation sets, e.g. \"0,1;0,1,2\"")
    parser.add_argument("--d", type=int, help="total-degree bound")
    parser.add_argument("--spec-file", help="JSON or key=value file with field/sets/d")


def _add_common_flags(parser):
    parser.add_argument("--format", choices=("table", "json"), default="table")
    parser.add_argument("--budget", type=int, default=None,
                        help="oracle work cap (default 10^7 or $CCODES_BUDGET)")


def _emit(args, payload: dict, table_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, separators=(",", ":")))
    else:
        for line in table_lines:
            print(line)


def _cmd_hierarchy(args) -> int:
    spec = _spec_from_args(args)
    summary = codes.code_summary(spec)
    lines = [
        f"length      {summary['length']}",
        f"dimension   {summary['dimension']}",
        f"degree      {summary['degree']}",
        f"min_distance {summary['min_distance']}",
        "hierarchy   " + " ".join(str(w) for w in summary["hierarchy"]),
        "dual_hierarchy " + " ".join(str(w) for w in summary["dual_hierarchy"]),
    ]
    _emit(args, summary, lines)
    return 0


def _cmd_dual(args) -> int:
    spec = _spec_from_args(args)
    dual = codes.dual_code(spec)
    rows = [[int(x) for x in row] for row in dual.matrix]
    payload = {
        "length": dual.length,
        "dimension": dual.dimension,
        "matrix": rows,
        "hierarchy": list(codes.dual_hierarchy(spec)),
    }
    lines = [f"length    {dual.length}", f"dimension {dual.dimension}", "matrix"]
    lines += ["  " + " ".join(str(x) for x in row) for row in rows]
    lines.append("hierarchy " + " ".join(str(w) for w in payload["hierarchy"]))
    _emit(args, payload, lines)
    return 0


def _check(results, name: str, closed, oracle) -> None:
    results.append((name, closed, oracle))


def _cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    budget = args.budget if args.budget is not None else _default_budget()
    results = []

    code = codes.generator_matrix(spec)
    q = spec.field.q
    for r in range(1, spec.dimension + 1):
        if codes.gaussian_binomial(spec.dimension, r, q) > budget:
            continue
        _check(results, f"ghw r={r}", codes.ghw_closed_form(spec, r),
               codes.brute_ghw(code, r, budget=budget))
    for r in range(1, spec.dimension + 1):
        _check(results, f"ghw+zeros r={r}", codes.ghw_closed_form(spec, r),
               spec.n - codes.max_common_zeros(spec, r))

    if q ** spec.dimension <= budget:
        _check(results, "min_distance", codes.min_distance_closed_form(spec),
               codes.brute_min_weight(code, budget=budget))

    # extremal families attain the closed-form zero counts
    polys = codes.extremal_polynomials(spec, spec.dimension)
    pts = codes.points(spec)
    evals = [[f.evaluate(pt) for pt in pts] for f in polys]
    zero_mask = [True] * spec.n
    for r, row in enumerate(evals, start=1):
        zero_mask = [z and not v for z, v in zip(zero_mask, row)]
        _check(results, f"extremal zeros r={r}", codes.max_common_zeros(spec, r),
               sum(zero_mask))
    enc = [[v.to_int() for v in row] for row in evals]
    _check(results, "extremal rank", spec.dimension, codes.rank(enc, spec.field))

    dual = codes.dual_code(spec)
    _check(results, "dual dimension", spec.n - spec.dimension, dual.dimension)
    if dual.dimension:
        product = codes.matmul(code.matrix, dual.matrix.T, spec.field)
        _check(results, "orthogonality", 0, int(product.max()))
        dh = codes.dual_hierarchy(spec)
        for r in range(1, dual.dimension + 1):
            if codes.gaussian_binomial(dual.dimension, r, q) > budget:
                continue
            _check(results, f"dual ghw r={r}", dh[r - 1],
                   codes.brute_ghw(dual, r, budget=budget))
        report = codes.wei_duality_check(spec)
        _check(results, "wei duality", True, report.ok)

    checks = [{"name": name, "closed": closed, "oracle": oracle, "ok": bool(closed == oracle)}
              for name, closed, oracle in results]
    ok = all(c["ok"] for c in checks)
    lines = [f"{c['name']}: closed={c['closed']} oracle={c['oracle']} "
             f"{'ok' if c['ok'] else 'MISMATCH'}" for c in checks]
    lines.append("VERIFY " + ("OK" if ok else "FAILED"))
    _emit(args, {"checks": checks, "ok": ok}, lines)
    return 0 if ok else 1


def _cmd_shadow(args) -> int:
    shape = grid.GridShape.parse(args.grid)
    budget = args.budget if args.budget is not None else _default_budget()
    value = grid.min_shadow_size(shape, args.v, args.r)
    payload = {"grid": str(shape), "v": args.v, "r": args.r, "min_shadow": value}
    lines = [str(value)]
    status = 0
    if args.brute:
        brute = grid.brute_min_shadow(shape, args.v, args.r, budget=budget)
        payload["brute_min_shadow"] = brute
        lines.append(f"brute {brute}")
        if brute != value:
            lines.append("MISMATCH")
            status = 1
    _emit(args, payload, lines)
    return status


def _cmd_footprint(args) -> int:
    shape = grid.GridShape.parse(args.grid)
    lts = [grid.parse_tuple(part) for part in args.lts.split(";") if part.strip()]
    bound = hilbert.footprint_upper_bound(shape, lts)
    payload = {"grid": str(shape),
               "leading_terms": [list(lt) for lt in lts],
               "bound": bound}
    _emit(args, payload, [str(bound)])
    return 0


def _cmd_maxzeros(args) -> int:
    spec = _spec_from_args(args)
    value = codes.max_common_zeros(spec, args.r)
    polys = codes.extremal_polynomials(spec, args.r)
    payload = {"value": value, "polynomials": [repr(f) for f in polys]}
    lines = [str(value)] + [f"f{i}: {f!r}" for i, f in enumerate(polys, start=1)]
    _emit(args, payload, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ccodes",
        description="Affine Cartesian codes: weight hierarchies, duals, oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("hierarchy", help="weight hierarchy of a code")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser("dual", help="dual generator matrix and hierarchy")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("verify", help="closed forms vs exhaustive oracles")
    _add_spec_flags(p)
    _add_common_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("shadow", help="minimal shadow size of a lex segment")
    p.add_argument("--grid", required=True, help="box dims, e.g. 2x3")
    p.add_argument("--v", type=int, required=True, help="degree bound")
    p.add_argument("--r", type=int, required=True, help="segment size")
    p.add_argument("--brute", action="store_true",
                   help="also exhaust all r-subsets and compare")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_shadow)

    p = sub.add_parser("footprint", help="common-zero bound from leading terms")
    p.add_argument("--grid", required=True, help="box dims, e.g. 2x3")
    p.add_argument("--lts", required=True,
                   help="leading terms, e.g. \"1,1;0,2\"")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_footprint)

    p = sub.add_parser("maxzeros", help="maximal common zeros and attaining family")
    _add_spec_flags(p)
    p.add_argument("--r", type=int, required=True, help="family size")
    _add_common_flags(p)
    p.set_defaults(func=_cmd_maxzeros)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
