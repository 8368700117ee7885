"""Command-line front end.

_COMMANDS holds one row per subcommand (help line, flags, handler), and
ccodes --help lists them.  _parse_args parses a call.

Code specs are given inline (--field p^e --sets "a,b;c,d,e" --d D) or via
--spec-file pointing at JSON or key=value text with the same three parts;
a text line may also read key: value.
Only verify and shadow take --budget, the oracle work cap: a non-negative
integer, 10^7 by default, where 0 runs no oracle.  verify reports a check
whose oracle refuses it as skipped.  hierarchy summarises a dual hierarchy
too long to list by its length and its first and last weights.

Every subcommand prints a table, or with --format json one JSON object.
Hierarchies and dual matrices go to text through _decimal, every other
value through json.dumps or str, and the bytes are those that
json.dumps(..., separators=(",", ":")) and str print.

Exit codes: 0 ok, 1 verification mismatch, 2 parse or validation error.
Exit 2 prints argparse's usage message, or one "error: ..." line for bad
input, never a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import codes
from .errors import InvariantError
from .grid import DEFAULT_BUDGET, GridShape, brute_min_shadow, min_shadow_size, parse_tuple
from .hilbert import footprint_upper_bound, format_polynomials
from .verification import verify


def _budget(text: str) -> int:
    """The --budget value: a non-negative integer."""
    try:
        budget = int(text)
    except ValueError:
        budget = None
    if budget is None or budget < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")
    return budget


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


def _decimal(codes, sep: str, row_sep: str = "") -> str:
    """Decimal text of a 1-D or 2-D array of non-negative integer codes.

    Entries are joined by sep, one character, and the rows of a 2-D array
    by row_sep.  Each entry's slot is the separator before it plus its
    digits, so the running sums of the slot widths end each entry's digits
    in one byte buffer, which is filled with sep first.  The digits are
    written right to left, one numpy pass per digit position, each pass
    over the entries that still have digits left.  The codes left and the
    write positions are held in the narrowest signed types that hold the
    largest code and the text's length; codes of a narrower type, such as
    uint8 matrices, are not copied.  Arrays that int64 cannot hold (dtype
    object for codes past it, uint64) are written with str.
    """
    codes = np.asarray(codes)
    if codes.size and codes.min() < 0:
        raise InvariantError(f"negative code {codes.min()} has no decimal text")
    rows = codes if codes.ndim == 2 else codes.reshape(1, -1)
    if codes.size == 0 or not np.can_cast(codes.dtype, np.int64):
        return row_sep.join(sep.join(map(str, row)) for row in rows.tolist())
    step, rest, top = rows.shape[1], rows.ravel(), int(codes.max())
    narrow = np.min_scalar_type(-top - 1)  # the narrowest signed type that holds top
    if rest.itemsize > narrow.itemsize:
        rest = rest.astype(narrow)
    digits = len(str(top))
    # a signed type that holds the text's length, which bounds every write position
    width = np.min_scalar_type(-rest.size * (digits + len(sep) + len(row_sep)) - 1)
    last = np.full(rest.size, 1 + len(sep), dtype=width)  # slot widths of one digit
    for power in range(1, digits):
        last += rest >= 10 ** power
    last[::step] += len(row_sep) - len(sep)  # a row's first entry follows row_sep
    last[0] -= len(row_sep)
    np.cumsum(last, dtype=width, out=last)  # one past each entry's digits
    text = np.full(last[-1], ord(sep), dtype=np.uint8)
    for i, byte in enumerate(row_sep.encode()):
        text[last[step - 1:-1:step] + i] = byte
    last -= 1
    while last.size:
        quotient = rest // 10
        text[last] = (rest - quotient * 10).astype(np.uint8, copy=False) + ord("0")
        more = quotient > 0
        last, rest = last[more] - 1, quotient[more]
    return str(text.data, "ascii")


def _json_codes(codes) -> str:
    """json.dumps(codes.tolist(), separators=(",", ":")) through _decimal."""
    if codes.ndim == 2:
        return "[[" + _decimal(codes, ",", "],[") + "]]" if len(codes) else "[]"
    return "[" + _decimal(codes, ",") + "]"


def _emit(args, payload: dict, table_lines) -> None:
    """Print payload as JSON, or the lines that table_lines() returns.

    Arrays of codes in payload are written by _json_codes, every other
    value by json.dumps.  The table is built only when it is printed, so
    JSON formats no lines.
    """
    if args.format == "json":
        print("{" + ",".join(
            json.dumps(key) + ":" + (_json_codes(value) if isinstance(value, np.ndarray)
                                     else json.dumps(value, separators=(",", ":")))
            for key, value in payload.items()) + "}")
    else:
        for line in table_lines():
            print(line)


def _cmd_hierarchy(args) -> int:
    spec = _spec_from_args(args)
    summary = codes.code_summary(spec)

    def dual_text():
        if summary["dual_hierarchy"] is None:  # too long to list
            return "{first} ... {last} ({length} weights)".format(
                **summary["dual_hierarchy_summary"])
        return _decimal(summary["dual_hierarchy"], " ")

    _emit(args, summary, lambda: [
        f"length      {summary['length']}",
        f"dimension   {summary['dimension']}",
        f"degree      {summary['degree']}",
        f"min_distance {summary['min_distance']}",
        "hierarchy   " + _decimal(summary["hierarchy"], " "),
        "dual_hierarchy " + dual_text(),
    ])
    return 0


def _cmd_dual(args) -> int:
    spec = _spec_from_args(args)
    dual = codes.dual_code(spec)
    payload = {
        "length": dual.length,
        "dimension": dual.dimension,
        "matrix": dual.matrix,
        "hierarchy": codes.dual_hierarchy_array(spec),
    }
    _emit(args, payload, lambda: [
        f"length    {dual.length}", f"dimension {dual.dimension}", "matrix",
        *(["  " + _decimal(dual.matrix, " ", "\n  ")] if dual.dimension else []),
        "hierarchy " + _decimal(payload["hierarchy"], " "),
    ])
    return 0


def _cmd_verify(args) -> int:
    spec = _spec_from_args(args)
    report = verify(spec, args.budget)
    checks = [{"name": name, "closed": closed, "oracle": oracle, "ok": bool(closed == oracle)}
              for name, closed, oracle in report.checks]
    skipped = [{"name": name, "reason": reason} for name, reason in report.skipped]
    _emit(args, {"checks": checks, "skipped": skipped, "ok": report.ok}, lambda: [
        *(f"{c['name']}: closed={c['closed']} oracle={c['oracle']} "
          f"{'ok' if c['ok'] else 'MISMATCH'}" for c in checks),
        "VERIFY " + ("OK" if report.ok else "FAILED"),
    ])
    if skipped and args.format != "json":
        print(f"verify: skipped {len(skipped)} of {len(skipped) + len(checks)} checks "
              "by their oracles: " + ", ".join(_rank_runs(s["name"] for s in skipped)),
              file=sys.stderr)
    return 0 if report.ok else 1


def _rank_runs(names) -> list:
    """Check names with runs of consecutive ranks joined, as in "ghw r=2..8"."""
    runs = []  # [head, first rank, last rank]; ranks are None for names without one
    for name in names:
        head, sep, rank = name.rpartition(" r=")
        if not sep:
            runs.append([name, None, None])
        elif runs and runs[-1][0] == head and runs[-1][2] == int(rank) - 1:
            runs[-1][2] = int(rank)
        else:
            runs.append([head, int(rank), int(rank)])
    return [head if first is None else f"{head} r={first}" + (f"..{last}" if last > first else "")
            for head, first, last in runs]


def _cmd_shadow(args) -> int:
    shape = GridShape.parse(args.grid)
    value = min_shadow_size(shape, args.v, args.r)
    payload = {"grid": str(shape), "v": args.v, "r": args.r, "min_shadow": value}
    brute = None
    if args.brute:
        brute = brute_min_shadow(shape, args.v, args.r, budget=args.budget)
        payload["brute_min_shadow"] = brute
    mismatch = args.brute and brute != value

    def lines():
        yield str(value)
        if args.brute:
            yield f"brute {brute}"
        if mismatch:
            yield "MISMATCH"

    _emit(args, payload, lines)
    return 1 if mismatch else 0


def _cmd_footprint(args) -> int:
    shape = GridShape.parse(args.grid)
    lts = [parse_tuple(part) for part in args.lts.split(";") if part.strip()]
    bound = footprint_upper_bound(shape, lts)
    payload = {"grid": str(shape),
               "leading_terms": [list(lt) for lt in lts],
               "bound": bound}
    _emit(args, payload, lambda: [str(bound)])
    return 0


def _cmd_maxzeros(args) -> int:
    spec = _spec_from_args(args)
    value = codes.max_common_zeros(spec, args.r)
    polys = format_polynomials(*codes.extremal_family(spec, args.r))
    payload = {"value": value, "polynomials": polys}
    _emit(args, payload, lambda: [str(value)]
          + [f"f{i}: {f}" for i, f in enumerate(polys, start=1)])
    return 0


# A subcommand's flags are (flag, add_argument keywords) pairs, in help order.
_SPEC_FLAGS = (
    ("--field", {"help": "field as p^e, e.g. 2^1 or 3^2"}),
    ("--sets", {"help": "evaluation sets, e.g. \"0,1;0,1,2\""}),
    ("--d", {"type": int, "help": "total-degree bound"}),
    ("--spec-file", {"help": "JSON or key=value file with field/sets/d"}),
)
_FORMAT = (("--format", {"choices": ("table", "json"), "default": "table"}),)
# only the subcommands that run an exhaustive oracle
_BUDGET = (("--budget", {"type": _budget, "default": DEFAULT_BUDGET,
                         "help": "oracle work cap; 0 runs no oracle (default 10^7)"}),)
_GRID = (("--grid", {"required": True, "help": "box dims, e.g. 2x3"}),)

# name -> (help line, flags, handler)
_COMMANDS = {
    "hierarchy": ("weight hierarchy of a code", _SPEC_FLAGS + _FORMAT, _cmd_hierarchy),
    "dual": ("dual generator matrix and hierarchy", _SPEC_FLAGS + _FORMAT, _cmd_dual),
    "verify": ("closed forms vs exhaustive oracles", _SPEC_FLAGS + _FORMAT + _BUDGET,
               _cmd_verify),
    "shadow": ("minimal shadow size of a lex segment", _GRID + (
        ("--v", {"type": int, "required": True, "help": "degree bound"}),
        ("--r", {"type": int, "required": True, "help": "segment size"}),
        ("--brute", {"action": "store_true", "help": "also exhaust all r-subsets and compare"}),
    ) + _FORMAT + _BUDGET, _cmd_shadow),
    "footprint": ("common-zero bound from leading terms", _GRID + (
        ("--lts", {"required": True, "help": "leading terms, e.g. \"1,1;0,2\""}),
    ) + _FORMAT, _cmd_footprint),
    "maxzeros": ("maximal common zeros and attaining family", _SPEC_FLAGS + (
        ("--r", {"type": int, "required": True, "help": "family size"}),
    ) + _FORMAT, _cmd_maxzeros),
}


def _add_command(parser, name: str) -> argparse.ArgumentParser:
    """parser with the flags of _COMMANDS[name], in order, and its handler."""
    _, flags, handler = _COMMANDS[name]
    for flag, keywords in flags:
        parser.add_argument(flag, **keywords)
    parser.set_defaults(command=name, func=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: per row of _COMMANDS, a subparser with its help line and flags."""
    parser = argparse.ArgumentParser(
        prog="ccodes",
        description="Affine Cartesian codes: weight hierarchies, duals, oracles.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in _COMMANDS.items():
        _add_command(sub.add_parser(name, help=help_line), name)
    return parser


def _parse_args(argv):
    """build_parser().parse_args(argv), by one subcommand's parser where it parses alike.

    When argv[0] names a subcommand, only that subcommand's parser is
    built, as prog "ccodes <name>", and its namespace is returned if it
    leaves no argument over.  Otherwise (no subcommand, an unknown one,
    or arguments left over) the full parser parses argv, so every help
    and usage text is the one build_parser prints.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        parser = _add_command(argparse.ArgumentParser(prog=f"ccodes {argv[0]}"), argv[0])
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        return args.func(args)
    # BudgetExceededError is a ValueError; too-large input ends in
    # MemoryError or OverflowError, and exits 2 too: 1 means a mismatch.
    # An error without a message, such as a bare MemoryError(), is named
    # with its subcommand and type instead.
    except (ValueError, OSError, MemoryError, OverflowError) as exc:
        name = type(exc).__name__
        bare = f"out of memory ({name})" if isinstance(exc, MemoryError) else name
        print(f"error: {str(exc) or f'{args.command}: {bare}'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
