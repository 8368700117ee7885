"""Spans around the public functions of the ccodes layers.

`Tracer.install()` replaces each public function of `gf`, `grid`,
`hilbert` and `codes` by a wrapper that times it as a span, and
`uninstall()` puts the originals back.  A function is replaced under
every name that refers to it in a ccodes module other than its own, so a
span marks a call that crosses from one layer into another.  Inside
`codes` its own calls are wrapped too, because `codes` is split into the
sub-layers that the metrics name (evaluation, row reduction, closed forms,
oracles).  Per-element field arithmetic (`FieldElement`) is not wrapped:
it runs millions of times per job and its time counts towards the span
that calls it.  Per-element grid helpers (PER_ELEMENT) are not timed
either, since a span costs two clock reads, each a system call: timed,
the 150 k `mixed_radix_value` calls of a closed_form pass spent more in
the tracer than in grid.  Their calls are counted, at the cost of one
Python call each, and their time counts towards the calling span.

Spans are timed in process CPU time, the clock of the job times (see
run.py), and folded as they close: for each job and span name the tracer
keeps the call count, the total time and the self time, which is the
span's time minus the time of the spans it encloses.  The job itself is
the root span; its self time is the time spent outside every library
span, the `cli` layer.  Self times therefore add up to the job time.
"""

from __future__ import annotations

import collections
import functools
import inspect
import sys
import time
import tracemalloc

# codes functions whose own metrics the benchmark reports; every other
# codes function counts as codes.other.
CODES_GROUPS = {
    "monomial_evaluations": "codes.eval",
    "rref": "codes.rref",
    "rank": "codes.rref",
    "matmul": "codes.matmul",
    "dual_point_weights": "codes.dual_weights",
    "ghw_closed_form": "codes.closed_form",
    "max_common_zeros": "codes.closed_form",
    "hierarchy": "codes.closed_form",
    "dual_hierarchy": "codes.closed_form",
    "code_summary": "codes.closed_form",
    "min_distance_closed_form": "codes.closed_form",
    "wei_duality_check": "codes.closed_form",
    "brute_ghw": "codes.brute_ghw",
    "brute_min_weight": "codes.brute_min_weight",
}

# Grid functions called once per tuple: counted, not timed.
PER_ELEMENT = {"mixed_radix_value"}

# Field lookup tables are cached properties; their builders are spans.
GF_TABLES = ("add_table", "mul_table", "neg_table", "inv_table")

# Arithmetic dunders of library classes count as public methods.
OPERATORS = ("__init__", "__add__", "__sub__", "__neg__", "__mul__", "__repr__")


def gaussian_binomial(n: int, r: int, q: int) -> int:
    """Number of r-dimensional subspaces of GF(q)^n."""
    num = den = 1
    for i in range(r):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _units(name: str, args, counts: dict) -> None:
    """Work units of one successful call, added to counts."""
    if name == "rref":
        matrix = args[0]
        counts["rref_calls"] += 1
        counts["rref_entries"] += len(matrix) * (len(matrix[0]) if len(matrix) else 0)
    elif name == "monomial_evaluations":
        sets, monos = args[1], args[2]
        points = 1
        for s in sets:
            points *= len(s)
        counts["eval_entries"] += len(monos) * points
    elif name == "brute_ghw":
        code, r = args[0], args[1]
        counts["subspaces"] += gaussian_binomial(code.dimension, r, code.field.q)
    elif name == "brute_min_weight":
        code = args[0]
        counts["codewords"] += code.field.q ** code.dimension
    elif name in GF_TABLES:
        counts["tables_built"] += 1


def _ccodes_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if name == "ccodes" or name.startswith("ccodes.")]


def _group(layer: str, name: str) -> str:
    if layer == "codes":
        return CODES_GROUPS.get(name, "codes.other")
    if layer == "gf":
        return "gf.tables" if name in GF_TABLES else "gf.other"
    return layer


def _targets():
    """(group, name, owner, attribute, function) for every span site.

    owner is a module for module-level functions, a class for methods and
    a cached_property for table builders.
    """
    from ccodes import codes, gf, grid, hilbert

    for layer, mod in (("gf", gf), ("grid", grid), ("hilbert", hilbert),
                       ("codes", codes)):
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                yield _group(layer, name), name, mod, name, obj
            if not inspect.isclass(obj) or obj is gf.FieldElement:
                continue
            for attr, member in vars(obj).items():
                if attr in GF_TABLES:
                    yield _group(layer, attr), attr, member, "func", member.func
                elif obj is gf.Field and attr != "__init__":
                    continue  # per-element helpers such as from_int
                elif attr.startswith("_") and attr not in OPERATORS:
                    continue
                elif isinstance(member, classmethod) or inspect.isfunction(member):
                    yield _group(layer, attr), attr, obj, attr, member


class Tracer:
    """Folds spans into per-job statistics while installed."""

    def __init__(self):
        self.jobs: dict = {}    # job label -> {group: [calls, self_ns, total_ns]}
        self.counts = collections.Counter()  # unit name -> work units
        self._job = None
        self._stack: list = []  # time enclosed by children of each open span
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    def _wrap(self, group: str, name: str, fn):
        stack, counts = self._stack, self.counts
        tracer = self

        if name in PER_ELEMENT:
            def counted(*args, **kwargs):
                tracer._job.setdefault(group, [0, 0, 0])[0] += 1
                return fn(*args, **kwargs)

            return functools.update_wrapper(counted, fn)

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = time.process_time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.process_time_ns() - t0
                child = stack.pop()
                stack[-1] += dur
                stats = tracer._job.setdefault(group, [0, 0, 0])
                stats[0] += 1
                stats[1] += dur - child
                stats[2] += dur
            _units(name, args, counts)
            return result

        return functools.update_wrapper(traced, fn)

    def run_job(self, label: str, fn):
        """Run fn() as a root span; returns (result, seconds)."""
        self._job = self.jobs.setdefault(label, {})
        self._stack.append(0)
        t0 = time.process_time_ns()
        try:
            result = fn()
        finally:
            dur = time.process_time_ns() - t0
            child = self._stack.pop()
            stats = self._job.setdefault("cli", [0, 0, 0])
            stats[0] += 1
            stats[1] += dur - child
            stats[2] += dur
        return result, dur / 1e9

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self._install(self._wrap)

    def install_oracle_memory(self, peaks: list) -> None:
        """Wrap only the oracles, recording each call's tracemalloc peak."""

        def wrap(group, name, fn):
            if group not in ("codes.brute_ghw", "codes.brute_min_weight"):
                return None

            def measured(*args, **kwargs):
                tracemalloc.start()
                try:
                    return fn(*args, **kwargs)
                finally:
                    peaks.append(tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()

            return functools.update_wrapper(measured, fn)

        self._install(wrap)

    def _install(self, make) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _ccodes_modules()
        for group, name, owner, attr, fn in _targets():
            if isinstance(fn, classmethod):
                inner = make(group, name, fn.__func__)
                wrapper = classmethod(inner) if inner else None
            else:
                wrapper = make(group, name, fn)
            if wrapper is None:
                continue
            if not inspect.ismodule(owner):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, wrapper)
                continue
            own_layer_too = owner.__name__ == "ccodes.codes"
            for mod in modules:
                if mod is owner and not own_layer_too:
                    continue
                for alias, value in list(vars(mod).items()):
                    if value is fn:
                        self._patches.append((mod, alias, fn))
                        setattr(mod, alias, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
