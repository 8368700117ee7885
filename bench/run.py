"""Benchmark of ccodes: one workload per process, one closed-loop client.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Runs the workload's job ladder (see ladders.py) in-process, through
`ccodes.cli.main(argv)` with stdout captured or through the library, so
interpreter start-up does not drown the program's own time.  A run is an
untimed warm-up pass, whose outputs are checked in full against
independent computations (checks.py), followed by a fixed number of
timed passes whose outputs must be byte-identical to the warm-up's.  The
number of passes follows from --seconds and a fixed nominal pass time per
workload, never from measured speed, so every commit does the same work.
Before each job the ccodes caches are cleared and garbage is collected,
outside the timer: each job builds its own field tables, as a fresh
`ccodes` process does.

Times are CPU time of this process (time.process_time), not wall time:
on a virtual machine whose host is overcommitted, steal time inflated the
wall time of identical passes by up to 50 % for minutes at a time, while
their CPU time stayed within a few percent.  ccodes is single-threaded
and does no I/O, so its CPU time is its whole cost on an idle machine.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are end to end:

    jobs_per_s      jobs completed / their summed CPU time (timed passes)
    largest_job_ms  median over timed passes of the ladder's largest job
    peak_rss_mb     peak resident memory of this process
    setup_s         median over fresh processes of the CPU time from
                    process start to the first job (imports, ladder)

With --trace 1 untraced and traced passes alternate and the metrics are
per layer, per pass (see spans.py); a per-job breakdown is written to
.bench_out/trace-<workload>-<seed>.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ladders

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# CPU seconds one pass took when the benchmark was written; fixed
# constants that only turn --seconds into a pass count.
NOMINAL_PASS_S = {"closed_form": 1.0, "construct": 1.0, "verify": 0.95}
MIN_PASSES = 3
SETUP_PROBES = 7


def passes_for(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))


def import_ccodes():
    """Import ccodes from this checkout's src/, never from elsewhere."""
    if not (SRC / "ccodes" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'ccodes'} not found; run from a ccodes checkout")
    sys.path.insert(0, str(SRC))
    import ccodes
    from ccodes import cli, codes

    if Path(ccodes.__file__).resolve().parent != SRC / "ccodes":
        sys.exit(f"error: imported ccodes from {ccodes.__file__}, not {SRC}")
    return cli, codes


def clear_ccodes_caches() -> None:
    """Drop every functools cache in ccodes, so field tables are rebuilt."""
    for name, mod in list(sys.modules.items()):
        if name == "ccodes" or name.startswith("ccodes."):
            for value in list(vars(mod).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()


class Runner:
    """Runs jobs, checks their outputs and keeps the first pass's outputs."""

    def __init__(self, cli, codes, jobs):
        self.cli, self.codes, self.jobs = cli, codes, jobs
        self.first: dict = {}     # job index -> output of the warm-up pass
        self.attempted = 0
        self.failed = 0
        self.wrong: list = []     # descriptions of outputs that failed a check
        self.ghw_checked = 0      # GHW ranks the verify oracles covered, per pass

    def _call(self, job):
        """The job itself: what runs inside the timer."""
        if job.kind == "genmat":
            spec = self.codes.spec_from_parts(job.field_text, job.sets_text, job.d)
            return 0, self.codes.generator_matrix(spec).matrix
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                status = self.cli.main(job.argv())
            except SystemExit as exc:
                status = exc.code
        return status, out.getvalue()

    def run(self, index: int, tracer=None) -> float:
        """Run one job; returns its CPU time in seconds."""
        job = self.jobs[index]
        clear_ccodes_caches()
        gc.collect()
        self.attempted += 1
        try:
            if tracer is None:
                t0 = time.process_time()
                status, output = self._call(job)
                seconds = time.process_time() - t0
            else:
                (status, output), seconds = tracer.run_job(
                    f"{index:02d} {job.label}", lambda: self._call(job))
        except Exception as exc:  # a crashing job counts as failed, the run goes on
            print(f"FAILED {job.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            self.failed += 1
            return 0.0
        if status != 0:
            print(f"FAILED {job.label}: exit status {status}", file=sys.stderr)
            self.failed += 1
            return seconds
        key = output.tobytes() + repr((output.shape, output.dtype)).encode() \
            if job.kind == "genmat" else output
        if index not in self.first:
            problems = self._check(job, output)
            self.first[index] = key
        elif key != self.first[index]:
            problems = ["output differs from the first pass"]
        else:
            problems = []
        if problems:
            print(f"WRONG {job.label}: {'; '.join(problems)}", file=sys.stderr)
            self.wrong.append(job.label)
            self.failed += 1
        return seconds

    def _check(self, job, output) -> list:
        import checks

        if job.kind == "hierarchy":
            return checks.check_hierarchy(output, job.dims, job.d)
        if job.kind == "dual":
            return checks.check_dual(output, job.p, job.e, job.sets, job.d)
        if job.kind == "genmat":
            return checks.check_generator(output, job.p, job.e, job.sets, job.d)
        if job.kind == "maxzeros":
            return checks.check_maxzeros(output, job.p, job.e, job.sets, job.d, job.r)
        problems, checked = checks.check_verify(output)
        self.ghw_checked += checked
        return problems

    def run_pass(self, tracer=None) -> list:
        return [self.run(i, tracer) for i in range(len(self.jobs))]


def measure_setup(args) -> float:
    """Median CPU time from process start to the first job, over fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def end_to_end(args, runner: Runner, passes: int) -> dict:
    setup_s = measure_setup(args)
    largest = next(i for i, job in enumerate(runner.jobs) if job.largest)
    runner.run_pass()  # warm-up, checked in full
    failed_before = runner.failed
    times = [runner.run_pass() for _ in range(passes)]
    completed = passes * len(runner.jobs) - (runner.failed - failed_before)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "jobs_per_s": {"value": completed / sum(map(sum, times)), "unit": "1/s"},
        "largest_job_ms": {"value": 1000 * statistics.median(t[largest] for t in times),
                           "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def per_layer(args, runner: Runner, passes: int) -> dict:
    import checks
    import spans

    tracer = spans.Tracer()
    runner.run_pass()  # warm-up, checked in full
    untraced = traced = 0.0
    for _ in range(passes):
        untraced += sum(runner.run_pass())
        tracer.install()
        try:
            traced += sum(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
    peaks: list = []
    tracer.install_oracle_memory(peaks)
    try:
        runner.run_pass()
    finally:
        tracer.uninstall()

    groups: dict = {}
    for stats in tracer.jobs.values():
        for group, (calls, self_ns, _) in stats.items():
            acc = groups.setdefault(group, [0, 0])
            acc[0] += calls
            acc[1] += self_ns
    counts = tracer.counts

    def secs(group):
        return groups.get(group, [0, 0])[1] / 1e9 / passes

    def count(name):
        return counts.get(name, 0) / passes

    def rate(units, group):
        busy_ns = groups.get(group, [0, 0])[1]
        return counts.get(units, 0) / (busy_ns / 1e9) if busy_ns else 0.0

    # GHW ranks of each verified code and of its dual (zero when d = k)
    ghw_total = 0
    for job in runner.jobs:
        if job.kind == "verify":
            K = checks.count_deg_le(job.dims, job.d)
            ghw_total += K + (job.n - K if job.d < sum(s - 1 for s in job.dims) else 0)

    metrics = {
        "gf.tables_s": (secs("gf.tables"), "s"),
        "gf.tables_built": (count("tables_built"), "count"),
        "gf.other_s": (secs("gf.other"), "s"),
        "grid.s": (secs("grid"), "s"),
        "grid.calls": (groups.get("grid", [0])[0] / passes, "count"),
        "hilbert.s": (secs("hilbert"), "s"),
        "hilbert.calls": (groups.get("hilbert", [0])[0] / passes, "count"),
        "codes.eval_s": (secs("codes.eval"), "s"),
        "codes.eval_entries": (count("eval_entries"), "count"),
        "codes.eval_entries_per_s": (rate("eval_entries", "codes.eval"), "1/s"),
        "codes.rref_s": (secs("codes.rref"), "s"),
        "codes.rref_calls": (count("rref_calls"), "count"),
        "codes.rref_entries": (count("rref_entries"), "count"),
        "codes.matmul_s": (secs("codes.matmul"), "s"),
        "codes.dual_weights_s": (secs("codes.dual_weights"), "s"),
        "codes.closed_form_s": (secs("codes.closed_form"), "s"),
        "codes.brute_ghw_s": (secs("codes.brute_ghw"), "s"),
        "codes.subspaces": (count("subspaces"), "count"),
        "codes.subspaces_per_s": (rate("subspaces", "codes.brute_ghw"), "1/s"),
        "codes.brute_min_weight_s": (secs("codes.brute_min_weight"), "s"),
        "codes.codewords": (count("codewords"), "count"),
        "codes.codewords_per_s": (rate("codewords", "codes.brute_min_weight"), "1/s"),
        "codes.oracle_peak_mb": (max(peaks, default=0) / 2 ** 20, "MB"),
        "codes.other_s": (secs("codes.other"), "s"),
        "cli.self_s": (secs("cli"), "s"),
        "cli.ghw_ranks_checked": (runner.ghw_checked, "count"),
        "cli.ghw_ranks_skipped": (ghw_total - runner.ghw_checked, "count"),
        "trace.job_s": (traced / passes, "s"),
        "trace.overhead_s": ((traced - untraced) / passes, "s"),
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{args.workload}-{args.seed}.json"
    trace_file.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "jobs": {label: {group: {"calls": c, "self_s": s / 1e9, "total_s": t / 1e9}
                         for group, (c, s, t) in stats.items()}
                 for label, stats in tracer.jobs.items()},
        "counts": dict(counts),
    }, indent=1))
    print(f"trace written to {trace_file}", file=sys.stderr)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=ladders.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import and build the ladder, print the time, exit")
    args = parser.parse_args()

    cli, codes = import_ccodes()
    jobs = ladders.ladder(args.workload, args.seed)
    if args.setup_probe:
        print(time.process_time())
        return 0

    runner = Runner(cli, codes, jobs)
    passes = passes_for(args.workload, args.seconds)
    if args.trace:  # untraced and traced passes alternate: same length of run
        passes = max(MIN_PASSES, passes // 2)
    metrics = (per_layer if args.trace else end_to_end)(args, runner, passes)
    print(json.dumps({"correct": not runner.wrong, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
