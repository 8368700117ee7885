"""Job ladders of the three benchmark workloads, generated from a seed.

A job is one call into ccodes: a CLI subcommand run in-process, or one
library call.  The seed picks which field elements form each evaluation
set (and in which order) and, for `maxzeros`, the queried rank within a
narrow band.  Sizes, degrees and fields are fixed, so every seed costs
the program the same work up to a few percent on the small `maxzeros`
jobs.

This module imports neither ccodes nor numpy: generating a ladder is part
of the measured set-up time.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("closed_form", "construct", "verify")

# ccodes' default oracle budget (grid.DEFAULT_BUDGET), passed to every
# verify job so that CCODES_BUDGET in the environment cannot change the work.
VERIFY_BUDGET = 10_000_000


@dataclass(frozen=True)
class Job:
    """One benchmark job.

    kind is a CLI subcommand ("hierarchy", "maxzeros", "dual", "verify")
    or "genmat" for a direct `codes.generator_matrix` call.  sets holds
    integer element codes, as the CLI serializes them.
    """

    kind: str
    p: int
    e: int
    sets: tuple
    d: int
    r: int = 0
    largest: bool = False

    @property
    def q(self) -> int:
        return self.p ** self.e

    @property
    def field_text(self) -> str:
        return f"{self.p}^{self.e}"

    @property
    def sets_text(self) -> str:
        return ";".join(",".join(str(x) for x in s) for s in self.sets)

    @property
    def dims(self) -> tuple:
        return tuple(len(s) for s in self.sets)

    @property
    def n(self) -> int:
        return math.prod(self.dims)

    @property
    def label(self) -> str:
        grid = "x".join(str(x) for x in self.dims)
        rank = f" r={self.r}" if self.r else ""
        return f"{self.kind} {grid}/GF({self.q}) d={self.d}{rank}"

    def argv(self) -> list:
        """Arguments for `ccodes.cli.main`; genmat jobs have none."""
        args = {
            "hierarchy": ["hierarchy", "--format", "json"],
            "maxzeros": ["maxzeros", "--r", str(self.r), "--format", "json"],
            "dual": ["dual", "--format", "json"],
            "verify": ["verify", "--budget", str(VERIFY_BUDGET)],
        }[self.kind]
        return args + ["--field", self.field_text, "--sets", self.sets_text,
                       "--d", str(self.d)]


def _sets(rng: random.Random, q: int, sizes) -> tuple:
    """Distinct elements of GF(q) for each set, in seed-chosen order."""
    return tuple(tuple(rng.sample(range(q), size)) for size in sizes)


def _closed_form(rng: random.Random) -> list:
    binary = [(16, 4), (15, 5), (14, 3), (13, 6), (12, 2)]
    jobs = [Job("hierarchy", 2, 1, _sets(rng, 2, [2] * m), d, largest=(m == 16))
            for m, d in binary]
    jobs += [
        Job("hierarchy", 7, 1, _sets(rng, 7, [7] * 5), 12),
        Job("hierarchy", 2, 3, _sets(rng, 8, [8] * 4), 14),
        Job("hierarchy", 3, 2, _sets(rng, 9, [3, 4, 6, 8, 9]), 11),
    ]
    for p, m, d, base in ((5, 4, 6, 40), (7, 4, 9, 60), (11, 3, 12, 50)):
        r = base + rng.randrange(5)
        jobs.append(Job("maxzeros", p, 1, _sets(rng, p, [p] * m), d, r))
    return jobs


def _construct(rng: random.Random) -> list:
    jobs = []
    for p, e, dims, d in ((2, 3, (8, 8), 7), (3, 2, (9, 9), 8),
                          (2, 2, (4, 4, 4), 4), (2, 6, (4, 4), 3)):
        sets = _sets(rng, p ** e, dims)
        jobs.append(Job("dual", p, e, sets, d))
        jobs.append(Job("genmat", p, e, sets, d))
    sets = _sets(rng, 16, (16, 16))
    jobs.append(Job("dual", 2, 4, sets, 15, largest=True))
    jobs.append(Job("genmat", 2, 4, sets, 10))
    return jobs


def _verify(rng: random.Random) -> list:
    return [
        Job("verify", 2, 2, _sets(rng, 4, (4, 4)), 2),
        Job("verify", 2, 2, _sets(rng, 4, (4, 4)), 3, largest=True),
        Job("verify", 2, 1, _sets(rng, 2, (2,) * 5), 2),
        Job("verify", 3, 1, _sets(rng, 3, (3, 3, 3)), 3),
        Job("verify", 2, 2, _sets(rng, 4, (3, 4)), 3),
    ]


def ladder(workload: str, seed: int) -> list:
    """The job ladder of one workload; the same seed gives the same jobs."""
    build = {"closed_form": _closed_form, "construct": _construct,
             "verify": _verify}[workload]
    jobs = build(random.Random(f"{workload}:{seed}"))
    if sum(job.largest for job in jobs) != 1:
        raise RuntimeError(f"{workload} ladder must mark exactly one largest job")
    return jobs
