"""The benchmark's workloads: fixed request lists for the floordiagrams CLI.

Each request is one argument vector for ``floordiagrams.cli.main``.  A pass
runs a workload's list once, in an order drawn from the run's seed; the set
of requests, and so the input size, never depends on the seed.

The lists are sized so that one pass takes a few seconds on a 2-core machine
and a run of 25 s completes at least five passes.  That rules out the
heaviest cells (``p2:7`` g=0, ``rect:5,5`` g=0, ``sigma2:4,2`` g=0, the
``p2:6`` pair column and its stuck ``--pairs 8`` request, each 4-16 s); the
census test in ``tests/test_gates.py`` checks their diagram counts and N_7.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

OCTAGON = "{octagon}"
CACHE = "{cache}"

# mixed-slope octagon: the only input with several divergence sequences (19)
OCTAGON_VERTICES = [[1, 0], [3, 0], [4, 1], [4, 2], [3, 3], [1, 3], [0, 2], [0, 1]]


@dataclass(frozen=True)
class Request:
    """One CLI invocation and what the gates need to know to judge it.

    kind is "compute" (exit 0, values), "stuck" (exit 2 with the blocking
    polygon named), "appendix" or "verify".  polygon, genus and pairs repeat
    the compute arguments so the gates can name every cell the output must
    hold.  cached requests run against the workload's cache file.
    """

    kind: str
    argv: tuple[str, ...]
    polygon: str = ""
    genus: str = "0"
    pairs: str = "0"
    emit: str = "text"
    cached: bool = False

    def label(self) -> str:
        return " ".join(self.argv)

    def resolve(self, octagon_path: str, cache_path: str) -> tuple[str, ...]:
        argv = self.argv
        if self.cached:
            argv = ("--cache", CACHE) + argv
        subst = {OCTAGON: octagon_path, CACHE: cache_path}
        return tuple(subst.get(a, a) for a in argv)


def compute(polygon, genus="0", pairs="0", emit="text", kind="compute"):
    where = ("--polygon-file", OCTAGON) if polygon == "octagon" else ("--polygon", polygon)
    argv = ("compute",) + where + ("--genus", genus, "--pairs", pairs, "--emit", emit)
    return Request(kind, argv, polygon, genus, pairs, emit)


def stuck(polygon, pairs):
    return compute(polygon, pairs=pairs, kind="stuck")


def appendix(emit="text"):
    return Request("appendix", ("appendix", "--emit", emit), emit=emit)


def verify(suite, emit="text"):
    return Request("verify", ("verify", "--suite", suite, "--emit", emit), emit=emit)


def cached(requests):
    return tuple(replace(r, cached=True) for r in requests)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    requests: tuple[Request, ...]
    populate: tuple[Request, ...] = ()

    def pass_order(self, seed: int) -> tuple[Request, ...]:
        """The pass's requests in the order the seed draws."""
        order = list(self.requests)
        random.Random(seed).shuffle(order)
        return tuple(order)


PLANE_GENUS = Workload(
    "plane-genus",
    "P2 triangles: few unit ends, many elevators at higher genus, so "
    "enumeration and multiplicity/Laurent arithmetic carry their largest shares",
    (
        # as many requests below the 45-55 ms block of p2:5 g=1, 2 as above
        # it, so the median falls inside that block and p80 between the two
        # range requests, away from jumps between classes
        compute("p2:6", "0"),
        compute("p2:6", "4", emit="json"),
        compute("p2:5", "0..6", emit="json"),
        compute("p2:5", "0..6"),
        compute("p2:5", "0"),
        compute("p2:5", "1", emit="json"),
        compute("p2:5", "1", emit="csv"),
        compute("p2:5", "2", emit="csv"),
        compute("p2:5", "2"),
        compute("p2:5", "3"),
        compute("p2:5", "4", emit="json"),
        compute("p2:4", "0"),
    ),
)

WIDE_ENDS = Workload(
    "wide-ends",
    "unit ends on both sides give wide antichains, so the marking subset DP "
    "dominates; the octagon is the only input with several divergence sequences",
    (
        compute("rect:4,4", "0"),
        compute("rect:4,4", "1", emit="json"),
        compute("rect:4,4", "2", emit="csv"),
        compute("rect:4,4", "3"),
        compute("rect:3,5", "2"),
        compute("sigma2:3,3", "0", emit="json"),
        compute("sigma2:4,0", "1"),
        compute("sigma2:3,2", "0"),
        compute("octagon", "0"),
        compute("octagon", "3", emit="csv"),
        compute("octagon", "0..3", emit="json"),
        compute("rect:4,3", "0..2", emit="json"),
        compute("sigma2:3,1", "0..2"),
    ),
)

PAIR_COLUMNS = Workload(
    "pair-columns",
    "pair columns, stuck cells with their unmemoized traces, appendix and "
    "verify: the recursion, memo table and corner cuts do the work",
    (
        compute("rect:2,4", pairs="0..5"),
        # 19 requests: the median falls inside the block of 25-35 ms requests
        # and p80 among the 90-180 ms ones, away from jumps between classes
        compute("p2:5", pairs="0..3", emit="json"),
        compute("p2:5", pairs="0..3", emit="csv"),
        compute("sigma2:2,2", pairs="0..5", emit="csv"),
        compute("p2:4", pairs="0..5"),
        compute("rect:2,5", pairs="0..6", emit="json"),
        compute("rect:2,3", pairs="0..4"),
        compute("sigma2:2,1", pairs="0..4", emit="csv"),
        compute("sigma2:2,0", pairs="0..3"),
        compute("rect:2,2", pairs="0..3", emit="json"),
        compute("rect:3,3", pairs="0..2"),
        stuck("rect:3,3", "3"),
        stuck("rect:3,3", "0..4"),
        stuck("sigma2:3,0", "0..3"),
        # same stuck path and doubling trace as p2:6 --pairs 8, at 1/25 the time
        stuck("p2:5", "0..7"),
        stuck("rect:3,4", "0..6"),
        stuck("sigma2:3,1", "0..6"),
        appendix(),
        verify("all"),
    ),
)

_HITS = cached(
    (
        compute("rect:2,4", pairs="0..5"),
        compute("p2:5", pairs="0..3", emit="json"),
        compute("sigma2:2,2", pairs="0..5", emit="csv"),
        compute("p2:4", pairs="0..5", emit="json"),
        compute("rect:2,5", pairs="0..6"),
        compute("sigma2:2,1", pairs="0..4", emit="json"),
        compute("p2:4", "0..3", emit="csv"),
        compute("rect:3,3", "0..4"),
        compute("rect:2,4", "0..3", emit="json"),
        compute("p2:5", "0"),
        appendix(),
        appendix("json"),
        verify("all"),
        stuck("rect:3,3", "3"),
    )
)

# cells that the set-up never writes: each computes and appends one record
_MISSES = cached(
    (
        compute("rect:2,3", "1"),
        compute("rect:3,2", "1", emit="json"),
        compute("sigma2:2,1", "1"),
        compute("p2:3", "1", emit="csv"),
        compute("rect:2,5", "1"),
        compute("sigma2:2,3", "1", emit="json"),
        compute("sigma2:2,1", "2"),
        compute("sigma2:2,4", "1", emit="csv"),
        compute("rect:2,3", "2"),
        compute("sigma2:3,1", "1"),
    )
)

WARM_CACHE = Workload(
    "warm-cache",
    "hundreds of small --cache requests, 98 of every 108 served from the "
    "cache: cache load, fixtures and output emission set the latency",
    _HITS * 7 + _MISSES,
    populate=cached(
        (
            appendix(),
            verify("all"),
            compute("rect:2,4", pairs="0..5"),
            compute("p2:5", pairs="0..3"),
            compute("sigma2:2,2", pairs="0..5"),
            compute("p2:4", pairs="0..5"),
            compute("rect:2,5", pairs="0..6"),
            compute("sigma2:2,1", pairs="0..4"),
            compute("p2:4", "0..3"),
            compute("rect:2,4", "0..3"),
        )
    ),
)

WORKLOADS = {w.name: w for w in (PLANE_GENUS, WIDE_ENDS, PAIR_COLUMNS, WARM_CACHE)}
