"""Floor diagrams on h-transverse polygons and their refined curve counts.

A floor diagram has one floor per unit of polygon height, bounded weighted
elevators between floors (always upward, possibly skipping floors), and
unit-weight ends entering from below or leaving above.  Genus-g diagrams have
exactly g + height - 1 bounded elevators and must be connected.

Every floor also carries one left and one right unbounded end whose vertical
slopes are dictated by the boundary of the polygon.  The slope multisets get
distributed over the floors in every possible order, and each assignment
fixes the divergence (net downward elevator flow) of each floor.  When the
boundary slopes are constant the assignment is unique and the divergences are
just the width differences of consecutive rows, but polygons with mixed
boundary slopes admit several assignments and each contributes diagrams.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from math import factorial

from .laurent import LaurentPoly, quantum_integer
from .polygon import is_degenerate


class DiagramError(ValueError):
    pass


@dataclass(frozen=True, order=True)
class FloorDiagram:
    """One floor diagram; floors are numbered 1..floors bottom to top.

    elevators holds (lower floor, upper floor, weight) triples, sorted;
    bottom_ends[k] and top_ends[k] count the unit ends attached below/above
    floor k+1.  divergences[k] is the assigned net downward flow of floor
    k+1, and assignments counts how many distinct left/right slope
    assignments produce that divergence sequence; the diagram contributes
    assignments * markings * multiplicity to the invariant.
    """

    floors: int
    elevators: tuple[tuple[int, int, int], ...]
    bottom_ends: tuple[int, ...]
    top_ends: tuple[int, ...]
    divergences: tuple[int, ...] = ()
    assignments: int = 1

    @property
    def genus(self) -> int:
        return len(self.elevators) - self.floors + 1

    def element_count(self) -> int:
        return (
            self.floors
            + len(self.elevators)
            + sum(self.bottom_ends)
            + sum(self.top_ends)
        )

    def is_connected(self) -> bool:
        parent = list(range(self.floors + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j, _ in self.elevators:
            parent[find(i)] = find(j)
        return len({find(f) for f in range(1, self.floors + 1)}) == 1

    def refined_multiplicity(self) -> LaurentPoly:
        """Product of squared quantum integers over the elevator weights."""
        out = LaurentPoly.one()
        for _, _, w in self.elevators:
            out = out * quantum_integer(w) ** 2
        return out

    def automorphism_size(self) -> int:
        size = 1
        for mult in Counter(self.elevators).values():
            size *= factorial(mult)
        for count in self.bottom_ends:
            size *= factorial(count)
        for count in self.top_ends:
            size *= factorial(count)
        return size

    def marking_count(self) -> int:
        """Number of markings: linear extensions of the diagram order, divided
        by the automorphisms permuting identical elevators and identical ends.

        Every relation involves a floor and the floors form a chain, so an
        extension is the floors in order with every other element in one gap
        of its range; gap k lies just above floor k, for k = 0..h.  The range
        is i..j-1 for an elevator (i, j), 0..f-1 for a bottom end and f..h for
        a top end at floor f.  A walk up the gaps, memoized on the gap and the
        waiting elements counted by last gap, places one waiting element or
        steps past the next floor once none must go before it.
        """
        h = self.floors
        # opens[k][m]: elements whose range is gaps k..m
        opens = [[0] * (h + 1) for _ in range(h + 1)]
        for f, count in enumerate(self.bottom_ends):
            opens[0][f] += count
        for f, count in enumerate(self.top_ends, start=1):
            opens[f][h] += count
        for i, j, _ in self.elevators:
            opens[i][j - 1] += 1

        @cache
        def walk(k: int, waiting: tuple[int, ...]) -> int:
            if k == h and not any(waiting):
                return 1
            total = 0
            for m, c in enumerate(waiting):
                if c:
                    total += c * walk(k, waiting[:m] + (c - 1,) + waiting[m + 1 :])
            if k < h and not waiting[k]:
                total += walk(k + 1, tuple(a + b for a, b in zip(waiting, opens[k + 1])))
            return total

        count = walk(0, tuple(opens[0]))
        q, r = divmod(count, self.automorphism_size())
        if r:
            raise DiagramError(
                f"{count} linear extensions are not a multiple of the "
                f"{self.automorphism_size()} automorphisms"
            )
        return q


def _outgoing_combinations(total: int, source: int, top: int, max_count: int):
    """Multisets of (source, target, weight) elevators with the given total weight."""
    if total == 0:
        yield ()
        return
    acc: list[tuple[int, int, int]] = []

    def rec(remaining: int, slots: int, min_target: int, min_weight: int):
        if remaining == 0:
            yield tuple(acc)
            return
        if slots == 0:
            return
        for target in range(min_target, top + 1):
            w_lo = min_weight if target == min_target else 1
            for weight in range(w_lo, remaining + 1):
                acc.append((source, target, weight))
                yield from rec(remaining - weight, slots - 1, target, weight)
                acc.pop()

    yield from rec(total, max_count, source + 1, 1)


def _distinct_orders(values):
    """Distinct orderings of a multiset, as tuples."""
    counts = Counter(values)
    n = len(values)
    acc: list[int] = []

    def rec():
        if len(acc) == n:
            yield tuple(acc)
            return
        for v in sorted(counts):
            if counts[v]:
                counts[v] -= 1
                acc.append(v)
                yield from rec()
                acc.pop()
                counts[v] += 1

    yield from rec()


def divergence_sequences(polygon) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Floor divergence sequences with their slope-assignment counts.

    Pairs one left and one right boundary slope per floor, in every distinct
    order, and records the resulting per-floor divergence sequence together
    with how many assignments produce it.
    """
    left, right = polygon.end_slopes()
    combos: Counter = Counter()
    for aseq in _distinct_orders(left):
        for bseq in _distinct_orders(right):
            combos[tuple(a + b for a, b in zip(aseq, bseq))] += 1
    return tuple(sorted(combos.items()))


def enumerate_diagrams(polygon, genus: int) -> tuple[FloorDiagram, ...]:
    """All genus-g floor diagrams on the polygon, in a deterministic order."""
    if is_degenerate(polygon):
        return ()
    if genus < 0:
        raise DiagramError("genus must be >= 0")
    profile = polygon.floor_profile()
    h = profile.height
    n_elev = genus + h - 1
    found: list[FloorDiagram] = []

    def extend(div, weight, k, bot_left, top_left, incoming, bots, tops, elevs):
        in_k = incoming[k]
        if k == h:
            if len(elevs) != n_elev:
                return
            if bot_left + in_k - top_left != div[k - 1]:
                return
            dia = FloorDiagram(
                h,
                tuple(sorted(elevs)),
                tuple(bots + [bot_left]),
                tuple(tops + [top_left]),
                div,
                weight,
            )
            if dia.is_connected():
                found.append(dia)
            return
        for bot_k in range(bot_left + 1):
            for top_k in range(top_left + 1):
                out_k = bot_k + in_k - top_k - div[k - 1]
                if out_k < 0:
                    continue
                room = n_elev - len(elevs)
                for combo in _outgoing_combinations(out_k, k, h, room):
                    for _, j, w in combo:
                        incoming[j] += w
                    extend(
                        div,
                        weight,
                        k + 1,
                        bot_left - bot_k,
                        top_left - top_k,
                        incoming,
                        bots + [bot_k],
                        tops + [top_k],
                        elevs + list(combo),
                    )
                    for _, j, w in combo:
                        incoming[j] -= w

    for div, weight in divergence_sequences(polygon):
        extend(
            div, weight, 1, profile.d_bottom, profile.d_top, [0] * (h + 1), [], [], []
        )
    found.sort()
    return tuple(found)


def refined_invariant(polygon, genus: int) -> LaurentPoly:
    """Refined genus-g count: sum of multiplicity times markings over diagrams."""
    if is_degenerate(polygon):
        return LaurentPoly.zero()
    total = LaurentPoly.zero()
    for dia in enumerate_diagrams(polygon, genus):
        total = total + dia.refined_multiplicity() * (
            dia.marking_count() * dia.assignments
        )
    return total
