"""Floor diagrams on h-transverse polygons and their refined curve counts.

A floor diagram has one floor per unit of polygon height, bounded weighted
elevators between floors (always upward, possibly skipping floors), and
unit-weight ends entering from below or leaving above.  Genus-g diagrams have
exactly g + height - 1 bounded elevators and must be connected.

Every floor also carries one left and one right unbounded end, whose
vertical slopes the polygon's boundary dictates.  Each order of the slope
multisets over the floors fixes every floor's divergence (net downward
elevator flow).  Constant boundary slopes give one order, whose divergences
are the width differences of consecutive rows; mixed slopes give several.

refined_invariants sums multiplicity times markings by a transfer walk that
never builds a diagram; enumerate_diagrams, marking_count and diagram_sum give
the same sum diagram by diagram, for --list-diagrams and the tests.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import product
from math import comb, factorial

from .laurent import LaurentPoly, mul_add, quantum_square

# tallest polygon accepted: not for the transfer walk (README times it), but
# enumerate_diagrams builds every diagram, 2.3 times more per row of rect:2,h.
MAX_HEIGHT = 64


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
        return self.floors + len(self.elevators) + sum(self.bottom_ends) + sum(self.top_ends)

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
            out = out * quantum_square(w)
        return out

    def marking_count(self) -> int:
        """Number of markings: linear extensions of the diagram order, divided
        by the automorphisms permuting identical elevators and identical ends.

        Every relation involves a floor and the floors form a chain, so an
        extension is the floors in order with every other element in one gap
        of its range; gap k lies just above floor k, for k = 0..h.  The range
        is i..j-1 for an elevator (i, j), 0..f-1 for a bottom end and f..h for
        a top end at floor f.  A marking forgets the order of identical
        elements, so a loop up the gaps counts the ways to reach each tally
        of what is left of the kinds open there: the bottom ends of one
        floor, the top ends of one floor, identical elevators.  Gap k takes a
        of each open kind, all that is left of a kind whose range ends at k,
        in (sum a)!/prod a! orders.
        """
        h = self.floors
        kinds = sorted(  # (first gap, last gap, count) of each kind
            [(0, f - 1, c) for f, c in enumerate(self.bottom_ends, start=1) if c]
            + [(f, h, c) for f, c in enumerate(self.top_ends, start=1) if c]
            + [(i, j - 1, c) for (i, j, _), c in Counter(self.elevators).items()])
        states = {tuple(c for first, _, c in kinds if first == 0): 1}
        for k in range(h + 1):
            lasts = [last for first, last, _ in kinds if first <= k <= last]
            opening = tuple(c for first, _, c in kinds if first == k + 1)
            out = {}
            for left, ways in states.items():
                rows = [((), 0, ways)]  # what is left after gap k, placed in it, ways
                for last, c in zip(lasts, left):
                    if last == k:
                        rows = [(rest, n + c, w * comb(n + c, c)) for rest, n, w in rows]
                    else:
                        rows = [(rest + (c - a,), n + a, w * comb(n + a, a))
                                for rest, n, w in rows for a in range(c + 1)]
                for rest, _, w in rows:
                    rest += opening
                    out[rest] = out.get(rest, 0) + w
            states = out
        return states[()]  # every range ends by gap h


def _outgoing_combinations(total: int, source: int, top: int, max_count: int, least=(0, 0)):
    """Multisets of at most max_count (source, target, weight) elevators with
    the given total weight, as tuples sorted by (target, weight) from least up."""
    if total == 0:
        yield ()
        return
    if max_count == 0:
        return
    for target in range(max(source + 1, least[0]), top + 1):
        for weight in range(1, total + 1):
            if (target, weight) >= least:
                for rest in _outgoing_combinations(
                    total - weight, source, top, max_count - 1, (target, weight)
                ):
                    yield ((source, target, weight),) + rest


def divergence_sequences(polygon) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Floor divergence sequences with their slope-assignment counts: one
    left and one right boundary slope per floor, in every distinct order,
    one move of the walk's slope-move table per floor."""
    moves = _slope_moves(polygon.end_slopes())
    paths = {((), 0): 1}  # (divergences so far, id of the slopes left): orders
    for _ in range(polygon.height):
        step: Counter = Counter()
        for (seq, i), count in paths.items():
            for divergence, j in moves[i][1]:
                step[seq + (divergence,), j] += count
        paths = step
    return tuple(sorted((seq, count) for (seq, _), count in paths.items()))


def enumerate_diagrams(polygon, genus: int) -> tuple[FloorDiagram, ...]:
    """All genus-g floor diagrams on the polygon, sorted.

    For each divergence sequence a walk up the floors gives floor k its
    bottom ends, top ends and outgoing elevators so that its flow balances;
    the top floor takes the ends that are left.  A branch stops as soon as it
    cannot connect: when a floor below the top has no elevator, or when no
    elevator crosses above the floor just placed.
    """
    if genus < 0:
        raise DiagramError("genus must be >= 0")
    if polygon.height > MAX_HEIGHT:
        raise DiagramError(f"height {polygon.height} is above the bound of {MAX_HEIGHT}")
    widths = polygon.floor_profile()
    h = len(widths) - 1
    n_elev = genus + h - 1

    def extend(div, k, bot_left, top_left, incoming, bots, tops, elevs):
        """(elevators, bottom ends, top ends) of each completion from floor k up."""
        in_k = incoming[k]
        if k == h:
            if len(elevs) == n_elev and bot_left + in_k - top_left == div[k - 1]:
                yield elevs, bots + (bot_left,), tops + (top_left,)
            return
        for bot_k in range(bot_left + 1):
            for top_k in range(top_left + 1):
                out_k = bot_k + in_k - top_k - div[k - 1]
                if out_k < 0 or not (in_k or out_k):
                    continue
                for combo in _outgoing_combinations(out_k, k, h, n_elev - len(elevs)):
                    above = incoming.copy()
                    for _, j, w in combo:
                        above[j] += w
                    if any(above[k + 1 :]):
                        yield from extend(
                            div, k + 1, bot_left - bot_k, top_left - top_k, above,
                            bots + (bot_k,), tops + (top_k,), elevs + combo,
                        )

    found = []
    for div, weight in divergence_sequences(polygon):
        walk = extend(div, 1, widths[0], widths[-1], [0] * (h + 1), (), (), ())
        for elevs, bots, tops in walk:
            dia = FloorDiagram(h, tuple(sorted(elevs)), bots, tops, div, weight)
            if dia.is_connected():
                found.append(dia)
    return tuple(sorted(found))


def diagram_terms(polygon, genus: int) -> tuple[tuple[FloorDiagram, LaurentPoly, int], ...]:
    """(diagram, refined multiplicity, marking count) for every genus-g diagram."""
    return tuple(
        (dia, dia.refined_multiplicity(), dia.marking_count())
        for dia in enumerate_diagrams(polygon, genus)
    )


def diagram_sum(terms) -> LaurentPoly:
    """Sum of multiplicity times markings times slope assignments over the terms."""
    total = LaurentPoly.zero()
    for dia, multiplicity, markings in terms:
        total = total + multiplicity * (markings * dia.assignments)
    return total


_ONE = ((0, 1),)


@cache
def _emissions(flow: int, most: int, labelled: int, K: int = 1, least: int = 1) -> tuple:
    """(weight counts, elevator count, factor) for every multiset of at most
    `most` elevator weights, each >= least, that sum to flow.  The factor is
    the product of [w]^2, as (exponent times K, coefficient) pairs, times the
    (labelled + n)!/(labelled! prod c!) ways to label the n new elevators."""
    if flow == 0:
        return (((), 0, _ONE),)
    out = []
    for w in range(least, flow + 1):
        square, power = [(e * K, c) for e, c in quantum_square(w).to_coeff_dict().items()], _ONE
        for k in range(1, min(most, flow // w) + 1):
            power = tuple(mul_add(dict(power), square, 1, {}).items())
            for counts, n, mult in _emissions(flow - k * w, most - k, labelled, K, w + 1):
                mult = mul_add(dict(mult), power, comb(labelled + n + k, k), {})
                out.append((((w, k),) + counts, n + k, tuple(mult.items())))
    return tuple(out)


def _tally(items, merged=(), label=0) -> tuple:
    """Sorted counts of the items, every component in merged renamed label."""
    out = {}
    for (w, comp), c in items:
        key = (w, label if comp in merged else comp)
        out[key] = out.get(key, 0) + c
    return tuple(sorted(out.items()))


@cache
def _slope_moves(end_slopes: tuple) -> tuple:
    """The walk's slope-move table: entry i holds, for the i-th multiset of
    slopes still to assign (0 the end slopes'), its least left plus least
    right slope and (a + b, next id) for each distinct left a and right b."""
    def choices(xs):  # (x, the other slopes) for each distinct slope x in xs
        return [(x, xs[:i] + xs[i + 1 :]) for i, x in enumerate(xs) if x not in xs[:i]]

    order, table, ids = [end_slopes], [], {end_slopes: 0}
    for lefts, rights in order:  # grows as new multisets turn up
        moves = []
        for (a, lrest), (b, rrest) in product(choices(lefts), choices(rights)):
            rest = (lrest, rrest)
            if rest not in ids:
                ids[rest] = len(order)
                order.append(rest)
            moves.append((a + b, ids[rest]))
        table.append((min(lefts) + min(rights) if lefts else 0, tuple(moves)))
    return tuple(table)


def _subsets(items) -> list:
    """(ways, weight, taken, left) for each sub-multiset of the counted
    (weight, component) classes, taking a of each class's c in prod C(c, a)
    ways; weight is its total, taken and left count the classes taken and
    the rest, in the items' order."""
    rows = [(1, 0, (), ())]
    for kind, c in items:  # extended by each count a of the class in turn
        rows = [(ways * comb(c, a), weight + a * kind[0], taken + ((kind, a),) if a else taken,
                 left + ((kind, c - a),) if a < c else left)
                for ways, weight, taken, left in rows for a in range(c + 1)]
    return rows


@cache
def _gap_picks(unplaced: tuple) -> tuple:
    """(weight, ways, left, added), heaviest first, for each placement of a of
    the c elements of each unplaced class in a gap, in (sum a)! prod C(c, a) ways."""
    return tuple(sorted(((weight, factorial(sum(a for _, a in added)) * ways, left, added)
                         for ways, weight, added, left in _subsets(unplaced)), reverse=True))


@cache
def _merged(placed: tuple, added: tuple) -> tuple:
    """The placed elements once a gap has added its placement."""
    return _tally(placed + added)


def _gap_step(states: dict, slopes: tuple) -> dict:
    """Places the unplaced elements in the gap in each way of _gap_picks, heaviest
    first, up to the first that leaves the next floor less than its least slopes."""
    out = {}
    for (unplaced, placed, labelled, tops, sid), poly in states.items():
        least = slopes[sid][0] - sum(w * c for (w, _), c in placed)
        for weight, ways, left, added in _gap_picks(unplaced):
            if weight < least:
                break
            into = out.setdefault((left, _merged(placed, added), labelled, tops, sid), {})
            for e, c in poly.items():
                into[e] = into.get(e, 0) + c * ways
    return out


@cache
def _floor_picks(placed: tuple) -> tuple:
    """(ways, inflow, merged, taken, label, waiting) for each sub-multiset of
    the placed elements that a floor can take in: the flow it brings, the
    components it absorbs and the elevators it takes from them, the label
    of the one component that the floor and those become (their lowest
    floor, 0 for the floor's own), and the placed elements left waiting, renamed so."""
    rows = []
    for ways, inflow, picked, waiting in _subsets(placed):
        merged, taken = set(), 0
        for (_, comp), b in picked:
            if comp:
                merged.add(comp)
                taken += b
        label = min(merged, default=0)
        if len(merged) > 1:
            waiting = _tally(waiting, merged, label)
        rows.append((ways, inflow, tuple(merged), taken, label, waiting))
    return tuple(rows)


@cache
def _emitted(left: tuple, counts: tuple, label: int) -> tuple:
    """The unplaced elements once a floor emits the counted weights into label."""
    return _tally(left + tuple(((w, label), c) for w, c in counts))


def _held(unplaced: tuple, placed: tuple) -> dict:
    """Elevators not yet absorbed, counted by component; bottom ends have none."""
    held = {}
    for (_, comp), c in unplaced + placed:
        if comp:
            held[comp] = held.get(comp, 0) + c
    return held


def _floor_step(states: dict, f: int, h: int, hi: int, need: int, slopes: tuple, K: int) -> dict:
    """Floor f < h - 1 takes a sub-multiset of the placed elements as its
    incoming ends and elevators (a component labelled f if it absorbs none),
    one of the slope moves of its state, t top ends and elevators whose
    weights carry the flow that is left.  A choice survives when some count
    of labelled elements up to hi can finish it, and an emission when it
    reaches need, the least that the lowest count asks of the floors so far.
    The t top ends take t of the h - f + L - labelled + u + T places above
    floor f, where T top ends are left and L is the final labelled count:
    hi - K + 1 + j for the term e*K + j of a sum, at every K (j = 0 at K = 1).
    Each state's sum is taken once per t, term by term."""
    out = {}
    for (unplaced, placed, labelled, tops, sid), poly in states.items():
        rest, short = hi - labelled, need - labelled  # elevators: most to come, fewest now
        # the places of the t top ends above floor f if L = hi: floors,
        # elevators to come, unplaced elements and the top ends left
        places = h - f + rest + sum(c for _, c in unplaced) + tops
        rows = {0: poly}  # the sum by t, each term times its top-end factor
        # with the elevators to come, each one held joins at most two of the
        # components and floors left
        held = _held(unplaced, placed)
        spare = rest + sum(held.values()) - len(held) - h + f
        for ways, inflow, merged, taken, label, waiting in _floor_picks(placed):
            if spare - taken + len(merged) < 0:
                continue
            pending = sum(map(held.__getitem__, merged)) > taken
            left = _tally(unplaced, merged, label) if len(merged) > 1 else unplaced
            for slope, nid in slopes[sid][1]:
                room = inflow - slope  # the flow plus the top ends
                # a floor leaves its component something crossing above
                for t in range(min(tops, room - (not pending)) + 1):
                    flow = room - t
                    part = rows.get(t)
                    if part is None:
                        part = rows[t] = {k: c * comb(places - K + 1 + k % K, t)
                                          for k, c in poly.items()}
                    for counts, n, mult in _emissions(flow, min(flow, rest), labelled, K):
                        if n >= short:
                            now = _emitted(left, counts, label or f) if n else left
                            into = out.setdefault((now, waiting, labelled + n, tops - t, nid), {})
                            for x, d in mult:
                                d *= ways
                                for e, c in part.items():
                                    into[e + x] = into.get(e + x, 0) + c * d
    return out


def _close_step(states: dict, h: int, hi: int, need: int, slopes: tuple, K: int) -> dict:
    """Floor h - 1 as _floor_step takes it, then the last gap, which places
    the u elements left in u! ways, and the top floor, which takes them all
    in one: returns {labelled: sum}, no states, in plain exponents.  need is
    lo, so an emission of n keeps only the terms of L = labelled + n, and the
    top floor's top-end factor C(L - labelled - n + T, T) is 1; by flow
    conservation the weight left in flight is the top floor's slope plus its
    T top ends, so the last gap's and the top floor's checks pass every state.

    A choice of floor h - 1 enters the closing factor only through its
    inflow and whether it leaves its component pending.  For each (inflow,
    pending, labelled, T, slope id, u) the step sums the emissions' factors
    times C(1 + n + u + T, t) over the slope moves and t once, by emission
    count n; a state sums those of its choices, times their ways, by n, and
    adds its sum times each factor and (u + n)! into the sum of L, one
    product per n.  The one fork on K is which terms it multiplies: j = n -
    short of a keyed run, or the whole sum at K = 1, where lo = hi or the
    top row is one point and L itself gives the genus."""
    out, tails = {}, {}
    for (unplaced, placed, labelled, tops, sid), poly in states.items():
        rest, short = hi - labelled, need - labelled
        u = sum(c for _, c in unplaced)
        held = _held(unplaced, placed)
        spare = rest + sum(held.values()) - len(held) - 1
        factors = {}  # the closing factor by emission count
        for ways, inflow, merged, taken, _, _ in _floor_picks(placed):
            if spare - taken + len(merged) < 0:
                continue
            pending = sum(map(held.__getitem__, merged)) > taken
            tail = tails.get((inflow, pending, labelled, tops, sid, u))
            if tail is None:
                tail = {}
                for slope, _ in slopes[sid][1]:
                    room = inflow - slope
                    for t in range(min(tops, room - (not pending)) + 1):
                        for _, n, mult in _emissions(room - t, min(room - t, rest), labelled):
                            if n >= short:
                                scale = comb(1 + n + u + tops, t)
                                mul_add({0: 1}, mult, scale, tail.setdefault(n, {}))
                tails[inflow, pending, labelled, tops, sid, u] = tail
            for n, mult in tail.items():
                factor = factors.setdefault(n, {})
                for e, c in mult.items():
                    factor[e] = factor.get(e, 0) + c * ways
        split = {}  # a keyed run's terms by j
        for k, c in poly.items() if K > 1 else ():
            split.setdefault(k % K, {})[k // K] = c
        for n, factor in factors.items():
            into = out.setdefault(labelled + n, {})
            terms = split.get(n - short) if K > 1 else poly
            if terms:
                mul_add(terms, factor.items(), factorial(u + n), into)
    return out


def _walk(widths: tuple, end_slopes: tuple, lo: int, hi: int) -> dict:
    """{labelled: value} for the diagrams with lo..hi bottom ends and elevators
    in all, by the walk of refined_invariants on a floor profile and end slopes."""
    h = len(widths) - 1
    if h == 1:  # the one floor takes its bottom ends in labelled! orders: the sum is 1
        return {widths[0]: LaurentPoly.one()} if lo <= widths[0] else {}
    K = hi - lo + 1 if widths[-1] else 1  # terms e*K + j, j = L - lo
    slopes = _slope_moves(end_slopes)
    unplaced = (((1, 0), widths[0]),) if widths[0] else ()
    states = {(unplaced, (), widths[0], widths[-1], 0): dict.fromkeys(range(K), 1)}
    for f in range(1, h - 1):
        # an elevator from floor k crosses above it, where no assignment of
        # the slopes is wider than the polygon's row k, so the floors
        # f+1..h-1 emit at most sum(widths[f + 1 : h]) elevators
        need = lo - sum(widths[f + 1 : h])
        states = _floor_step(_gap_step(states, slopes), f, h, hi, need, slopes, K)
        if K > 1:  # the terms whose L the labelled count key[2] can reach
            states = {key: kept for key, poly in states.items() if (kept := {
                k: c for k, c in poly.items() if key[2] - lo <= k % K <= key[2] - need})}
    states = _close_step(_gap_step(states, slopes), h, hi, lo, slopes, K)
    for labelled, poly in states.items():  # {labelled: sum} after the closing step
        scale = factorial(labelled)
        for e, c in poly.items():
            poly[e], wrong = divmod(c, scale)
            if wrong:
                raise DiagramError(f"walk sum {c} is not a multiple of {labelled}! = {scale}")
    return {labelled: LaurentPoly(poly) for labelled, poly in states.items()}


def refined_invariants(polygon, genera) -> dict[int, LaurentPoly]:
    """{genus: refined count} for each of the genera: the sum of
    multiplicity times markings over all diagrams of that genus, by a
    transfer walk that never builds a diagram.

    A marking orders the floors, then every elevator and end in one gap
    between the floors its endpoints allow.  The walk runs up gap 0, floor 1,
    gap 1, ..., floor h and keeps, for each partial marking, the unplaced
    elements and the placed ones still waiting for their upper floor, both
    counted by (weight, component) with bottom ends as (1, 0); how many
    bottom ends and elevators are labelled; the top ends left; and, as an id
    into the walk's slope-move table, the slopes still to assign, so every
    divergence sequence shares the walk.  A state's partial sum is (bottom
    width + elevators)! times too large until the one division at the end.
    Top ends never enter a state: the floor that emits them counts their
    places above it.  Each step reads its choices from process-wide memos
    keyed by shape alone (unplaced or placed tuple, end slopes).  Floor h - 1
    closes the walk (_close_step): it builds no states, but sums each
    state's closing factors by elevator count and multiplies its sum once
    per count into the sum of its labelled count, as the last gap and the
    top floor add only a factorial.

    The genus enters through the prunes, as the number of labelled elements,
    bottom width + genus + h - 1, and through the places of the top ends,
    which depend on the elevators to come.  One walk, on one path for every
    K, serves each run of consecutive genera up to the interior count: with
    top ends and K genera in the run, a term e*K + j of a sum belongs to the
    run's j-th genus; without, K is 1 and the final labelled count gives it.

    A polygon whose rows narrow by two or more per floor on average is
    walked upside down, (x, y) -> (x, h - y): its many bottom ends, which
    the state labels, become top ends, which it does not (README: timings);
    not so a polygon whose top row is one point, for a run of two or more.
    """
    genera = sorted(set(genera))
    if genera and genera[0] < 0:
        raise DiagramError("genus must be >= 0")
    if polygon.height > MAX_HEIGHT:
        raise DiagramError(f"height {polygon.height} is above the bound of {MAX_HEIGHT}")
    widths, sides = polygon.floor_profile(), polygon.end_slopes()
    spans, top = [], polygon.interior_lattice_count()
    for g in genera:  # the runs of consecutive genera up to the interior count
        if g <= top and spans and spans[-1][1] == g - 1:
            spans[-1][1] = g
        elif g <= top:
            spans.append([g, g])
    single = all(lo == hi for lo, hi in spans)
    if widths[0] - widths[-1] >= 2 * polygon.height and (widths[-1] or single):
        # (x, y) -> (x, h - y) on the shape: rows reversed, end slopes negated
        widths, sides = widths[::-1], tuple(tuple(sorted(-s for s in side)) for side in sides)
    base = widths[0] + polygon.height - 1  # labelled elements at genus 0
    out = dict.fromkeys(genera, LaurentPoly.zero())
    for lo, hi in spans:
        for labelled, value in _walk(widths, sides, base + lo, base + hi).items():
            if labelled - base in out:
                out[labelled - base] = value
    return out


def refined_invariant(polygon, genus: int) -> LaurentPoly:
    """Refined genus-g count: refined_invariants for the one genus."""
    return refined_invariants(polygon, (genus,))[genus]
