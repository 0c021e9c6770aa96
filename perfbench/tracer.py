"""Spans and per-layer counters for the traced run, patched in from outside.

``Tracer.install`` replaces the public callables of the floordiagrams
modules (cli, fixtures, invariants, polygon, floordiag, laurent, surgery)
with timing wrappers, and ``uninstall`` puts the originals back, so one
process can alternate untraced and traced passes.  Nothing under ``src/`` is
edited.

Every wrapped call is a frame on a stack: its self time is its duration
minus the durations of the wrapped calls made inside it, and the first word
of its name is the layer that self time belongs to.  ``cli.main`` is the
root of every request, so the layers' self times add up to the time spent
inside the CLI.  Calls are kept as span records (id, name, start, end,
parent id, request) except for the hottest leaves -- Laurent arithmetic and
``is_connected`` -- which run tens of thousands of times per request and are
only aggregated.
"""

from __future__ import annotations

import json
import weakref
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "fixtures", "invariants", "polygon", "floordiag", "laurent", "surgery")


class _Frame:
    __slots__ = ("name", "span_id", "start", "child_s", "outermost", "computed")

    def __init__(self, name, span_id, outermost):
        self.name = name
        self.span_id = span_id
        self.outermost = outermost
        self.child_s = 0.0
        self.computed = False
        self.start = perf_counter()


class _CountingJson:
    """Stands in for the json module inside invariants to count cache lines read."""

    def __init__(self, tracer):
        self._tracer = tracer

    def loads(self, text):
        self._tracer.count["invariants.cache.lines_read"] += 1
        return json.loads(text)

    dumps = staticmethod(json.dumps)


class Tracer:
    def __init__(self):
        self._patches = []
        self.request = None
        self.start_pass()

    # -- per-pass state --------------------------------------------------------

    def start_pass(self):
        self.spans = []
        self.count = defaultdict(int)
        self.self_s = defaultdict(float)
        self.outer_s = defaultdict(float)
        self._depth = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._cache_records = weakref.WeakKeyDictionary()
        # (vertices, genus) -> diagram counts seen; vertices -> sequence counts
        self.census = {"diagrams": defaultdict(set), "sequences": defaultdict(set)}

    def _enter(self, name, keep_span):
        span_id = None
        if keep_span:
            span_id = self._next_id
            self._next_id += 1
        frame = _Frame(name, span_id, self._depth[name] == 0)
        self._depth[name] += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        end = perf_counter()
        stack = self._stack
        stack.pop()
        duration = end - frame.start
        name = frame.name
        self._depth[name] -= 1
        self.count[name] += 1
        self.self_s[name] += duration - frame.child_s
        if frame.outermost:
            self.outer_s[name] += duration
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_s += duration
        if frame.span_id is not None:
            parent_id = parent.span_id if parent is not None else None
            self.spans.append((frame.span_id, name, frame.start, end, parent_id, self.request))

    # -- wrappers --------------------------------------------------------------

    def wrap(self, fn, name, keep_span=True, after=None):
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._enter(name, keep_span)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result
            finally:
                tracer._exit(frame)

        return wrapper

    def _wrap_record(self, fn):
        """InvariantTable.record, classifying each call by where its value came from."""
        tracer = self

        def record(table, *args, **kwargs):
            frame = tracer._enter("invariants.record", True)
            try:
                rec = fn(table, *args, **kwargs)
            finally:
                tracer._exit(frame)
            count = tracer.count
            from_cache = id(rec) in tracer._cache_records.get(table, ())
            if frame.computed:
                count["invariants.record.computed"] += 1
            elif from_cache:
                count["invariants.cache.hits"] += 1
            else:
                count["invariants.memo.hits"] += 1
            if table._cache_path and (frame.computed or from_cache):
                count["invariants.cache.lookups"] += 1
            return rec

        return record

    def _mark_computed(self, fn):
        tracer = self

        def _compute(*args, **kwargs):
            tracer._stack[-1].computed = True
            return fn(*args, **kwargs)

        return _compute

    def _after_cache_load(self, tracer, args, result):
        table = args[0]
        self._cache_records[table] = {id(r) for r in table._records.values()}

    # -- install / uninstall ---------------------------------------------------

    def _patch_function(self, package_modules, module, attr, wrapper):
        """Rebind a module-level function in every module that imported it."""
        original = getattr(module, attr)
        replacement = wrapper(original)
        for mod in package_modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, replacement)

    def install(self, package_modules):
        """Wrap the layer boundaries; package_modules is every floordiagrams module."""
        mods = {m.__name__.rsplit(".", 1)[-1]: m for m in package_modules}
        cli, fixtures, invariants = mods["cli"], mods["fixtures"], mods["invariants"]
        polygon, floordiag, laurent = mods["polygon"], mods["floordiag"], mods["laurent"]
        surgery = mods["surgery"]
        w = self.wrap

        def fn(name, keep_span=True, after=None):
            return lambda f: w(f, name, keep_span, after)

        def method(cls, attr, name, keep_span=True, after=None):
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(w(raw.__func__, name, keep_span, after))
            else:
                new = w(raw, name, keep_span, after)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, new)

        functions = [
            (cli, "main", fn("cli.main")),
            (fixtures, "reference_rows", fn("fixtures.load", after=_count_rows)),
            (fixtures, "reference_value", fn("fixtures.lookup")),
            (invariants, "_stuck_error", fn("invariants.stuck")),
            (floordiag, "enumerate_diagrams", fn("floordiag.enumerate", after=_count_diagrams)),
            (floordiag, "divergence_sequences", fn("floordiag.divergence", after=_count_sequences)),
            (floordiag, "refined_invariant", fn("floordiag.sum", after=_count_direct)),
        ]
        functions += [
            (surgery, name, fn("surgery.check"))
            for name in (
                "check_u_inversion",
                "check_mainproof_coeffs",
                "check_conjecture_quadric",
                "check_increase",
            )
        ]
        for module, attr, wrapper in functions:
            self._patch_function(package_modules, module, attr, wrapper)

        table = invariants.InvariantTable
        method(table, "__init__", "invariants.table")
        for attr in ("refined_invariant", "refined_descendant", "gw_value", "welschinger_value"):
            method(table, attr, "invariants.lookup")
        method(table, "descendant_value_set", "invariants.sweep")
        method(table, "recursion_trace", "invariants.trace")
        method(table, "_load_cache", "invariants.cache.load", after=self._after_cache_load)
        method(table, "_append_cache", "invariants.cache.append", after=_count_append)
        for attr, new in (("record", self._wrap_record), ("_compute", self._mark_computed)):
            raw = table.__dict__[attr]
            self._patches.append((table, attr, raw))
            setattr(table, attr, new(raw))
        self._patches.append((invariants, "json", invariants.json))
        invariants.json = _CountingJson(self)

        hpoly = polygon.HPolygon
        method(hpoly, "__init__", "polygon.construct")
        for attr in ("from_spec", "from_json_dict", "rectangle", "sigma2_trapezoid", "p2_triangle"):
            method(hpoly, attr, "polygon.spec")
        method(hpoly, "corner_cut", "polygon.corner_cut")
        method(hpoly, "admissible_cut_corners", "polygon.cut_search")
        method(hpoly, "has_room_for_cut", "polygon.room_check")
        for attr in ("floor_profile", "end_slopes", "canonical_key", "has_small_del_pezzo_fan",
                     "interior_lattice_count", "point_count", "negative_edges"):
            method(hpoly, attr, "polygon.geometry")

        dia = floordiag.FloorDiagram
        method(dia, "marking_count", "floordiag.markings", after=_count_elements)
        method(dia, "refined_multiplicity", "floordiag.multiplicity", after=_count_factors)
        method(dia, "is_connected", "floordiag.connected", keep_span=False)

        poly = laurent.LaurentPoly
        method(poly, "__mul__", "laurent.mul", keep_span=False, after=_count_terms)
        method(poly, "__rmul__", "laurent.mul", keep_span=False, after=_count_terms)
        method(poly, "__add__", "laurent.add", keep_span=False)
        method(poly, "__sub__", "laurent.add", keep_span=False)
        method(poly, "__pow__", "laurent.pow", keep_span=False)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def counts(self) -> dict:
        """Per-pass work counts; these must repeat exactly from pass to pass."""
        c = self.count
        records = c["invariants.record"]
        lookups = c["invariants.cache.lookups"]
        checks = c["floordiag.connected"]
        return {
            "cli.requests": c["cli.main"],
            "cli.stdout_bytes": c["cli.stdout_bytes"],
            "cli.stderr_bytes": c["cli.stderr_bytes"],
            "fixtures.rows": c["fixtures.rows"],
            "invariants.record.calls": records,
            "invariants.record.computed": c["invariants.record.computed"],
            "invariants.memo_hit_ratio": _ratio(c["invariants.memo.hits"], records),
            "invariants.direct.calls": c["invariants.direct"],
            "invariants.stuck": c["invariants.stuck"],
            "invariants.trace.nodes": c["invariants.trace"],
            "invariants.cache.lines_read": c["invariants.cache.lines_read"],
            "invariants.cache.lookups": lookups,
            "invariants.cache.hit_ratio": _ratio(c["invariants.cache.hits"], lookups),
            "invariants.cache.lines_appended": c["invariants.cache.lines_appended"],
            "polygon.construct.calls": c["polygon.construct"],
            "polygon.corner_cut.calls": c["polygon.corner_cut"],
            "floordiag.divergence.sequences": c["floordiag.divergence.sequences"],
            "floordiag.enumerate.diagrams": c["floordiag.enumerate.diagrams"],
            "floordiag.enumerate.connected_checks": checks,
            "floordiag.enumerate.connected_ratio": _ratio(c["floordiag.enumerate.diagrams"], checks),
            "floordiag.markings.calls": c["floordiag.markings"],
            "floordiag.markings.elements": c["floordiag.markings.elements"],
            "floordiag.multiplicity.factors": c["floordiag.multiplicity.factors"],
            "laurent.mul.calls": c["laurent.mul"],
            "laurent.mul.term_products": c["laurent.mul.term_products"],
            "laurent.add.calls": c["laurent.add"],
            "surgery.check.calls": c["surgery.check"],
            "trace.spans": len(self.spans),
        }

    def times(self) -> dict:
        """Per-pass layer times in seconds."""
        own, outer = self.self_s, self.outer_s
        out = {f"{layer}.self_s": self.layer_self(layer) for layer in LAYERS}
        out.update(
            {
                "fixtures.load_s": outer["fixtures.load"],
                "invariants.record.self_s": own["invariants.record"],
                "invariants.trace.s": outer["invariants.trace"],
                "invariants.sweep.s": outer["invariants.sweep"],
                "invariants.cache.load_s": outer["invariants.cache.load"],
                "polygon.construct.s": outer["polygon.construct"],
                "polygon.cut_search.s": outer["polygon.cut_search"] + outer["polygon.room_check"],
                "floordiag.divergence.s": outer["floordiag.divergence"],
                "floordiag.enumerate.self_s": own["floordiag.enumerate"],
                "floordiag.markings.s": outer["floordiag.markings"],
                "floordiag.multiplicity.s": outer["floordiag.multiplicity"],
                "floordiag.sum.self_s": own["floordiag.sum"],
                "laurent.mul.s": outer["laurent.mul"],
                "laurent.add.s": outer["laurent.add"],
                "surgery.check.s": outer["surgery.check"],
            }
        )
        return out

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix))


def _ratio(part, whole):
    return part / whole if whole else 0.0


def _count_direct(tracer, args, result):
    # an s=0 record that ran enumeration: refined_invariant called from record
    stack = tracer._stack
    if len(stack) >= 2 and stack[-2].name == "invariants.record":
        tracer.count["invariants.direct"] += 1


def _count_rows(tracer, args, result):
    tracer.count["fixtures.rows"] += len(result)


def _count_diagrams(tracer, args, result):
    tracer.count["floordiag.enumerate.diagrams"] += len(result)
    polygon, genus = args
    tracer.census["diagrams"][(polygon.vertices, genus)].add(len(result))


def _count_sequences(tracer, args, result):
    tracer.count["floordiag.divergence.sequences"] += len(result)
    tracer.census["sequences"][args[0].vertices].add(len(result))


def _count_elements(tracer, args, result):
    tracer.count["floordiag.markings.elements"] += args[0].element_count()


def _count_factors(tracer, args, result):
    tracer.count["floordiag.multiplicity.factors"] += len(args[0].elevators)


def _count_append(tracer, args, result):
    if args[0]._cache_path:
        tracer.count["invariants.cache.lines_appended"] += 1


def _count_terms(tracer, args, result):
    left, right = args
    width = len(right.items_doubled()) if hasattr(right, "items_doubled") else 1
    tracer.count["laurent.mul.term_products"] += len(left.items_doubled()) * width


def median_pass(values):
    """Index of the pass whose value is the (lower) median."""
    order = sorted(range(len(values)), key=values.__getitem__)
    return order[(len(order) - 1) // 2]



def write_spans(spans, path):
    """Write span records as JSON lines."""
    with open(path, "w", encoding="utf-8") as handle:
        for span_id, name, start, end, parent, request in spans:
            record = {"id": span_id, "name": name, "start": start, "end": end,
                      "parent": parent, "request": request}
            handle.write(json.dumps(record) + "\n")
