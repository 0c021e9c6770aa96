"""Convex lattice polygons with horizontal floor structure.

An h-transverse polygon has every edge either horizontal or climbing exactly
one lattice row per unit step (primitive direction (a, +-1)), so its boundary
meets each horizontal lattice line in a left point and a right point.  These
are the Newton polygons on which floor diagrams compute curve counts.
"""

from __future__ import annotations

from math import gcd


class PolygonError(ValueError):
    pass


def _det(u: tuple[int, int], v: tuple[int, int]) -> int:
    return u[0] * v[1] - u[1] * v[0]


def _signed_area2(pts) -> int:
    n = len(pts)
    total = 0
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        total += x0 * y1 - x1 * y0
    return total


def _clean_loop(points) -> list[tuple[int, int]]:
    """Drop repeated and collinear vertices from a cyclic vertex list."""
    pts = []
    for p in points:
        if not pts or pts[-1] != p:
            pts.append(p)
    while len(pts) > 1 and pts[0] == pts[-1]:
        pts.pop()
    changed = True
    while changed and len(pts) >= 3:
        changed = False
        for i in range(len(pts)):
            a = pts[i - 1]
            b = pts[i]
            c = pts[(i + 1) % len(pts)]
            if _det((b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1])) == 0:
                pts.pop(i)
                changed = True
                break
    return pts


class HPolygon:
    """Convex h-transverse lattice polygon in normalized position.

    Vertices are stored counterclockwise starting from the lexicographically
    smallest one, translated so the bounding box corner sits at the origin.
    Instances are immutable value objects.  Slots filled on construction:
    the vertices, twice the area, the boundary steps (each edge's (primitive
    direction, lattice length) from vertex i to vertex i + 1), the height and
    the boundary lattice count.  The canonical key and the self-intersections
    are computed on first use and kept in their slots.

    HPolygon(vertices) checks its input in full.  The named shapes and the
    corner cuts are derived from vertices and steps they already know, and
    skip those checks.
    """

    __slots__ = ("_vertices", "_area2", "_steps", "_height", "_boundary", "_key", "_degrees")

    def __init__(self, vertices):
        pts = list(vertices)
        for v in pts:
            # a float, a bool or a string is refused, never coerced to an int
            if not (isinstance(v, (list, tuple)) and len(v) == 2
                    and all(type(c) is int for c in v)):
                raise PolygonError(f"vertex {v!r} is not a pair of integers")
        pts = _clean_loop([tuple(v) for v in pts])
        area2 = _signed_area2(pts)
        if len(pts) < 3 or area2 == 0:
            raise PolygonError("polygon must have positive area")
        if area2 < 0:
            pts.reverse()
        steps = []
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            g = gcd(x1 - x0, y1 - y0)
            steps.append((((x1 - x0) // g, (y1 - y0) // g), g))
        # left turns alone admit a loop that winds twice; a loop that winds
        # once goes up, then down: its steps' vertical signs change twice
        ups = [dy > 0 for (_, dy), _ in steps if dy]
        changes = sum(a != b for a, b in zip(ups, ups[1:] + ups[:1]))
        if changes != 2 or any(_det(steps[i - 1][0], s) <= 0 for i, (s, _) in enumerate(steps)):
            raise PolygonError("vertices do not bound a convex polygon")
        self._fill(zip(pts, steps), abs(area2), sum(g for _, g in steps))
        # the first steep edge in normal order is the one an error names
        for (dx, dy), g in self._steps:
            if abs(dy) > 1:
                raise PolygonError(
                    "not h-transverse: edge direction (%d, %d)" % (dx * g, dy * g)
                )

    def _fill(self, ring, area2: int, boundary: int):
        """Fill the slots kept from construction, normalized but not checked:
        the boundary leaves each vertex p of ring counterclockwise along its
        step (direction, length); a step of length 0 is dropped with its vertex."""
        ring = [(p, step) for p, step in ring if step[1]]
        pts, steps = [p for p, _ in ring], [step for _, step in ring]
        xs, ys = zip(*pts)
        xmin, ymin = min(xs), min(ys)
        if xmin or ymin:
            pts = [(x - xmin, y - ymin) for x, y in pts]
        start = pts.index(min(pts))
        values = (tuple(pts[start:] + pts[:start]), area2, tuple(steps[start:] + steps[:start]),
                  max(ys) - ymin, boundary)
        for slot, value in zip(("_vertices", "_area2", "_steps", "_height", "_boundary"), values):
            object.__setattr__(self, slot, value)

    @classmethod
    def _derived(cls, ring, area2: int, boundary: int) -> "HPolygon":
        """The polygon that _fill fills from ring, area2 and boundary."""
        polygon = object.__new__(cls)
        polygon._fill(ring, area2, boundary)
        return polygon

    def __setattr__(self, *args):
        raise AttributeError("HPolygon is immutable")

    def _keep(self, slot: str, value):
        """Fill a derived-value slot on first use; returns value."""
        object.__setattr__(self, slot, value)
        return value

    # -- constructors ---------------------------------------------------

    @classmethod
    def _named(cls, ring, area2: int, boundary: int) -> "HPolygon":
        """A named shape from its ring (see _derived); a size that is not an
        integer goes to HPolygon(vertices), which names the vertex."""
        if not all(type(c) is int for p, _ in ring for c in p):
            return cls([p for p, _ in ring])
        return cls._derived(ring, area2, boundary)

    @classmethod
    def rectangle(cls, a: int, b: int) -> "HPolygon":
        """Axis-parallel a-by-b rectangle (bidegree (a, b) classes)."""
        if a < 1 or b < 1:
            raise PolygonError("rectangle sides must be >= 1")
        return cls._named([((0, 0), ((1, 0), a)), ((a, 0), ((0, 1), b)),
                           ((a, b), ((-1, 0), a)), ((0, b), ((0, -1), b))],
                          2 * a * b, 2 * (a + b))

    @classmethod
    def sigma2_trapezoid(cls, a: int, b: int) -> "HPolygon":
        """Trapezoid with vertices (0,0), (2a+b,0), (b,a), (0,a).

        Newton polygon of the class a*e + b*f on the second Hirzebruch
        surface, where f is the fiber and e = s + 2f the section of square 2
        (s the (-2)-section, dual to the top edge); needs a >= 1, b >= 0.
        """
        if a < 1 or b < 0:
            raise PolygonError("trapezoid needs a >= 1 and b >= 0")
        return cls._named([((0, 0), ((1, 0), 2 * a + b)), ((2 * a + b, 0), ((-2, 1), a)),
                           ((b, a), ((-1, 0), b)), ((0, a), ((0, -1), a))],
                          2 * a * (a + b), 4 * a + 2 * b)

    @classmethod
    def p2_triangle(cls, d: int) -> "HPolygon":
        """Triangle with legs d: degree-d plane curves."""
        if d < 1:
            raise PolygonError("degree must be >= 1")
        return cls._named([((0, 0), ((1, 0), d)), ((d, 0), ((-1, 1), d)),
                           ((0, d), ((0, -1), d))], d * d, 3 * d)

    @classmethod
    def from_spec(cls, spec: str) -> "HPolygon":
        """Parse "rect:a,b", "sigma2:a,b" or "p2:d"."""
        kind, _, rest = spec.partition(":")
        parts = rest.split(",") if rest else []
        # ASCII digits only: int() would also take "1_0", " 2", "+2" and "٢"
        if not all(part.isascii() and part.isdigit() for part in parts):
            raise PolygonError(f"bad polygon spec {spec!r}")
        try:
            args = [int(part) for part in parts]
        except ValueError:  # past int()'s limit on digits
            raise PolygonError(f"bad polygon spec {spec!r}") from None
        if kind == "rect" and len(args) == 2:
            return cls.rectangle(*args)
        if kind == "sigma2" and len(args) == 2:
            return cls.sigma2_trapezoid(*args)
        if kind == "p2" and len(args) == 1:
            return cls.p2_triangle(*args)
        raise PolygonError(f"bad polygon spec {spec!r}")

    @classmethod
    def from_json_dict(cls, data) -> "HPolygon":
        """Parse {"vertices": [[x, y], ...]}; coordinates must be JSON integers."""
        vertices = data.get("vertices") if isinstance(data, dict) else None
        if not isinstance(vertices, list):
            raise PolygonError('polygon JSON must be an object with a "vertices" list')
        return cls(vertices)

    # -- basic geometry ---------------------------------------------------

    @property
    def vertices(self) -> tuple[tuple[int, int], ...]:
        return self._vertices

    @property
    def height(self) -> int:
        return self._height

    @property
    def area2(self) -> int:
        return self._area2

    def boundary_lattice_count(self) -> int:
        return self._boundary

    def interior_lattice_count(self) -> int:
        # Pick's theorem
        return (self.area2 - self.boundary_lattice_count() + 2) // 2

    def point_count(self, genus: int) -> int:
        """Number of point constraints pinning a genus-g curve: |boundary| - 1 + g."""
        return self.boundary_lattice_count() - 1 + genus

    def floor_profile(self) -> tuple[int, ...]:
        """Widths of the polygon at integer heights, bottom to top.

        The bottom row is the bottom edge (a vertex: width 0); each row above
        is narrower by the left plus the right end slope of the floor between
        them, as each chain's slopes sorted ascending run bottom-up.
        """
        widths = [sum(length for step, length in self._steps if step == (1, 0))]
        for left, right in zip(*self.end_slopes()):
            widths.append(widths[-1] - left - right)
        return tuple(widths)

    def end_slopes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Vertical slopes of the left and right unbounded curve ends.

        Each non-horizontal boundary edge of primitive direction (p, -1) on
        the descending chain is dual to ends of direction (-1, -p), one per
        lattice step, and each (p, +1) edge on the ascending chain to ends of
        direction (+1, -p).  Returns the sorted multisets of the vertical
        components, one entry per floor on each side.
        """
        left: list[int] = []
        right: list[int] = []
        for (dx, dy), length in self._steps:
            if dy == 1:
                right.extend([-dx] * length)
            elif dy == -1:
                left.extend([-dx] * length)
        return tuple(sorted(left)), tuple(sorted(right))

    # -- symmetries and keys ----------------------------------------------

    def canonical_key(self) -> tuple[tuple[int, int], ...]:
        """Representative of the polygon up to x-reflection.

        The mirror image x -> xmax - x is already normalized once its
        vertices are reversed back to counterclockwise order and rotated to
        start at the smallest one.
        """
        try:
            return self._key
        except AttributeError:
            pass
        xmax = max(x for x, _ in self._vertices)
        mirror = [(xmax - x, y) for x, y in reversed(self._vertices)]
        start = mirror.index(min(mirror))
        return self._keep("_key", min(self._vertices, tuple(mirror[start:] + mirror[:start])))

    # -- corner cuts --------------------------------------------------------

    def edge_rays(self) -> tuple[tuple[int, int], ...]:
        """Primitive outward normals of the edges, in boundary order."""
        return tuple((dy, -dx) for (dx, dy), _ in self._steps)

    def self_intersections(self) -> tuple[int | None, ...]:
        """Self-intersection of each edge's toric divisor, in boundary order.

        On a smooth patch the normals of the neighbouring edges satisfy
        prev + next = -(D.D) * ray.  An edge with a non-unimodular endpoint
        has no integer self-intersection and reads None.
        """
        try:
            return self._degrees
        except AttributeError:
            pass
        rays = self.edge_rays()
        n = len(rays)
        out = []
        for i in range(n):
            prv, cur, nxt = rays[i - 1], rays[i], rays[(i + 1) % n]
            if _det(prv, cur) != 1 or _det(cur, nxt) != 1:
                out.append(None)
                continue
            # both cones unimodular: prev + next is an integer multiple of cur
            coord = 0 if cur[0] else 1
            out.append(-(prv[coord] + nxt[coord]) // cur[coord])
        return self._keep("_degrees", tuple(out))

    def negative_edges(self) -> tuple[int, ...]:
        """Indices of edges whose toric divisor has negative self-intersection."""
        return tuple(
            i for i, d in enumerate(self.self_intersections()) if d is not None and d < 0
        )

    def _corner_fit(self, i: int) -> str | None:
        """Why a depth-2 cut does not fit at vertex i, from its two steps: an
        edge of lattice length below 2, or a corner that is not unimodular;
        None when it fits."""
        (u, ulen), (e, elen) = self._steps[i], self._steps[i - 1]
        if ulen < 2 or elen < 2:
            return "cut of depth 2 does not fit at this corner"
        if _det(e, u) != 1:
            return "corner is not unimodular"
        return None

    def _cut(self, i: int) -> "HPolygon | str":
        """The polygon left by the depth-2 cut at vertex i, or the text of the
        PolygonError that corner_cut raises there.

        The cut takes 2 lattice steps off each edge at the corner and joins
        their new ends by an edge of lattice length 2 in direction u + e, u
        the outgoing and e the incoming direction: primitive, as det(e, u) =
        1, and strictly between e and u, so no two edges become collinear.
        """
        refusal = self._corner_fit(i)
        if refusal:
            return refusal
        negative = self.negative_edges()
        if i in negative or (i - 1) % len(self._steps) in negative:
            return "corner touches a divisor of negative self-intersection"
        if self._area2 == 4:  # the cut triangle is all of it
            return "polygon must have positive area"
        (x, y), (u, ulen), (e, elen) = self._vertices[i], self._steps[i], self._steps[i - 1]
        new = (u[0] + e[0], u[1] + e[1])
        if abs(new[1]) > 1:  # no other edge can be steep
            return "not h-transverse: edge direction (%d, %d)" % (2 * new[0], 2 * new[1])
        ring = [((x - 2 * e[0], y - 2 * e[1]), (new, 2)),
                ((x + 2 * u[0], y + 2 * u[1]), (u, ulen - 2))]
        ring += zip(self._vertices[i + 1:] + self._vertices[:i],
                    self._steps[i + 1:] + self._steps[:i])
        ring[-1] = (ring[-1][0], (e, elen - 2))
        return HPolygon._derived(ring, self._area2 - 4, self._boundary - 2)

    def corner_cut(self, corner):
        """Chop a lattice triangle of depth 2 off one corner.

        Models replacing a curve class d on the toric surface by d - 2E after
        blowing up the fixed point at that corner, so it only applies where
        the corner is unimodular (the surface is smooth there), both edges
        have lattice length >= 2 (the cut fits), and neither adjacent divisor
        has negative self-intersection (a point on such a divisor is not in
        general position, and the count after blowing it up would differ from
        the generic one).  Raises PolygonError when the cut does not apply or
        the remainder has zero area or is not h-transverse.
        """
        try:
            i = self._vertices.index(tuple(corner))
        except ValueError:
            raise PolygonError(f"{corner!r} is not a vertex") from None
        cut = self._cut(i)
        if type(cut) is str:
            raise PolygonError(cut)
        return cut

    def admissible_cuts(self) -> tuple:
        """(corner, cut polygon) for every vertex where corner_cut succeeds."""
        cuts = ((v, self._cut(i)) for i, v in enumerate(self._vertices))
        return tuple((v, cut) for v, cut in cuts if type(cut) is not str)

    def admissible_cut_corners(self) -> tuple[tuple[int, int], ...]:
        """Vertices where corner_cut succeeds."""
        return tuple(corner for corner, _ in self.admissible_cuts())

    def has_room_for_cut(self) -> bool:
        """True when some unimodular corner has both edge lengths >= 2.

        Distinguishes the two ways admissible_cut_corners can be empty: no
        corner fits a depth-2 cut at all, or cuts would fit geometrically but
        every candidate corner touches a negative divisor.
        """
        return any(self._corner_fit(i) is None for i in range(len(self._steps)))

    # -- toric surface shape ------------------------------------------------

    def has_small_del_pezzo_fan(self) -> bool:
        """True when the normal fan is a smooth del Pezzo surface of degree >= 7.

        Those are the plane, the quadric, and the plane blown up in one or two
        points: at most five rays, unimodular cones, and no divisor of
        self-intersection below -1.
        """
        degrees = self.self_intersections()
        return len(degrees) <= 5 and all(d is not None and d >= -1 for d in degrees)

    # -- serialization and plumbing ------------------------------------------

    def to_json_dict(self) -> dict:
        return {"vertices": [list(v) for v in self._vertices]}

    def __eq__(self, other) -> bool:
        if not isinstance(other, HPolygon):
            return NotImplemented
        return self._vertices == other._vertices

    def __hash__(self) -> int:
        return hash(self._vertices)

    def __repr__(self) -> str:
        return f"HPolygon({list(self._vertices)!r})"
