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


def _primitive(v: tuple[int, int]) -> tuple[int, int]:
    g = gcd(v[0], v[1])
    return (v[0] // g, v[1] // g)


def _lattice_length(v: tuple[int, int]) -> int:
    return gcd(v[0], v[1])


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
    Instances are immutable value objects.
    """

    __slots__ = ("_vertices",)

    def __init__(self, vertices):
        pts = list(vertices)
        for v in pts:
            # a float, a bool or a string is refused, never coerced to an int
            if not (isinstance(v, (list, tuple)) and len(v) == 2
                    and all(type(c) is int for c in v)):
                raise PolygonError(f"vertex {v!r} is not a pair of integers")
        pts = _clean_loop([tuple(v) for v in pts])
        if len(pts) < 3 or _signed_area2(pts) == 0:
            raise PolygonError("polygon must have positive area")
        if _signed_area2(pts) < 0:
            pts.reverse()
        n = len(pts)
        for i in range(n):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % n]
            turn = _det((b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1]))
            if turn <= 0:
                raise PolygonError("vertices do not bound a convex polygon")
        xmin = min(x for x, _ in pts)
        ymin = min(y for _, y in pts)
        pts = [(x - xmin, y - ymin) for x, y in pts]
        start = pts.index(min(pts))
        pts = pts[start:] + pts[:start]
        for i in range(n):
            dx = pts[(i + 1) % n][0] - pts[i][0]
            dy = pts[(i + 1) % n][1] - pts[i][1]
            if abs(_primitive((dx, dy))[1]) > 1:
                raise PolygonError(
                    "not h-transverse: edge direction (%d, %d)" % (dx, dy)
                )
        object.__setattr__(self, "_vertices", tuple(pts))

    def __setattr__(self, *args):
        raise AttributeError("HPolygon is immutable")

    # -- constructors ---------------------------------------------------

    @classmethod
    def rectangle(cls, a: int, b: int) -> "HPolygon":
        """Axis-parallel a-by-b rectangle (bidegree (a, b) classes)."""
        if a < 1 or b < 1:
            raise PolygonError("rectangle sides must be >= 1")
        return cls([(0, 0), (a, 0), (a, b), (0, b)])

    @classmethod
    def sigma2_trapezoid(cls, a: int, b: int) -> "HPolygon":
        """Trapezoid with vertices (0,0), (2a+b,0), (b,a), (0,a).

        Newton polygon of the class a*f + b*s on the second Hirzebruch
        surface, where f is the fiber and s the (-2)-section; needs a >= 1,
        b >= 0.
        """
        if a < 1 or b < 0:
            raise PolygonError("trapezoid needs a >= 1 and b >= 0")
        return cls([(0, 0), (2 * a + b, 0), (b, a), (0, a)])

    @classmethod
    def p2_triangle(cls, d: int) -> "HPolygon":
        """Triangle with legs d: degree-d plane curves."""
        if d < 1:
            raise PolygonError("degree must be >= 1")
        return cls([(0, 0), (d, 0), (0, d)])

    @classmethod
    def from_spec(cls, spec: str) -> "HPolygon":
        """Parse "rect:a,b", "sigma2:a,b" or "p2:d"."""
        kind, _, rest = spec.partition(":")
        try:
            args = [int(part) for part in rest.split(",")] if rest else []
        except ValueError:
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

    def edges(self):
        n = len(self._vertices)
        return [
            (self._vertices[i], self._vertices[(i + 1) % n]) for i in range(n)
        ]

    @property
    def height(self) -> int:
        return max(y for _, y in self._vertices)

    @property
    def area2(self) -> int:
        return _signed_area2(self._vertices)

    def boundary_lattice_count(self) -> int:
        return sum(
            _lattice_length((q[0] - p[0], q[1] - p[1])) for p, q in self.edges()
        )

    def interior_lattice_count(self) -> int:
        # Pick's theorem
        return (self.area2 - self.boundary_lattice_count() + 2) // 2

    def point_count(self, genus: int) -> int:
        """Number of point constraints pinning a genus-g curve: |boundary| - 1 + g."""
        return self.boundary_lattice_count() - 1 + genus

    def floor_profile(self) -> tuple[int, ...]:
        """Widths of the polygon at integer heights, bottom to top."""
        h = self.height
        xmin = [None] * (h + 1)
        xmax = [None] * (h + 1)
        for p, q in self.edges():
            v = (q[0] - p[0], q[1] - p[1])
            step = _primitive(v)
            for t in range(_lattice_length(v) + 1):
                x, y = p[0] + t * step[0], p[1] + t * step[1]
                if xmin[y] is None or x < xmin[y]:
                    xmin[y] = x
                if xmax[y] is None or x > xmax[y]:
                    xmax[y] = x
        if any(lo is None for lo in xmin):
            raise PolygonError("missing lattice row")  # cannot happen when h-transverse
        return tuple(xmax[y] - xmin[y] for y in range(h + 1))

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
        for p, q in self.edges():
            v = (q[0] - p[0], q[1] - p[1])
            step = _primitive(v)
            if step[1] == 1:
                right.extend([-step[0]] * _lattice_length(v))
            elif step[1] == -1:
                left.extend([-step[0]] * _lattice_length(v))
        return tuple(sorted(left)), tuple(sorted(right))

    # -- symmetries and keys ----------------------------------------------

    def canonical_key(self) -> tuple[tuple[int, int], ...]:
        """Representative of the polygon up to x-reflection, for table keys.

        The mirror image x -> xmax - x is already normalized once its
        vertices are reversed back to counterclockwise order and rotated to
        start at the smallest one.
        """
        xmax = max(x for x, _ in self._vertices)
        mirror = [(xmax - x, y) for x, y in reversed(self._vertices)]
        start = mirror.index(min(mirror))
        return min(self._vertices, tuple(mirror[start:] + mirror[:start]))

    # -- corner cuts --------------------------------------------------------

    def edge_rays(self) -> tuple[tuple[int, int], ...]:
        """Primitive outward normals of the edges, in boundary order."""
        rays = []
        for p, q in self.edges():
            dx, dy = q[0] - p[0], q[1] - p[1]
            rays.append(_primitive((dy, -dx)))
        return tuple(rays)

    def self_intersections(self) -> tuple[int | None, ...]:
        """Self-intersection of each edge's toric divisor, in boundary order.

        On a smooth patch the normals of the neighbouring edges satisfy
        prev + next = -(D.D) * ray.  An edge with a non-unimodular endpoint
        has no integer self-intersection and reads None.
        """
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
        return tuple(out)

    def negative_edges(self) -> tuple[int, ...]:
        """Indices of edges whose toric divisor has negative self-intersection."""
        return tuple(
            i for i, d in enumerate(self.self_intersections()) if d is not None and d < 0
        )

    def _corner_fit(self, i: int):
        """Primitive directions of the edges from vertex i to its next and
        previous vertex, once both have lattice length >= 2 and the corner is
        unimodular; raises PolygonError otherwise."""
        n = len(self._vertices)
        v = self._vertices[i]
        nxt = self._vertices[(i + 1) % n]
        prv = self._vertices[i - 1]
        u = (nxt[0] - v[0], nxt[1] - v[1])
        w = (prv[0] - v[0], prv[1] - v[1])
        if _lattice_length(u) < 2 or _lattice_length(w) < 2:
            raise PolygonError("cut of depth 2 does not fit at this corner")
        u, w = _primitive(u), _primitive(w)
        if abs(_det(u, w)) != 1:
            raise PolygonError("corner is not unimodular")
        return u, w

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
        u, w = self._corner_fit(i)
        negative = self.negative_edges()
        n = len(self._vertices)
        if i in negative or (i - 1) % n in negative:
            raise PolygonError("corner touches a divisor of negative self-intersection")
        v = self._vertices[i]
        p_prev = (v[0] + 2 * w[0], v[1] + 2 * w[1])
        p_next = (v[0] + 2 * u[0], v[1] + 2 * u[1])
        pts = list(self._vertices)
        pts[i : i + 1] = [p_prev, p_next]
        result = HPolygon(pts)
        if result.area2 != self.area2 - 4:
            raise PolygonError("corner cut did not remove a triangle of area 2")
        return result

    def admissible_cuts(self) -> tuple:
        """(corner, cut polygon) for every vertex where corner_cut succeeds."""
        good = []
        for v in self._vertices:
            try:
                good.append((v, self.corner_cut(v)))
            except PolygonError:
                continue
        return tuple(good)

    def admissible_cut_corners(self) -> tuple[tuple[int, int], ...]:
        """Vertices where corner_cut succeeds."""
        return tuple(corner for corner, _ in self.admissible_cuts())

    def has_room_for_cut(self) -> bool:
        """True when some unimodular corner has both edge lengths >= 2.

        Distinguishes the two ways admissible_cut_corners can be empty: no
        corner fits a depth-2 cut at all, or cuts would fit geometrically but
        every candidate corner touches a negative divisor.
        """
        for i in range(len(self._vertices)):
            try:
                self._corner_fit(i)
            except PolygonError:
                continue
            return True
        return False

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
