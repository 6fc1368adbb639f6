"""Generators for the standing corpus of example convexity spaces.

Five structured families (power sets, cylinder sets on the cube,
subtrees of a tree, convex lattice subsets of a 2D grid, linear-order
extensions of a poset) plus a seeded random family.  In a separable
space every convex set is the intersection of the half-spaces that
contain it, so the separable families whose half-spaces are known up
front (cylinders, subtrees, posets, random) are built as the
intersection closure of their half-space pairs.  All generators are
deterministic: identical parameters give identical spaces, point for
point and set for set.

Subgroup-lattice convexity is deliberately not here: enumerating finite
groups is machinery without test value at this scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations, product
from typing import Callable, Iterable, NamedTuple, Sequence

from .space import (
    ConsistencyError,
    ConvexFamily,
    ConvexitySpace,
    GroundSet,
    GroundTooLarge,
    PointSet,
    intersection_closure,
    is_separable,
)


def power_set_space(m: int) -> ConvexitySpace:
    """Every subset convex.  Points are labelled "1".."m"."""
    if not 1 <= m <= 16:
        raise ValueError("power set space needs 1 <= m <= 16")
    ground = GroundSet(tuple(str(i + 1) for i in range(m)))
    return ConvexitySpace(ground, ConvexFamily.from_masks(range(1 << m)))


def cylinder_space(n: int) -> ConvexitySpace:
    """Subcubes of {0,1}^n (coordinates fixed to a pattern) plus the empty set.

    Point i is the n-bit binary string of i.  The half-spaces fix one
    coordinate to 0 or to 1, and their intersections are the 3^n
    subcubes and the empty set.
    """
    if not 1 <= n <= 6:
        raise ValueError("cylinder space needs 1 <= n <= 6")
    labels = tuple("".join(bits) for bits in product("01", repeat=n))
    basis = [
        PointSet.from_indices(i for i, lab in enumerate(labels) if lab[c] == value)
        for c in range(n)
        for value in "01"
    ]
    return intersection_closure(GroundSet(labels), basis)


def subtree_space(edges: Iterable[tuple[str, str]]) -> ConvexitySpace:
    """Connected vertex sets of a tree plus the empty set.

    Vertices are the sorted edge endpoints; a path on k vertices yields
    exactly k(k+1)/2 + 1 convex sets.  The half-spaces are the two sides
    of each edge, and a vertex set is connected exactly when it is the
    intersection of the sides that contain it.
    """
    edge_list = [(str(a), str(b)) for a, b in edges]
    labels = sorted({v for e in edge_list for v in e})
    n = len(labels)
    if n < 2:
        raise ValueError("a tree needs at least one edge")
    if n > 16:
        raise ValueError("subtree space is capped at 16 vertices")
    if len(edge_list) != n - 1:
        raise ValueError(f"a tree on {n} vertices has {n - 1} edges, got {len(edge_list)}")
    idx = {v: i for i, v in enumerate(labels)}
    adj = [0] * n
    for a, b in edge_list:
        if a == b:
            raise ValueError(f"self-loop at {a!r}")
        adj[idx[a]] |= 1 << idx[b]
        adj[idx[b]] |= 1 << idx[a]
    full = (1 << n) - 1

    def side(start: int, other: int) -> int:
        """Vertices reachable from `start` without passing `other`."""
        comp = frontier = 1 << start
        while frontier:
            nxt = 0
            for i in PointSet(frontier):
                nxt |= adj[i]
            frontier = nxt & ~comp & ~(1 << other)
            comp |= frontier
        return comp

    basis = []
    for a, b in edge_list:
        near, far = side(idx[a], idx[b]), side(idx[b], idx[a])
        if near | far != full:
            raise ValueError("the edges do not form a connected tree")
        basis += [PointSet(near), PointSet(far)]
    return intersection_closure(GroundSet(tuple(labels)), basis)


# --- integer planar hulls for the lattice generator ---------------------------


def _cross(o: tuple[int, int], a: tuple[int, int], b: tuple[int, int]) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_polygon(pts: Sequence[tuple[int, int]]) -> list[tuple[int, int]]:
    """Convex hull vertices, counterclockwise; collinear input gives the
    two endpoints, a single point gives itself."""
    pts = sorted(set(pts))
    if len(pts) <= 2:
        return pts
    lower: list[tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def _in_hull(hull: Sequence[tuple[int, int]], p: tuple[int, int]) -> bool:
    if len(hull) == 1:
        return p == hull[0]
    if len(hull) == 2:
        a, b = hull
        if _cross(a, b, p) != 0:
            return False
        dot = (p[0] - a[0]) * (b[0] - a[0]) + (p[1] - a[1]) * (b[1] - a[1])
        return 0 <= dot <= (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    return all(_cross(hull[i], hull[(i + 1) % len(hull)], p) >= 0 for i in range(len(hull)))


def lattice_convex_space(width: int, height: int) -> ConvexitySpace:
    """Convex lattice subsets of a width x height integer grid.

    A subset is convex when its Euclidean hull contains no further grid
    point.  Point (x, y) is labelled "x,y" and indexed y * width + x.
    Closed sets are enumerated by growing fixed points of the closure
    operator S -> hull(S) intersect grid, one added point at a time.
    """
    if width < 1 or height < 1 or width * height > 25:
        raise ValueError("lattice space needs positive sides with width*height <= 25")
    coords = [(x, y) for y in range(height) for x in range(width)]
    ground = GroundSet(tuple(f"{x},{y}" for x, y in coords))
    n = len(coords)

    def close(mask: int) -> int:
        pts = [coords[i] for i in PointSet(mask).indices]
        if not pts:
            return 0
        hull = _hull_polygon(pts)
        out = 0
        for i, c in enumerate(coords):
            if _in_hull(hull, c):
                out |= 1 << i
        return out

    closed = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for m in frontier:
            for i in range(n):
                if not (m >> i) & 1:
                    c = close(m | (1 << i))
                    if c not in closed:
                        closed.add(c)
                        nxt.append(c)
        frontier = nxt
    return ConvexitySpace(ground, ConvexFamily.from_masks(closed))


def linear_extension_space(
    elements: Sequence[str], relations: Iterable[tuple[str, str]] = ()
) -> ConvexitySpace:
    """Linear extensions of a base partial order, with order-refinement sets.

    Ground points are the linear extensions of the base order, labelled
    like "a<b<c".  For every partial order P refining the base, the
    extensions of P form a convex set; together with the empty set these
    are intersection closed, since joining two compatible refinements is
    again a refinement and incompatible ones share no extension.  The
    half-spaces are "a before b" for each ordered pair, and the extensions
    of P are the intersection of those for the pairs of P.
    """
    elems = tuple(str(e) for e in elements)
    k = len(elems)
    if not 1 <= k <= 5:
        raise ValueError("poset space needs 1 to 5 elements")
    if len(set(elems)) != k:
        raise ValueError("poset elements must be distinct")
    idx = {e: i for i, e in enumerate(elems)}
    base = set()
    for a, b in relations:
        if a not in idx or b not in idx:
            raise ValueError(f"relation ({a!r}, {b!r}) mentions an unknown element")
        base.add((idx[a], idx[b]))
    perms = [p for p in permutations(range(k)) if all(p.index(a) < p.index(b) for a, b in base)]
    if not perms:
        raise ValueError("the base relations contain a cycle")
    if len(perms) > 64:
        raise GroundTooLarge(f"{len(perms)} linear extensions exceed the 64-point cap")
    labels = tuple("<".join(elems[i] for i in perm) for perm in perms)
    basis = [
        PointSet.from_indices(i for i, p in enumerate(perms) if p.index(a) < p.index(b))
        for a in range(k)
        for b in range(k)
        if a != b
    ]
    return intersection_closure(GroundSet(labels), basis)


def random_separable(points: int, seed: int) -> ConvexitySpace:
    """Seeded random separable space on "p0".."p<points-1>".

    Draws two or three random proper half-space pairs (a set and its
    complement) and closes them under intersection; complement-closed
    bases always close to separable spaces, which is re-checked here.
    """
    if points < 2:
        raise ValueError("random separable spaces need at least 2 points")
    ground = GroundSet(tuple(f"p{i}" for i in range(points)))
    rng = random.Random(seed)
    full = (1 << points) - 1
    basis = []
    for _ in range(rng.randint(2, 3)):
        m = rng.randrange(1, full)
        basis.extend((PointSet(m), PointSet(full ^ m)))
    space = intersection_closure(ground, basis)
    check = is_separable(space)
    if not check.separable:
        raise ConsistencyError(f"complement-closed basis produced a non-separable space: {check}")
    return space


class GeneratorKind(NamedTuple):
    """A builder, by its name in this module; its parameter names (also the
    `radonnets gen` options); and the default space name for given
    parameters."""

    builder: str
    params: tuple[str, ...]
    default_name: Callable[..., str]


GENERATORS: dict[str, GeneratorKind] = {
    "power": GeneratorKind("power_set_space", ("m",), lambda m: f"power-{m}"),
    "cylinders": GeneratorKind("cylinder_space", ("n",), lambda n: f"cylinders-{n}"),
    "subtree": GeneratorKind(
        "subtree_space", ("edges",), lambda edges: f"subtree-{len({v for e in edges for v in e})}v"
    ),
    "lattice": GeneratorKind(
        "lattice_convex_space",
        ("width", "height"),
        lambda width, height: f"lattice-{width}x{height}",
    ),
    "poset": GeneratorKind(
        "linear_extension_space",
        ("elements", "relations"),
        lambda elements, relations: f"poset-{len(elements)}e",
    ),
    "random": GeneratorKind(
        "random_separable", ("points", "seed"), lambda points, seed: f"random-{points}p-{seed}"
    ),
}


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """Named generator call: kind plus its keyword parameters."""

    kind: str
    params: dict

    def build(self) -> ConvexitySpace:
        if self.kind not in GENERATORS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        # Looked up at call time, so a wrapped module attribute is the one called.
        return globals()[GENERATORS[self.kind].builder](**self.params)
