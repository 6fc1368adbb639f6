"""Generators for the standing corpus of example convexity spaces.

Five structured families (power sets, cylinder sets on the cube,
subtrees of a tree, convex lattice subsets of a 2D grid, linear-order
extensions of a poset) plus a seeded random family.  In a separable
space every convex set is the intersection of the half-spaces that
contain it, so every family but the power sets (cylinders, subtrees,
lattices, posets, random) is built as the intersection closure of its
half-space pairs.  All generators are deterministic: identical
parameters give identical spaces, point for point and set for set.

Subgroup-lattice convexity is deliberately not here: enumerating finite
groups is machinery without test value at this scale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations, product
from typing import Callable, Iterable, NamedTuple, Sequence

from .space import (
    ConsistencyError,
    ConvexFamily,
    ConvexitySpace,
    GroundSet,
    PointSet,
    check_ground_size,
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


def lattice_convex_space(width: int, height: int) -> ConvexitySpace:
    """Convex lattice subsets of a width x height integer grid.

    A subset is convex when its Euclidean hull contains no further grid
    point.  Point (x, y) is labelled "x,y" and indexed y * width + x.
    The basis is the grid points on either closed side of a line through
    two grid points, and the axis cuts x <= k, x >= k, y <= k, y >= k;
    each is convex, so every intersection is.  A convex set is cut out by
    the lines along its hull's edges, or, when it lies on one line, by
    that line and a line through each end point and a grid point off it.
    Only one-row and one-column grids lack such points; there the axis
    cuts bound the ends.
    """
    if width < 1 or height < 1 or width * height > 25:
        raise ValueError("lattice space needs positive sides with width*height <= 25")
    coords = [(x, y) for y in range(height) for x in range(width)]

    def half_plane(a: int, b: int, c: int) -> PointSet:
        """Grid points with a*x + b*y >= c."""
        return PointSet.from_indices(i for i, (x, y) in enumerate(coords) if a * x + b * y >= c)

    basis = {
        half_plane(s * (py - qy), s * (qx - px), s * ((py - qy) * px + (qx - px) * py))
        for (px, py), (qx, qy) in combinations(coords, 2)
        for s in (1, -1)
    }
    basis |= {
        half_plane(s * a, s * b, s * k)
        for a, b, sides in ((1, 0, width), (0, 1, height))
        for k in range(sides)
        for s in (1, -1)
    }
    return intersection_closure(GroundSet(tuple(f"{x},{y}" for x, y in coords)), basis)


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
    ground = GroundSet(tuple("<".join(elems[i] for i in perm) for perm in perms))
    basis = [
        PointSet.from_indices(i for i, p in enumerate(perms) if p.index(a) < p.index(b))
        for a in range(k)
        for b in range(k)
        if a != b
    ]
    return intersection_closure(ground, basis)


def random_separable(points: int, seed: int) -> ConvexitySpace:
    """Seeded random separable space on "p0".."p<points-1>".

    Draws two or three random proper half-space pairs (a set and its
    complement) and closes them under intersection; complement-closed
    bases always close to separable spaces, which is re-checked here.
    """
    if points < 2:
        raise ValueError("random separable spaces need at least 2 points")
    check_ground_size(points)  # before building one label per point
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
