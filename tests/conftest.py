"""Shared corpus builders, naive reference oracles, and fixtures.

The naive functions re-implement the library's quantities straight from
their definitions, with none of the pruning or integer plumbing (measures
are plain sums of Fraction weights, `fraction_measure`), so that the fast
implementations have something independent to disagree with.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations, product
from operator import and_
from typing import Iterable, NamedTuple, Sequence

import pytest

from radonnets import (
    ConvexFamily,
    ConvexitySpace,
    DisjointnessGraph,
    Distribution,
    EmptyIntersection,
    Graph,
    GroundSet,
    PointSet,
    cylinder_space,
    halfspaces,
    lattice_convex_space,
    linear_extension_space,
    power_set_space,
    random_separable,
    subtree_space,
)
from radonnets.nets import NetNode, NetParams, _net_params, size_bound_value


# --- corpus --------------------------------------------------------------------

POSET_BASES = {
    "poset-antichain-2": (("a", "b"), ()),
    "poset-antichain-3": (("a", "b", "c"), ()),
    "poset-antichain-4": (("a", "b", "c", "d"), ()),
    "poset-chain-3": (("a", "b", "c"), (("a", "b"), ("b", "c"))),
    "poset-vee-3": (("a", "b", "c"), (("a", "b"), ("a", "c"))),
    "poset-en-4": (("a", "b", "c", "d"), (("a", "c"), ("b", "c"), ("b", "d"))),
    "poset-diamond-4": (("a", "b", "c", "d"), (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d"))),
    "poset-twochains-4": (("a", "b", "c", "d"), (("a", "b"), ("c", "d"))),
}

GRID_DIMS = [(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)]


def tree_edge_lists() -> list[tuple[str, list[tuple[str, str]]]]:
    """Every tree on 2..8 vertices up to isomorphism, 47 in total."""
    import networkx as nx

    out = []
    for n in range(2, 9):
        for i, tree in enumerate(nx.nonisomorphic_trees(n)):
            edges = [(str(u), str(v)) for u, v in sorted(tree.edges())]
            out.append((f"tree-{n}v-{i}", edges))
    return out


def build_corpus() -> list[tuple[str, ConvexitySpace]]:
    spaces: list[tuple[str, ConvexitySpace]] = []
    for m in range(1, 6):
        spaces.append((f"power-{m}", power_set_space(m)))
    for n in range(1, 4):
        spaces.append((f"cylinders-{n}", cylinder_space(n)))
    for name, edges in tree_edge_lists():
        spaces.append((name, subtree_space(edges)))
    for w, h in GRID_DIMS:
        spaces.append((f"lattice-{w}x{h}", lattice_convex_space(w, h)))
    for name, (elements, relations) in POSET_BASES.items():
        spaces.append((name, linear_extension_space(elements, relations)))
    for seed in range(200):
        spaces.append((f"random-{seed:03d}", random_separable(3 + seed % 4, seed)))
    return spaces


def seeded_distribution(size: int, tag: str) -> Distribution:
    """Random rational weights, reproducible from the tag."""
    rng = random.Random(tag)
    nums = [rng.randint(0, 6) for _ in range(size)]
    if not any(nums):
        nums[0] = 1
    return Distribution.from_integer_weights(nums)


def corpus_distributions(name: str, size: int) -> list[Distribution]:
    """The criterion set: uniform plus 25 seeded random distributions."""
    dists = [Distribution.uniform(size)]
    dists += [seeded_distribution(size, f"{name}/dist{i}") for i in range(25)]
    return dists


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, ConvexitySpace]]:
    return build_corpus()


@pytest.fixture(scope="session")
def small_corpus(corpus) -> list[tuple[str, ConvexitySpace]]:
    """Members small enough for the fully naive oracles."""
    return [(name, sp) for name, sp in corpus if sp.ground.size <= 6 and len(sp.convex) <= 70]


# --- naive oracles -------------------------------------------------------------


def naive_hull(space: ConvexitySpace, points: frozenset[int]) -> frozenset[int]:
    result = frozenset(range(space.ground.size))
    for s in space.sets:
        member = frozenset(s.indices)
        if points <= member:
            result &= member
    return result


def naive_shattered(space: ConvexitySpace, points: frozenset[int]) -> bool:
    pts = sorted(points)
    for r in range(len(pts) + 1):
        for left in combinations(pts, r):
            a = frozenset(left)
            b = points - a
            if naive_hull(space, a) & naive_hull(space, b):
                return False
    return True


def naive_radon(space: ConvexitySpace) -> int:
    n = space.ground.size
    for r in range(1, n + 2):
        if not any(
            naive_shattered(space, frozenset(c)) for c in combinations(range(n), r)
        ):
            return r
    raise AssertionError("unreachable: the full ground set bound failed")


def naive_helly(family: ConvexFamily, ground_size: int) -> int:
    # Full 2^|family| sweep; callers must keep the family small.
    members = [frozenset(s.indices) for s in family.sets]
    universe = frozenset(range(ground_size))
    best = 1
    for size in range(1, len(members) + 1):
        for combo in combinations(range(len(members)), size):
            inter = universe
            for j in combo:
                inter &= members[j]
            if inter:
                continue
            ok = True
            for drop in combo:
                rest = universe
                for j in combo:
                    if j != drop:
                        rest &= members[j]
                if not rest:
                    ok = False
                    break
            if ok:
                best = max(best, size)
    return best


def reference_helly(family: ConvexFamily, ground_size: int) -> tuple[int, tuple[PointSet, ...]]:
    """Family-side Helly search by shrinking intersections.

    An inclusion-minimal family with empty intersection shrinks its
    running intersection strictly at every member, in any order, so a
    DFS over index-increasing subfamilies with strictly shrinking
    prefixes meets all of them; a leaf counts when dropping any member
    leaves a non-empty intersection.  Returns the largest such family,
    the first of that size in lexicographic order, or `(1, ())` when the
    whole family intersects.
    """
    masks = [s.mask for s in family.sets]
    best: list = [0, ()]

    def minimal(chosen: list[int]) -> bool:
        return all(reduce(and_, (masks[j] for j in chosen if j != drop), -1) for drop in chosen)

    def extend(chosen: list[int], inter: int, start: int) -> None:
        if inter == 0:
            if len(chosen) > best[0] and minimal(chosen):
                best[:] = [len(chosen), tuple(chosen)]
            return
        if len(chosen) + inter.bit_count() <= best[0]:
            return
        for j in range(start, len(masks)):
            if inter & ~masks[j]:
                extend(chosen + [j], inter & masks[j], j + 1)

    extend([], (1 << ground_size) - 1, 0)
    size, chosen = best
    return max(size, 1), tuple(family.sets[j] for j in chosen)


def point_side_helly(family: ConvexFamily, ground_size: int) -> int:
    """Helly number from the points (van de Vel, Theory of Convex
    Structures, 1993): the largest Y whose hulls hull(Y - y), y in Y,
    have empty common intersection, the hull of S being the intersection
    of the members that contain S.  Such sets are downward closed, so
    they are grown by size."""
    masks = [s.mask for s in family.sets]
    ground = (1 << ground_size) - 1

    def hull(y: int) -> int:
        return reduce(and_, (m for m in masks if y & m == y), ground)

    def independent(y: int) -> bool:
        return reduce(and_, (hull(y ^ (1 << i)) for i in range(ground_size) if y >> i & 1), ground) == 0

    best, frontier = 1, [0]
    while frontier:
        frontier = [
            y | 1 << i
            for y in frontier
            for i in range(y.bit_length(), ground_size)
            if independent(y | 1 << i)
        ]
        if frontier:
            best = max(best, frontier[0].bit_count())
    return best


def naive_vc(family: ConvexFamily, ground_size: int) -> int:
    masks = [s.mask for s in family.sets]
    best = 0
    for size in range(ground_size + 1):
        for combo in combinations(range(ground_size), size):
            y = 0
            for i in combo:
                y |= 1 << i
            if len({m & y for m in masks}) == 1 << size:
                best = max(best, size)
    return best


def fraction_measure(mu: Distribution, points: PointSet) -> Fraction:
    """The measure as a sum of Fraction weights, without the integer tables."""
    if points.mask >> mu.size:
        raise ValueError("point set exceeds the distribution's ground set")
    return sum((mu.weights[i] for i in points.indices), start=Fraction(0))


def naive_dense_sets(space: ConvexitySpace, mu: Distribution, eps: Fraction) -> list[PointSet]:
    return [s for s in space.sets if fraction_measure(mu, s) >= eps]


def disjointness_graph(space: ConvexitySpace, mu: Distribution, eps: Fraction) -> DisjointnessGraph:
    """Disjointness graph on every eps-dense convex set, unreduced: the
    reference for the chromatic certificate's reduction to minimal sets."""
    sets = naive_dense_sets(space, mu, eps)
    edges = [(i, j) for i, j in combinations(range(len(sets)), 2) if sets[i].isdisjoint(sets[j])]
    return DisjointnessGraph(tuple(sets), Graph.from_edges(len(sets), edges))


def naive_min_net(space: ConvexitySpace, mu: Distribution, eps: Fraction) -> int:
    targets = [s.mask for s in naive_dense_sets(space, mu, eps)]
    if not targets:
        return 0
    n = space.ground.size
    for size in range(1, n + 1):
        for combo in combinations(range(n), size):
            picked = 0
            for i in combo:
                picked |= 1 << i
            if all(t & picked for t in targets):
                return size
    raise AssertionError("unreachable: the whole ground set hits everything")


def naive_chromatic(adjacency: tuple[int, ...]) -> int:
    n = len(adjacency)
    if n == 0:
        return 0

    def colorable(k: int) -> bool:
        colors = [-1] * n

        def go(v: int) -> bool:
            if v == n:
                return True
            used = {colors[u] for u in range(v) if (adjacency[v] >> u) & 1}
            for c in range(k):
                if c not in used:
                    colors[v] = c
                    if go(v + 1):
                        return True
            colors[v] = -1
            return False

        return go(0)

    k = 1
    while not colorable(k):
        k += 1
    return k


# --- the net recursion in plain rationals --------------------------------------


def reference_amplification_depth(eps: Fraction, helly: int) -> int:
    """Levels until eps * (1 + 1/(2h))^n clears 1 - 1/h, one level at a time."""
    eps = Fraction(eps)
    target = 1 - Fraction(1, helly)
    factor = 1 + Fraction(1, 2 * helly)
    n = 0
    while eps <= target:
        eps *= factor
        n += 1
    return n


class ZeroMassCondition(ValueError):
    """Conditioning on a set of measure zero."""


def piercing_point(space: ConvexitySpace, sets: Iterable[PointSet]) -> int:
    """Least-index point common to all given sets (all of X when none given)."""
    inter = space.full.mask
    for s in sets:
        inter &= s.mask
    if inter == 0:
        raise EmptyIntersection("the given sets have empty intersection")
    return (inter & -inter).bit_length() - 1


def conditional(mu: Distribution, points: PointSet) -> Distribution:
    total = fraction_measure(mu, points)
    if total == 0:
        raise ZeroMassCondition(f"{points} has measure zero")
    return Distribution(
        tuple(w / total if i in points else Fraction(0) for i, w in enumerate(mu.weights))
    )


def greedy_packing(family: ConvexFamily, mu: Distribution, delta: Fraction) -> ConvexFamily:
    """Maximal delta-separated subfamily, greedily in canonical order.

    Distance is the measure of the symmetric difference; selected members
    are pairwise more than delta apart, and by maximality every family
    member is within delta of a selected one (asserted).
    """
    delta = Fraction(delta)
    if delta < 0:
        raise ValueError("delta must be non-negative")
    sets = family.sets
    dist = lambda a, b: fraction_measure(mu, a ^ b)
    chosen: list[PointSet] = []
    for s in sets:
        if all(dist(s, a) > delta for a in chosen):
            chosen.append(s)
    assert all(any(dist(s, a) <= delta for a in chosen) for s in sets), "packing is not a cover"
    return ConvexFamily(tuple(chosen))


def reference_weak_net(
    space: ConvexitySpace,
    family: ConvexFamily,
    mu: Distribution,
    eps: Fraction,
    helly: int,
) -> PointSet:
    """The net recursion in plain rationals: no memo, no integer tables."""
    threshold = 1 - Fraction(1, helly)
    b0 = [b for b in family.sets if fraction_measure(mu, b) > threshold]
    x0 = piercing_point(space, b0)
    points = {x0}
    if reference_amplification_depth(eps, helly) > 0:
        delta = eps / (4 * helly * helly)
        for a in greedy_packing(family, mu, delta):
            if fraction_measure(mu, a) > 0:
                child = reference_weak_net(
                    space,
                    family,
                    conditional(mu, a),
                    eps * (1 + Fraction(1, 2 * helly)),
                    helly,
                )
                points.update(child.indices)
    return PointSet.from_indices(points)


class ReferenceNet(NamedTuple):
    points: PointSet
    trace: NetNode
    size_bound: float
    params: NetParams


def reference_build_weak_net(
    space: ConvexitySpace,
    family: ConvexFamily,
    mu: Distribution,
    eps: Fraction,
    helly: int,
    vc: int,
) -> ReferenceNet:
    """The integer net recursion memoized on (support, level) alone: every
    node recomputes its support's mass, its piercing point and its packing
    distances.  The trace is the one `build_weak_net` must reproduce."""
    h, v = helly, vc
    params = _net_params(eps, h, v)
    eps, depth = params.eps, params.depth
    grow = 1 + Fraction(1, 2 * h)
    eps_levels = [eps * grow**level for level in range(depth + 1)]
    deltas = [e / (4 * h * h) for e in eps_levels]
    full = space.full.mask
    bmasks = [s.mask for s in family.sets]
    wsum = mu.mass
    memo: dict[tuple[int, int], tuple[NetNode, int]] = {}

    def recurse(m: int, level: int) -> tuple[NetNode, int]:
        key = (m, level)
        got = memo.get(key)
        if got is not None:
            return got
        w_m = wsum(m)
        inter = full
        for b in bmasks:
            if h * wsum(b & m) > (h - 1) * w_m:
                inter &= b
        if inter == 0:
            raise EmptyIntersection("dense half-spaces have empty intersection")
        x0 = (inter & -inter).bit_length() - 1
        if level >= depth:
            memo[key] = (NetNode(x0, eps_levels[level], PointSet(m), None, ()), 1 << x0)
            return memo[key]
        d = deltas[level]
        p, q = d.numerator, d.denominator
        chosen: list[int] = []
        for b in bmasks:
            if all(q * wsum((b ^ a) & m) > p * w_m for a in chosen):
                chosen.append(b)
        points = 1 << x0
        children = []
        for a in chosen:
            if wsum(a & m) > 0:
                child, cpts = recurse(m & a, level + 1)
                children.append((PointSet(a), child))
                points |= cpts
        node = NetNode(x0, eps_levels[level], PointSet(m), ConvexFamily.from_masks(chosen), tuple(children))
        memo[key] = (node, points)
        return memo[key]

    root, points = recurse(mu.support().mask, 0)
    del recurse
    return ReferenceNet(PointSet(points), root, size_bound_value(eps, h, v), params)


def same_trace(a: NetNode, b: NetNode) -> bool:
    """Whether two traces are the same DAG: equal node fields, equal child
    edges, and one node of `b` for each node of `a` (so shared subtrees are
    shared alike).  Walked once per node pair, by object id; comparing
    NetNodes with `==` walks the DAG as a tree, which is exponential."""
    pairs: dict[int, int] = {}
    back: dict[int, int] = {}
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if pairs.get(id(x), id(y)) != id(y) or back.get(id(y), id(x)) != id(x):
            return False
        if id(x) in pairs:
            continue
        pairs[id(x)], back[id(y)] = id(y), id(x)
        if (x.x0, x.eps, x.support, x.packing) != (y.x0, y.eps, y.support, y.packing):
            return False
        if [s for s, _ in x.children] != [s for s, _ in y.children]:
            return False
        stack.extend((cx, cy) for (_, cx), (_, cy) in zip(x.children, y.children))
    return True


# --- generator families enumerated from their definitions ----------------------


def reference_cylinder_space(n: int) -> ConvexitySpace:
    """Every pattern in {0, 1, *}^n matched against every n-bit string."""
    if not 1 <= n <= 6:
        raise ValueError("cylinder space needs 1 <= n <= 6")
    labels = tuple("".join(bits) for bits in product("01", repeat=n))
    masks = {0}
    for pattern in product("01*", repeat=n):
        masks.add(
            sum(1 << i for i, lab in enumerate(labels) if all(p in ("*", c) for p, c in zip(pattern, lab)))
        )
    return ConvexitySpace(GroundSet(labels), ConvexFamily.from_masks(masks))


def reference_subtree_space(edges: Iterable[tuple[str, str]]) -> ConvexitySpace:
    """Every connected vertex subset of the tree, by scanning all 2^n."""
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

    def connected(mask: int) -> bool:
        comp = frontier = mask & -mask
        while frontier:
            nxt = 0
            for i in PointSet(frontier):
                nxt |= adj[i]
            frontier = nxt & mask & ~comp
            comp |= frontier
        return comp == mask

    if not connected((1 << n) - 1):
        raise ValueError("the edges do not form a connected tree")
    masks = [m for m in range(1 << n) if m == 0 or connected(m)]
    return ConvexitySpace(GroundSet(tuple(labels)), ConvexFamily.from_masks(masks))


def reference_linear_extension_space(
    elements: Sequence[str], relations: Iterable[tuple[str, str]] = ()
) -> ConvexitySpace:
    """The extensions of every partial order refining the base, found by
    refining one incomparable pair at a time from the base order."""
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

    def closure(pairs: set[tuple[int, int]]) -> frozenset[tuple[int, int]]:
        out = set(pairs)
        changed = True
        while changed:
            changed = False
            for a, b in list(out):
                for c, d in list(out):
                    if b == c and (a, d) not in out:
                        out.add((a, d))
                        changed = True
        return frozenset(out)

    base_closed = closure(base)
    if any(a == b for a, b in base_closed):
        raise ValueError("the base relations contain a cycle")
    perms = [p for p in permutations(range(k)) if all(p.index(a) < p.index(b) for a, b in base_closed)]
    ground = GroundSet(tuple("<".join(elems[i] for i in perm) for perm in perms))

    def extensions(pairs: frozenset[tuple[int, int]]) -> int:
        return sum(1 << i for i, p in enumerate(perms) if all(p.index(a) < p.index(b) for a, b in pairs))

    masks = {0, extensions(base_closed)}
    seen = {base_closed}
    frontier = [base_closed]
    while frontier:
        nxt = []
        for poset in frontier:
            for a in range(k):
                for b in range(k):
                    if a != b and (a, b) not in poset and (b, a) not in poset:
                        refined = closure(set(poset) | {(a, b)})
                        if refined not in seen:
                            seen.add(refined)
                            masks.add(extensions(refined))
                            nxt.append(refined)
        frontier = nxt
    return ConvexitySpace(ground, ConvexFamily.from_masks(masks))


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


def reference_lattice_convex_space(width: int, height: int) -> ConvexitySpace:
    """Every fixed point of S -> hull(S) intersect grid, grown from the
    empty set one added point at a time; the hull is the Euclidean convex
    hull of the points (x, y), indexed y * width + x."""
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
