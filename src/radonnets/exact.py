"""Exact brute-force oracles: chromatic number and minimum weak nets.

These are the reference answers other modules are checked against, so
they favor verifiable exhaustive search over cleverness.  Both still need
real pruning to finish on the sizes the test corpus uses:

* chromatic number: connected components, greedy clique lower bound,
  then iterative-deepening k-colorability with saturation-degree
  branching and symmetry capping on fresh colors; the coloring state is
  one mask per color of the vertices next to it, plus each vertex's
  count of adjacent colors bit-sliced across log k masks, all copied per
  branch, so a node costs O(k) big-int operations whatever the degree;
* minimum weak net: one lexicographic hitting-set search over the
  inclusion-minimal dense sets (`_minimal_dense_sets`, which the
  chromatic certificate in `bounds` calls too), run at each size from a
  disjoint-packing lower bound up; the first size that succeeds is the
  optimum, and the set it finds is the lexicographically least optimal
  net.

Both searches are loops over an explicit stack, one frame per colored
vertex or picked point, so the recursion limit does not bound them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .space import (
    ConsistencyError,
    ConvexitySpace,
    Distribution,
    PointSet,
    TooLarge,
    check_eps,
    size_cap,
)


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1, adjacency as bitmasks."""

    vertex_count: int
    adjacency: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.adjacency) != self.vertex_count:
            raise ValueError("adjacency table length must equal the vertex count")
        for v, row in enumerate(self.adjacency):
            if row >> self.vertex_count:
                raise ValueError("adjacency row exceeds the vertex range")
            if (row >> v) & 1:
                raise ValueError(f"vertex {v} has a self-loop")
        for v, row in enumerate(self.adjacency):
            m = row
            while m:
                low = m & -m
                u = low.bit_length() - 1
                if not (self.adjacency[u] >> v) & 1:
                    raise ValueError(f"edge {v}-{u} is not symmetric")
                m ^= low

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adjacency) // 2


def _components(adj: Sequence[int], n: int) -> list[int]:
    seen = 0
    comps = []
    for v in range(n):
        if (seen >> v) & 1:
            continue
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            frontier = nxt & ~comp
            comp |= frontier
        comps.append(comp)
        seen |= comp
    return comps


def _greedy_clique(adj: Sequence[int], comp: int) -> list[int]:
    """A maximal clique in the mask `comp`, taken greedily by degree."""
    clique: list[int] = []
    for v in sorted(PointSet(comp).indices, key=lambda v: (-(adj[v].bit_count()), v)):
        if (comp >> v) & 1:
            clique.append(v)
            comp &= adj[v]
    return clique


def _count_in(planes: list[int], added: int) -> None:
    """Add 1 to the count of every vertex in the mask `added`.

    The counts are bit-sliced, most significant plane first: bit v of
    `planes[-1 - j]` is bit j of vertex v's count.  The carry ripples up
    from the last plane, so every count must stay below 2**len(planes).
    """
    j = -1
    while added:
        plane = planes[j]
        planes[j] = plane ^ added
        added &= plane
        j -= 1


def _k_colorable(adj: Sequence[int], uncolored: int, classes: list[int], k: int) -> bool:
    """Whether the vertices in the mask `uncolored` take colors below k.

    `classes[c]` masks the vertices next to a vertex of color c, one mask
    per color in use.  Each uncolored vertex's count of adjacent colors
    (at most k) is bit-sliced across k.bit_length() planes (`_count_in`),
    so the DSATUR pick, most adjacent colors and lowest index on ties, is
    the uncolored mask filtered plane by plane from the most significant.
    Only one fresh color is tried per vertex, the next one unused (fresh
    colors are interchangeable).  One stack frame per colored vertex
    holds the vertices left after it, its uncolored neighbors, the class
    masks, planes and color count it was picked in, and its untried
    colors.  A branch copies those k + log k masks, ORs the neighbors into
    one class and counts the newly adjacent ones in; it walks no
    neighbor list.
    """
    used = len(classes)
    classes = classes + [0] * (k - used)
    planes = [0] * k.bit_length()
    for cls in classes:
        _count_in(planes, cls & uncolored)
    stack: list[list] = []
    while True:
        if not uncolored:
            return True
        pick = uncolored
        for plane in planes:
            if pick & plane:
                pick &= plane
        low = pick & -pick
        v = low.bit_length() - 1
        colors = 0
        bit = 1
        for cls in classes[: used + 1]:
            if not cls & low:
                colors |= bit
            bit <<= 1
        rest = uncolored ^ low
        stack.append([rest, adj[v] & rest, classes, planes, used, colors])
        while stack and not stack[-1][5]:
            stack.pop()
        if not stack:
            return False
        frame = stack[-1]
        uncolored, nb, classes, planes, used, colors = frame
        bit = colors & -colors
        frame[5] = colors ^ bit
        c = bit.bit_length() - 1
        classes = classes.copy()
        planes = planes.copy()
        _count_in(planes, nb & ~classes[c])
        classes[c] |= nb
        if c == used:
            used += 1


def exact_chromatic_number(graph: Graph, cap: Optional[int] = None) -> int:
    """Chromatic number, exactly.

    Computed per connected component as the max over components: each
    component is tried at k = max(best so far, greedy clique size), with
    the clique colored 0, 1, ... as the first class masks, and k rises
    until `_k_colorable` succeeds.  Raises `TooLarge` when the graph has more vertices than the
    cap (default: the package-wide size cap).
    """
    limit = size_cap() if cap is None else cap
    if graph.vertex_count > limit:
        raise TooLarge(f"graph has {graph.vertex_count} vertices, exact cap is {limit}")
    if graph.vertex_count == 0:
        return 0
    adj = graph.adjacency
    best = 1
    for uncolored in _components(adj, graph.vertex_count):
        if not uncolored & (uncolored - 1):
            continue  # a lone vertex takes color 0
        clique = _greedy_clique(adj, uncolored)
        for v in clique:
            uncolored ^= 1 << v
        classes = [adj[v] for v in clique]
        k = max(best, len(clique))
        while not _k_colorable(adj, uncolored, classes, k):
            k += 1
        best = k
    return best


# --- minimum weak nets by exhaustive hitting-set search -----------------------


@dataclass(frozen=True, slots=True)
class HittingSetInstance:
    """The dense sets every weak net must hit."""

    targets: tuple[PointSet, ...]


def dense_sets(space: ConvexitySpace, mu: Distribution, eps: Fraction) -> tuple[PointSet, ...]:
    """Convex sets of measure at least eps, in canonical order."""
    return _dense_sets(space, mu, check_eps(eps))


def _dense_sets(space: ConvexitySpace, mu: Distribution, eps: Fraction) -> tuple[PointSet, ...]:
    """`dense_sets` for an eps that `check_eps` has returned."""
    if mu.size != space.ground.size:
        raise ValueError("distribution size does not match the ground set")
    # mass / den >= p / q, and masses are integers: mass >= ceil(p * den / q).
    least = -(-eps.numerator * mu.den // eps.denominator)
    mass = mu.mass
    return tuple([s for s in space.sets if mass(s.mask) >= least])


def _minimal_dense_sets(space: ConvexitySpace, mu: Distribution, eps: Fraction) -> tuple[PointSet, ...]:
    """Inclusion-minimal eps-dense convex sets, in canonical order.

    The dense sets are scanned by popcount, so a set is minimal iff no set
    kept before it lies inside it.  When all are minimal the dense tuple
    itself is returned; otherwise its subsequence of minimal sets, which
    is canonical because the dense tuple is.
    """
    dense = _dense_sets(space, mu, check_eps(eps))
    masks = [s.mask for s in dense]
    masks.sort(key=int.bit_count)
    kept: list[int] = []
    for m in masks:
        for k in kept:
            if k & m == k:
                break
        else:
            kept.append(m)
    if len(kept) == len(dense):
        return dense
    minimal = set(kept)
    return tuple([s for s in dense if s.mask in minimal])


def hitting_instance(space: ConvexitySpace, mu: Distribution, eps: Fraction) -> HittingSetInstance:
    """Hitting-set form of the minimum weak net problem.

    Targets are the inclusion-minimal dense sets (hitting those hits every
    dense set).  Every ground point is a candidate; weak nets may use
    zero-mass points.
    """
    return HittingSetInstance(_minimal_dense_sets(space, mu, eps))


def _packing_bound(targets: list[int], allowed: int) -> int:
    """Greedy count of targets pairwise disjoint on `allowed`, smallest
    first: a hitting set inside `allowed` needs at least that many points."""
    used = 0
    cnt = 0
    for t in sorted(targets, key=lambda t: (t & allowed).bit_count()):
        if t & allowed & used == 0:
            used |= t & allowed
            cnt += 1
    return cnt


def _lex_least(targets: list[int], size: int) -> Optional[int]:
    """Lexicographically least hitting set of `targets` with at most
    `size` points, or None.

    Picks ascend, so the DFS meets candidates in lex order; each prune cuts
    only branches that hold no solution.  A pick comes from an unhit
    target: every point of an irredundant net is the only hit of some
    target, so no optimum is lost.  One stack frame per pick holds the
    targets unhit before it, the points picked before it and its untried
    choices.
    """
    remaining, chosen = targets, 0
    stack: list[list] = []
    while True:
        if not remaining:
            return chosen
        allowed = -1 << chosen.bit_length()
        pool = 0
        cap = -1
        for t in remaining:
            t &= allowed
            pool |= t
            # Later picks are higher, so t must be hit at or below its top point.
            # This cap keeps every unhit target's top point above the last pick,
            # so t is never empty here.
            cap &= (1 << t.bit_length()) - 1
        if _packing_bound(remaining, allowed) <= size - chosen.bit_count():
            stack.append([remaining, chosen, pool & cap])
        while stack and not stack[-1][2]:
            stack.pop()
        if not stack:
            return None
        frame = stack[-1]
        remaining, chosen, picks = frame
        low = picks & -picks
        frame[2] = picks ^ low
        remaining = [t for t in remaining if not t & low]
        chosen |= low


def minimal_weak_net(space: ConvexitySpace, mu: Distribution, eps: Fraction) -> tuple[int, PointSet]:
    """Exact minimum size of a weak eps-net, with a witness.

    A weak net must contain a point of every convex set of measure >= eps.
    Returns the minimum size and the lexicographically least optimal net:
    the lex search runs at each size from the packing bound up, and the
    first size it succeeds at is the optimum.
    """
    targets = [t.mask for t in hitting_instance(space, mu, eps).targets]
    for size in range(_packing_bound(targets, -1), len(targets) + 1):
        witness = _lex_least(targets, size)
        if witness is not None:
            return size, PointSet(witness)
    raise ConsistencyError("no net of at most one point per minimal dense set hits them all")
