"""Exact brute-force oracles: chromatic number and minimum weak nets.

These are the reference answers other modules are checked against, so
they favor verifiable exhaustive search over cleverness.  Both still need
real pruning to finish on the sizes the test corpus uses:

* chromatic number: connected components, greedy clique lower bound,
  then iterative-deepening k-colorability with saturation-degree
  branching and symmetry capping on fresh colors; the coloring state is
  bit masks, copied per branch;
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


def _k_colorable(adj: Sequence[int], uncolored: int, forbidden: list[int], used: int, k: int) -> bool:
    """Whether the vertices in the mask `uncolored` take colors below k.

    `forbidden[v]` masks the colors of v's colored neighbors, and colors
    0..used-1 are in use.  Branches DSATUR-style on the uncolored vertex
    with the fewest free colors, lowest index on ties, and tries only one
    fresh color, `used` (fresh colors are interchangeable).  One stack
    frame per colored vertex holds the vertices left after it, its
    uncolored neighbors, the state it was picked in and its untried colors.
    """
    k_mask = (1 << k) - 1
    stack: list[list] = []
    while True:
        if not uncolored:
            return True
        best_v = -1
        best_free = k + 1
        m = uncolored
        while m:
            low = m & -m
            m ^= low
            v = low.bit_length() - 1
            cnt = (k_mask & ~forbidden[v]).bit_count()
            if cnt < best_free:
                best_v, best_free = v, cnt
                if cnt <= 1:
                    break
        rest = uncolored & ~(1 << best_v)
        stack.append([rest, adj[best_v] & rest, forbidden, used, k_mask & ~forbidden[best_v] & ((2 << used) - 1)])
        while stack and not stack[-1][4]:
            stack.pop()
        if not stack:
            return False
        frame = stack[-1]
        uncolored, nb, forbidden, used, colors = frame
        low = colors & -colors
        frame[4] = colors ^ low
        forbidden = forbidden.copy()
        while nb:
            u = nb & -nb
            forbidden[u.bit_length() - 1] |= low
            nb ^= u
        used = max(used, low.bit_length())


def exact_chromatic_number(graph: Graph, cap: Optional[int] = None) -> int:
    """Chromatic number, exactly.

    Computed per connected component as the max over components: each
    component is tried at k = max(best so far, greedy clique size), with
    the clique colored 0, 1, ..., and k rises until `_k_colorable`
    succeeds.  Raises `TooLarge` when the graph has more vertices than the
    cap (default: the package-wide size cap).
    """
    limit = size_cap() if cap is None else cap
    if graph.vertex_count > limit:
        raise TooLarge(f"graph has {graph.vertex_count} vertices, exact cap is {limit}")
    if graph.vertex_count == 0:
        return 0
    adj = graph.adjacency
    # Components share no vertex, so their cliques seed one list.
    forbidden = [0] * graph.vertex_count
    best = 1
    for uncolored in _components(adj, graph.vertex_count):
        if not uncolored & (uncolored - 1):
            continue  # a lone vertex takes color 0
        clique = _greedy_clique(adj, uncolored)
        for i, v in enumerate(clique):
            uncolored ^= 1 << v
            for u in PointSet(adj[v]).indices:
                forbidden[u] |= 1 << i
        k = max(best, len(clique))
        while not _k_colorable(adj, uncolored, forbidden, len(clique), k):
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
