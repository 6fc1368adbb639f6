"""Exact brute-force oracles: chromatic number and minimum weak nets.

These are the reference answers other modules are checked against, so
they favor verifiable exhaustive search over cleverness.  Both still need
real pruning to finish on the sizes the test corpus uses:

* chromatic number: connected components, greedy clique lower bound,
  then iterative-deepening k-colorability with saturation-degree
  branching and symmetry capping on fresh colors;
* minimum weak net: branch and bound on inclusion-minimal dense sets with
  a disjoint-packing lower bound, then a second pass for the
  lexicographically least optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .space import (
    ConsistencyError,
    ConvexitySpace,
    Distribution,
    PointSet,
    canonical_sets,
    size_cap,
)


class TooLarge(ValueError):
    """Instance exceeds the exact-computation ceiling."""


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

    @classmethod
    def from_edges(cls, vertex_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        adj = [0] * vertex_count
        for a, b in edges:
            if a == b:
                raise ValueError(f"self-loop at vertex {a}")
            if not (0 <= a < vertex_count and 0 <= b < vertex_count):
                raise ValueError(f"edge {a}-{b} is outside the vertex range")
            adj[a] |= 1 << b
            adj[b] |= 1 << a
        return cls(vertex_count, tuple(adj))

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.vertex_count):
            m = self.adjacency[v] >> (v + 1)
            base = v + 1
            while m:
                low = m & -m
                out.append((v, base + low.bit_length() - 1))
                m ^= low
        return out


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


def _greedy_clique(adj: Sequence[int], vertices: list[int]) -> list[int]:
    order = sorted(vertices, key=lambda v: (-(adj[v].bit_count()), v))
    clique: list[int] = []
    cand = 0
    for v in vertices:
        cand |= 1 << v
    for v in order:
        if (cand >> v) & 1:
            clique.append(v)
            cand &= adj[v]
    return clique


def _k_colorable(adj: Sequence[int], vertices: list[int], k: int, clique: list[int]) -> bool:
    """Exact k-colorability by DSATUR-style DFS.

    Seeds a clique (of at most k vertices) with distinct colors, branches
    on the uncolored vertex with the fewest available colors, and never
    tries more than one fresh color (fresh colors are interchangeable).
    """
    color: dict[int, int] = {}
    forbidden: dict[int, int] = {v: 0 for v in vertices}
    k_mask = (1 << k) - 1

    def assign(v: int, c: int) -> list[int]:
        color[v] = c
        touched = []
        m = adj[v]
        bit = 1 << c
        while m:
            low = m & -m
            u = low.bit_length() - 1
            if u in forbidden and u not in color and not forbidden[u] & bit:
                forbidden[u] |= bit
                touched.append(u)
            m ^= low
        return touched

    def undo(v: int, c: int, touched: list[int]) -> None:
        del color[v]
        bit = 1 << c
        for u in touched:
            forbidden[u] ^= bit

    for i, v in enumerate(clique):
        assign(v, i)

    def dfs(max_used: int) -> bool:
        if len(color) == len(vertices):
            return True
        best_v = -1
        best_free = -1
        for u in vertices:
            if u in color:
                continue
            free = k_mask & ~forbidden[u]
            cnt = free.bit_count()
            if cnt == 0:
                return False
            if best_v < 0 or cnt < best_free:
                best_v, best_free = u, cnt
                if cnt == 1:
                    break
        free = k_mask & ~forbidden[best_v]
        tried_fresh = False
        m = free
        while m:
            low = m & -m
            c = low.bit_length() - 1
            m ^= low
            if c >= max_used:
                if tried_fresh:
                    break
                tried_fresh = True
            touched = assign(best_v, c)
            if dfs(max(max_used, c + 1)):
                return True
            undo(best_v, c, touched)
        return False

    ok = dfs(len(clique))
    del dfs  # breaks the closure's reference to itself
    return ok


def exact_chromatic_number(graph: Graph, cap: Optional[int] = None) -> int:
    """Chromatic number, exactly.

    Computed per connected component as the max over components: each
    component is tried at k = max(best so far, greedy clique size) and k
    rises until `_k_colorable` succeeds.  Raises
    `TooLarge` when the graph has more vertices than the cap (default:
    the package-wide size cap).
    """
    limit = size_cap() if cap is None else cap
    if graph.vertex_count > limit:
        raise TooLarge(f"graph has {graph.vertex_count} vertices, exact cap is {limit}")
    if graph.vertex_count == 0:
        return 0
    best = 1
    for comp in _components(graph.adjacency, graph.vertex_count):
        vertices = PointSet(comp).indices
        vs = list(vertices)
        if len(vs) == 1:
            continue
        clique = _greedy_clique(graph.adjacency, vs)
        k = max(best, len(clique))
        while not _k_colorable(graph.adjacency, vs, k, clique):
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
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must satisfy 0 < eps <= 1")
    if mu.size != space.ground.size:
        raise ValueError("distribution size does not match the ground set")
    # mass / den >= p / q, cross-multiplied.
    p, q = eps.numerator * mu.den, eps.denominator
    return tuple(s for s in space.sets if q * mu.mass(s.mask) >= p)


def _minimal_dense_sets(space: ConvexitySpace, mu: Distribution, eps: Fraction) -> tuple[PointSet, ...]:
    """Inclusion-minimal eps-dense convex sets, in canonical order.

    Scanned by popcount, so every kept set is minimal.
    """
    kept: list[int] = []
    for m in sorted((s.mask for s in dense_sets(space, mu, eps)), key=int.bit_count):
        if not any(k & ~m == 0 for k in kept):
            kept.append(m)
    return canonical_sets(PointSet(m) for m in kept)


def hitting_instance(space: ConvexitySpace, mu: Distribution, eps: Fraction) -> HittingSetInstance:
    """Hitting-set form of the minimum weak net problem.

    Targets are the inclusion-minimal dense sets (hitting those hits every
    dense set).  Every ground point is a candidate; weak nets may use
    zero-mass points.
    """
    return HittingSetInstance(_minimal_dense_sets(space, mu, eps))


def minimal_weak_net(space: ConvexitySpace, mu: Distribution, eps: Fraction) -> tuple[int, PointSet]:
    """Exact minimum size of a weak eps-net, with a witness.

    A weak net must contain a point of every convex set of measure >= eps.
    Returns the minimum size and the lexicographically least optimal net.
    """
    targets = [t.mask for t in hitting_instance(space, mu, eps).targets]
    if not targets:
        return 0, PointSet(0)
    full = space.full.mask

    def greedy_bound() -> int:
        remaining = list(targets)
        picked = 0
        while remaining:
            counts: dict[int, int] = {}
            for t in remaining:
                m = t & ~picked
                while m:
                    low = m & -m
                    counts[low.bit_length() - 1] = counts.get(low.bit_length() - 1, 0) + 1
                    m ^= low
            v = max(counts, key=lambda i: (counts[i], -i))
            picked |= 1 << v
            remaining = [t for t in remaining if t & picked == 0]
        return picked.bit_count()

    def packing_bound(remaining: list[int], allowed: int) -> int:
        used = 0
        cnt = 0
        for t in sorted(remaining, key=lambda t: (t & allowed).bit_count()):
            if t & allowed & used == 0:
                used |= t & allowed
                cnt += 1
        return cnt

    best = greedy_bound()

    def search(remaining: list[int], chosen: int, allowed: int) -> None:
        nonlocal best
        if not remaining:
            best = min(best, chosen.bit_count())
            return
        if chosen.bit_count() + packing_bound(remaining, allowed) >= best:
            return
        # Branch on the hardest target: fewest candidate points.
        target = min(remaining, key=lambda t: ((t & allowed).bit_count(), t))
        m = target & allowed
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            nxt = [t for t in remaining if not (t >> v) & 1]
            search(nxt, chosen | (1 << v), allowed)
            # Covers containing v were all explored above; ban it below.
            allowed &= ~(1 << v)

    search(targets, 0, full)
    del search  # breaks the closure's reference to itself

    # Second pass: reconstruct the lexicographically least net of the
    # optimal size.  Optimal nets are irredundant, so every picked point
    # can be charged to a target it alone covers; restricting picks to
    # points of still-uncovered targets loses no optimum.
    size = best

    def lex_least(remaining: list[int], chosen: list[int], start: int) -> Optional[list[int]]:
        if not remaining:
            return list(chosen)
        if len(chosen) == size:
            return None
        if packing_bound(remaining, full) > size - len(chosen):
            return None
        pool = 0
        for t in remaining:
            pool |= t
        m = pool >> start << start
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            chosen.append(v)
            got = lex_least([t for t in remaining if not (t >> v) & 1], chosen, v + 1)
            if got is not None:
                return got
            chosen.pop()
        return None

    witness = lex_least(targets, [], 0)
    del lex_least  # breaks the closure's reference to itself
    if witness is None:
        raise ConsistencyError("optimal size verified but no witness found")
    return size, PointSet.from_indices(witness)
