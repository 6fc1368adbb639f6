"""Lower-bound certificates for weak epsilon-net size.

Two certificate families:

* chromatic: the eps-dense convex sets form a disjointness graph (edges
  between disjoint sets); assigning each dense set a net point inside it
  properly colors the graph, so every weak net has at least chi(G)
  points.  chi is computed exactly on the inclusion-minimal dense sets,
  which has the same chromatic number as the full graph: an induced
  subgraph can only lower chi, and a coloring of the minimal sets
  extends to all dense sets by coloring each one as some minimal subset.
* Radon: a Radon-shattered set Y of size r carries the uniform measure;
  hulls of its k-subsets (k = ceil(eps * r)) are eps-dense and hulls of
  disjoint subsets are disjoint, so the Kneser graph KG_{r,k} embeds in
  the disjointness graph and every weak net needs chi(KG_{r,k}) =
  r - 2k + 2 points (when r >= 2k).

Supporting pieces: explicit Kneser graphs, the closed-form Kneser
chromatic number, an intersecting-family union bound (at most
2^n - 2^(n-s) points across s intersecting families), and the n/10
check for quarter Kneser graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .exact import Graph, TooLarge, _minimal_dense_sets, exact_chromatic_number
from .invariants import radon_number
from .space import (
    ConsistencyError,
    ConvexitySpace,
    Distribution,
    PointSet,
    _HullCache,
    size_cap,
)


class TooLargeForExact(TooLarge):
    """Certificate requires an exact computation above the size cap."""


class NotIntersecting(ValueError):
    def __init__(self, index: int):
        self.index = index
        super().__init__(f"family {index} is not intersecting")


@dataclass(frozen=True, slots=True)
class DisjointnessGraph:
    """Vertex i is `sets[i]`; edges join disjoint sets."""

    sets: tuple[PointSet, ...]
    graph: Graph


@dataclass(frozen=True, slots=True)
class LowerBoundCertificate:
    """Proof that any weak eps-net for `mu` needs at least `bound` points.

    `support` is the shattered set behind a Radon certificate; `graph` is
    the (reduced) disjointness graph behind a chromatic certificate.
    """

    mu: Distribution
    eps: Fraction
    bound: int
    method: str
    support: Optional[PointSet] = None
    graph: Optional[DisjointnessGraph] = None


def _disjointness(sets: Sequence[PointSet]) -> Graph:
    """Graph on `sets` with an edge between every two disjoint members."""
    edges = [
        (i, j)
        for i, a in enumerate(sets)
        for j, b in enumerate(sets[i + 1:], start=i + 1)
        if a.isdisjoint(b)
    ]
    return Graph.from_edges(len(sets), edges)


def chromatic_lower_bound(
    space: ConvexitySpace,
    mu: Distribution,
    eps: Fraction,
    cap: Optional[int] = None,
) -> LowerBoundCertificate:
    """Exact chromatic number of the disjointness graph, as a certificate.

    The graph is reduced to inclusion-minimal dense sets before coloring
    (same chromatic number, see module docstring); the cap, defaulting to
    the package size cap, applies to the reduced vertex count.  A measure
    with no eps-dense set yields the trivial bound 0.
    """
    eps = Fraction(eps)
    sets = _minimal_dense_sets(space, mu, eps)
    limit = size_cap() if cap is None else cap
    if len(sets) > limit:
        raise TooLargeForExact(f"{len(sets)} minimal dense sets, exact cap is {limit}")
    graph = _disjointness(sets)
    chi = exact_chromatic_number(graph, cap=limit)
    return LowerBoundCertificate(
        mu=mu,
        eps=eps,
        bound=chi,
        method="exact-chromatic",
        graph=DisjointnessGraph(sets, graph),
    )


def radon_lower_bound(space: ConvexitySpace, eps: Fraction) -> LowerBoundCertificate:
    """Certificate from the largest Radon-shattered set.

    Synthesizes the uniform measure on a maximum shattered set Y (size
    r), for which any weak eps-net needs chi(KG_{r, ceil(eps*r)}) points.
    Reports the Kneser closed form r - 2k + 2 when r >= 2k (it dominates
    the rounded (1 - 2 eps) r form), otherwise that rounded form.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must satisfy 0 < eps <= 1")
    _, witness = radon_number(space)
    r = len(witness)
    if r == 0:
        raise ValueError("the ground set is empty")
    mu = Distribution.uniform_on(space.ground.size, witness)
    k = math.ceil(eps * r)
    if r >= 2 * k:
        bound = r - 2 * k + 2
        method = "lovasz-closed-form"
    else:
        bound = max(1, math.ceil((1 - 2 * eps) * r))
        method = "kneser-formula"
    return LowerBoundCertificate(mu=mu, eps=eps, bound=bound, method=method, support=witness)


@dataclass(frozen=True, slots=True)
class KneserGraph:
    """KG_{n,k}: vertices are the k-subsets of an n-set, edges disjointness."""

    n: int
    k: int
    subsets: tuple[PointSet, ...]
    graph: Graph


def kneser_graph(n: int, k: int) -> KneserGraph:
    """KG_{n,k}; raises `TooLargeForExact` above the package size cap."""
    if n < 1 or k < 1 or k > n:
        raise ValueError("Kneser graph needs 1 <= k <= n")
    limit = size_cap()
    # For j <= n/2, C(n, j) grows with j and is at least (n/j)^j >= 2^j,
    # so the count passes the cap within log2(cap) + 1 steps.
    count = 1
    for j in range(min(k, n - k)):
        count = count * (n - j) // (j + 1)
        if count > limit:
            raise TooLargeForExact(f"Kneser graph has more vertices than the cap of {limit}")
    subsets = tuple(PointSet.from_indices(c) for c in combinations(range(n), k))
    return KneserGraph(n, k, subsets, _disjointness(subsets))


def kneser_chromatic_number(n: int, k: int) -> int:
    """chi(KG_{n,k}): n - 2k + 2 for n >= 2k, else 1 (no edges)."""
    if n < 1 or k < 1 or k > n:
        raise ValueError("Kneser graph needs 1 <= k <= n")
    return n - 2 * k + 2 if n >= 2 * k else 1


class KleitmanCheck(NamedTuple):
    ok: bool
    union_size: int
    bound: int


def kleitman_union_bound(n: int, families: Sequence[Sequence[PointSet]]) -> KleitmanCheck:
    """Check s intersecting families on an n-set cover at most 2^n - 2^(n-s) sets.

    Each family must be intersecting: every two members (a member with
    itself included, so no empty sets) share a point.  Compare via the
    `ok` field; the tuple itself is always truthy.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    s = len(families)
    union: set[int] = set()
    for i, fam in enumerate(families):
        members = list(fam)
        for a in members:
            if a.mask >> n:
                raise ValueError(f"family {i} has a member outside the {n}-set")
        for a in members:
            for b in members:
                if a.mask & b.mask == 0:
                    raise NotIntersecting(i)
        union.update(a.mask for a in members)
    bound = 2**n - 2 ** (n - s) if s <= n else 2**n
    return KleitmanCheck(len(union) <= bound, len(union), bound)


def kneser_quarter_check(n: int) -> bool:
    """Whether chi(KG_{n, n/4}) exceeds n/10, by exact computation."""
    if n < 4 or n % 4:
        raise ValueError("n must be a positive multiple of 4")
    kg = kneser_graph(n, n // 4)
    chi = exact_chromatic_number(kg.graph)
    return 10 * chi > n


def kneser_embedding(
    space: ConvexitySpace, shattered: PointSet, eps: Fraction
) -> tuple[tuple[PointSet, PointSet], ...]:
    """Map k-subsets of a shattered set to their hulls, k = ceil(eps * |Y|).

    Verifies the properties the Radon certificate rests on: the hull of Z
    meets the shattered set exactly in Z (so the map is injective) and
    hulls of disjoint subsets are disjoint.  A violation means the set is
    not actually shattered and raises `ConsistencyError`.
    """
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must satisfy 0 < eps <= 1")
    r = len(shattered)
    if r == 0:
        raise ValueError("the shattered set is empty")
    k = math.ceil(eps * r)
    hulls = _HullCache(space)
    pairs = []
    for c in combinations(shattered.indices, k):
        z = PointSet.from_indices(c)
        hull = PointSet(hulls.hull(z.mask))
        if hull.mask & shattered.mask != z.mask:
            raise ConsistencyError(
                f"hull of {z} meets the shattered set beyond {z}; it is not shattered"
            )
        pairs.append((z, hull))
    for i, (z1, h1) in enumerate(pairs):
        for z2, h2 in pairs[i + 1:]:
            if z1.isdisjoint(z2) and not h1.isdisjoint(h2):
                raise ConsistencyError(
                    f"hulls of disjoint subsets {z1} and {z2} intersect; not shattered"
                )
    return tuple(pairs)
