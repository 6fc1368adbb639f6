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
chromatic number, and the hull embedding of a shattered set's k-subsets
that the Radon certificate rests on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from .exact import Graph, _minimal_dense_sets, exact_chromatic_number
from .invariants import radon_number
from .space import (
    ConsistencyError,
    ConvexitySpace,
    Distribution,
    PointSet,
    TooLarge,
    _HullCache,
    check_eps,
    check_ground_size,
    size_cap,
)


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


def _disjointness(sets: Sequence[PointSet]) -> DisjointnessGraph:
    """Disjointness graph on `sets`: row i has bit j when sets i and j are
    disjoint and j != i, so an empty set gets no self-loop."""
    masks = [s.mask for s in sets]
    rows = []
    for i, a in enumerate(masks):
        row = 0
        for j, b in enumerate(masks):
            if not a & b:
                row |= 1 << j
        rows.append(row & ~(1 << i))
    return DisjointnessGraph(tuple(sets), Graph(len(sets), tuple(rows)))


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
    eps = check_eps(eps)
    sets = _minimal_dense_sets(space, mu, eps)
    limit = size_cap() if cap is None else cap
    if len(sets) > limit:
        raise TooLarge(f"{len(sets)} minimal dense sets, exact cap is {limit}")
    dg = _disjointness(sets)
    chi = exact_chromatic_number(dg.graph, cap=limit)
    return LowerBoundCertificate(mu=mu, eps=eps, bound=chi, method="exact-chromatic", graph=dg)


def radon_lower_bound(space: ConvexitySpace, eps: Fraction) -> LowerBoundCertificate:
    """Certificate from the largest Radon-shattered set.

    Synthesizes the uniform measure on a maximum shattered set Y (size
    r), for which any weak eps-net needs chi(KG_{r, ceil(eps*r)}) points.
    Reports `kneser_chromatic_number(r, k)`: the Lovasz closed form
    r - 2k + 2 when r >= 2k, otherwise 1, since KG_{r,k} has no edges.
    """
    eps = check_eps(eps)
    _, witness = radon_number(space)
    r = len(witness)
    if r == 0:
        raise ValueError("the ground set is empty")
    mu = Distribution.uniform_on(space.ground.size, witness)
    k = math.ceil(eps * r)
    method = "lovasz-closed-form" if r >= 2 * k else "kneser-formula"
    bound = kneser_chromatic_number(r, k)
    return LowerBoundCertificate(mu=mu, eps=eps, bound=bound, method=method, support=witness)


def kneser_graph(n: int, k: int) -> DisjointnessGraph:
    """KG_{n,k}: the disjointness graph of the k-subsets of an n-set, in
    `combinations` order; raises `TooLarge` above the package size cap."""
    if n < 1 or k < 1 or k > n:
        raise ValueError("Kneser graph needs 1 <= k <= n")
    limit = size_cap()
    # For j <= n/2, C(n, j) grows with j and is at least (n/j)^j >= 2^j,
    # so the count passes the cap within log2(cap) + 1 steps.
    count = 1
    for j in range(min(k, n - k)):
        count = count * (n - j) // (j + 1)
        if count > limit:
            raise TooLarge(f"Kneser graph has more vertices than the cap of {limit}")
    # The n-set is the graph's ground set; for k < n, C(n, k) >= n was counted above.
    check_ground_size(n)
    return _disjointness([PointSet.from_indices(c) for c in combinations(range(n), k)])


def kneser_chromatic_number(n: int, k: int) -> int:
    """chi(KG_{n,k}): n - 2k + 2 for n >= 2k, else 1 (no edges)."""
    if n < 1 or k < 1 or k > n:
        raise ValueError("Kneser graph needs 1 <= k <= n")
    return n - 2 * k + 2 if n >= 2 * k else 1


def kneser_embedding(
    space: ConvexitySpace, shattered: PointSet, eps: Fraction
) -> tuple[tuple[PointSet, PointSet], ...]:
    """Map k-subsets of a shattered set to their hulls, k = ceil(eps * |Y|).

    Verifies the properties the Radon certificate rests on: the hull of Z
    meets the shattered set exactly in Z (so the map is injective) and
    hulls of disjoint subsets are disjoint.  A violation means the set is
    not actually shattered and raises `ConsistencyError`.
    """
    eps = check_eps(eps)
    if shattered.mask & ~space.full.mask:
        raise ValueError(f"{shattered} is not a subset of the ground set")
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
