"""Radon number, Helly number, and VC dimension of finite convexity spaces.

All three are computed exactly by constrained search:

* Radon: the largest set whose every bipartition has disjoint hulls.
* Helly: the largest inclusion-minimal subfamily with empty intersection.
  Such a family is one whose every member has a private point, in all
  the other members but not in it.  A DFS over index-increasing
  subfamilies tracks each member's private region and cuts a branch as
  soon as one empties, which keeps it to the minimal families and their
  prefixes.
* VC: the largest set whose every subset is a trace of the family.

Shattering and full traces are downward monotone, so one frontier
search, growing sets by size, serves Radon and VC.  A candidate is
asked about only when every one-point-smaller subset was accepted; one
pass over each level builds, per dropped set, the mask of points that
extend it within the level, and a set's allowed extensions are the AND
of those masks over its drops.  The two searches stay independent, so
`analyze` checks VC against Radon rather than deriving it.  Reported
witnesses are the lexicographically least of maximum size, so results
are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional, Sequence

from .space import (
    ConsistencyError,
    ConvexFamily,
    ConvexitySpace,
    PointSet,
    _HullCache,
    halfspaces,
    is_separable,
)


@dataclass(frozen=True, slots=True)
class InvariantReport:
    radon: int
    helly: int
    vc: int
    separable: bool
    radon_witness: PointSet
    helly_witness: tuple[PointSet, ...]
    vc_witness: PointSet


def _largest_downward_closed(n: int, keep: Callable[[int], bool]) -> int:
    """Lexicographically least maximum subset of range(n) accepted by the
    downward-monotone `keep`, grown by size from a frontier of accepted
    sets.  Extending only by points above the top index generates every
    candidate once, in lexicographic order.  A frontier holds every
    accepted set of its size, so a candidate with a one-point-smaller
    subset outside it would be rejected, and `keep` is not asked.

    Those subsets are read off per-drop extension masks: `ext[d]` has
    bit p when d | p is in the frontier, so y may grow by q exactly when
    q is in `ext[y ^ p]` for every point p of y."""
    full = (1 << n) - 1
    frontier = [0]
    best = 0
    while frontier:
        ext: dict[int, int] = {}
        for x in frontier:
            rest = x
            while rest:
                low = rest & -rest
                d = x ^ low
                ext[d] = ext.get(d, 0) | low
                rest ^= low
        nxt = []
        for y in frontier:
            top = y.bit_length()
            allowed = full >> top << top
            rest = y
            while rest:
                low = rest & -rest
                allowed &= ext[y ^ low]
                rest ^= low
            while allowed:
                bit = allowed & -allowed
                if keep(y | bit):
                    nxt.append(y | bit)
                allowed ^= bit
        if nxt:
            best = nxt[0]
        frontier = nxt
    return best


def _shattered(hc: _HullCache, y: int) -> bool:
    """Every bipartition of `y` has hulls with empty intersection.

    The hull of the empty part is empty, so one-sided splits are fine and
    the empty set and singletons are trivially shattered.  The split
    (y, ∅) is skipped, so the hull of `y` itself is never computed.
    """
    if y == 0 or y & (y - 1) == 0:
        return True
    # Fix the lowest point into part one so each unordered split comes up once.
    low = y & -y
    rest = y ^ low
    sub = rest
    while sub:
        sub = (sub - 1) & rest
        a = low | sub
        b = y ^ a
        if hc.hull(a) & hc.hull(b):
            return False
    return True


def radon_number(space: ConvexitySpace) -> tuple[int, PointSet]:
    """Smallest r such that every r-point multiset admits a Radon split.

    Equals one plus the largest shattered set size.  Returns the number
    and the lexicographically least shattered witness of maximum size.
    """
    hc = _HullCache(space)
    best = _largest_downward_closed(space.ground.size, partial(_shattered, hc))
    return best.bit_count() + 1, PointSet(best)


def helly_number(family: ConvexFamily) -> tuple[int, tuple[PointSet, ...]]:
    """Largest inclusion-minimal subfamily with empty total intersection.

    When the whole family already intersects (including the vacuous case
    of no sets) there is no empty-intersection subfamily: the Helly
    number is 1 with an empty witness, meaning non-empty intersection is
    forced by singletons alone.

    The witness is the canonically least subfamily of maximum size.
    """
    masks = family.masks()
    total = -1
    union = 0
    for m in masks:
        total &= m
        union |= m
    if not masks or total != 0:
        return 1, ()
    if union == 0:
        return 1, family.sets  # just the empty set
    best = _largest_minimal(masks, [], [], union, 0, 0)
    return len(best), tuple(family.sets[j] for j in best)


def _largest_minimal(
    masks: Sequence[int], chosen: list[int], private: list[int], inter: int, start: int, best_size: int
) -> Optional[tuple[int, ...]]:
    """Canonically least largest family, with more than `best_size`
    members, that is inclusion-minimal with empty intersection and
    extends `chosen` by members from `start` on; None when there is none.

    A family is minimal with empty intersection exactly when its
    intersection is empty and each member has a private point, one in
    every other member but not in it.  `inter` is the intersection of
    `chosen` and `private[i]` the points in every chosen member but
    `chosen[i]`; adding members only shrinks them, so a branch is cut as
    soon as a private region empties.
    """
    if inter == 0:
        return tuple(chosen) if len(chosen) > best_size else None
    # The members still to come have distinct private points inside `inter`.
    if len(chosen) + inter.bit_count() <= best_size:
        return None
    best = None
    for j in range(start, len(masks)):
        m = masks[j]
        if inter & ~m:
            kept = [p & m for p in private]
            if all(kept):
                kept.append(inter & ~m)
                got = _largest_minimal(masks, chosen + [j], kept, inter & m, j + 1, best_size)
                if got is not None:
                    best, best_size = got, len(got)
    return best


def vc_dimension(family: ConvexFamily, ground_size: int) -> tuple[int, PointSet]:
    """Largest set whose every subset is a trace of the family."""
    best = _largest_downward_closed(ground_size, partial(_traces_all, family.masks()))
    return best.bit_count(), PointSet(best)


def _traces_all(masks: list[int], y: int) -> bool:
    return len({m & y for m in masks}) == 1 << y.bit_count()


def analyze(space: ConvexitySpace) -> InvariantReport:
    """Radon number of the space plus Helly number and VC dimension of its
    half-space family.

    For separable spaces both half-space invariants are bounded by the
    Radon number minus one; a violation means a computation bug, reported
    as `ConsistencyError` rather than a wrong answer.  An empty ground set
    is a `ValueError`, as in `radon_lower_bound`: the bound fails there,
    since the family {∅} has Helly number 1 and Radon number 1.
    """
    if space.ground.size == 0:
        raise ValueError("the ground set is empty")
    radon, radon_wit = radon_number(space)
    half = halfspaces(space)
    helly, helly_wit = helly_number(half)
    vc, vc_wit = vc_dimension(half, space.ground.size)
    sep = is_separable(space).separable
    if sep:
        if helly > radon - 1:
            raise ConsistencyError(
                f"Helly number {helly} exceeds Radon bound {radon - 1} on a separable space"
            )
        if vc > radon - 1:
            raise ConsistencyError(
                f"VC dimension {vc} exceeds Radon bound {radon - 1} on a separable space"
            )
    return InvariantReport(radon, helly, vc, sep, radon_wit, helly_wit, vc_wit)
