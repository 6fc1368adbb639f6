"""Radon number, Helly number, and VC dimension of finite convexity spaces.

All three are computed exactly by constrained search:

* Radon: the largest set whose every bipartition has disjoint hulls.
* Helly: the largest inclusion-minimal subfamily with empty intersection.
  Such a family is one whose every member has a private point, in all
  the other members but not in it.  A DFS over index-increasing
  subfamilies, kept on an explicit stack, tracks the intersection and
  each member's private region.
  Every member still to come misses a point of the intersection and
  meets every region, so with one column mask per point (the members
  containing it) a node's candidates are a single mask, and the DFS
  stops once the members chosen plus the candidates left cannot
  outnumber the best family found.
* VC: the largest set whose every subset is a trace of the family.

Shattering and full traces are downward monotone, so one frontier
search, growing sets by size, serves Radon and VC.  A candidate is
considered only when every one-point-smaller subset was accepted; one
pass over each level builds, per dropped set, the mask of points that
extend it within the level, and a set's allowed extensions are the AND
of those masks over its drops.  Each frontier set is then asked once for
the allowed points that extend it:

* VC groups the family by trace on the set.  Unless every trace occurs
  the set is not shattered; otherwise a point extends it exactly when
  it splits every group, in some member of the group and outside
  another.
* Radon drops the points in the hull of the set y at once, hulls each
  non-empty B ⊆ y once, and tests each remaining point q against every
  split (A | q, B) with A = y ^ B, A = ∅ included: a singleton need not
  be convex, so q outside hull(y) does not settle the split ({q}, y).
  A hull is the least member containing the set, read off the point
  rows of the members in order of size.

The two searches stay independent, so `analyze` checks VC against Radon
rather than deriving it.  Reported witnesses are the lexicographically
least of maximum size, so results are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

from .space import (
    ConsistencyError,
    ConvexFamily,
    ConvexitySpace,
    PointSet,
    _HullCache,
    _point_columns,
    _separation,
    halfspaces,
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


def _largest_downward_closed(n: int, grow: Callable[[int, int], int]) -> int:
    """Lexicographically least maximum subset of range(n) in a downward
    closed class, grown by size from a frontier of its sets.

    Extending only by points above the top index generates every
    candidate once, in lexicographic order.  A frontier holds every set
    of the class of its size, so a candidate with a one-point-smaller
    subset outside it is not in the class either.  Those subsets are read
    off per-drop extension masks: `ext[d]` has bit p when d | p is in the
    frontier, so y may grow by q only when q is in `ext[y ^ p]` for every
    point p of y.  For each frontier set y with such points, `grow(y,
    allowed)` is asked once and returns the points q of `allowed` for
    which y | q is in the class."""
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
            if allowed:
                got = grow(y, allowed)
                while got:
                    bit = got & -got
                    nxt.append(y | bit)
                    got ^= bit
        if nxt:
            best = nxt[0]
        frontier = nxt
    return best


def _shattered_extensions(hc: _HullCache, y: int, allowed: int) -> int:
    """The points q of `allowed` (none of them in y) for which y | q is
    Radon-shattered: every bipartition has hulls with empty intersection.

    Each split of y | q puts q beside some A ⊆ y and is tested as
    hull(A | q) & hull(y ^ A).  The split A = y leaves the other part
    empty, so it is disjoint trivially and the hull of y | q is never
    computed.  The split A = ∅ rejects every q in hull(y) at once, but
    still has to be tested for the rest: a singleton need not be convex.
    """
    hull = hc.hull
    rest = allowed & ~hull(y)
    if not rest:
        return 0
    # (A, hull(y ^ A)) for every A ⊊ y, ending with A = ∅.
    sides = []
    a = y
    while a:
        a = (a - 1) & y
        sides.append((a, hull(y ^ a)))
    out = 0
    while rest:
        q = rest & -rest
        rest ^= q
        for a, hb in sides:
            if hull(a | q) & hb:
                break
        else:
            out |= q
    return out


def radon_number(space: ConvexitySpace) -> tuple[int, PointSet]:
    """Smallest r such that every r-point multiset admits a Radon split.

    Equals one plus the largest shattered set size.  Returns the number
    and the lexicographically least shattered witness of maximum size.
    """
    hc = _HullCache(space)
    best = _largest_downward_closed(space.ground.size, partial(_shattered_extensions, hc))
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
    best = _largest_minimal(masks, _point_columns(masks, union.bit_length()), union)
    return len(best), tuple(family.sets[j] for j in best)


def _largest_minimal(masks: Sequence[int], col: Sequence[int], union: int) -> tuple[int, ...]:
    """Canonically least largest subfamily of `masks` that is
    inclusion-minimal with empty intersection, as member indices; the
    whole family has an empty intersection and the union `union`.

    A family is minimal with empty intersection exactly when its
    intersection is empty and each member has a private point, one in
    every other member but not in it.  A stack frame holds a DFS node
    that may still beat the best: its chosen members, their intersection,
    `private[i]` (the points in every chosen member but the i-th) and
    its untried candidates.  Adding members only shrinks the regions.
    """
    best: tuple[int, ...] = ()
    best_size = 0
    stack = [[[], [], union, _candidates(col, union, [], (1 << len(masks)) - 1)]]
    while stack:
        frame = stack[-1]
        chosen, private, inter, cands = frame
        size = len(chosen)
        # Each candidate adds at most one member: stop once those left cannot
        # outnumber the best.
        while cands and size + cands.bit_count() > best_size:
            low = cands & -cands
            cands ^= low
            j = low.bit_length() - 1
            m = masks[j]
            kept = inter & m
            if not kept:
                if size >= best_size:
                    best, best_size = (*chosen, j), size + 1
            # The members still to come have distinct private points inside `kept`.
            elif size + 1 + kept.bit_count() > best_size:
                regions = [p & m for p in private]
                regions.append(inter & ~m)
                kids = _candidates(col, kept, regions, cands)
                if kids and size + 1 + kids.bit_count() > best_size:
                    frame[3] = cands
                    stack.append([chosen + [j], regions, kept, kids])
                    break
        else:
            stack.pop()
    return best


def _candidates(col: Sequence[int], inter: int, private: list[int], rest: int) -> int:
    """The members of the mask `rest` that may extend a node with
    intersection `inter` and private regions `private`.

    Every member still to come misses a point of `inter` (its own private
    point) and meets every private region, so the candidates are the
    members of `rest` outside the AND of the columns over `inter` and
    inside the OR of the columns over each region.  A child's candidates
    are among the parent's that follow it, so `rest` for a child is what
    is left of the parent's candidates.
    """
    # Each loop stops once no candidate is left for its remaining points to decide.
    within = rest
    x = inter
    while x and within:
        low = x & -x
        within &= col[low.bit_length() - 1]
        x ^= low
    cands = rest & ~within
    for p in private:
        meet = 0
        while p and cands & ~meet:
            low = p & -p
            meet |= col[low.bit_length() - 1]
            p ^= low
        cands &= meet
    return cands


def vc_dimension(family: ConvexFamily, ground_size: int) -> tuple[int, PointSet]:
    """Largest set whose every subset is a trace of the family."""
    best = _largest_downward_closed(ground_size, partial(_trace_extensions, family.masks()))
    return best.bit_count(), PointSet(best)


def _trace_extensions(masks: Sequence[int], y: int, allowed: int) -> int:
    """The points q of `allowed` (none of them in y) for which y | q is
    shattered by the traces of `masks`.

    One pass groups the members by trace on y and keeps each group's
    union and meet.  y | q is shattered exactly when y is (every trace
    has a group) and q splits every group: it lies in some member of the
    group and outside another, so it is in the union but not the meet.
    """
    groups: dict[int, list[int]] = {}
    for m in masks:
        g = groups.get(m & y)
        if g is None:
            groups[m & y] = [m, m]
        else:
            g[0] |= m
            g[1] &= m
    if len(groups) < 1 << y.bit_count():
        return 0
    for union, meet in groups.values():
        allowed &= union & ~meet
    return allowed


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
    sep = _separation(space, half.masks()).separable
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
