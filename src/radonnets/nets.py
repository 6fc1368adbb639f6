"""Weak epsilon-nets by Helly piercing and packing, level by level.

Given a separable convexity space whose half-space family has Helly
number h and VC dimension v, the builder returns a point set hitting
every convex set of measure at least eps:

* sets of conditional measure above 1 - 1/h all contain one common point
  (any h of them already intersect by mass, the rest is the Helly
  property), and separability transfers that piercing point to every
  equally dense convex set;
* the remaining dense sets are handled by choosing a maximal
  delta-separated packing A of the half-space family (delta-separated in
  symmetric-difference measure, so maximality makes A a delta-cover) and
  recursing on the measure conditioned to each packing element with the
  slightly amplified threshold eps * (1 + 1/(2h)).

The amplification gives a recursion depth of N(eps) = min { n :
eps * (1 + 1/(2h))^n > 1 - 1/h }; conditioning composes by intersection,
so a node is fixed by its (support, level), and the build is a loop over
the levels and their distinct supports.  Only delta depends on the level:
supports' masses and piercing points are computed once per build, and so
is w_min, the lightest positive weight of mu.  On a support m half-spaces
with one trace b & m are at distance 0, so packings run over the distinct
traces, one half-space each (the first in canonical order, so no sort),
and take them all when w_min is above delta * mu(m).  Every support lies
inside the support of mu, so that test passes only where m's own
lightest point is above delta * mu(m) too; and where only the latter
holds, the greedy scan keeps every trace as well, since distinct traces
differ in a point of m.  So one w_min per build gives the packings that a
lightest weight per support would.  The grouping by trace does not
depend on the measure or the threshold, so the family keeps it per
support across builds (`ConvexFamily.trace_classes`).  All comparisons
are exact, in integers (`Distribution.mass` against delta p/q, and each
level's threshold formed from the last one's numerator and denominator).
The recursion trace is built from a flat per-level record when read.

The finished net is checked against every convex set of the space; a
failure (only possible when the space is not separable or the supplied
Helly number is wrong) raises `ConsistencyError` instead of returning a
bad net.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional

from .exact import _dense_sets, dense_sets
from .invariants import helly_number, vc_dimension
from .space import (
    ConsistencyError,
    ConvexFamily,
    ConvexitySpace,
    Distribution,
    PointSet,
    TooLarge,
    check_eps,
)

# The most levels a build runs (eps down to about 1/10^92 at h = 2): nothing
# else bounds levels times the digits of each level's threshold.
_LEVEL_CEILING = 950


class EmptyIntersection(ConsistencyError):
    """The family of very dense sets failed to intersect.

    Cannot happen when the supplied Helly number is genuine; it signals a
    wrong Helly number or a corrupted family.
    """


class PackingBoundWarning(UserWarning):
    """A greedy packing exceeded the VC packing bound (4e^2/delta)^v."""


@dataclass(frozen=True, slots=True)
class NetParams:
    """Thresholds driving one level of the recursion."""

    eps: Fraction
    helly: int
    vc: int
    delta: Fraction
    depth: int


def amplification_depth(eps: Fraction, helly: int) -> int:
    """Levels until the running threshold clears 1 - 1/h."""
    eps = check_eps(eps)
    if helly < 1:
        raise ValueError("the Helly number is at least 1")
    h, a, b = helly, eps.numerator, eps.denominator

    def cleared(n: int) -> bool:
        # eps * (1 + 1/(2h))**n > 1 - 1/h, cross-multiplied.
        return a * h * (2 * h + 1) ** n > (h - 1) * b * (2 * h) ** n

    if cleared(0):
        return 0
    # The least n with cleared(n), estimated from logarithms of the integer
    # parts (eps may have thousands of digits), then settled exactly.
    log_ratio = math.log((h - 1) * b) - math.log(h * a)
    n = max(1, math.floor(log_ratio / math.log((2 * h + 1) / (2 * h))) + 1)
    while not cleared(n):
        n += 1
    while n > 1 and cleared(n - 1):
        n -= 1
    return n


def _net_params(eps: Fraction, helly: int, vc: int) -> NetParams:
    """The build's parameters, for an eps that `check_eps` has returned."""
    if vc < 0:
        raise ValueError("the VC dimension is non-negative")
    depth = amplification_depth(eps, helly)
    if depth > _LEVEL_CEILING:
        raise TooLarge(f"eps needs {depth} levels; the net build allows {_LEVEL_CEILING}")
    return NetParams(
        eps=eps,
        helly=helly,
        vc=vc,
        delta=eps / (4 * helly * helly),
        depth=depth,
    )


@dataclass(frozen=True, slots=True, eq=False)
class NetNode:
    """One recursion node: its piercing point, threshold, support, and the
    packing elements it recursed into (empty for base-case leaves).  The
    repr leaves out the children: a trace is a DAG, and printing it as a
    tree is exponential in it.  Nodes compare by identity; to compare two
    builds, compare their `WeakNet`s, which compare the level record the
    trace is built from."""

    x0: int
    eps: Fraction
    support: PointSet
    packing: Optional[ConvexFamily]
    children: tuple[tuple[PointSet, "NetNode"], ...] = field(repr=False)


@dataclass(frozen=True, slots=True)
class WeakNet:
    """The net, its a-priori size bound, and the build's counters: (support,
    level) nodes, distinct supports, child edges that found their node
    already built, and the largest packing.  `trace` is built on first read
    from `_levels`: per level, its threshold and its nodes (support,
    piercing point, packing as (trace, half-space) pairs, None at the leaves)."""

    points: PointSet
    size_bound: float
    params: NetParams
    nodes: int
    supports: int
    memo_hits: int
    max_packing: int
    _levels: tuple = field(repr=False)
    _trace: Optional[NetNode] = field(default=None, init=False, repr=False, compare=False)

    @property
    def trace(self) -> NetNode:
        """One NetNode per (support, level), each shared by all its parents."""
        if self._trace is None:
            below: dict[int, NetNode] = {}
            for level_eps, here in reversed(self._levels):
                made = {}
                for m, x0, chosen in here:
                    sets = None if chosen is None else tuple(s for _, s in chosen)
                    packing = None if sets is None else ConvexFamily.from_canonical(sets)
                    children = tuple((s, below[t]) for t, s in chosen or () if t)
                    made[m] = NetNode(x0, level_eps, PointSet(m), packing, children)
                below = made
            (root,) = below.values()
            object.__setattr__(self, "_trace", root)
        return self._trace


class NetCheck(NamedTuple):
    ok: bool
    counterexample: Optional[PointSet]


def verify_weak_net(
    space: ConvexitySpace, mu: Distribution, eps: Fraction, points: PointSet
) -> NetCheck:
    """Exhaustively check that `points` meets every eps-dense convex set.

    The counterexample, if any, is the unpierced dense set of maximum
    measure, canonically least on ties.  Points outside the ground set
    raise `ValueError`.
    """
    dense = dense_sets(space, mu, eps)
    if points.mask >> space.ground.size:
        raise ValueError(f"net {points} is not a subset of the ground set")
    return _check_net(dense, mu, points)


def _check_net(dense: tuple[PointSet, ...], mu: Distribution, points: PointSet) -> NetCheck:
    net = points.mask
    missed = [c for c in dense if not c.mask & net]
    if not missed:
        return NetCheck(True, None)
    return NetCheck(False, max(missed, key=lambda c: mu.mass(c.mask)))


def size_bound_value(eps: Fraction, helly: int, vc: int) -> float:
    """(120 h^2 / eps) ** (4 h v ln(1/eps)), computed in log space; inf
    when the logarithm exceeds 700."""
    if vc == 0:
        return 1.0
    e = float(eps)
    if e == 0:  # eps below about 1e-324, far past the overflow
        return math.inf
    base = math.log(120 * helly * helly / e)
    exponent = 4 * helly * vc * math.log(1 / e)
    log_bound = exponent * base
    return math.inf if log_bound > 700 else math.exp(log_bound)


_LOG_HAUSSLER_BASE = math.log(4 * math.e * math.e)


def build_weak_net(
    space: ConvexitySpace,
    family: ConvexFamily,
    mu: Distribution,
    eps: Fraction,
    *,
    helly: Optional[int] = None,
    vc: Optional[int] = None,
) -> WeakNet:
    """Weak eps-net for `mu` on `space`, built through `family`.

    `family` is normally the half-space family of the space.  Its Helly
    number and VC dimension are computed when not supplied; supplying
    them is an assertion, and a wrong Helly number surfaces as
    `EmptyIntersection` or a failed final verification, never as a bad
    net.  The returned net carries the a-priori size bound
    (120 h^2 / eps)^(4 h v ln(1/eps)), and its recursion trace, built
    on first access.
    """
    # `_dense_sets` and `_net_params` take eps as checked here; the finished
    # net is checked against `dense`.
    eps = check_eps(eps)
    dense = _dense_sets(space, mu, eps)
    full = space.full.mask
    for s in family.sets:
        if s.mask & ~full:
            raise ValueError(f"family member {s} is not a subset of the ground set")
    h = helly_number(family)[0] if helly is None else helly
    v = vc_dimension(family, space.ground.size)[0] if vc is None else vc

    params = _net_params(eps, h, v)
    depth = params.depth
    # Only delta depends on the level, so the rest is computed once per build.
    # Per build: the support of mu, the root, and w_min, its lightest
    # positive weight.  Every support lies inside the root, so each point
    # of a support weighs at least w_min.  Per support m: its mass and
    # piercing point, and the family's trace classes on m: its distinct
    # traces t = b & m, each with the first half-space in canonical order
    # that has it, the meets that give the piercing point, and the
    # non-empty traces as dict keys, the children when every trace is packed
    # (a child t = m & a has mass iff t != 0).  Per level: the running
    # threshold e = eps (1 + 1/(2h))^level and the level's distinct supports;
    # above the leaf also its delta as p/q in lowest terms, Haussler's cap
    # (4e^2/delta)^v in log space (float(delta) underflows), and the next
    # threshold, formed from e's integers.  The leaf level packs nothing.
    pierced: dict[int, tuple[int, int, tuple[tuple[int, PointSet], ...], dict[int, None]]] = {}
    wsum = mu.mass
    support, w_min = 0, mu.den
    for i, n in enumerate(mu.nums):
        if n:
            support |= 1 << i
            if n < w_min:
                w_min = n
    record, frontier = [], {support: None}
    points_mask = edges = max_packing = 0
    e, hh = eps, 4 * h * h
    for level in range(depth + 1):
        leaf = level == depth
        if not leaf:
            en, ed = e.numerator, e.denominator
            g = math.gcd(en, hh)
            p, q = en // g, ed * (hh // g)
            log_cap = v * (_LOG_HAUSSLER_BASE - math.log(p) + math.log(q))
        here, below = [], {}
        for m in frontier:
            got = pierced.get(m)
            if got is None:
                w_m = wsum(m)
                # Half-spaces with one trace share their mass on m: each trace
                # is tested once, and if dense ANDs in the meet of its half-spaces.
                traces, meets, kids = family.trace_classes(m)
                inter = full
                for (t, _), b in zip(traces, meets):
                    # mu_m(t) > 1 - 1/h, cross-multiplied.
                    if h * wsum(t) > (h - 1) * w_m:
                        inter &= b
                if inter == 0:
                    raise EmptyIntersection(
                        "dense half-spaces have empty intersection; the Helly number is wrong"
                    )
                x0 = (inter & -inter).bit_length() - 1
                got = pierced[m] = (w_m, x0, traces, kids)
                points_mask |= 1 << x0
            w_m, x0, traces, kids = got
            if leaf:
                here.append((m, x0, None))
                continue
            # Distinct traces differ in a point of m, of weight at least w_min:
            # if that beats delta all are packed, else those beyond delta of
            # all packed before, in family order, so the packing is canonical.
            # Where m's own lightest point beats delta but w_min does not, that
            # scan keeps every trace too, so the packing is the same.
            pw = p * w_m
            chosen = traces
            if q * w_min <= pw:
                kept: list[tuple[int, PointSet]] = []
                for t, s in traces:
                    for ta, _ in kept:
                        if q * wsum(t ^ ta) <= pw:
                            break
                    else:
                        kept.append((t, s))
                chosen = tuple(kept)
                kids = dict.fromkeys(t for t, _ in chosen if t)
            if chosen and math.log(len(chosen)) > log_cap:
                size, cap = len(chosen), math.exp(log_cap)
                message = f"packing of size {size} exceeds the VC bound {cap:.3g}"
                warnings.warn(message, PackingBoundWarning)
            here.append((m, x0, chosen))
            max_packing = max(max_packing, len(chosen))
            below.update(kids)
            edges += len(kids)
        record.append((e, tuple(here)))
        if leaf:
            break
        frontier, e = below, Fraction(en * (2 * h + 1), ed * 2 * h)

    points = PointSet(points_mask)
    bound = size_bound_value(eps, h, v)
    if len(points) > bound:
        raise ConsistencyError(
            f"net has {len(points)} points, above the size bound {bound:.6g}"
        )
    check = _check_net(dense, mu, points)
    if not check.ok:
        raise ConsistencyError(
            f"built net misses the dense convex set {check.counterexample}; "
            "the space is not separable or the Helly number is wrong"
        )
    nodes = sum(len(here) for _, here in record)
    hits = edges - (nodes - 1)
    return WeakNet(points, bound, params, nodes, len(pierced), hits, max_packing, tuple(record))
