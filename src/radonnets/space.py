"""Finite convexity spaces with exact rational measures.

A convexity space is a finite ground set together with a family of subsets
that contains the empty set and the full set and is closed under pairwise
intersection.  The ground set is capped at 64 points so point sets fit in a
single machine word; families are kept in a canonical order (lexicographic
by ascending index list), which makes every operation deterministic.

Measures are exact.  A `Distribution` also holds its Fraction weights as
integers over a common denominator, and every threshold comparison uses
them (`Distribution.mass`); strict versus non-strict comparisons are
semantic here, so nothing is ever rounded.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

DEFAULT_CAP = 64


def size_cap() -> int:
    """Ground-point / graph-vertex ceiling.  RADON_NETS_CAP overrides it."""
    raw = os.environ.get("RADON_NETS_CAP")
    if raw is None:
        return DEFAULT_CAP
    cap = int(raw)
    if cap < 1:
        raise ValueError("RADON_NETS_CAP must be a positive integer")
    return cap


class TooLarge(ValueError):
    """An input exceeds a size or enumeration ceiling of an exact search."""


class SpaceAxiomError(ValueError):
    """A convexity-space axiom is violated."""


class MissingEmptySet(SpaceAxiomError):
    pass


class MissingFullSet(SpaceAxiomError):
    pass


class NotIntersectionClosed(SpaceAxiomError):
    def __init__(self, a: "PointSet", b: "PointSet"):
        self.pair = (a, b)
        super().__init__(f"intersection of {a} and {b} is not in the family")


def check_ground_size(count: int) -> None:
    """Raise `TooLarge` if a ground set of `count` points exceeds the cap."""
    cap = size_cap()
    if count > cap:
        raise TooLarge(f"ground set has {count} points, cap is {cap}")


def check_eps(eps: Fraction) -> Fraction:
    """`eps` as a Fraction; a `ValueError` unless 0 < eps <= 1.  A plain
    Fraction is returned as it is and checked in integers (its denominator
    is positive); anything else goes through `Fraction(eps)` first."""
    if type(eps) is not Fraction:
        eps = Fraction(eps)
    if not 0 < eps.numerator <= eps.denominator:
        raise ValueError("eps must satisfy 0 < eps <= 1")
    return eps


class ConsistencyError(RuntimeError):
    """A mathematical guarantee the package relies on failed at runtime."""


@dataclass(frozen=True, slots=True)
class PointSet:
    """Subset of ground-set positions, stored as a bitmask."""

    mask: int = 0

    def __post_init__(self) -> None:
        if self.mask < 0:
            raise ValueError("point-set mask must be non-negative")

    @classmethod
    def from_indices(cls, indices: Iterable[int]) -> "PointSet":
        mask = 0
        for i in indices:
            if i < 0:
                raise ValueError("point indices must be non-negative")
            mask |= 1 << i
        return cls(mask)

    @property
    def indices(self) -> tuple[int, ...]:
        out = []
        m = self.mask
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return tuple(out)

    @property
    def sort_key(self) -> tuple[int, ...]:
        return self.indices

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __contains__(self, index: int) -> bool:
        return (self.mask >> index) & 1 == 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def isdisjoint(self, other: "PointSet") -> bool:
        return self.mask & other.mask == 0

    def __repr__(self) -> str:
        return "{" + ",".join(str(i) for i in self.indices) + "}"


@dataclass(frozen=True, slots=True)
class GroundSet:
    """Ordered, labelled ground set; it may be empty."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.labels, tuple):
            object.__setattr__(self, "labels", tuple(self.labels))
        check_ground_size(len(self.labels))
        seen = set()
        for lab in self.labels:
            if not isinstance(lab, str) or not lab or not lab.isprintable():
                raise ValueError(f"ground labels must be non-empty printable strings, got {lab!r}")
            if lab in seen:
                raise ValueError(f"duplicate ground label {lab!r}")
            seen.add(lab)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full(self) -> PointSet:
        return PointSet((1 << self.size) - 1)

    def labels_of(self, points: PointSet) -> tuple[str, ...]:
        if points.mask >> self.size:
            raise ValueError(f"{points} is not a subset of the ground set")
        return tuple(self.labels[i] for i in points.indices)


@dataclass(frozen=True, slots=True)
class ConvexFamily:
    """Canonically ordered, duplicate-free collection of point sets.

    The constructor only canonicalizes; the convexity-space axioms (empty
    set, full set, closure under pairwise intersection) are checked by
    `validate_space`, because several operations (half-space extraction,
    packings) legitimately return families that are not spaces themselves.
    """

    sets: tuple[PointSet, ...]
    _traces: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Duplicate-free, in canonical order (lex by ascending indices).
        dedup = {s.mask: s for s in self.sets}
        object.__setattr__(self, "sets", tuple(sorted(dedup.values(), key=lambda s: s.sort_key)))

    @classmethod
    def from_masks(cls, masks: Iterable[int]) -> "ConvexFamily":
        return cls(tuple(PointSet(m) for m in masks))

    @classmethod
    def from_canonical(cls, sets: tuple[PointSet, ...]) -> "ConvexFamily":
        """A family of sets already duplicate-free and in canonical order,
        such as a subsequence of another family's sets; not re-sorted."""
        family = object.__new__(cls)
        object.__setattr__(family, "sets", sets)
        object.__setattr__(family, "_traces", {})
        return family

    def masks(self) -> list[int]:
        return [s.mask for s in self.sets]

    def trace_classes(
        self, m: int
    ) -> tuple[tuple[tuple[int, PointSet], ...], tuple[int, ...], dict[int, None]]:
        """The members grouped by their trace b & m, per distinct trace in
        order of first appearance: the (trace, first member) pairs, the
        meets of the classes in the same order, and the non-empty traces as
        the keys of a dict, which callers only read.  Kept per `m` on the
        family, so later calls with the same mask cost a dict lookup."""
        got = self._traces.get(m)
        if got is None:
            first: dict[int, PointSet] = {}
            meet: dict[int, int] = {}
            for s in self.sets:
                b = s.mask
                t = b & m
                if t in meet:
                    meet[t] &= b
                else:
                    first[t], meet[t] = s, b
            nonempty = dict.fromkeys(t for t in first if t)
            got = self._traces[m] = (tuple(first.items()), tuple(meet.values()), nonempty)
        return got

    def __len__(self) -> int:
        return len(self.sets)

    def __iter__(self) -> Iterator[PointSet]:
        return iter(self.sets)

    def __contains__(self, s: PointSet) -> bool:
        return any(t.mask == s.mask for t in self.sets)


@dataclass(frozen=True, slots=True)
class ConvexitySpace:
    ground: GroundSet
    convex: ConvexFamily

    @property
    def full(self) -> PointSet:
        return self.ground.full

    @property
    def sets(self) -> tuple[PointSet, ...]:
        return self.convex.sets


@dataclass(frozen=True, slots=True)
class Distribution:
    """Probability distribution on a ground set; weights are exact rationals,
    also held as integers `nums` over their common denominator `den`.

    `mass(mask)` is the measure of the points in `mask`, a non-negative
    mask within the ground set, times `den`.  It is a subset-sum lookup
    built once per distribution: the lone table's `__getitem__` on up to
    8 points, `masked_sum` over the byte-chunked tables above that."""

    weights: tuple[Fraction, ...]
    nums: tuple[int, ...] = field(init=False, compare=False, repr=False)
    den: int = field(init=False, compare=False, repr=False)
    mass: Callable[[int], int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        ws = tuple(Fraction(w) for w in self.weights)
        den = lcm(*(w.denominator for w in ws))
        nums = tuple(w.numerator * (den // w.denominator) for w in ws)
        if any(n < 0 for n in nums):
            raise ValueError("weights must be non-negative")
        if sum(nums) != den:
            raise ValueError("weights must sum to exactly 1")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "nums", nums)
        object.__setattr__(self, "den", den)
        tables = weight_tables(nums)
        mass = tables[0].__getitem__ if len(tables) == 1 else partial(masked_sum, tables)
        object.__setattr__(self, "mass", mass)

    @classmethod
    def uniform(cls, size: int) -> "Distribution":
        if size < 1:
            raise ValueError("uniform distribution needs at least one point")
        return cls(tuple(Fraction(1, size) for _ in range(size)))

    @classmethod
    def uniform_on(cls, size: int, points: PointSet) -> "Distribution":
        k = len(points)
        if k < 1:
            raise ValueError("support must be non-empty")
        w = Fraction(1, k)
        return cls(tuple(w if i in points else Fraction(0) for i in range(size)))

    @classmethod
    def from_integer_weights(cls, nums: Sequence[int]) -> "Distribution":
        total = sum(nums)
        if total <= 0 or any(n < 0 for n in nums):
            raise ValueError("integer weights must be non-negative with positive sum")
        return cls(tuple(Fraction(n, total) for n in nums))

    @property
    def size(self) -> int:
        return len(self.weights)


class SeparationCheck(NamedTuple):
    separable: bool
    counterexample: Optional[tuple[PointSet, int]]


def validate_space(ground: GroundSet, sets: Iterable[PointSet]) -> ConvexitySpace:
    """Check the convexity axioms and return the space.

    Raises the first violated axiom: `MissingEmptySet`, `MissingFullSet`,
    or `NotIntersectionClosed` with the offending pair (pairs scanned in
    canonical order).  The pairwise check is quadratic in the family size.
    """
    family = ConvexFamily(tuple(sets))
    full = ground.full.mask
    members = family.masks()
    for m in members:
        if m & ~full:
            raise SpaceAxiomError(f"{PointSet(m)} is not a subset of the ground set")
    present = set(members)
    if 0 not in present:
        raise MissingEmptySet("the empty set is missing from the family")
    if full not in present:
        raise MissingFullSet("the full ground set is missing from the family")
    for i, a in enumerate(members):
        for b in members[i + 1:]:
            if a & b not in present:
                raise NotIntersectionClosed(PointSet(a), PointSet(b))
    return ConvexitySpace(ground, family)


_CLOSURE_LIMIT = 1 << 20


def intersection_closure(ground: GroundSet, basis: Iterable[PointSet]) -> ConvexitySpace:
    """Smallest convexity space on `ground` containing every basis set.

    The full set enters as the empty intersection and the empty set is
    added if no intersection produces it.
    """
    full = ground.full.mask
    closed = {full}
    for b in basis:
        bm = b.mask
        if bm & ~full:
            raise SpaceAxiomError(f"basis set {b} is not a subset of the ground set")
        closed |= {c & bm for c in closed}
        if len(closed) > _CLOSURE_LIMIT:
            raise TooLarge("intersection closure exceeds the enumeration ceiling")
    closed.add(0)
    return ConvexitySpace(ground, ConvexFamily.from_masks(closed))


def _point_columns(masks: Sequence[int], n: int) -> list[int]:
    """Per point i < n, the mask with bit j set when `masks[j]` contains i."""
    cols = [0] * n
    for j, m in enumerate(masks):
        bit = 1 << j
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
    return cols


class _HullCache:
    """Memoized hulls in a convexity space.

    The family must be intersection-closed with the full set in it, as in
    every `ConvexitySpace` the package builds or validates.  Then the hull
    of Y, the intersection of the members containing Y, is itself the
    least member containing Y: every other one is a strict superset.

    `family` lists the members by size, and `point_rows[i]` has bit j set
    when `family[j]` contains point i.  The members containing Y are the
    AND of Y's rows, and the member at its lowest bit is the hull.
    """

    def __init__(self, space: ConvexitySpace):
        self.family = sorted((s.mask for s in space.sets), key=int.bit_count)
        self.point_rows = _point_columns(self.family, space.ground.size)
        self.memo: dict[int, int] = {0: 0}

    def hull(self, y: int) -> int:
        got = self.memo.get(y)
        if got is not None:
            return got
        rows = -1
        m = y
        while m:
            low = m & -m
            rows &= self.point_rows[low.bit_length() - 1]
            m ^= low
        got = self.memo[y] = self.family[(rows & -rows).bit_length() - 1]
        return got


def halfspaces(space: ConvexitySpace) -> ConvexFamily:
    """Convex sets whose complement is also convex, the empty and full
    sets included."""
    full = space.full.mask
    present = {s.mask for s in space.sets}
    return ConvexFamily.from_canonical(tuple(s for s in space.sets if (full ^ s.mask) in present))


def is_separable(space: ConvexitySpace) -> SeparationCheck:
    """Whether every (convex set, outside point) pair splits by a half-space.

    The counterexample, if any, is the canonically first violating pair.
    """
    return _separation(space, halfspaces(space).masks())


def _separation(space: ConvexitySpace, half: Sequence[int]) -> SeparationCheck:
    """`is_separable` with the masks of the space's half-spaces given."""
    full = space.full.mask
    for c in space.sets:
        cm = c.mask
        covered = 0
        for b in half:
            if cm & ~b == 0:
                covered |= full & ~b
        missing = (full & ~cm) & ~covered
        if missing:
            return SeparationCheck(False, (c, (missing & -missing).bit_length() - 1))
    return SeparationCheck(True, None)


# --- integer measure tables ---------------------------------------------------
#
# A `Distribution` builds these once; hot paths compare measures thousands
# of times, and a byte-chunked subset-sum lookup is a handful of integer
# operations.

def weight_tables(nums: Sequence[int]) -> list[list[int]]:
    """One subset-sum table per 8-point chunk: entry v sums the weights of
    the chunk's points whose bits are set in v."""
    tables = []
    for base in range(0, len(nums), 8):
        tbl = [0]
        for w in nums[base : base + 8]:
            tbl += [t + w for t in tbl]
        tables.append(tbl)
    return tables or [[0]]


def masked_sum(tables: list[list[int]], mask: int) -> int:
    total = 0
    i = 0
    while mask:
        total += tables[i][mask & 255]
        mask >>= 8
        i += 1
    return total


# --- file formats -------------------------------------------------------------

_FRACTION_RE = re.compile(r"(\d+)/([1-9]\d*)", re.ASCII)


def format_space_file(name: str, space: ConvexitySpace) -> str:
    doc = {
        "name": name,
        "ground": list(space.ground.labels),
        "convex": [list(s.indices) for s in space.sets],
    }
    return json.dumps(doc, indent=2) + "\n"


def parse_space_file(text: str) -> tuple[str, ConvexitySpace]:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"space file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError("space file must be a JSON object")
    name = doc.get("name")
    if not isinstance(name, str):
        raise ValueError("space file needs a string 'name' field")
    labels = doc.get("ground")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ValueError("space file needs a 'ground' array of label strings")
    raw = doc.get("convex")
    if not isinstance(raw, list):
        raise ValueError("space file needs a 'convex' array of index arrays")
    ground = GroundSet(tuple(labels))
    size = ground.size
    sets = []
    seen = set()
    for arr in raw:
        if not isinstance(arr, list) or not all(isinstance(i, int) and not isinstance(i, bool) for i in arr):
            raise ValueError(f"convex entry {arr!r} is not an array of integers")
        if arr and (min(arr) < 0 or max(arr) >= size):
            raise ValueError(f"convex entry {arr!r} has an index outside the ground set")
        if list(arr) != sorted(set(arr)):
            raise ValueError(f"convex entry {arr!r} is not strictly ascending")
        ps = PointSet.from_indices(arr)
        if ps.mask in seen:
            raise ValueError(f"duplicate convex set {arr!r}")
        seen.add(ps.mask)
        sets.append(ps)
    return name, validate_space(ground, sets)


def format_distribution_file(mu: Distribution) -> str:
    doc = {"weights": [f"{w.numerator}/{w.denominator}" for w in mu.weights]}
    return json.dumps(doc, indent=2) + "\n"


def parse_distribution_file(text: str) -> Distribution:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"distribution file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("weights"), list):
        raise ValueError("distribution file needs a 'weights' array")
    weights = []
    for w in doc["weights"]:
        if not isinstance(w, str) or not (m := _FRACTION_RE.fullmatch(w)):
            raise ValueError(f"weight {w!r} is not of the form 'p/q'")
        weights.append(Fraction(int(m.group(1)), int(m.group(2))))
    return Distribution(tuple(weights))
