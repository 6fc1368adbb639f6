import copy
import pickle
import random
from fractions import Fraction
from functools import partial, reduce
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from radonnets import (
    ConvexFamily,
    ConvexitySpace,
    Distribution,
    GroundSet,
    MissingEmptySet,
    MissingFullSet,
    NotIntersectionClosed,
    PointSet,
    SpaceAxiomError,
    TooLarge,
    format_distribution_file,
    format_space_file,
    halfspaces,
    intersection_closure,
    is_separable,
    parse_distribution_file,
    parse_space_file,
    power_set_space,
    random_separable,
    size_cap,
    subtree_space,
    validate_space,
)
from radonnets.space import _HullCache, check_eps, masked_sum, weight_tables

from conftest import fraction_measure, naive_hull, support

PATH3 = [("a", "b"), ("b", "c")]


def random_space(rng: random.Random, points: int) -> ConvexitySpace:
    ground = GroundSet(tuple(chr(ord("a") + i) for i in range(points)))
    basis = [PointSet(rng.randrange(1 << points)) for _ in range(rng.randint(1, 6))]
    return intersection_closure(ground, basis)


# --- PointSet -------------------------------------------------------------------


def test_pointset_basics():
    s = PointSet.from_indices([2, 0])
    assert s.mask == 0b101
    assert s.indices == (0, 2)
    assert len(s) == 2
    assert 0 in s and 1 not in s and 2 in s
    assert list(s) == [0, 2]
    assert bool(s) and not bool(PointSet(0))
    assert repr(s) == "{0,2}"
    assert repr(PointSet(0)) == "{}"


def test_pointset_operators():
    a = PointSet.from_indices([0, 1])
    b = PointSet.from_indices([1, 2])
    assert a.isdisjoint(PointSet.from_indices([3]))
    assert not a.isdisjoint(b)


def test_pointset_canonical_order():
    # Lexicographic by ascending index list, so {0,2} precedes {1}.
    sets = [PointSet.from_indices(x) for x in [(1,), (0, 2), (), (0,), (0, 1, 2)]]
    ordered = sorted(sets, key=lambda s: s.sort_key)
    assert [s.indices for s in ordered] == [(), (0,), (0, 1, 2), (0, 2), (1,)]


def test_pointset_rejects_negatives():
    with pytest.raises(ValueError):
        PointSet(-1)
    with pytest.raises(ValueError):
        PointSet.from_indices([-2])


# --- GroundSet ------------------------------------------------------------------


def test_ground_set():
    g = GroundSet(("x", "y", "z"))
    assert g.size == 3
    assert g.full.mask == 0b111
    assert g.labels_of(PointSet.from_indices([0, 2])) == ("x", "z")
    with pytest.raises(ValueError, match="not a subset of the ground set"):
        g.labels_of(PointSet(0b1000))


def test_empty_ground_set_is_allowed():
    g = GroundSet(())
    assert g.size == 0
    assert g.full.mask == 0


def test_ground_set_label_validation():
    with pytest.raises(ValueError):
        GroundSet(("a", "a"))
    with pytest.raises(ValueError):
        GroundSet(("a", ""))
    with pytest.raises(ValueError):
        GroundSet(("a", "b\x00"))


def test_ground_set_cap(monkeypatch):
    assert size_cap() == 64
    with pytest.raises(TooLarge):
        GroundSet(tuple(str(i) for i in range(65)))
    monkeypatch.setenv("RADON_NETS_CAP", "4")
    assert size_cap() == 4
    with pytest.raises(TooLarge):
        GroundSet(("a", "b", "c", "d", "e"))
    monkeypatch.setenv("RADON_NETS_CAP", "0")
    with pytest.raises(ValueError):
        size_cap()


# --- families and axioms ----------------------------------------------------------


def test_family_canonicalizes():
    fam = ConvexFamily(
        (PointSet.from_indices([1]), PointSet(0), PointSet.from_indices([1]), PointSet.from_indices([0, 1]))
    )
    assert [s.indices for s in fam.sets] == [(), (0, 1), (1,)]
    assert len(fam) == 3
    assert PointSet.from_indices([1]) in fam
    assert PointSet.from_indices([0]) not in fam


def test_trace_classes_group_members_by_trace():
    """Per trace on m, in order of first appearance: the first member with
    it, and the meet of all of them; and the non-empty traces, in the same
    order.  A family keeps them per mask, whether built by the constructor
    or by `from_canonical` (as `halfspaces` is), and what it keeps changes
    neither equality, hash nor repr."""
    sp = random_separable(6, 3)
    canonical = halfspaces(sp)
    built = ConvexFamily(canonical.sets)
    masks = canonical.masks()
    for fam in (canonical, built):
        for m in range(1 << 6):
            got = fam.trace_classes(m)
            assert fam.trace_classes(m) is got
            pairs, meets, nonempty = got
            assert [t for t, _ in pairs] == list(dict.fromkeys(b & m for b in masks))
            assert list(nonempty) == [t for t, _ in pairs if t]
            assert len(meets) == len(pairs)
            for (t, first), meet in zip(pairs, meets):
                members = [b for b in masks if b & m == t]
                assert (first.mask, meet) == (members[0], reduce(and_, members))
    fresh = ConvexFamily(canonical.sets)
    for warm in (canonical, built):
        assert warm == fresh and hash(warm) == hash(fresh) and repr(warm) == repr(fresh)
    assert repr(fresh) == f"ConvexFamily(sets={fresh.sets!r})"


def test_validate_space_accepts_power_set():
    g = GroundSet(("a", "b"))
    sp = validate_space(g, [PointSet(m) for m in range(4)])
    assert len(sp.convex) == 4
    assert sp.full.mask == 0b11


def test_validate_space_axiom_errors():
    g = GroundSet(("a", "b"))
    full = PointSet(0b11)
    with pytest.raises(MissingEmptySet):
        validate_space(g, [full])
    with pytest.raises(MissingFullSet):
        validate_space(g, [PointSet(0)])
    with pytest.raises(SpaceAxiomError):
        validate_space(g, [PointSet(0), full, PointSet(0b100)])
    a, b = PointSet(0b01), PointSet(0b11)
    g3 = GroundSet(("a", "b", "c"))
    with pytest.raises(NotIntersectionClosed) as err:
        validate_space(g3, [PointSet(0), PointSet(0b011), PointSet(0b101), PointSet(0b111)])
    assert err.value.pair == (PointSet(0b011), PointSet(0b101))
    assert a != b


def test_intersection_closure_is_a_space():
    rng = random.Random(1801)
    for _ in range(40):
        sp = random_space(rng, rng.randint(1, 6))
        validate_space(sp.ground, sp.sets)


def test_intersection_closure_contains_basis():
    g = GroundSet(("a", "b", "c"))
    basis = [PointSet(0b011), PointSet(0b110)]
    sp = intersection_closure(g, basis)
    masks = set(sp.convex.masks())
    assert {0, 0b111, 0b011, 0b110, 0b010} <= masks
    with pytest.raises(SpaceAxiomError):
        intersection_closure(g, [PointSet(0b1000)])


def test_intersection_closure_ceiling(monkeypatch):
    """The complements of the four points close to all 16 subsets, one
    more than a ceiling of 15 allows."""
    g = GroundSet(tuple("abcd"))
    basis = [PointSet(0b1111 ^ (1 << i)) for i in range(4)]
    assert len(intersection_closure(g, basis).sets) == 16
    monkeypatch.setattr("radonnets.space._CLOSURE_LIMIT", 15)
    with pytest.raises(TooLarge, match="enumeration ceiling"):
        intersection_closure(g, basis)


# --- hulls ------------------------------------------------------------------------


def test_hull_examples():
    p3 = power_set_space(3)
    assert PointSet(_HullCache(p3).hull(0b101)).indices == (0, 2)
    path = subtree_space(PATH3)
    assert _HullCache(path).hull(0b101) == path.full.mask


def test_hull_properties():
    """Extensive, monotone, idempotent, and always a convex set."""
    rng = random.Random(90125)
    for _ in range(60):
        sp = random_space(rng, rng.randint(1, 6))
        members = set(sp.convex.masks())
        full = sp.full.mask
        y = PointSet(rng.randrange(full + 1))
        z = PointSet(y.mask | rng.randrange(full + 1))
        hulls = _HullCache(sp)
        hy = PointSet(hulls.hull(y.mask))
        assert y.mask & ~hy.mask == 0
        assert hy.mask & ~hulls.hull(z.mask) == 0
        assert hulls.hull(hy.mask) == hy.mask
        assert hy.mask in members
        assert hy.indices == tuple(sorted(naive_hull(sp, frozenset(y.indices))))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_hull_is_the_naive_hull_on_intersection_closures(data):
    """The least member containing Y is the intersection of all of them,
    asked of one cache for several Y so that memo hits are checked too."""
    n = data.draw(st.integers(1, 7))
    basis = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    space = intersection_closure(GroundSet(tuple(str(i) for i in range(n))), [PointSet(b) for b in basis])
    hulls = _HullCache(space)
    for y in data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6)):
        want = naive_hull(space, frozenset(PointSet(y).indices))
        assert PointSet(hulls.hull(y)).indices == tuple(sorted(want))


# --- half-spaces and separation ----------------------------------------------------


def test_halfspaces_of_path():
    path = subtree_space(PATH3)
    everything = halfspaces(path)
    assert [s.indices for s in everything.sets] == [(), (0,), (0, 1), (0, 1, 2), (1, 2), (2,)]


def test_halfspaces_closed_under_complement():
    rng = random.Random(404)
    for _ in range(40):
        sp = random_space(rng, rng.randint(1, 6))
        b = halfspaces(sp)
        masks = set(b.masks())
        full = sp.full.mask
        assert all((full ^ m) in masks for m in masks)
        assert 0 in masks and full in masks


def test_separable_means_halfspace_intersections():
    """The point-separation and intersection formulations agree, down to
    the counterexample: the first convex set in canonical order whose
    half-space intersection is larger, with its lowest extra point."""
    rng = random.Random(7777)
    for _ in range(80):
        sp = random_space(rng, rng.randint(1, 6))
        b = halfspaces(sp).masks()
        full = sp.full.mask

        def from_halfspaces(cm: int) -> int:
            acc = full
            for m in b:
                if cm & ~m == 0:
                    acc &= m
            return acc

        extra = [(c, from_halfspaces(c.mask) & ~c.mask) for c in sp.sets]
        expected = next(((c, (e & -e).bit_length() - 1) for c, e in extra if e), None)
        assert is_separable(sp) == (expected is None, expected)


def test_separation_counterexample():
    g = GroundSet(("a", "b", "c"))
    sp = validate_space(g, [PointSet(0), PointSet(0b010), PointSet(0b100), PointSet(0b111)])
    check = is_separable(sp)
    assert not check.separable
    assert check.counterexample == (PointSet(0b010), 0)
    assert is_separable(power_set_space(3)) == (True, None)


def test_random_separable_spaces_are_separable():
    for seed in range(20):
        sp = random_separable(4, seed)
        assert is_separable(sp).separable


# --- measures ----------------------------------------------------------------------


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        Distribution((Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError):
        Distribution.uniform(0)
    with pytest.raises(ValueError):
        Distribution.uniform_on(3, PointSet(0))
    with pytest.raises(ValueError):
        Distribution.from_integer_weights([0, 0])


def reference_check_eps(eps) -> Fraction:
    """The eps rule as `Fraction(eps)` and one Fraction comparison."""
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError("eps must satisfy 0 < eps <= 1")
    return eps


class SubFraction(Fraction):
    pass


def _outcome(check, eps):
    try:
        got = check(eps)
    except Exception as exc:  # the two rules must fail alike
        return type(exc), str(exc)
    return type(got), got


EPS_INPUTS = st.one_of(
    st.integers(-3, 3),
    st.booleans(),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-4, 12), st.integers(0, 12)),
    st.floats(allow_nan=True, allow_infinity=True),
    st.decimals(allow_nan=True, allow_infinity=True),
    st.fractions(-2, 3),
    st.fractions(-2, 3).map(SubFraction),
)


@settings(max_examples=400, deadline=None)
@given(EPS_INPUTS)
def test_check_eps_accepts_what_the_fraction_rule_accepts(eps):
    """Ints, bools, "p/q" strings, floats, Decimals, Fractions and a
    Fraction subclass, 0, negatives and values above 1: the same result
    (always a plain Fraction) or the same error as the reference rule; a
    plain Fraction in range comes back as it is."""
    got = _outcome(check_eps, eps)
    assert got == _outcome(reference_check_eps, eps)
    if got[0] is Fraction and type(eps) is Fraction:
        assert check_eps(eps) is eps


def test_distribution_constructors():
    mu = Distribution.uniform(4)
    assert mu.mass(0b1111) == mu.den
    on = Distribution.uniform_on(4, PointSet.from_indices([1, 3]))
    assert on.weights == (0, Fraction(1, 2), 0, Fraction(1, 2))
    assert support(on).indices == (1, 3)
    w = Distribution.from_integer_weights([2, 0, 3])
    assert w.weights == (Fraction(2, 5), 0, Fraction(3, 5))


def test_integer_weights_roundtrip():
    rng = random.Random(60)
    for _ in range(30):
        size = rng.randint(1, 10)
        mu = Distribution.from_integer_weights(
            [rng.randint(0, 9) for _ in range(size - 1)] + [1]
        )
        nums, den = mu.nums, mu.den
        assert sum(nums) == den
        assert all(Fraction(n, den) == w for n, w in zip(nums, mu.weights))


def test_measure_additivity():
    rng = random.Random(2048)
    mu = Distribution.from_integer_weights([rng.randint(0, 9) + 1 for _ in range(12)])
    for _ in range(50):
        a = PointSet(rng.randrange(1 << 12))
        b = PointSet(rng.randrange(1 << 12))
        union, meet = (Fraction(mu.mass(m), mu.den) for m in (a.mask | b.mask, a.mask & b.mask))
        assert union + meet == fraction_measure(mu, a) + fraction_measure(mu, b)


def test_weight_tables_match_fractions():
    # 19 points spans three 8-bit chunks; the other sizes sit on either
    # side of a chunk boundary, up to the 64-point cap.
    rng = random.Random(19)
    for n in (19, 1, 7, 8, 9, 16, 17, 64):
        nums = [rng.randint(0, 99) for _ in range(n)]
        nums[0] += 1
        mu = Distribution.from_integer_weights(nums)
        tables = weight_tables(nums)
        den = sum(nums)
        for _ in range(200):
            m = rng.randrange(1 << n)
            assert Fraction(masked_sum(tables, m), den) == fraction_measure(mu, PointSet(m))
        # Every entry of every chunk's table, against the sum it stands for.
        assert [len(t) for t in tables] == [1 << min(8, n - base) for base in range(0, n, 8)]
        for c, tbl in enumerate(tables):
            assert tbl == [sum(nums[8 * c + i] for i in PointSet(v).indices) for v in range(len(tbl))]
    assert weight_tables([]) == [[0]]
    assert masked_sum(weight_tables([]), 0) == 0


def test_mass_is_a_lookup_matching_the_fraction_sum():
    """`mass` over `den` is the Fraction sum on grounds of 1 to 17 points:
    the lone table's lookup up to 8 points and the chunked sum above, on
    both sides of the chunk boundaries at 8 and 16.  A ground of 0 points
    has no distribution."""
    with pytest.raises(ValueError):
        Distribution(())
    rng = random.Random(17)
    for n in range(1, 18):
        nums = [rng.randint(0, 9) for _ in range(n)]
        nums[-1] += 1
        mu = Distribution.from_integer_weights(nums)
        assert isinstance(mu.mass, partial) == (n > 8)
        masks = range(1 << n) if n <= 10 else [0, (1 << n) - 1] + [rng.randrange(1 << n) for _ in range(300)]
        for m in masks:
            assert Fraction(mu.mass(m), mu.den) == fraction_measure(mu, PointSet(m))


def test_distribution_round_trips_ignore_the_mass_lookup():
    """Equality, hash and repr read the weights alone; a deep copy and a
    pickle round trip give an equal distribution with the same masses."""
    for nums in ([1, 2, 3], list(range(1, 13))):
        mu = Distribution.from_integer_weights(nums)
        twin = Distribution.from_integer_weights(nums)
        assert mu == twin and hash(mu) == hash(twin) and mu.mass is not twin.mass
        assert repr(mu) == f"Distribution(weights={mu.weights!r})"
        masses = [mu.mass(m) for m in range(1 << len(nums))]
        for other in (copy.deepcopy(mu), pickle.loads(pickle.dumps(mu))):
            assert other == mu and hash(other) == hash(mu) and repr(other) == repr(mu)
            assert (other.nums, other.den) == (mu.nums, mu.den)
            assert [other.mass(m) for m in range(1 << len(nums))] == masses


def test_mass_on_eight_table_chunks():
    """64 points fill all eight byte-chunked tables; `mass` over `den`
    matches the Fraction sum, the top chunk and the full set included."""
    rng = random.Random(64)
    mu = Distribution.from_integer_weights([rng.randint(1, 10**6) for _ in range(64)])
    masks = [(1 << 64) - 1, 1 << 63, 0xFF << 56, 0] + [rng.randrange(1 << 64) for _ in range(200)]
    for m in masks:
        assert Fraction(mu.mass(m), mu.den) == fraction_measure(mu, PointSet(m))
    assert mu.mass((1 << 64) - 1) == mu.den


# --- file formats ------------------------------------------------------------------


def test_space_file_roundtrip():
    rng = random.Random(3)
    for _ in range(10):
        sp = random_space(rng, rng.randint(1, 5))
        name, back = parse_space_file(format_space_file("demo", sp))
        assert name == "demo"
        assert back.ground.labels == sp.ground.labels
        assert back.convex.masks() == sp.convex.masks()


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"ground": ["a"], "convex": [[], [0]]}',
        '{"name": "x", "ground": ["a", 1], "convex": [[], [0]]}',
        '{"name": "x", "ground": ["a"], "convex": [[], [0], [1]]}',
        '{"name": "x", "ground": ["a", "b"], "convex": [[], [1, 0], [0, 1]]}',
        '{"name": "x", "ground": ["a", "b"], "convex": [[], [0, 0], [0, 1]]}',
        '{"name": "x", "ground": ["a"], "convex": [[], [true], [0]]}',
        '{"name": "x", "ground": ["a"], "convex": [[], [0], [0]]}',
        '{"name": "x", "ground": ["a"]}',
    ],
)
def test_space_file_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_space_file(text)


@pytest.mark.parametrize(
    "convex, message",
    [
        ("[[], [0], [2]]", "has an index outside the ground set"),
        ("[[], [-1]]", "has an index outside the ground set"),
        ("[[], [2, 0]]", "has an index outside the ground set"),
        ("[[], [1, 0]]", "is not strictly ascending"),
    ],
)
def test_space_file_range_check_comes_before_order(convex, message):
    with pytest.raises(ValueError, match=message):
        parse_space_file(f'{{"name": "x", "ground": ["a", "b"], "convex": {convex}}}')


def test_space_file_checks_axioms():
    with pytest.raises(MissingEmptySet):
        parse_space_file('{"name": "x", "ground": ["a"], "convex": [[0]]}')


def test_distribution_file_roundtrip():
    mu = Distribution((Fraction(1, 3), Fraction(0), Fraction(2, 3)))
    text = format_distribution_file(mu)
    assert parse_distribution_file(text) == mu
    assert '"1/3"' in text and '"0/1"' in text


@pytest.mark.parametrize(
    "text",
    [
        '{"weights": ["0.5", "0.5"]}',
        '{"weights": ["1/0"]}',
        '{"weights": ["-1/2", "3/2"]}',
        '{"weights": [0.5, 0.5]}',
        '{"weights": ["1/2"]}',
        '{"weights": "1/1"}',
    ],
)
def test_distribution_file_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_distribution_file(text)
