import random
import sys
from functools import partial
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from radonnets import (
    ConsistencyError,
    ConvexFamily,
    ConvexitySpace,
    GroundSet,
    PointSet,
    analyze,
    cylinder_space,
    halfspaces,
    helly_number,
    intersection_closure,
    lattice_convex_space,
    linear_extension_space,
    power_set_space,
    radon_number,
    random_separable,
    subtree_space,
    validate_space,
    vc_dimension,
)
from radonnets.invariants import (
    _largest_downward_closed,
    _largest_minimal,
    _shattered_extensions,
    _trace_extensions,
)
from radonnets.space import _HullCache

from conftest import (
    naive_helly,
    naive_radon,
    naive_shattered,
    naive_vc,
    per_bit,
    point_side_helly,
    reference_downward_closed,
    reference_helly,
    reference_shattered,
    reference_traces_all,
)

# name -> (ground size, |convex|, |halfspaces|, radon, helly, vc)
FROZEN = {
    "power-1": (1, 2, 2, 2, 1, 1),
    "power-2": (2, 4, 4, 3, 2, 2),
    "power-3": (3, 8, 8, 4, 3, 3),
    "power-4": (4, 16, 16, 5, 4, 4),
    "power-5": (5, 32, 32, 6, 5, 5),
    "cylinders-2": (4, 10, 6, 3, 2, 2),
    "cylinders-3": (8, 28, 8, 4, 2, 3),
    "lattice-1x3": (3, 7, 6, 3, 2, 2),
    "lattice-2x3": (6, 49, 36, 5, 4, 4),
    "lattice-3x3": (9, 214, 58, 5, 4, 3),
    "poset-antichain-3": (6, 20, 8, 4, 3, 3),
    "poset-antichain-4": (24, 220, 14, 5, 4, 3),
    "poset-en-4": (5, 15, 8, 4, 2, 3),
}


def test_frozen_corpus_invariants(corpus):
    spaces = dict(corpus)
    for name, (n, nc, nb, radon, helly, vc) in FROZEN.items():
        sp = spaces[name]
        rep = analyze(sp)
        got = (sp.ground.size, len(sp.convex), len(halfspaces(sp)), rep.radon, rep.helly, rep.vc)
        assert got == (n, nc, nb, radon, helly, vc), name
        assert rep.separable


def test_power_set_radon_is_m_plus_1():
    for m in range(1, 6):
        r, witness = radon_number(power_set_space(m))
        assert r == m + 1
        assert witness.mask == (1 << m) - 1


def test_radon_witness_examples():
    star5 = subtree_space([("c", "l1"), ("c", "l2"), ("c", "l3"), ("c", "l4")])
    assert radon_number(star5)[0] == 4
    path3 = subtree_space([("a", "b"), ("b", "c")])
    r, witness = radon_number(path3)
    assert r == 3
    assert witness.indices == (0, 1)


def _shattered(hc: _HullCache, y: int) -> bool:
    """Whether the Radon search accepts y, asked as y's top point
    extending the rest."""
    if y == 0:
        return True
    top = 1 << (y.bit_length() - 1)
    return _shattered_extensions(hc, y ^ top, top) == top


def test_shattered_examples():
    p3 = power_set_space(3)
    assert _shattered(_HullCache(p3), p3.full.mask)
    path3 = subtree_space([("a", "b"), ("b", "c")])
    assert _shattered(_HullCache(path3), 0b101)
    # Splitting {a,b,c} into {a,c} and {b} puts b in both hulls.
    assert not _shattered(_HullCache(path3), path3.full.mask)


def test_helly_of_cosingletons():
    for m in range(2, 7):
        full = (1 << m) - 1
        fam = ConvexFamily(tuple(PointSet(full ^ (1 << i)) for i in range(m)))
        size, witness = helly_number(fam)
        assert size == m
        assert len(witness) == m


def test_helly_requires_inclusion_minimality():
    """Strictly shrinking prefixes are not enough: {a,b} and {c} below kill
    the intersection on their own, so the three-set family is not minimal."""
    fam = ConvexFamily(
        (
            PointSet.from_indices([0, 1]),
            PointSet.from_indices([0, 2]),
            PointSet.from_indices([2, 3]),
        )
    )
    size, witness = helly_number(fam)
    assert size == 2
    assert [s.indices for s in witness] == [(0, 1), (2, 3)]


def test_analyze_two_chains_of_five():
    """The 30 linear extensions of a<b, c<d beside a free e, the largest
    poset the CLI benchmark analyzes; witnesses as recorded before the
    frontier search read extension masks."""
    rep = analyze(linear_extension_space(("a", "b", "c", "d", "e"), (("a", "b"), ("c", "d"))))
    assert (rep.radon, rep.helly, rep.vc, rep.separable) == (5, 3, 4, True)
    assert rep.radon_witness.indices == (0, 11, 18, 21)
    assert rep.vc_witness.indices == (0, 11, 18, 21)
    assert [s.indices for s in rep.helly_witness] == [
        tuple(range(20)),
        (1, 2, 4, 7, 8, 9, 10, 11, 13, 16, 17, 21, 22, 23, 24, 25, 26, 27, 28, 29),
        (18, 19, 20, 23, 29),
    ]


# name -> (radon, its witness, helly, its witness), as masks, recorded before
# hulls were read as the least containing member and the Helly search took
# its candidates by column masks.
PINNED = {
    "lattice-3x4": (6, 0b100001100011, 4, (0b1111, 0b110111, 0b111111111011, 0b111111111100)),
    "power-8": (9, 0b11111111, 8, tuple(0b11111111 ^ (1 << i) for i in reversed(range(8)))),
    "tree-8v-22": (4, 0b1110, 2, (0b1111111, 0b10000000)),
}


def test_radon_and_helly_witnesses_as_pinned(corpus):
    spaces = {
        "lattice-3x4": lattice_convex_space(3, 4),
        "power-8": power_set_space(8),
        "tree-8v-22": dict(corpus)["tree-8v-22"],
    }
    for name, want in PINNED.items():
        space = spaces[name]
        r, r_witness = radon_number(space)
        h, h_witness = helly_number(halfspaces(space))
        assert (r, r_witness.mask, h, tuple(s.mask for s in h_witness)) == want, name


def test_helly_search_calls_only_candidates_that_can_beat_the_best(monkeypatch):
    """Every node the search expands below the root adds a candidate of
    its parent: a member of the parent's `rest` that misses a point of the
    parent's intersection and meets each of its private regions, taken in
    index order.  It is expanded only while the members chosen plus the
    candidates left outnumber the best family found, and only from a
    parent whose members chosen plus the points of its intersection
    outnumbered the best when it was reached: each member still to come
    needs a private point there.  No node ruled out by either count can
    improve on the best.

    The search reads a member's mask exactly when it expands that member,
    so a family whose reads record the search's state sees every node."""
    expanded = []

    class Reads(list):
        def __getitem__(self, j):
            state = sys._getframe(1).f_locals
            # The search has already taken j out of the parent's candidates.
            cands = state["cands"] | 1 << j
            expanded.append((tuple(state["chosen"]), state["private"], state["inter"], cands, j, state["best_size"]))
            return super().__getitem__(j)

    search = _largest_minimal
    monkeypatch.setattr(
        "radonnets.invariants._largest_minimal", lambda masks, col, union: search(Reads(masks), col, union)
    )
    for space in (
        lattice_convex_space(2, 3),
        cylinder_space(4),
        power_set_space(4),
        linear_extension_space(("a", "b", "c", "d")),
    ):
        expanded.clear()
        family = halfspaces(space)
        assert helly_number(family) == reference_helly(family, space.ground.size)
        masks = family.masks()
        rest_of = {(): (1 << len(masks)) - 1}
        reached_at: dict[tuple[int, ...], int] = {}
        for chosen, private, inter, cands, j, best_size in expanded:
            # A node's first expansion comes before any other node's, so the
            # best it was reached at is the one its first expansion sees.
            reached_best = reached_at.setdefault(chosen, best_size)
            assert len(chosen) + inter.bit_count() > reached_best
            assert rest_of[chosen] >> j & 1
            assert inter & ~masks[j] and all(p & masks[j] for p in private)
            # Candidates are taken lowest first, each once.
            assert cands & -cands == 1 << j
            assert len(chosen) + cands.bit_count() > best_size
            rest_of[chosen + (j,)] = cands ^ (1 << j)
        assert len(expanded) > 30


def test_helly_search_answers_past_the_recursion_limit(recursion_limit_200):
    """The 300 co-singletons of 300 points form the one minimal family
    with empty intersection; the search keeps one frame per chosen
    member on a list, so 300 members need no recursion room."""
    full = (1 << 300) - 1
    family = ConvexFamily.from_masks(full ^ (1 << i) for i in range(300))
    h, witness = helly_number(family)
    assert h == 300
    assert set(witness) == set(family.sets)


def test_shattered_never_hulls_the_candidate():
    """The split (y, ∅) is disjoint without a hull, so an accepted y leaves
    exactly its proper subsets in the memo, and a rejected one none of
    itself.  Five points are never shattered here (the Radon number is
    5); the lowest point outside the witness makes a fifth."""
    space = linear_extension_space(("a", "b", "c", "d"))
    witness = radon_number(space)[1].mask
    hc = _HullCache(space)
    assert _shattered(hc, witness)
    bits = PointSet(witness).indices
    proper = {sum(1 << i for i in sub) for size in range(len(bits)) for sub in combinations(bits, size)}
    assert set(hc.memo) == proper
    five = witness | (~witness & (witness + 1))
    assert not _shattered(_HullCache(space), five)
    for y in (0b11, 0b111, five):
        hc = _HullCache(space)
        _shattered(hc, y)
        assert y not in hc.memo


def _asked(search, n, keep) -> tuple[int, list[int]]:
    """The search's answer and every candidate it asked `keep` about."""
    calls: list[int] = []

    def ask(y: int) -> bool:
        calls.append(y)
        return keep(y)

    return search(n, ask), calls


def _search_by_bit(n: int, keep) -> int:
    """The library's search, its `grow` asking `keep` bit by bit."""
    return _largest_downward_closed(n, partial(per_bit, keep))


@st.composite
def down_sets(draw):
    """Membership in the down-set of a few masks on up to 12 points."""
    n = draw(st.integers(0, 12))
    tops = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=5))
    return n, tops


@settings(max_examples=300, deadline=None)
@given(down_sets())
def test_downward_closed_search_asks_as_the_reference(case):
    n, tops = case

    def keep(y: int) -> bool:
        return any(y & ~t == 0 for t in tops)

    assert _asked(_search_by_bit, n, keep) == _asked(reference_downward_closed, n, keep)


def test_radon_and_vc_searches_ask_as_the_reference():
    """On the 4-antichain, every extension mask the search asks for is the
    one the per-candidate reference predicate gives, bit by bit, and the
    answer is the reference search's."""
    space = linear_extension_space(("a", "b", "c", "d"))
    n = space.ground.size
    masks = halfspaces(space).masks()
    # Radon shatters 4 points, the half-spaces trace out 3.
    for grow, keep, size in (
        (partial(_shattered_extensions, _HullCache(space)), partial(reference_shattered, _HullCache(space)), 4),
        (partial(_trace_extensions, masks), partial(reference_traces_all, masks), 3),
    ):
        asked = []

        def checked(y: int, allowed: int) -> int:
            got = grow(y, allowed)
            assert got == per_bit(keep, y, allowed), (y, allowed)
            asked.append(y)
            return got

        best = _largest_downward_closed(n, checked)
        assert best == reference_downward_closed(n, keep)
        assert best.bit_count() == size and len(asked) > 100


@st.composite
def extension_queries(draw, n: int):
    """A set y of at most 3 of n points, so that it is often shattered,
    and a mask of points outside it."""
    y = 0
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        y |= 1 << i
    return y, draw(st.integers(0, (1 << n) - 1)) & ~y


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_trace_extensions_match_the_reference(data):
    """On families that are mostly not closed under intersection."""
    n, fam = data.draw(families())
    y, allowed = data.draw(extension_queries(n))
    masks = fam.masks()
    assert _trace_extensions(masks, y, allowed) == per_bit(partial(reference_traces_all, masks), y, allowed)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_shattered_extensions_match_the_reference(data):
    """On intersection closures, where a singleton need not be convex, so
    the split ({q}, y) is not settled by q lying outside hull(y)."""
    n = data.draw(st.integers(1, 7))
    basis = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    space = intersection_closure(GroundSet(tuple(str(i) for i in range(n))), [PointSet(b) for b in basis])
    y, allowed = data.draw(extension_queries(n))
    got = _shattered_extensions(_HullCache(space), y, allowed)
    assert got == per_bit(partial(reference_shattered, _HullCache(space)), y, allowed)


@st.composite
def families(draw):
    """Families of up to 12 members on up to 8 points, most of them not
    closed under intersection."""
    n = draw(st.integers(1, 8))
    masks = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    return n, ConvexFamily.from_masks(masks)


@settings(max_examples=300, deadline=None)
@given(families())
def test_helly_matches_references(case):
    n, fam = case
    h, witness = helly_number(fam)
    assert (h, witness) == reference_helly(fam, n)
    assert h == point_side_helly(fam, n)


def test_helly_matches_point_side_on_corpus(corpus):
    """Family side against point side on every corpus space; the witness
    against the family-side reference wherever that finishes quickly
    (on lattice-3x3 it takes about 15 s)."""
    assert len(corpus) == 269
    for name, sp in corpus:
        half = halfspaces(sp)
        h, witness = helly_number(half)
        assert h == point_side_helly(half, sp.ground.size), name
        if name != "lattice-3x3":
            assert (h, witness) == reference_helly(half, sp.ground.size), name


def test_helly_vacuous_cases():
    assert helly_number(ConvexFamily(())) == (1, ())
    fam = ConvexFamily((PointSet(0b11), PointSet(0b01)))
    assert helly_number(fam) == (1, ())


def test_helly_witness_is_minimal_and_empty():
    rng = random.Random(411)
    for _ in range(60):
        n = rng.randint(2, 8)
        fam = ConvexFamily(
            tuple(PointSet(rng.randrange(1 << n)) for _ in range(rng.randint(2, 9)))
        )
        size, witness = helly_number(fam)
        if not witness:
            continue
        assert len(witness) == size
        inter = -1
        for s in witness:
            assert s in fam
            inter &= s.mask
        assert inter == 0
        for drop in range(size):
            rest = -1
            for i, s in enumerate(witness):
                if i != drop:
                    rest &= s.mask
            assert rest != 0


def test_vc_of_cosingletons_is_1():
    for m in range(3, 7):
        full = (1 << m) - 1
        fam = ConvexFamily(tuple(PointSet(full ^ (1 << i)) for i in range(m)))
        assert vc_dimension(fam, m)[0] == 1


def test_vc_witness_is_shattered():
    rng = random.Random(1089)
    for _ in range(60):
        n = rng.randint(1, 8)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(1, 10))]
        fam = ConvexFamily(tuple(PointSet(m) for m in masks))
        dim, witness = vc_dimension(fam, n)
        assert len(witness) == dim
        traces = {m & witness.mask for m in masks}
        assert len(traces) == 1 << dim


def test_invariants_match_naive_oracles():
    rng = random.Random(8128)
    checked = 0
    while checked < 50:
        n = rng.randint(1, 5)
        ground = GroundSet(tuple(str(i) for i in range(n)))
        basis = [PointSet(rng.randrange(1 << n)) for _ in range(rng.randint(1, 5))]
        sp = intersection_closure(ground, basis)
        b = halfspaces(sp)
        if len(b) > 14:
            continue
        assert radon_number(sp)[0] == naive_radon(sp)
        assert helly_number(b)[0] == naive_helly(b, n)
        assert vc_dimension(b, n)[0] == naive_vc(b, n)
        checked += 1


def test_radon_witness_is_lex_least_maximum():
    rng = random.Random(555)
    for _ in range(25):
        n = rng.randint(1, 5)
        ground = GroundSet(tuple(str(i) for i in range(n)))
        basis = [PointSet(rng.randrange(1 << n)) for _ in range(rng.randint(1, 5))]
        sp = intersection_closure(ground, basis)
        r, witness = radon_number(sp)
        assert len(witness) == r - 1
        assert naive_shattered(sp, frozenset(witness.indices))
        best = min(
            (
                PointSet.from_indices(c)
                for c in combinations(range(n), r - 1)
                if naive_shattered(sp, frozenset(c))
            ),
            key=lambda p: p.sort_key,
        )
        assert witness == best


def test_invariants_are_relabeling_invariant():
    rng = random.Random(246)
    for _ in range(25):
        n = rng.randint(2, 6)
        ground = GroundSet(tuple(str(i) for i in range(n)))
        basis = [PointSet(rng.randrange(1 << n)) for _ in range(rng.randint(1, 5))]
        sp = intersection_closure(ground, basis)
        perm = list(range(n))
        rng.shuffle(perm)

        def remap(mask: int) -> int:
            out = 0
            for i in range(n):
                if (mask >> i) & 1:
                    out |= 1 << perm[i]
            return out

        permuted = ConvexitySpace(
            ground, ConvexFamily.from_masks(remap(s.mask) for s in sp.sets)
        )
        assert radon_number(permuted)[0] == radon_number(sp)[0]
        bq, bp = halfspaces(permuted), halfspaces(sp)
        assert helly_number(bq)[0] == helly_number(bp)[0]
        assert vc_dimension(bq, n)[0] == vc_dimension(bp, n)[0]


def test_subsets_of_shattered_sets_are_shattered():
    rng = random.Random(1369)
    for seed in range(15):
        sp = random_separable(3 + seed % 4, seed)
        _, witness = radon_number(sp)
        idx = list(witness.indices)
        for _ in range(5):
            sub = PointSet.from_indices(i for i in idx if rng.random() < 0.6)
            assert _shattered(_HullCache(sp), sub.mask)
            assert naive_shattered(sp, frozenset(sub.indices))


def test_analyze_bounds_on_separable_spaces():
    """Half-space Helly number and VC dimension never exceed radon - 1."""
    for seed in range(40):
        sp = random_separable(3 + seed % 4, seed)
        rep = analyze(sp)
        assert rep.separable
        assert rep.helly <= rep.radon - 1
        assert rep.vc <= rep.radon - 1
        assert len(rep.radon_witness) == rep.radon - 1
        assert len(rep.helly_witness) in (0, rep.helly)
        assert len(rep.vc_witness) == rep.vc


def test_analyze_on_non_separable_space():
    g = GroundSet(("a", "b", "c"))
    sp = validate_space(g, [PointSet(0), PointSet(0b010), PointSet(0b100), PointSet(0b111)])
    rep = analyze(sp)
    assert not rep.separable
    assert rep.radon == 3
    assert rep.helly == 1
    assert rep.vc == 1


def test_antichain_radon_witness_is_shattered():
    """The 24 linear orders of a 4-antichain shatter 4 of them."""
    space = linear_extension_space(("a", "b", "c", "d"))
    r, witness = radon_number(space)
    assert r == 5
    assert _shattered(_HullCache(space), witness.mask)
    assert naive_shattered(space, frozenset(witness.indices))
