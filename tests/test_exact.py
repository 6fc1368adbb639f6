import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radonnets import (
    Distribution,
    Graph,
    GroundSet,
    PointSet,
    TooLarge,
    chromatic_lower_bound,
    cylinder_space,
    dense_sets,
    exact_chromatic_number,
    hitting_instance,
    intersection_closure,
    minimal_weak_net,
    power_set_space,
    validate_space,
    verify_weak_net,
)
from radonnets.exact import _packing_bound

from conftest import (
    disjointness_graph,
    fraction_measure,
    graph_edges,
    graph_from_edges,
    naive_chromatic,
    naive_dense_sets,
    naive_min_net,
    seeded_distribution,
)

PETERSEN = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
]
# The Grötzsch graph, Mycielski of C5: 11 vertices, triangle-free, chi 4.
GROTZSCH = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (5, 1), (5, 4), (6, 0), (6, 2), (7, 1), (7, 3), (8, 2), (8, 4), (9, 3), (9, 0),
    (10, 5), (10, 6), (10, 7), (10, 8), (10, 9),
]


# --- graphs and coloring ---------------------------------------------------------


def test_graph_construction():
    g = graph_from_edges(3, [(0, 1), (2, 1)])
    assert g.adjacency == (0b010, 0b101, 0b010)
    assert graph_edges(g) == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError):
        Graph(1, (0b1,))
    with pytest.raises(ValueError, match="table length"):
        Graph(2, (0,))
    with pytest.raises(ValueError, match="vertex range"):
        Graph(2, (0b100, 0))
    with pytest.raises(ValueError):
        graph_from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        graph_from_edges(2, [(1, 1)])


def test_chromatic_number_examples():
    assert exact_chromatic_number(Graph(0, ())) == 0
    assert exact_chromatic_number(Graph(3, (0, 0, 0))) == 1
    k4 = graph_from_edges(4, combinations(range(4), 2))
    assert exact_chromatic_number(k4) == 4
    c5 = graph_from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert exact_chromatic_number(c5) == 3
    k33 = graph_from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert exact_chromatic_number(k33) == 2
    assert exact_chromatic_number(graph_from_edges(10, PETERSEN)) == 3
    # Triangle-free, so the search starts at k = 2 and fails at 2 and 3.
    assert exact_chromatic_number(graph_from_edges(11, GROTZSCH)) == 4


def test_chromatic_number_handles_components():
    # K3 plus K4, disjoint.
    edges = list(combinations(range(3), 2)) + list(combinations(range(3, 7), 2))
    g = graph_from_edges(7, edges)
    assert exact_chromatic_number(g) == 4
    # The Grötzsch graph and a separate K3, in both vertex orders: the
    # larger chi is found whether its component is searched first or last.
    last = GROTZSCH + list(combinations(range(11, 14), 2))
    assert exact_chromatic_number(graph_from_edges(14, last)) == 4
    first = list(combinations(range(3), 2)) + [(a + 3, b + 3) for a, b in GROTZSCH]
    assert exact_chromatic_number(graph_from_edges(14, first)) == 4


@st.composite
def block_graphs(draw):
    """A disjoint union of 1 to 3 random blocks, 0 to 12 vertices in all,
    each at its own edge density, with the vertex labels shuffled so the
    components interleave."""
    n = draw(st.integers(0, 12))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=2)))
    label = draw(st.permutations(range(n)))
    edges = []
    for lo, hi in zip([0] + cuts, cuts + [n]):
        density = draw(st.floats(0, 1))
        for a, b in combinations(range(lo, hi), 2):
            if draw(st.floats(0, 1)) < density:
                edges.append((label[a], label[b]))
    return graph_from_edges(n, edges)


@settings(max_examples=300, deadline=None)
@given(block_graphs())
def test_chromatic_number_matches_naive(g):
    assert exact_chromatic_number(g) == naive_chromatic(g.adjacency)


@settings(max_examples=100, deadline=None)
@given(block_graphs())
def test_edge_count_counts_each_edge_once(g):
    assert g.edge_count() == len(graph_edges(g))


def test_chromatic_cap():
    g = Graph(70, (0,) * 70)
    with pytest.raises(TooLarge):
        exact_chromatic_number(g)
    assert exact_chromatic_number(g, cap=70) == 1


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_coloring_answers_past_the_recursion_limit(recursion_limit_200):
    """The search keeps its frames on a list, one per colored vertex, so
    298 vertices left after the clique need no recursion room."""
    assert exact_chromatic_number(path_graph(300)) == 2
    assert exact_chromatic_number(path_graph(100)) == 2


def test_coloring_answers_under_a_deep_caller(monkeypatch):
    """949 vertices left to color, called 60 frames down: the depth of
    the caller's stack does not decide the answer either."""
    monkeypatch.setenv("RADON_NETS_CAP", "2000")

    def nested(depth):
        return exact_chromatic_number(path_graph(951)) if depth == 0 else nested(depth - 1)

    assert nested(60) == 2


# --- dense sets and hitting instances ----------------------------------------------


def test_dense_sets_thresholds():
    sp = cylinder_space(2)
    mu = Distribution.uniform(4)
    assert len(dense_sets(sp, mu, Fraction(1, 4))) == 9
    half = dense_sets(sp, mu, Fraction(1, 2))
    assert len(half) == 5
    # The threshold is met with equality, not exceeded.
    assert all(fraction_measure(mu, s) >= Fraction(1, 2) for s in half)
    assert len(dense_sets(sp, mu, Fraction(1))) == 1
    with pytest.raises(ValueError):
        dense_sets(sp, mu, Fraction(0))
    with pytest.raises(ValueError):
        dense_sets(sp, mu, Fraction(5, 4))


@pytest.mark.parametrize("size", [3, 5])
@pytest.mark.parametrize(
    "call",
    [
        lambda sp, mu, eps: verify_weak_net(sp, mu, eps, sp.full),
        minimal_weak_net,
        chromatic_lower_bound,
    ],
    ids=["verify_weak_net", "minimal_weak_net", "chromatic_lower_bound"],
)
def test_distribution_of_the_wrong_size_is_refused(call, size):
    """A smaller measure used to end in an IndexError and a larger one in
    silent answers (the oracle gave 2 points for the 4-point cylinders)."""
    with pytest.raises(ValueError, match="distribution size does not match the ground set"):
        call(cylinder_space(2), Distribution.uniform(size), Fraction(1, 4))


def test_hitting_instance_minimal_targets():
    rng = random.Random(42)
    from radonnets import random_separable

    for seed in range(12):
        sp = random_separable(4 + seed % 3, seed)
        mu = seeded_distribution(sp.ground.size, f"hit/{seed}")
        eps = Fraction(1, rng.randint(2, 4))
        inst = hitting_instance(sp, mu, eps)
        dense = dense_sets(sp, mu, eps)
        targets = list(inst.targets)
        for t in targets:
            assert fraction_measure(mu, t) >= eps
            assert not any(u.mask != t.mask and u.mask & ~t.mask == 0 for u in targets)
        for d in dense:
            assert any(t.mask & ~d.mask == 0 for t in targets)


# --- exact minimum nets -------------------------------------------------------------


def test_minimum_net_examples():
    sp = cylinder_space(2)
    mu = Distribution.uniform(4)
    size, witness = minimal_weak_net(sp, mu, Fraction(1, 4))
    assert size == 4
    assert len(witness) == 4
    size, witness = minimal_weak_net(sp, mu, Fraction(1, 2))
    # {00, 11} meets every half of the square.
    assert size == 2
    assert witness.indices == (0, 3)


def test_minimum_net_on_four_cylinders():
    """Piercing every codimension <= 2 cylinder of the 4-cube needs 5 points,
    one fewer than the naive pair-cover estimate."""
    sp = cylinder_space(4)
    mu = Distribution.uniform(16)
    size, witness = minimal_weak_net(sp, mu, Fraction(1, 4))
    assert size == 5
    labels = sp.ground.labels_of(witness)
    assert labels == ("0000", "0011", "0101", "1001", "1110")


def test_minimum_net_refutes_sizes_above_the_packing_bound():
    """Every pair of the 5 points is dense at eps 1/4, so two disjoint pairs
    give a packing bound of 2, but a net must be a vertex cover of K5: the
    search refutes sizes 2 and 3 before it finds one of size 4."""
    sp = power_set_space(5)
    mu = Distribution.uniform(5)
    eps = Fraction(1, 4)
    targets = [t.mask for t in hitting_instance(sp, mu, eps).targets]
    assert _packing_bound(targets, -1) == 2
    assert minimal_weak_net(sp, mu, eps) == (4, PointSet.from_indices([0, 1, 2, 3]))


def test_minimum_net_answers_past_the_recursion_limit(recursion_limit_200):
    """The search keeps its frames on a list, one per picked point, so a
    net of 300 points needs no recursion room.  Every singleton is a
    minimal dense set here, so the packing bound is the point count."""

    def singletons(n):
        ground = GroundSet(tuple(f"p{i}" for i in range(n)))
        return validate_space(ground, [PointSet(0), ground.full] + [PointSet(1 << i) for i in range(n)])

    for n in (300, 60):
        space = singletons(n)
        assert minimal_weak_net(space, Distribution.uniform(n), Fraction(1, n)) == (n, space.full)


def test_minimum_net_matches_naive():
    from radonnets import random_separable

    spread = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    for seed in range(20):
        sp = random_separable(3 + seed % 4, seed)
        mu = seeded_distribution(sp.ground.size, f"net/{seed}")
        for eps in spread:
            assert minimal_weak_net(sp, mu, eps) == naive_min_net(sp, mu, eps)


def test_minimum_net_witness_is_lex_least():
    from radonnets import random_separable

    for seed in range(10):
        sp = random_separable(4, seed)
        mu = seeded_distribution(4, f"lex/{seed}")
        eps = Fraction(1, 3)
        size, witness = minimal_weak_net(sp, mu, eps)
        targets = [t.mask for t in hitting_instance(sp, mu, eps).targets]
        optima = [
            PointSet.from_indices(c)
            for c in combinations(range(4), size)
            if all(any(i in PointSet(t) for i in c) for t in targets)
        ]
        assert witness == min(optima, key=lambda p: p.sort_key)


@st.composite
def hitting_inputs(draw):
    """An intersection closure of an arbitrary basis on 2 to 7 points (so
    not always separable), an integer measure with at least one non-zero
    weight, and an eps."""
    n = draw(st.integers(2, 7))
    basis = [PointSet(m) for m in draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))]
    space = intersection_closure(GroundSet(tuple(f"p{i}" for i in range(n))), basis)
    nums = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    nums[draw(st.integers(0, n - 1))] = draw(st.integers(1, 5))
    eps = draw(st.sampled_from([Fraction(1, k) for k in (5, 4, 3, 2)] + [Fraction(3, 4)]))
    return space, Distribution.from_integer_weights(nums), eps


@settings(max_examples=200, deadline=None)
@given(hitting_inputs())
def test_minimal_weak_net_matches_naive_on_random_closures(case):
    space, mu, eps = case
    assert minimal_weak_net(space, mu, eps) == naive_min_net(space, mu, eps)


@settings(max_examples=150, deadline=None)
@given(hitting_inputs())
def test_hitting_targets_are_the_minimal_dense_sets_on_random_closures(case):
    space, mu, eps = case
    dense = naive_dense_sets(space, mu, eps)
    minimal = [s for s in dense if not any(t != s and t.mask & ~s.mask == 0 for t in dense)]
    targets = hitting_instance(space, mu, eps).targets
    assert list(targets) == minimal
    assert sorted(targets, key=lambda s: s.sort_key) == minimal


@settings(max_examples=150, deadline=None)
@given(hitting_inputs())
def test_chromatic_certificate_matches_the_unreduced_graph_on_random_closures(case):
    """The certificate's graph joins exactly its disjoint sets; reducing to
    the minimal dense sets keeps chi, and chi bounds every weak net from
    below, separable space or not."""
    space, mu, eps = case
    full = disjointness_graph(space, mu, eps).graph
    assume(full.vertex_count <= 40)
    cert = chromatic_lower_bound(space, mu, eps, cap=1024)
    sets = cert.graph.sets
    pairs = [(i, j) for i, j in combinations(range(len(sets)), 2) if not set(sets[i].indices) & set(sets[j].indices)]
    assert cert.graph.graph == graph_from_edges(len(sets), pairs)
    assert cert.bound == exact_chromatic_number(full)
    assert cert.bound <= minimal_weak_net(space, mu, eps)[0]


@settings(max_examples=150, deadline=None)
@given(hitting_inputs(), st.integers(0, (1 << 7) - 1))
def test_verify_weak_net_matches_naive_on_random_closures(case, mask):
    """The counterexample is the missed dense set of largest measure,
    canonically least on ties."""
    space, mu, eps = case
    points = PointSet(mask & space.full.mask)
    missed = [s for s in naive_dense_sets(space, mu, eps) if s.isdisjoint(points)]
    worst = min(missed, key=lambda s: (-fraction_measure(mu, s), s.sort_key), default=None)
    assert verify_weak_net(space, mu, eps, points) == (worst is None, worst)
