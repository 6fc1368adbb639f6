import random
from fractions import Fraction
from itertools import combinations

import pytest

from radonnets import (
    Distribution,
    Graph,
    PointSet,
    TooLarge,
    chromatic_lower_bound,
    cylinder_space,
    dense_sets,
    exact_chromatic_number,
    hitting_instance,
    measure,
    minimal_weak_net,
    power_set_space,
    verify_weak_net,
)

from conftest import naive_chromatic, naive_min_net, seeded_distribution

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
    g = Graph.from_edges(3, [(0, 1), (2, 1)])
    assert g.adjacency == (0b010, 0b101, 0b010)
    assert g.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        Graph(2, (0b10, 0b00))
    with pytest.raises(ValueError):
        Graph(1, (0b1,))
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(1, 1)])


def test_chromatic_number_examples():
    assert exact_chromatic_number(Graph(0, ())) == 0
    assert exact_chromatic_number(Graph(3, (0, 0, 0))) == 1
    k4 = Graph.from_edges(4, combinations(range(4), 2))
    assert exact_chromatic_number(k4) == 4
    c5 = Graph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
    assert exact_chromatic_number(c5) == 3
    k33 = Graph.from_edges(6, [(i, j) for i in range(3) for j in range(3, 6)])
    assert exact_chromatic_number(k33) == 2
    assert exact_chromatic_number(Graph.from_edges(10, PETERSEN)) == 3
    # Triangle-free, so the search starts at k = 2 and fails at 2 and 3.
    assert exact_chromatic_number(Graph.from_edges(11, GROTZSCH)) == 4


def test_chromatic_number_handles_components():
    # K3 plus K4, disjoint.
    edges = list(combinations(range(3), 2)) + list(combinations(range(3, 7), 2))
    g = Graph.from_edges(7, edges)
    assert exact_chromatic_number(g) == 4
    # The Grötzsch graph and a separate K3, in both vertex orders: the
    # larger chi is found whether its component is searched first or last.
    last = GROTZSCH + list(combinations(range(11, 14), 2))
    assert exact_chromatic_number(Graph.from_edges(14, last)) == 4
    first = list(combinations(range(3), 2)) + [(a + 3, b + 3) for a, b in GROTZSCH]
    assert exact_chromatic_number(Graph.from_edges(14, first)) == 4


def test_chromatic_number_matches_naive():
    rng = random.Random(313)
    for _ in range(80):
        n = rng.randint(1, 8)
        adj = [0] * n
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.45:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
        g = Graph(n, tuple(adj))
        assert exact_chromatic_number(g) == naive_chromatic(tuple(adj))


def test_chromatic_cap():
    g = Graph(70, (0,) * 70)
    with pytest.raises(TooLarge):
        exact_chromatic_number(g)
    assert exact_chromatic_number(g, cap=70) == 1


# --- dense sets and hitting instances ----------------------------------------------


def test_dense_sets_thresholds():
    sp = cylinder_space(2)
    mu = Distribution.uniform(4)
    assert len(dense_sets(sp, mu, Fraction(1, 4))) == 9
    half = dense_sets(sp, mu, Fraction(1, 2))
    assert len(half) == 5
    # The threshold is met with equality, not exceeded.
    assert all(measure(mu, s) >= Fraction(1, 2) for s in half)
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
            assert measure(mu, t) >= eps
            assert not any(u.mask != t.mask and u.issubset(t) for u in targets)
        for d in dense:
            assert any(t.issubset(d) for t in targets)


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


def test_minimum_net_matches_naive():
    from radonnets import random_separable

    for seed in range(20):
        sp = random_separable(3 + seed % 4, seed)
        mu = seeded_distribution(sp.ground.size, f"net/{seed}")
        for eps in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
            size, witness = minimal_weak_net(sp, mu, eps)
            assert size == naive_min_net(sp, mu, eps)
            assert len(witness) == size
            for t in hitting_instance(sp, mu, eps).targets:
                assert not witness.isdisjoint(t)


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
