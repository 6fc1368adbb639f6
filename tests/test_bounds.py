import random
from fractions import Fraction
from itertools import combinations

import pytest

from radonnets import (
    ConsistencyError,
    Distribution,
    PointSet,
    TooLarge,
    chromatic_lower_bound,
    cylinder_space,
    exact_chromatic_number,
    kneser_chromatic_number,
    kneser_embedding,
    kneser_graph,
    minimal_weak_net,
    power_set_space,
    radon_lower_bound,
    radon_number,
    random_separable,
    subtree_space,
)

from conftest import (
    NotIntersecting,
    disjointness_graph,
    graph_edges,
    graph_from_edges,
    kleitman_union_bound,
    seeded_distribution,
)


# --- disjointness graphs and chromatic certificates ---------------------------------


def test_disjointness_graph_structure():
    sp = cylinder_space(2)
    g = disjointness_graph(sp, Distribution.uniform(4), Fraction(1, 4))
    assert len(g.sets) == 9
    for i, j in graph_edges(g.graph):
        assert g.sets[i].isdisjoint(g.sets[j])
    non_edges = {(i, j) for i in range(9) for j in range(i + 1, 9)} - set(graph_edges(g.graph))
    for i, j in non_edges:
        assert not g.sets[i].isdisjoint(g.sets[j])


def test_chromatic_certificate_on_cylinders():
    sp = cylinder_space(2)
    cert = chromatic_lower_bound(sp, Distribution.uniform(4), Fraction(1, 4))
    assert cert.bound == 4
    assert cert.method == "exact-chromatic"
    # Reduced vertices are the four singletons, giving K4.
    assert [s.indices for s in cert.graph.sets] == [(0,), (1,), (2,), (3,)]
    assert cert.graph.graph.edge_count() == 6


def test_chromatic_certificate_trivial_case():
    cert = chromatic_lower_bound(power_set_space(2), Distribution.uniform(2), Fraction(1))
    assert cert.bound == 1
    assert len(cert.graph.sets) == 1


def test_reduction_preserves_chromatic_number():
    """Coloring only the inclusion-minimal dense sets loses nothing."""
    for trial in range(20):
        sp = random_separable(3 + trial % 4, trial)
        mu = seeded_distribution(sp.ground.size, f"chi/{trial}")
        for eps in (Fraction(1, 4), Fraction(1, 2)):
            full = disjointness_graph(sp, mu, eps)
            cert = chromatic_lower_bound(sp, mu, eps)
            assert exact_chromatic_number(full.graph) == cert.bound


def test_chromatic_bound_is_sound():
    for trial in range(20):
        sp = random_separable(3 + trial % 4, 50 + trial)
        mu = seeded_distribution(sp.ground.size, f"sound/{trial}")
        for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2)):
            cert = chromatic_lower_bound(sp, mu, eps)
            opt, _ = minimal_weak_net(sp, mu, eps)
            assert cert.bound <= opt


def test_chromatic_certificate_cap():
    sp = cylinder_space(2)
    with pytest.raises(TooLarge):
        chromatic_lower_bound(sp, Distribution.uniform(4), Fraction(1, 4), cap=3)


# --- Radon certificates ---------------------------------------------------------------


def test_radon_certificate_closed_form():
    cert = radon_lower_bound(power_set_space(4), Fraction(1, 4))
    assert cert.bound == 4
    assert cert.method == "lovasz-closed-form"
    assert cert.support == PointSet(0b1111)
    assert cert.mu == Distribution.uniform(4)
    cert = radon_lower_bound(power_set_space(4), Fraction(2, 5))
    assert cert.bound == 2 and cert.method == "lovasz-closed-form"


def test_radon_certificate_rounded_form():
    cert = radon_lower_bound(power_set_space(4), Fraction(3, 5))
    assert cert.bound == 1
    assert cert.method == "kneser-formula"
    with pytest.raises(ValueError):
        radon_lower_bound(power_set_space(4), Fraction(0))


def test_radon_certificate_is_sound():
    """The certified bound never exceeds the true optimum for its measure."""
    spaces = [power_set_space(4), cylinder_space(2), subtree_space([("a", "b"), ("b", "c")])]
    spaces += [random_separable(4 + t % 3, t) for t in range(12)]
    for sp in spaces:
        for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
            cert = radon_lower_bound(sp, eps)
            opt, _ = minimal_weak_net(sp, cert.mu, eps)
            assert cert.bound <= opt


# --- Kneser graphs ----------------------------------------------------------------------


def test_petersen_is_kneser_5_2():
    kg = kneser_graph(5, 2)
    assert len(kg.sets) == 10
    assert kg.graph.edge_count() == 15
    assert all(len(s) == 2 for s in kg.sets)
    assert exact_chromatic_number(kg.graph) == 3
    assert kneser_chromatic_number(5, 2) == 3


def test_kneser_chromatic_formula_small():
    for n in range(1, 9):
        for k in range(1, n + 1):
            expected = n - 2 * k + 2 if n >= 2 * k else 1
            assert kneser_chromatic_number(n, k) == expected
    with pytest.raises(ValueError):
        kneser_chromatic_number(3, 4)
    with pytest.raises(ValueError, match="1 <= k <= n"):
        kneser_graph(3, 4)


def test_kneser_exact_chromatic_matches_the_closed_form_at_n_9_and_10(monkeypatch):
    """Every KG(n, k) with n = 9 or 10, up to KG(10, 5) with C(10, 5) = 252
    vertices; KG(10, 3) has 120 vertices and chi 6."""
    monkeypatch.setenv("RADON_NETS_CAP", "252")
    for n in (9, 10):
        for k in range(1, n + 1):
            expected = n - 2 * k + 2 if n >= 2 * k else 1
            assert exact_chromatic_number(kneser_graph(n, k).graph) == expected, (n, k)


@pytest.mark.parametrize("n, k", [(n, k) for n in range(1, 9) for k in range(1, n + 1)])
def test_kneser_graph_joins_exactly_the_disjoint_subsets(n, k, monkeypatch):
    monkeypatch.setenv("RADON_NETS_CAP", "70")  # C(8, 4)
    kg = kneser_graph(n, k)
    subsets = [set(c) for c in combinations(range(n), k)]
    assert [set(s.indices) for s in kg.sets] == subsets
    pairs = [(i, j) for i, j in combinations(range(len(subsets)), 2) if not subsets[i] & subsets[j]]
    assert kg.graph == graph_from_edges(len(subsets), pairs)


def test_kneser_graph_cap(monkeypatch):
    with pytest.raises(TooLarge):
        kneser_graph(10, 3)
    monkeypatch.setenv("RADON_NETS_CAP", "120")
    kg = kneser_graph(10, 3)
    assert len(kg.sets) == 120
    # The cap check counts C(n, k) only until it passes the cap, so a
    # binomial with hundreds of thousands of digits is refused at once.
    with pytest.raises(TooLarge, match="more vertices than the cap of 120"):
        kneser_graph(10**6, 5 * 10**5)
    monkeypatch.setenv("RADON_NETS_CAP", "119")
    with pytest.raises(TooLarge):
        kneser_graph(10, 7)


def test_kneser_graph_cap_bounds_the_ground_set(monkeypatch):
    """KG_{n,n} has one vertex; its n-set is refused by the ground cap
    before the vertex is built, and admitted within it."""
    with pytest.raises(TooLarge, match="ground set has 10000000 points, cap is 64"):
        kneser_graph(10**7, 10**7)
    assert kneser_graph(64, 64).sets == (PointSet((1 << 64) - 1),)
    monkeypatch.setenv("RADON_NETS_CAP", "200")
    with pytest.raises(TooLarge, match="more vertices than the cap of 200"):
        kneser_graph(201, 200)
    assert len(kneser_graph(200, 200).sets) == 1


# --- Kleitman union bound ------------------------------------------------------------------


def test_kleitman_tight_examples():
    f1 = [PointSet(0b01), PointSet(0b11)]
    check = kleitman_union_bound(2, [f1])
    assert check == (True, 2, 2)
    f2 = [PointSet(0b10), PointSet(0b11)]
    check = kleitman_union_bound(2, [f1, f2])
    assert check == (True, 3, 3)


def test_kleitman_on_random_star_families():
    rng = random.Random(1914)
    for _ in range(40):
        n = rng.randint(1, 4)
        s = rng.randint(1, 4)
        families = []
        for _ in range(s):
            center = rng.randrange(n)
            members = {
                PointSet((rng.randrange(1 << n)) | (1 << center))
                for _ in range(rng.randint(1, 2**n))
            }
            families.append(sorted(members, key=lambda p: p.sort_key))
        check = kleitman_union_bound(n, families)
        assert check.ok
        expected = 2**n - 2 ** (n - s) if s <= n else 2**n
        assert check.bound == expected


def test_kleitman_rejects_bad_input():
    with pytest.raises(NotIntersecting) as err:
        kleitman_union_bound(2, [[PointSet(0b01)], [PointSet(0b01), PointSet(0b10)]])
    assert err.value.index == 1
    with pytest.raises(NotIntersecting):
        kleitman_union_bound(2, [[PointSet(0)]])
    with pytest.raises(ValueError):
        kleitman_union_bound(1, [[PointSet(0b10)]])
    with pytest.raises(ValueError):
        kleitman_union_bound(-1, [])


def test_kleitman_more_families_than_points():
    fams = [[PointSet(0b1)]] * 3
    check = kleitman_union_bound(1, fams)
    assert check == (True, 1, 2)


# --- hull embeddings of Kneser graphs --------------------------------------------------------


def test_kneser_embedding_on_power_set():
    sp = power_set_space(4)
    witness = radon_number(sp)[1]
    pairs = kneser_embedding(sp, witness, Fraction(1, 4))
    assert len(pairs) == 4
    assert all(z == hull for z, hull in pairs)
    pairs = kneser_embedding(sp, witness, Fraction(1, 2))
    assert len(pairs) == 6
    hulls = [h for _, h in pairs]
    assert len(set(h.mask for h in hulls)) == 6


def test_kneser_embedding_rejects_unshattered_sets():
    path = subtree_space([("a", "b"), ("b", "c")])
    with pytest.raises(ConsistencyError):
        kneser_embedding(path, path.full, Fraction(2, 3))
    with pytest.raises(ValueError):
        kneser_embedding(path, PointSet(0), Fraction(1, 2))
    with pytest.raises(ValueError, match="not a subset of the ground set"):
        kneser_embedding(power_set_space(2), PointSet(0b1000), Fraction(1, 2))
