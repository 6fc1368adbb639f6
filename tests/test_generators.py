import random

import pytest

from radonnets import (
    GeneratorSpec,
    PointSet,
    TooLarge,
    cylinder_space,
    is_separable,
    lattice_convex_space,
    linear_extension_space,
    power_set_space,
    random_separable,
    subtree_space,
    validate_space,
)
from radonnets.space import _HullCache

from conftest import (
    POSET_BASES,
    reference_cylinder_space,
    reference_lattice_convex_space,
    reference_linear_extension_space,
    reference_subtree_space,
    tree_edge_lists,
)


def assert_valid(space):
    validate_space(space.ground, space.sets)


def test_power_set_space():
    sp = power_set_space(3)
    assert sp.ground.labels == ("1", "2", "3")
    assert len(sp.convex) == 8
    assert_valid(sp)
    with pytest.raises(ValueError):
        power_set_space(0)
    with pytest.raises(ValueError):
        power_set_space(17)


def test_cylinder_space():
    sp = cylinder_space(2)
    assert sp.ground.labels == ("00", "01", "10", "11")
    assert len(sp.convex) == 3**2 + 1
    # The cylinder fixing the first coordinate to 0 is {00, 01}.
    assert PointSet.from_indices([0, 1]) in sp.convex
    assert PointSet.from_indices([0, 3]) not in sp.convex
    assert_valid(sp)
    assert len(cylinder_space(3).convex) == 3**3 + 1
    with pytest.raises(ValueError):
        cylinder_space(0)
    with pytest.raises(ValueError):
        cylinder_space(7)


def test_subtree_space_path():
    sp = subtree_space([("b", "a"), ("b", "c")])
    assert sp.ground.labels == ("a", "b", "c")
    assert [s.indices for s in sp.sets] == [
        (),
        (0,),
        (0, 1),
        (0, 1, 2),
        (1,),
        (1, 2),
        (2,),
    ]
    assert_valid(sp)


def test_subtree_space_star():
    sp = subtree_space([("c", "x"), ("c", "y"), ("c", "z")])
    # Any set containing the center, the three leaves, and the empty set.
    assert len(sp.convex) == 8 + 3 + 1
    assert_valid(sp)


def test_subtree_space_rejects_non_trees():
    with pytest.raises(ValueError):
        subtree_space([("a", "b"), ("b", "c"), ("c", "a")])
    with pytest.raises(ValueError):
        subtree_space([("a", "b"), ("c", "d")])
    with pytest.raises(ValueError):
        subtree_space([("a", "a")])
    with pytest.raises(ValueError):
        subtree_space([("a", "b"), ("a", "b")])
    with pytest.raises(ValueError):
        subtree_space([])
    big = [(f"v{i}", f"v{i+1}") for i in range(16)]
    with pytest.raises(ValueError):
        subtree_space(big)


def test_lattice_space():
    sp = lattice_convex_space(3, 3)
    assert sp.ground.labels[:4] == ("0,0", "1,0", "2,0", "0,1")
    assert len(sp.convex) == 214
    diag = PointSet.from_indices([0, 4, 8])
    assert _HullCache(sp).hull(PointSet.from_indices([0, 8]).mask) == diag.mask
    assert diag in sp.convex
    assert PointSet.from_indices([0, 8]) not in sp.convex
    assert is_separable(sp).separable
    assert_valid(sp)


def test_lattice_two_by_two_is_power_set():
    sp = lattice_convex_space(2, 2)
    assert len(sp.convex) == 16


def test_lattice_largest_grids():
    """The grids at the 25-point cap: a 5x5 and a 4x6 grid.  The counts
    are those of the point-by-point hull enumeration."""
    assert len(lattice_convex_space(5, 5).convex) == 33_367
    assert len(lattice_convex_space(4, 6).convex) == 24_778


def test_lattice_validation():
    with pytest.raises(ValueError):
        lattice_convex_space(0, 3)
    with pytest.raises(ValueError):
        lattice_convex_space(6, 5)


def test_poset_space_chain():
    sp = linear_extension_space(("a", "b", "c"), [("a", "b"), ("b", "c")])
    assert sp.ground.labels == ("a<b<c",)
    assert [s.indices for s in sp.sets] == [(), (0,)]
    assert_valid(sp)


def test_poset_space_antichain():
    sp = linear_extension_space(("a", "b", "c"))
    assert sp.ground.size == 6
    assert sp.ground.labels[0] == "a<b<c"
    assert len(sp.convex) == 20
    assert_valid(sp)
    assert is_separable(sp).separable


def test_poset_space_vee():
    sp = linear_extension_space(("a", "b", "c"), [("a", "b"), ("a", "c")])
    assert sp.ground.labels == ("a<b<c", "a<c<b")
    assert len(sp.convex) == 4


def test_poset_space_validation():
    with pytest.raises(ValueError):
        linear_extension_space(("a", "b"), [("a", "x")])
    with pytest.raises(ValueError):
        linear_extension_space(("a", "a"))
    with pytest.raises(ValueError):
        linear_extension_space(())
    with pytest.raises(ValueError):
        linear_extension_space(("a", "b"), [("a", "b"), ("b", "a")])
    with pytest.raises(TooLarge, match="ground set has 120 points, cap is 64"):
        linear_extension_space(("a", "b", "c", "d", "e"))


def test_poset_space_obeys_the_size_cap(monkeypatch):
    """`GroundSet` is the one home of the ground cap: five free elements
    give 120 extensions, which a raised cap admits."""
    monkeypatch.setenv("RADON_NETS_CAP", "120")
    elements = ("a", "b", "c", "d", "e")
    labels, masks = _outcome(linear_extension_space, elements, ())
    assert (len(labels), len(masks)) == (120, 4232)
    assert (labels, masks) == _outcome(reference_linear_extension_space, elements, ())


def _outcome(build, *args):
    """Labels and sets of the built space, or the error's type and message."""
    try:
        space = build(*args)
    except ValueError as exc:
        return type(exc), str(exc)
    return space.ground.labels, space.convex.masks()


def _random_relations(rng: random.Random, elements: list[str]) -> list[tuple[str, str]]:
    """Up to six relations, rarely one with an unknown element.  Half the
    lists may hold cycles and self-relations; the other half point up the
    element order, so they are acyclic."""
    pool = elements + (["z"] if rng.random() < 0.05 else [])
    if not pool:
        return []
    relations = [(rng.choice(pool), rng.choice(pool)) for _ in range(rng.randint(0, 6))]
    if rng.random() < 0.5:
        relations = [(a, b) if a < b else (b, a) for a, b in relations if a != b]
    return relations


def _random_edges(rng: random.Random) -> list[tuple[str, str]]:
    """A labelled tree on 1..11 vertices; in five cases of eight an edge
    is dropped, added, rewired, repeated or made a self-loop."""
    n = rng.randint(1, 11)
    verts = rng.sample([f"v{i}" for i in range(20)], n)
    edges = [(verts[i], verts[rng.randrange(i)]) for i in range(1, n)]
    broken = rng.randrange(8)
    if broken == 0 and edges:
        edges.pop(rng.randrange(len(edges)))
    elif broken == 1:
        edges.append((rng.choice(verts), rng.choice(verts)))
    elif broken == 2 and edges:
        edges[rng.randrange(len(edges))] = (rng.choice(verts), rng.choice(verts))
    elif broken == 3 and len(edges) > 1:
        edges[0] = edges[1]
    elif broken == 4 and edges:
        edges[0] = (edges[0][0], edges[0][0])
    rng.shuffle(edges)
    return [e[::-1] if rng.random() < 0.5 else e for e in edges]


def test_generators_match_their_enumerations():
    """Cylinders, subtrees, lattices and posets, built from half-spaces,
    equal the families enumerated from their definitions, and fail with
    the same error on the same bad input."""
    for n in range(8):
        assert _outcome(cylinder_space, n) == _outcome(reference_cylinder_space, n)
    grids = [(w, h) for w in range(1, 13) for h in range(1, 13) if w * h <= 12]
    for w, h in grids + [(0, 1), (1, 0), (5, 6), (26, 1)]:
        assert _outcome(lattice_convex_space, w, h) == _outcome(reference_lattice_convex_space, w, h)
    for _, edges in tree_edge_lists():
        assert _outcome(subtree_space, edges) == _outcome(reference_subtree_space, edges)
    for elements, relations in POSET_BASES.values():
        assert _outcome(linear_extension_space, elements, relations) == _outcome(
            reference_linear_extension_space, elements, relations
        )
    rng = random.Random(4508)
    for _ in range(300):
        edges = _random_edges(rng)
        assert _outcome(subtree_space, edges) == _outcome(reference_subtree_space, edges)
        elements = [chr(ord("a") + i) for i in range(rng.randint(0, 5))]
        if len(elements) > 1 and rng.random() < 0.05:
            elements[1] = elements[0]
        relations = _random_relations(rng, elements)
        assert _outcome(linear_extension_space, elements, relations) == _outcome(
            reference_linear_extension_space, elements, relations
        )


def test_random_separable_is_deterministic():
    a = random_separable(5, 42)
    b = random_separable(5, 42)
    assert a.ground.labels == b.ground.labels == tuple(f"p{i}" for i in range(5))
    assert a.convex.masks() == b.convex.masks()
    assert is_separable(a).separable
    assert random_separable(5, 43).convex.masks() != a.convex.masks()
    with pytest.raises(ValueError):
        random_separable(1, 0)


def test_random_separable_checks_the_cap_before_labelling():
    """A point count over the cap is refused before one label per point
    is built, so a huge count costs no memory."""
    with pytest.raises(TooLarge, match="ground set has 1000000000000 points, cap is 64"):
        random_separable(10**12, 1)


def test_generator_spec_dispatch():
    cases = [
        GeneratorSpec("power", {"m": 3}),
        GeneratorSpec("cylinders", {"n": 2}),
        GeneratorSpec("subtree", {"edges": [("a", "b")]}),
        GeneratorSpec("lattice", {"width": 2, "height": 2}),
        GeneratorSpec("poset", {"elements": ("a", "b")}),
        GeneratorSpec("random", {"points": 4, "seed": 9}),
    ]
    for spec in cases:
        assert_valid(spec.build())
    with pytest.raises(ValueError):
        GeneratorSpec("mystery", {}).build()


def test_generator_spec_calls_the_module_attribute(monkeypatch):
    """Builders are looked up when called, so a wrapped or patched module
    function is the one that runs."""
    from radonnets import generators

    monkeypatch.setattr(generators, "power_set_space", lambda m: f"built {m}")
    assert GeneratorSpec("power", {"m": 2}).build() == "built 2"
