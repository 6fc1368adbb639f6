import math
import random
import sys
import warnings
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from radonnets import (
    ConsistencyError,
    ConvexFamily,
    Distribution,
    EmptyIntersection,
    GroundSet,
    PackingBoundWarning,
    PointSet,
    TooLarge,
    amplification_depth,
    build_weak_net,
    cylinder_space,
    halfspaces,
    intersection_closure,
    lattice_convex_space,
    minimal_weak_net,
    power_set_space,
    random_separable,
    subtree_space,
    validate_space,
    verify_weak_net,
)
from radonnets.invariants import helly_number, vc_dimension
from radonnets.nets import NetNode, _net_params, size_bound_value

from conftest import (
    ZeroMassCondition,
    conditional,
    fraction_measure,
    greedy_packing,
    piercing_point,
    reference_amplification_depth,
    reference_build_weak_net,
    reference_weak_net,
    same_trace,
    seeded_distribution,
)


# --- recursion parameters -----------------------------------------------------


@pytest.mark.parametrize(
    "eps,helly,depth",
    [
        (Fraction(9, 10), 2, 0),
        (Fraction(2, 5), 2, 2),
        (Fraction(1, 4), 2, 4),
        (Fraction(1, 4), 4, 10),
        (Fraction(1, 3), 4, 7),
        (Fraction(3, 4), 4, 1),
        (Fraction(1, 2), 3, 2),
        (Fraction(1, 2), 1, 0),
    ],
)
def test_amplification_depth(eps, helly, depth):
    assert amplification_depth(eps, helly) == depth


def test_amplification_depth_zero_iff_past_target():
    for h in range(1, 6):
        target = 1 - Fraction(1, h)
        for num in range(1, 13):
            eps = Fraction(num, 12)
            n = amplification_depth(eps, h)
            assert (n == 0) == (eps > target)
            # After n doublings of the threshold the target is cleared.
            assert eps * (1 + Fraction(1, 2 * h)) ** n > target


@pytest.mark.parametrize("helly", [1, 2, 3, 5, 17])
def test_amplification_depth_matches_the_level_by_level_loop(helly):
    """The logarithmic estimate, settled exactly, gives the loop's depth:
    at the boundaries eps = target * factor**-k, just beside them, past
    the target (eps > 1 - 1/h, depth 0) and with h = 1 (target 0)."""
    target = 1 - Fraction(1, helly)
    factor = 1 + Fraction(1, 2 * helly)
    grid = [Fraction(num, 60) for num in range(1, 61)]
    grid += [Fraction(1, 10**digits) for digits in (1, 2, 5, 20, 80)]
    if helly > 1:
        for k in range(8):
            edge = target / factor**k
            grid += [edge, edge * Fraction(10**9 - 1, 10**9), edge * Fraction(10**9 + 1, 10**9)]
    for eps in grid:
        assert amplification_depth(eps, helly) == reference_amplification_depth(eps, helly), eps


def test_amplification_depth_of_a_thousand_digit_eps():
    eps = Fraction(1, 10**1000)
    assert amplification_depth(eps, 2) == reference_amplification_depth(eps, 2)


def test_amplification_depth_validation():
    with pytest.raises(ValueError):
        amplification_depth(Fraction(0), 2)
    with pytest.raises(ValueError):
        amplification_depth(Fraction(3, 2), 2)
    with pytest.raises(ValueError):
        amplification_depth(Fraction(1, 2), 0)


def test_net_params_fields():
    p = _net_params(Fraction(1, 4), 2, 3)
    assert p.delta == Fraction(1, 64)
    assert p.depth == 4
    assert (p.helly, p.vc) == (2, 3)


def test_size_bound_value():
    got = size_bound_value(Fraction(1, 2), 2, 2)
    assert got == pytest.approx(math.exp(16 * math.log(2) * math.log(960)))
    assert size_bound_value(Fraction(1, 10**6), 5, 5) == math.inf
    assert size_bound_value(Fraction(1, 10**400), 2, 2) == math.inf


# --- recursion building blocks --------------------------------------------------


def test_piercing_point():
    p3 = power_set_space(3)
    sets = [PointSet.from_indices([0, 1]), PointSet.from_indices([1, 2])]
    assert piercing_point(p3, sets) == 1
    assert piercing_point(p3, []) == 0
    with pytest.raises(EmptyIntersection):
        piercing_point(p3, [PointSet.from_indices([0]), PointSet.from_indices([1])])


def test_conditional():
    mu = Distribution.from_integer_weights([1, 2, 3, 0])
    cond = conditional(mu, PointSet.from_indices([1, 2, 3]))
    assert cond.weights == (0, Fraction(2, 5), Fraction(3, 5), 0)
    with pytest.raises(ZeroMassCondition):
        conditional(mu, PointSet.from_indices([3]))


def test_greedy_packing_properties():
    rng = random.Random(1234)
    for _ in range(40):
        n = rng.randint(1, 8)
        fam = ConvexFamily(
            tuple(PointSet(rng.randrange(1 << n)) for _ in range(rng.randint(1, 10)))
        )
        mu = seeded_distribution(n, f"pack/{rng.random()}")
        delta = Fraction(rng.randint(0, 3), 8)
        packing = greedy_packing(fam, mu, delta)
        chosen = list(packing)
        for i, a in enumerate(chosen):
            for b in chosen[i + 1:]:
                assert fraction_measure(mu, PointSet(a.mask ^ b.mask)) > delta
        for s in fam:
            assert any(fraction_measure(mu, PointSet(s.mask ^ a.mask)) <= delta for a in chosen)
    with pytest.raises(ValueError):
        greedy_packing(fam, mu, Fraction(-1, 2))


def test_verify_weak_net_reports_worst_counterexample():
    p3 = power_set_space(3)
    mu = Distribution.uniform(3)
    assert verify_weak_net(p3, mu, Fraction(1, 3), PointSet(0b111)).ok
    check = verify_weak_net(p3, mu, Fraction(1, 3), PointSet.from_indices([0]))
    assert not check.ok
    assert check.counterexample == PointSet.from_indices([1, 2])


def test_verify_weak_net_ties_break_canonically():
    g = GroundSet(("a", "b", "c"))
    sp = validate_space(g, [PointSet(0), PointSet(0b001), PointSet(0b010), PointSet(0b111)])
    mu = Distribution.uniform_on(3, PointSet(0b011))
    check = verify_weak_net(sp, mu, Fraction(1, 2), PointSet.from_indices([2]))
    assert check.counterexample == PointSet.from_indices([0])


@pytest.mark.parametrize(
    "points", [0b111 | 1 << 40, 1 << 3, 1 << 63], ids=["ground-and-40", "point-3", "point-63"]
)
def test_verify_weak_net_rejects_points_outside_the_ground_set(points):
    """A net is a set of ground points: a point beyond the ground set is
    refused as `build_weak_net` refuses such a family member, rather than
    judged by the ground points it also holds."""
    p3 = power_set_space(3)
    with pytest.raises(ValueError, match="not a subset of the ground set"):
        verify_weak_net(p3, Distribution.uniform(3), Fraction(1, 2), PointSet(points))


# --- the net construction ---------------------------------------------------------


def test_net_on_path_collapses_to_center():
    path = subtree_space([("a", "b"), ("b", "c")])
    net = build_weak_net(path, halfspaces(path), Distribution.uniform(3), Fraction(3, 5))
    assert path.ground.labels_of(net.points) == ("b",)
    assert net.trace.packing is None
    assert net.trace.children == ()
    assert net.params.depth == 0


def test_net_on_cylinders():
    sp = cylinder_space(2)
    net = build_weak_net(sp, halfspaces(sp), Distribution.uniform(4), Fraction(1, 4))
    assert verify_weak_net(sp, Distribution.uniform(4), Fraction(1, 4), net.points).ok
    assert len(net.points) == 4
    assert len(net.points) <= net.size_bound


def test_net_is_deterministic():
    sp = random_separable(5, 7)
    mu = seeded_distribution(5, "det")
    a = build_weak_net(sp, halfspaces(sp), mu, Fraction(1, 3))
    b = build_weak_net(sp, halfspaces(sp), mu, Fraction(1, 3))
    assert a.points == b.points
    assert a == b and same_trace(a.trace, b.trace)


def test_net_pierces_every_dense_set():
    """Independent check against a plain Fraction scan of the family."""
    rng = random.Random(31415)
    for trial in range(30):
        sp = random_separable(3 + trial % 4, trial)
        n = sp.ground.size
        mu = seeded_distribution(n, f"pierce/{trial}")
        eps = Fraction(1, rng.randint(1, 4))
        net = build_weak_net(sp, halfspaces(sp), mu, eps)
        for c in sp.sets:
            if fraction_measure(mu, c) >= eps:
                assert not net.points.isdisjoint(c)


def test_net_matches_unmemoized_reference():
    spaces = [cylinder_space(2), subtree_space([("a", "b"), ("b", "c"), ("b", "d")])]
    spaces += [random_separable(5, seed) for seed in range(4)]
    for index, sp in enumerate(spaces):
        b = halfspaces(sp)
        h = helly_number(b)[0]
        for tag in range(3):
            mu = seeded_distribution(sp.ground.size, f"ref/{index}/{tag}")
            for eps in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
                if amplification_depth(eps, h) > 4:
                    continue
                net = build_weak_net(sp, b, mu, eps)
                assert net.points == reference_weak_net(sp, b, mu, eps, h)


def test_net_matches_the_per_level_recursion(corpus, small_corpus):
    """The whole WeakNet (points, bound, parameters and trace DAG) equals
    the recursion that recomputes every node from scratch.  A cache that
    stored scaled masses q * mass across levels keeps the points but
    changes the traces, so the traces are compared node by node."""
    extra = ("lattice-2x3", "poset-antichain-4", "power-5")
    spaces = dict(small_corpus) | {name: sp for name, sp in corpus if name in extra}
    for name, sp in sorted(spaces.items()):
        b = halfspaces(sp)
        h, v = helly_number(b)[0], vc_dimension(b, sp.ground.size)[0]
        measures = [Distribution.uniform(sp.ground.size), seeded_distribution(sp.ground.size, f"trace/{name}")]
        for mu in measures:
            for eps in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
                net = build_weak_net(sp, b, mu, eps, helly=h, vc=v)
                ref = reference_build_weak_net(sp, b, mu, eps, h, v)
                where = (name, mu.weights, eps)
                assert (net.points, net.size_bound, net.params) == (ref.points, ref.size_bound, ref.params), where
                assert same_trace(net.trace, ref.trace), where


def test_same_trace_tells_shared_from_copied_nodes():
    leaf = NetNode(0, Fraction(1, 2), PointSet(1), None, ())
    twin = NetNode(0, Fraction(1, 2), PointSet(1), None, ())
    other = NetNode(1, Fraction(1, 2), PointSet(1), None, ())
    a = PointSet(0b01)

    def root(*children):
        return NetNode(0, Fraction(1, 4), PointSet(3), ConvexFamily((a,)), tuple((a, c) for c in children))

    shared, copied = root(leaf, leaf), root(leaf, twin)
    assert same_trace(shared, root(leaf, leaf))
    assert not same_trace(shared, copied)
    assert not same_trace(copied, shared)
    assert not same_trace(copied, root(leaf, other))


def dag_nodes(trace: NetNode) -> list[NetNode]:
    """Every node of a trace DAG once, by object id."""
    seen = {id(trace): trace}
    stack = [trace]
    while stack:
        for _, child in stack.pop().children:
            if id(child) not in seen:
                seen[id(child)] = child
                stack.append(child)
    return list(seen.values())


def test_trace_equality_compares_each_node_pair_once():
    """Two separately built nets compare equal, and `same_trace` matches
    their traces without walking the DAG as a tree (about 2 s for this
    pair); moving one leaf's point breaks both."""
    sp = lattice_convex_space(2, 3)
    b = halfspaces(sp)
    mu = Distribution.uniform(sp.ground.size)
    one = build_weak_net(sp, b, mu, Fraction(1, 4))
    two = build_weak_net(sp, b, mu, Fraction(1, 4))
    assert one.trace is not two.trace and one.memo_hits > 1000
    assert one == two and same_trace(one.trace, two.trace)

    leaf = next(node for node in dag_nodes(two.trace) if not node.children)
    copies: dict[int, NetNode] = {}

    def copy(node: NetNode) -> NetNode:
        got = copies.get(id(node))
        if got is None:
            x0 = node.x0 ^ 1 if node is leaf else node.x0
            children = tuple((a, copy(child)) for a, child in node.children)
            got = copies[id(node)] = replace(node, x0=x0, children=children)
        return got

    changed = copy(two.trace)
    assert not same_trace(changed, one.trace) and not same_trace(one.trace, changed)
    # A net compares the level record its trace is built from; moving the
    # same leaf's point there gives a different net with the changed trace.
    last_eps, leaves = one._levels[-1]
    moved = tuple((m, x0 ^ 1 if m == leaf.support.mask else x0, None) for m, x0, _ in leaves)
    other = replace(one, _levels=one._levels[:-1] + ((last_eps, moved),))
    assert other != one and same_trace(other.trace, changed)


@st.composite
def net_inputs(draw):
    """A separable closure of a complement-closed basis on 2 to 6 points,
    an integer measure with at least one non-zero weight, and an eps."""
    n = draw(st.integers(2, 6))
    full = (1 << n) - 1
    basis = []
    for m in draw(st.lists(st.integers(1, full - 1), min_size=1, max_size=4)):
        basis += [PointSet(m), PointSet(full ^ m)]
    space = intersection_closure(GroundSet(tuple(f"p{i}" for i in range(n))), basis)
    nums = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    nums[draw(st.integers(0, n - 1))] = draw(st.integers(1, 5))
    eps = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]))
    return space, Distribution.from_integer_weights(nums), eps


@settings(max_examples=150, deadline=None)
@given(net_inputs())
def test_net_matches_the_per_level_recursion_on_random_closures(case):
    """Every proper half-space a puts the empty set and its complement on
    one trace over the support a, so these spaces have half-spaces with
    equal traces on sub-supports; the build packs one per trace and keeps
    its packings in the family's order without sorting them."""
    space, mu, eps = case
    b = halfspaces(space)
    assume(len(b) > 2)
    h, v = helly_number(b)[0], vc_dimension(b, space.ground.size)[0]
    net = build_weak_net(space, b, mu, eps, helly=h, vc=v)
    ref = reference_build_weak_net(space, b, mu, eps, h, v)
    assert (net.points, net.size_bound, net.params) == (ref.points, ref.size_bound, ref.params)
    assert same_trace(net.trace, ref.trace)
    nodes = dag_nodes(net.trace)
    for node in nodes:
        if node.packing is not None:
            assert node.packing == ConvexFamily.from_masks(node.packing.masks())
    # The build counts its level record, not the DAG.
    edges = sum(len(node.children) for node in nodes)
    packings = [len(node.packing) for node in nodes if node.packing is not None]
    supports = len({node.support for node in nodes})
    dag = (len(nodes), supports, edges - (len(nodes) - 1), max(packings, default=0))
    assert (net.nodes, net.supports, net.memo_hits, net.max_packing) == dag


@settings(max_examples=100, deadline=None)
@given(net_inputs(), st.data())
def test_net_on_a_warmed_family_equals_one_on_a_fresh_copy(case, data):
    """The half-space family keeps its trace classes across builds; after
    builds with other measures and thresholds, a net built on it equals
    one built on a fresh copy, and the per-level recursion."""
    space, mu, eps = case
    b = halfspaces(space)
    assume(len(b) > 2)
    h, v = helly_number(b)[0], vc_dimension(b, space.ground.size)[0]
    n = space.ground.size
    for _ in range(data.draw(st.integers(1, 3))):
        nums = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(any))
        other = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]))
        build_weak_net(space, b, Distribution.from_integer_weights(nums), other, helly=h, vc=v)
    net = build_weak_net(space, b, mu, eps, helly=h, vc=v)
    assert net == build_weak_net(space, ConvexFamily(b.sets), mu, eps, helly=h, vc=v)
    ref = reference_build_weak_net(space, b, mu, eps, h, v)
    assert (net.points, net.size_bound, net.params) == (ref.points, ref.size_bound, ref.params)
    assert same_trace(net.trace, ref.trace)


def test_greedy_packing_drops_traces_within_delta(corpus):
    """When some point of a support weighs no more than delta, the packing
    scans the traces greedily.  On this tree and measure it drops traces
    at eps 1/4 and 1/2, and the trace still matches the reference."""
    sp = dict(corpus)["tree-8v-16"]
    b = halfspaces(sp)
    h, v = helly_number(b)[0], vc_dimension(b, sp.ground.size)[0]
    mu = Distribution.from_integer_weights([5, 5, 1, 4, 6, 6, 6, 1])
    for eps in (Fraction(1, 4), Fraction(1, 2)):
        net = build_weak_net(sp, b, mu, eps, helly=h, vc=v)
        ref = reference_build_weak_net(sp, b, mu, eps, h, v)
        assert (net.points, net.size_bound, net.params) == (ref.points, ref.size_bound, ref.params)
        assert same_trace(net.trace, ref.trace)
        dropped = [
            node
            for node in dag_nodes(net.trace)
            if node.packing is not None
            and len(node.packing) < len({s.mask & node.support.mask for s in b})
        ]
        assert dropped, eps


def test_packing_by_one_lightest_weight_per_build():
    """The build tests "every trace packed" by the lightest positive weight
    of mu (point 6 here), not of each support.  On some supports that
    weight is within delta * mu(m) while m's own lightest point is above
    it, so the greedy scan runs there; it keeps one half-space per trace,
    as the test by m's own weight would have, and the net is the per-level
    recursion's."""
    sp = cylinder_space(3)
    b = halfspaces(sp)
    h, v = helly_number(b)[0], vc_dimension(b, sp.ground.size)[0]
    assert (h, v) == (2, 3)
    mu = Distribution.from_integer_weights([6, 9, 9, 9, 8, 9, 1, 6])
    eps = Fraction(1, 4)
    net = build_weak_net(sp, b, mu, eps, helly=h, vc=v)
    ref = reference_build_weak_net(sp, b, mu, eps, h, v)
    assert (net.points, net.size_bound, net.params) == (ref.points, ref.size_bound, ref.params)
    assert same_trace(net.trace, ref.trace)
    lightest = min(w for w in mu.weights if w)
    scanned = []
    for node in dag_nodes(net.trace):
        if node.packing is None:
            continue
        m, cut = node.support.mask, node.eps / (4 * h * h) * fraction_measure(mu, node.support)
        if lightest <= cut < min(mu.weights[i] for i in node.support.indices):
            scanned.append(node)
            assert [s.mask & m for s in node.packing] == list(dict.fromkeys(s.mask & m for s in b))
    assert scanned


def test_trace_is_built_on_first_read(monkeypatch):
    """The build makes no NetNode; the first read of `trace` makes one per
    (support, level) node, and later reads return the same DAG."""
    made = []

    def counted(*fields):
        made.append(fields[2])  # the support: a short repr if an assertion fails
        return NetNode(*fields)

    monkeypatch.setattr("radonnets.nets.NetNode", counted)
    sp = lattice_convex_space(2, 3)
    net = build_weak_net(sp, halfspaces(sp), Distribution.uniform(sp.ground.size), Fraction(1, 4))
    assert made == [] and net.nodes > 100
    trace = net.trace
    assert len(made) == net.nodes == len(dag_nodes(trace))
    assert net.trace is trace and len(made) == net.nodes


def test_deep_trace_is_read_and_compared_without_recursion(monkeypatch):
    """A net of more than 3,000 levels needs a raised level ceiling to
    build, and reading and comparing its trace need no recursion room."""
    path = subtree_space([("a", "b"), ("b", "c")])
    b, mu, eps = halfspaces(path), Distribution.uniform(3), Fraction(1, 10**400)
    monkeypatch.setattr("radonnets.nets._LEVEL_CEILING", 5000)
    one, two = (build_weak_net(path, b, mu, eps) for _ in range(2))
    assert one.params.depth > 3000 and one.nodes > one.params.depth
    assert one.trace is not two.trace
    assert same_trace(one.trace, two.trace) and one == two


def _called_under(frames, build):
    return build() if frames == 0 else _called_under(frames - 1, build)


def _outcome(build):
    try:
        return build()
    except TooLarge as err:
        return str(err)


def test_net_build_ignores_the_recursion_limit():
    """The level ceiling is a fixed 950, so the same call builds the same
    net, or raises the same `TooLarge`, whatever the recursion limit and
    however deep its caller's stack."""
    path = subtree_space([("a", "b"), ("b", "c")])
    b, mu = halfspaces(path), Distribution.uniform(3)
    builds = [lambda eps=eps: build_weak_net(path, b, mu, eps) for eps in (Fraction(1, 10**50), Fraction(1, 10**100))]
    fits, deep = outcomes = [_outcome(build) for build in builds]
    assert fits.params.depth == 513
    assert deep == "eps needs 1029 levels; the net build allows 950"
    limit = sys.getrecursionlimit()
    try:
        for room in (200, 1000, 10000):
            sys.setrecursionlimit(room)
            for build, want in zip(builds, outcomes):
                assert _outcome(build) == want, room
                assert _called_under(60, lambda: _outcome(build)) == want, room
    finally:
        sys.setrecursionlimit(limit)


def test_trace_repr_leaves_out_the_children():
    """A node's repr shows only its own fields: printed as a tree, a trace
    DAG is exponential in its size, and a deep one overflowed the stack."""
    path = subtree_space([("a", "b"), ("b", "c")])
    deep = build_weak_net(path, halfspaces(path), Distribution.uniform(3), Fraction(1, 10**80))
    assert deep.params.depth > 800
    assert repr(deep.trace).startswith("NetNode(x0=")
    sp = lattice_convex_space(2, 3)
    root = build_weak_net(sp, halfspaces(sp), Distribution.uniform(6), Fraction(1, 4)).trace
    assert root.children and repr(root).count("NetNode(") == 1


def test_supplied_invariants_must_match_computed():
    sp = random_separable(5, 3)
    b = halfspaces(sp)
    mu = seeded_distribution(5, "sup")
    h = helly_number(b)[0]
    v = vc_dimension(b, 5)[0]
    auto = build_weak_net(sp, b, mu, Fraction(1, 3))
    manual = build_weak_net(sp, b, mu, Fraction(1, 3), helly=h, vc=v)
    assert auto == manual and same_trace(auto.trace, manual.trace)


def test_trace_structure():
    sp = cylinder_space(2)
    mu = Distribution.uniform(4)
    net = build_weak_net(sp, halfspaces(sp), mu, Fraction(1, 4))

    seen_points = set()

    def walk(node, level):
        seen_points.add(node.x0)
        assert node.eps == net.params.eps * (1 + Fraction(1, 2 * net.params.helly)) ** level
        if node.packing is None:
            assert node.children == ()
            assert level >= net.params.depth
            return
        assert level < net.params.depth
        for a, child in node.children:
            assert a in node.packing
            assert fraction_measure(mu, PointSet(a.mask & node.support.mask)) > 0
            assert child.support == PointSet(a.mask & node.support.mask)
            walk(child, level + 1)

    walk(net.trace, 0)
    assert PointSet.from_indices(seen_points) == net.points


def test_build_counters_match_the_trace_dag():
    sp = cylinder_space(2)
    net = build_weak_net(sp, halfspaces(sp), Distribution.uniform(4), Fraction(1, 4))
    nodes = dag_nodes(net.trace)
    edges = sum(len(node.children) for node in nodes)
    assert net.nodes == len(nodes) > 1
    assert net.supports == len({node.support for node in nodes}) < net.nodes
    assert net.memo_hits == edges - (net.nodes - 1) > 0
    assert net.max_packing == max(len(node.packing) for node in nodes if node.packing is not None)
    assert (net.nodes, net.supports, net.memo_hits, net.max_packing) == (33, 9, 32, 6)  # as in the README


def test_build_validation_errors():
    sp = power_set_space(2)
    b = halfspaces(sp)
    mu = Distribution.uniform(2)
    with pytest.raises(ValueError):
        build_weak_net(sp, b, mu, Fraction(0))
    with pytest.raises(ValueError):
        build_weak_net(sp, b, Distribution.uniform(3), Fraction(1, 2))
    with pytest.raises(ValueError):
        build_weak_net(sp, ConvexFamily((PointSet(0b100),)), mu, Fraction(1, 2))
    with pytest.raises(ValueError):
        build_weak_net(sp, b, mu, Fraction(1, 2), helly=0)
    with pytest.raises(ValueError):
        build_weak_net(sp, b, mu, Fraction(1, 2), vc=-1)


def test_non_separable_space_fails_verification():
    g = GroundSet(("a", "b", "c"))
    sp = validate_space(g, [PointSet(0), PointSet(0b010), PointSet(0b100), PointSet(0b111)])
    with pytest.raises(ConsistencyError):
        build_weak_net(sp, halfspaces(sp), Distribution.uniform(3), Fraction(1, 3))


def test_wrong_vc_trips_packing_warning_and_size_check():
    """vc=0 makes the a-priori bound 1, so the build must warn about the
    packing and then refuse its own output."""
    sp = power_set_space(2)
    with pytest.raises(ConsistencyError):
        with pytest.warns(PackingBoundWarning):
            build_weak_net(sp, halfspaces(sp), Distribution.uniform(2), Fraction(1, 4), helly=2, vc=0)


def test_normal_builds_do_not_warn():
    sp = cylinder_space(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_weak_net(sp, halfspaces(sp), Distribution.uniform(4), Fraction(1, 4))


def test_net_size_never_beats_the_oracle():
    rng = random.Random(2718)
    for trial in range(25):
        sp = random_separable(3 + trial % 4, 100 + trial)
        mu = seeded_distribution(sp.ground.size, f"vsoracle/{trial}")
        eps = Fraction(1, rng.randint(1, 4))
        net = build_weak_net(sp, halfspaces(sp), mu, eps)
        opt, _ = minimal_weak_net(sp, mu, eps)
        assert opt <= len(net.points)


def test_library_calls_leave_no_reference_cycles():
    """The recursive helpers free their memos by reference counting, and a
    net's trace holds no reference back to it, so a call leaves nothing for
    the cycle collector."""
    import gc

    from radonnets import analyze, exact_chromatic_number, kneser_graph, lattice_convex_space

    sp = lattice_convex_space(2, 3)
    b = halfspaces(sp)
    mu = seeded_distribution(sp.ground.size, "cycles")
    calls = [
        lambda: analyze(sp),
        lambda: build_weak_net(sp, b, mu, Fraction(1, 4)),
        lambda: build_weak_net(sp, b, mu, Fraction(1, 4)).trace,
        lambda: minimal_weak_net(sp, mu, Fraction(1, 4)),
        lambda: minimal_weak_net(power_set_space(5), Distribution.uniform(5), Fraction(1, 4)),
        lambda: exact_chromatic_number(kneser_graph(7, 2).graph),
    ]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
