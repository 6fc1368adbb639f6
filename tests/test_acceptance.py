"""End-to-end acceptance suite.

Nine criteria covering the whole pipeline: invariants over the full
corpus, known closed-form values, exhaustive net verification across
roughly 28k (space, measure, eps) instances, the bound sandwich against
the exact oracle, Kneser/Kleitman facts, and the hull embedding of
KG_{4,1}.  Each test prints a single "criterion N: PASS ..." line with
its headline numbers (run with -s to see them); budgets are asserted
where a criterion states one.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from radonnets import (
    ConvexFamily,
    Distribution,
    PointSet,
    analyze,
    build_weak_net,
    chromatic_lower_bound,
    cylinder_space,
    exact_chromatic_number,
    halfspaces,
    kneser_embedding,
    kneser_graph,
    minimal_weak_net,
    power_set_space,
    radon_lower_bound,
    radon_number,
    subtree_space,
    vc_dimension,
    verify_weak_net,
)

from conftest import corpus_distributions, disjointness_graph, kleitman_union_bound, tree_edge_lists

EPSILONS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def sweep(corpus):
    """Analysis plus the full net/oracle/chromatic sweep, computed once.

    `analysis` maps name -> InvariantReport with its runtime; `instances`
    holds one record per (space, distribution, eps) with the built net
    size, verification outcome, exact optimum, and chromatic bound.
    """
    analysis = {}
    t_analysis = 0.0
    for name, sp in corpus:
        t0 = time.perf_counter()
        rep = analyze(sp)
        t_analysis += time.perf_counter() - t0
        analysis[name] = rep

    instances = []
    t_nets = 0.0
    for name, sp in corpus:
        rep = analysis[name]
        b = halfspaces(sp)
        for mu in corpus_distributions(name, sp.ground.size):
            for eps in EPSILONS:
                t0 = time.perf_counter()
                net = build_weak_net(sp, b, mu, eps, helly=rep.helly, vc=rep.vc)
                check = verify_weak_net(sp, mu, eps, net.points)
                t_nets += time.perf_counter() - t0
                optimum, _ = minimal_weak_net(sp, mu, eps)
                chi = chromatic_lower_bound(sp, mu, eps, cap=1024).bound
                instances.append(
                    {
                        "name": name,
                        "eps": eps,
                        "helly": rep.helly,
                        "size": len(net.points),
                        "bound": net.size_bound,
                        "verified": check.ok,
                        "optimum": optimum,
                        "chi": chi,
                    }
                )
    return {
        "analysis": analysis,
        "instances": instances,
        "t_analysis": t_analysis,
        "t_nets": t_nets,
    }


def test_criterion_1_invariant_inequalities(corpus, sweep):
    bad = []
    for name, _ in corpus:
        rep = sweep["analysis"][name]
        if not (rep.separable and rep.helly <= rep.radon - 1 and rep.vc <= rep.radon - 1):
            bad.append(name)
    elapsed = sweep["t_analysis"]
    ok = not bad and elapsed <= 60
    report(
        1,
        ok,
        f"helly(B) <= radon-1 and vc(B) <= radon-1 on {len(corpus)} spaces "
        f"in {elapsed:.1f}s (budget 60s)" + (f"; violations: {bad}" if bad else ""),
    )


def test_criterion_2_known_values(sweep):
    failures = []
    for m in range(1, 6):
        if sweep["analysis"][f"power-{m}"].radon != m + 1:
            failures.append(f"radon(power-{m})")
    for n in (2, 3):
        if sweep["analysis"][f"cylinders-{n}"].helly != 2:
            failures.append(f"helly(cylinders-{n})")
    trees = [name for name, _ in tree_edge_lists()]
    for name in trees:
        if sweep["analysis"][name].radon > 4:
            failures.append(f"radon({name})")
    for m in range(3, 7):
        full = (1 << m) - 1
        fam = ConvexFamily(
            (PointSet(full),) + tuple(PointSet(full ^ (1 << i)) for i in range(m))
        )
        if vc_dimension(fam, m)[0] != 1:
            failures.append(f"vc(cosingletons-{m})")
    report(
        2,
        not failures,
        f"radon(power-m)=m+1, helly(cylinders)=2, radon <= 4 on {len(trees)} trees, "
        f"vc(cosingletons)=1" + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_3_nets_verify(sweep):
    records = sweep["instances"]
    unverified = [r for r in records if not r["verified"]]
    oversized = [r for r in records if r["size"] > r["bound"]]
    base = [r for r in records if r["eps"] > 1 - Fraction(1, r["helly"])]
    non_singleton = [r for r in base if r["size"] != 1]
    elapsed = sweep["t_nets"]
    ok = not unverified and not oversized and not non_singleton and elapsed <= 300
    report(
        3,
        ok,
        f"{len(records)} nets verified ({len(base)} base cases of size 1) "
        f"in {elapsed:.1f}s (budget 300s); "
        f"unverified={len(unverified)} oversized={len(oversized)} "
        f"non-singleton-base={len(non_singleton)}",
    )


def test_criterion_4_soundness_sandwich(sweep):
    records = sweep["instances"]
    broken = [r for r in records if not r["chi"] <= r["optimum"] <= r["size"]]
    h2 = [r for r in records if r["helly"] == 2]
    not_tight = [r for r in h2 if r["chi"] != r["optimum"]]
    ok = not broken and not not_tight
    report(
        4,
        ok,
        f"chi <= optimum <= net size on {len(records)} instances; "
        f"chi == optimum on all {len(h2)} Helly-2 instances"
        + (f"; broken={len(broken)} not-tight={len(not_tight)}" if not ok else ""),
    )


def test_criterion_5_kneser_chromatic_numbers(monkeypatch):
    t0 = time.perf_counter()
    failures = []
    monkeypatch.setenv("RADON_NETS_CAP", "70")
    for n in range(2, 9):
        for k in range(1, n + 1):
            kg = kneser_graph(n, k)
            chi = exact_chromatic_number(kg.graph)
            expected = n - 2 * k + 2 if n >= 2 * k else 1
            if chi != expected:
                failures.append((n, k, chi, expected))
    chi41 = exact_chromatic_number(kneser_graph(4, 1).graph)
    chi82 = exact_chromatic_number(kneser_graph(8, 2).graph)
    elapsed = time.perf_counter() - t0
    ok = (
        not failures
        and chi41 == 4
        and 10 * chi41 > 4
        and chi82 == 6
        and 10 * chi82 > 8
        and elapsed <= 60
    )
    report(
        5,
        ok,
        f"chi(KG_n,k) matches n-2k+2 for all k <= n <= 8; chi(KG_4,1)={chi41} > 4/10, "
        f"chi(KG_8,2)={chi82} > 8/10; {elapsed:.1f}s (budget 60s)"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_6_four_cylinders_optimum():
    sp = cylinder_space(4)
    optimum, witness = minimal_weak_net(sp, Distribution.uniform(16), Fraction(1, 4))
    ok = optimum >= 2 and optimum == 5
    report(
        6,
        ok,
        f"cylinders-4 uniform eps=1/4 exact optimum = {optimum} "
        f"(>= 2 required), witness {list(sp.ground.labels_of(witness))}",
    )


def test_criterion_7_radon_lower_bounds(corpus, sweep):
    checked = 0
    failures = []
    for name, sp in corpus:
        rep = sweep["analysis"][name]
        if rep.radon < 3:
            continue
        r = rep.radon - 1
        cert = radon_lower_bound(sp, Fraction(1, 4))
        optimum, _ = minimal_weak_net(sp, cert.mu, Fraction(1, 4))
        need = math.ceil(Fraction(r, 2))
        if optimum < need:
            failures.append((name, "half", optimum, need))
        k = math.ceil(Fraction(r, 4))
        if r >= 2 * k and optimum < r - 2 * k + 2:
            failures.append((name, "kneser", optimum, r - 2 * k + 2))
        checked += 1
    report(
        7,
        not failures,
        f"oracle >= ceil((r0-1)/2) and the Kneser form on {checked} spaces with radon >= 3"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_8_kleitman_unions():
    failures = []
    for trial in range(100):
        rng = random.Random(f"kleitman/{trial}")
        n = rng.randint(1, 4)
        s = rng.randint(1, 4)
        families = []
        for _ in range(s):
            center = rng.randrange(n)
            members = {
                PointSet(rng.randrange(1 << n) | (1 << center))
                for _ in range(rng.randint(1, 2**n))
            }
            families.append(sorted(members, key=lambda p: p.sort_key))
        check = kleitman_union_bound(n, families)
        if not check.ok:
            failures.append((trial, check))
    f1 = [PointSet(0b01), PointSet(0b11)]
    f2 = [PointSet(0b10), PointSet(0b11)]
    tight1 = kleitman_union_bound(2, [f1])
    tight2 = kleitman_union_bound(2, [f1, f2])
    tight = tight1 == (True, 2, 2) and tight2 == (True, 3, 3)
    report(
        8,
        not failures and tight,
        f"100 random intersecting tuples within 2^n - 2^(n-s); tight instances "
        f"{tight1.union_size}/{tight1.bound} and {tight2.union_size}/{tight2.bound}"
        + (f"; failures: {failures}" if failures else ""),
    )


def test_criterion_9_kneser_embedding():
    sp = power_set_space(4)
    r, witness = radon_number(sp)
    mu = Distribution.uniform(4)
    g = disjointness_graph(sp, mu, Fraction(1, 4))
    vertex = {s.mask: i for i, s in enumerate(g.sets)}
    pairs = kneser_embedding(sp, witness, Fraction(1, 4))
    kg = kneser_graph(4, 1)
    ok = len(pairs) == len(kg.sets) == 4
    iso = {}
    for z, hull in pairs:
        ok = ok and hull.mask in vertex
        iso[z] = hull
    for (z1, h1), (z2, h2) in combinations(pairs, 2):
        kg_edge = z1.isdisjoint(z2)
        i, j = vertex[h1.mask], vertex[h2.mask]
        g_edge = (g.graph.adjacency[i] >> j) & 1 == 1
        ok = ok and kg_edge == g_edge
    mapping = ", ".join(
        f"{set(z.indices)}->{list(sp.ground.labels_of(h))}" for z, h in sorted(iso.items(), key=lambda kv: kv[0].sort_key)
    )
    report(
        9,
        ok,
        f"induced subgraph on singleton hulls is KG_4,1; isomorphism {mapping}",
    )
