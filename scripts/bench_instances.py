"""Time the corpus workload's net instances on two checkouts side by side.

    python3 scripts/bench_instances.py BEFORE AFTER

BEFORE and AFTER are repository roots, imported into this one process as
`scripts/bench_invariants.py` does.  The instances are those of
`perfbench`'s corpus workload at its default seed: every corpus space but
the slow ones, the uniform and the seeded measures, every eps.  Each
instance makes the workload's four calls (build, verify, oracle,
chromatic), each timed on its own, best of BEST_OF; the sides take turns
to go first from one instance to the next.  As in the workload, every
space's half-space family is made afresh for each pass and shared by that
space's instances in order, so a family keeps what it memoizes for one
pass and no longer.  Every pass compares both sides' outputs (the whole
net, its counters and level record, the verification, the oracle's size
and witness, the chromatic certificate) with the first pass's; any
difference exits 1.

`BENCH_instances.json` at the root of this repository gets, per side and
as the median over RUNS runs: per call and per family the sum of the
instances' best times in milliseconds, and the throughput, instances per
second of summed best times (the workload's `throughput_per_s`, without
its `analyze` requests).
"""

from __future__ import annotations

import gc
import json
import os
import platform
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

from bench_invariants import describe, load

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (the benchmark's corpus definition)

BEST_OF = 5
RUNS = 5
OUT = ROOT / "BENCH_instances.json"
CALLS = ("build", "verify", "oracle", "chromatic")


def corpus(rn) -> list[tuple[str, object, int, int, list]]:
    """Per corpus space: its family, the space, its Helly number and VC
    dimension, and its (measure, eps) instances in the workload's order."""
    out = []
    for name, sp in workloads.corpus_spaces(rn):
        if name in workloads.SLOW_SPACES:
            continue
        rep = rn.analyze(sp)
        measures = workloads.make_measures(rn, name, sp.ground.size, workloads.DEFAULT_SEED, workloads.CORPUS_SEEDED)
        cases = [(mu.dist, eps) for mu in measures for eps in workloads.CORPUS_EPS]
        out.append((workloads.family_of(name), sp, rep.helly, rep.vc, cases))
    return out


def net_key(net) -> tuple:
    """A net with its counters and level record, in plain ints; a packing
    is compared by its (trace, half-space) pairs."""
    levels = tuple(
        (e, tuple((m, x0, None if chosen is None else tuple((t, s.mask) for t, s in chosen)) for m, x0, chosen in here))
        for e, here in net._levels
    )
    p = net.params
    params = (p.eps, p.helly, p.vc, p.delta, p.depth)
    return (net.points.mask, net.size_bound, params, net.nodes, net.supports, net.memo_hits, net.max_packing, levels)


def instance(rn, sp, half, helly: int, vc: int, mu, eps) -> tuple[list[float], tuple]:
    """The four calls of one corpus request, each timed in seconds, and
    their outputs."""
    t0 = perf_counter()
    net = rn.build_weak_net(sp, half, mu, eps, helly=helly, vc=vc)
    t1 = perf_counter()
    check = rn.verify_weak_net(sp, mu, eps, net.points)
    t2 = perf_counter()
    optimum, witness = rn.minimal_weak_net(sp, mu, eps)
    t3 = perf_counter()
    cert = rn.chromatic_lower_bound(sp, mu, eps, cap=workloads.CHROMATIC_CAP)
    t4 = perf_counter()
    graph = None if cert.graph is None else (tuple(s.mask for s in cert.graph.sets), cert.graph.graph.adjacency)
    missed = None if check.counterexample is None else check.counterexample.mask
    out = (net_key(net), check.ok, missed, optimum, witness.mask, cert.bound, cert.method, graph)
    return [t1 - t0, t2 - t1, t3 - t2, t4 - t3], out


def run(sides, built, expected: list) -> list[list[list[float]]]:
    """Best time per side, instance and call over BEST_OF passes; the
    outputs are checked against `expected`, which the first call fills."""
    count = sum(len(space[4]) for space in built[0])
    best = [[[float("inf")] * len(CALLS) for _ in range(count)] for _ in sides]
    for rep in range(BEST_OF):
        index = 0
        for spaces in zip(*built):
            halves = [rn.halfspaces(space[1]) for rn, space in zip(sides, spaces)]
            for c in range(len(spaces[0][4])):
                order = range(len(sides)) if (rep + index) % 2 == 0 else reversed(range(len(sides)))
                for k in order:
                    _, sp, helly, vc, cases = spaces[k]
                    times, out = instance(sides[k], sp, halves[k], helly, vc, *cases[c])
                    if index == len(expected):
                        expected.append(out)
                    if out != expected[index]:
                        raise SystemExit(f"instance {index} ({spaces[k][0]}, pass {rep}, side {k}): outputs differ")
                    best[k][index] = [min(a, b) for a, b in zip(best[k][index], times)]
                index += 1
    return best


def main() -> int:
    if len(sys.argv) != 3:
        print("usage: python3 scripts/bench_instances.py BEFORE AFTER", file=sys.stderr)
        return 2
    roots = [Path(arg) for arg in sys.argv[1:]]
    sides = [load(roots[0], "radonnets_before"), load(roots[1], "radonnets_after")]
    built = [corpus(rn) for rn in sides]
    families = [family for family, _, _, _, cases in built[0] for _ in cases]

    expected: list = []
    runs = []
    for _ in range(RUNS):
        gc.collect()
        runs.append(run(sides, built, expected))

    def median(figure) -> list[float]:
        """Per side, the median over runs of `figure(best)`."""
        return [statistics.median(figure(r[k]) for r in runs) for k in range(len(sides))]

    def row(figure) -> dict:
        before, after = median(lambda best: figure(best) * 1e3)
        return {"before_ms": round(before, 3), "after_ms": round(after, 3), "speedup": round(before / after, 3)}

    calls = {name: row(lambda best, j=j: sum(b[j] for b in best)) for j, name in enumerate(CALLS)}
    by_family = defaultdict(list)
    for i, family in enumerate(families):
        by_family[family].append(i)
    fams = {family: row(lambda best, ix=ix: sum(sum(best[i]) for i in ix)) for family, ix in sorted(by_family.items())}
    total = row(lambda best: sum(sum(b) for b in best))
    throughput = [[len(families) / sum(sum(b) for b in r[k]) for r in runs] for k in range(len(sides))]
    before, after = (statistics.median(t) for t in throughput)
    doc = {
        "what": "perfbench corpus net instances (build, verify, oracle, chromatic), best of N alternating passes per run; median over runs",
        "before": describe(roots[0]),
        "after": describe(roots[1]),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "best_of": BEST_OF,
        "runs": RUNS,
        "instances": len(families),
        "identical_outputs": True,
        "throughput_per_s": {
            "before": round(before, 1),
            "after": round(after, 1),
            "gain": round(after / before - 1, 4),
            "before_runs": [round(t, 1) for t in throughput[0]],
            "after_runs": [round(t, 1) for t in throughput[1]],
        },
        "total": total,
        "calls": calls,
        "families": fams,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"throughput {before:9.1f} -> {after:9.1f} /s  ({after / before - 1:+.1%})")
    for name, r in [*calls.items(), *fams.items(), ("total", total)]:
        print(f"{name:10s} {r['before_ms']:9.2f} -> {r['after_ms']:9.2f} ms  x{r['speedup']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
