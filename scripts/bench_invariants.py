"""Time `analyze` on two checkouts of radonnets side by side.

    python3 scripts/bench_invariants.py BEFORE AFTER [--record]

BEFORE and AFTER are repository roots.  Both packages are imported from
their `src/` into this one process, under different names, so the two
sides share the interpreter, the host's load and the run's timing.  Each
run times `analyze` best of BEST_OF calls on every space below,
alternating the side that goes first; every space is built by the side's
own generators, and both sides must give the same report (values and
witnesses) or the script exits 1.  It prints each side's median over RUNS
runs, in milliseconds; with --record it also writes them, and every run's
figure, to `BENCH_invariants.json` at the root of this repository.
Without the flag the committed record is left as it is, so an output
check cannot replace it.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BEST_OF = 25
RUNS = 5
OUT = Path(__file__).resolve().parent.parent / "BENCH_invariants.json"

# The spaces whose `analyze` the Radon and VC frontier searches dominate;
# lattice-2x3 and lattice-3x3, where Helly does; tree-8v-22, the corpus's
# 8-point star, where Radon and Helly share it; and power-5, a tiny space.
SPACES = {
    "poset-twochains-5": lambda rn: rn.linear_extension_space(("a", "b", "c", "d", "e"), (("a", "b"), ("c", "d"))),
    "poset-antichain-4": lambda rn: rn.linear_extension_space(("a", "b", "c", "d")),
    "cylinders-4": lambda rn: rn.cylinder_space(4),
    "lattice-2x3": lambda rn: rn.lattice_convex_space(2, 3),
    "lattice-3x3": lambda rn: rn.lattice_convex_space(3, 3),
    "tree-8v-22": lambda rn: rn.subtree_space([("0", str(i)) for i in range(2, 8)] + [("1", "0")]),
    "power-5": lambda rn: rn.power_set_space(5),
}


def load(root: Path, alias: str):
    """Import `root/src/radonnets` as the package `alias`."""
    pkg = root / "src" / "radonnets"
    spec = importlib.util.spec_from_file_location(alias, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None or spec.loader is None:
        raise SystemExit(f"no radonnets package under {root}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return module


def describe(root: Path) -> str:
    """The checkout's `git describe`, or "unknown" outside git."""
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "describe", "--always", "--dirty"], capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def parse_args(out: Path) -> argparse.Namespace:
    """BEFORE and AFTER as paths, and whether to write the record `out`."""
    parser = argparse.ArgumentParser(description="Check that two checkouts give the same outputs, and time both.")
    parser.add_argument("before", type=Path, help="repository root of the parent checkout")
    parser.add_argument("after", type=Path, help="repository root of the changed checkout")
    parser.add_argument("--record", action="store_true", help=f"also write {out.name} at the repository root")
    return parser.parse_args()


def report_key(rep) -> tuple:
    return (
        rep.radon,
        rep.helly,
        rep.vc,
        rep.separable,
        rep.radon_witness.mask,
        tuple(s.mask for s in rep.helly_witness),
        rep.vc_witness.mask,
    )


def best_of(sides, spaces, best: int) -> list[float]:
    """Best `analyze` time per side in ms, the sides taking turns to go first."""
    times = [float("inf")] * len(sides)
    for i in range(best):
        order = range(len(sides)) if i % 2 == 0 else reversed(range(len(sides)))
        for k in order:
            t = time.perf_counter()
            sides[k].analyze(spaces[k])
            times[k] = min(times[k], time.perf_counter() - t)
    return [t * 1e3 for t in times]


def main() -> int:
    args = parse_args(OUT)
    roots = [args.before, args.after]
    sides = [load(roots[0], "radonnets_before"), load(roots[1], "radonnets_after")]
    built = {name: [make(rn) for rn in sides] for name, make in SPACES.items()}
    for name, spaces in built.items():
        before, after = (report_key(rn.analyze(sp)) for rn, sp in zip(sides, spaces))
        if before != after:
            print(f"{name}: reports differ\n  before {before}\n  after  {after}", file=sys.stderr)
            return 1

    runs: dict[str, list[list[float]]] = {name: [] for name in SPACES}
    for _ in range(RUNS):
        for name, spaces in built.items():
            runs[name].append(best_of(sides, spaces, BEST_OF))

    rows = {}
    for name, pairs in runs.items():
        before = statistics.median(p[0] for p in pairs)
        after = statistics.median(p[1] for p in pairs)
        rows[name] = {
            "before_ms": round(before, 3),
            "after_ms": round(after, 3),
            "speedup": round(before / after, 3),
            "before_runs_ms": [round(p[0], 3) for p in pairs],
            "after_runs_ms": [round(p[1], 3) for p in pairs],
        }
    total_before = sum(r["before_ms"] for r in rows.values())
    total_after = sum(r["after_ms"] for r in rows.values())
    doc = {
        "what": "radonnets analyze(space), best of N alternating calls per run; median over runs",
        "before": describe(roots[0]),
        "after": describe(roots[1]),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "best_of": BEST_OF,
        "runs": RUNS,
        "identical_reports": True,
        "spaces": rows,
        "total": {
            "before_ms": round(total_before, 3),
            "after_ms": round(total_after, 3),
            "speedup": round(total_before / total_after, 3),
        },
    }
    if args.record:
        OUT.write_text(json.dumps(doc, indent=2) + "\n")
    for name, r in rows.items():
        print(f"{name:20s} {r['before_ms']:8.2f} -> {r['after_ms']:8.2f} ms  x{r['speedup']:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
