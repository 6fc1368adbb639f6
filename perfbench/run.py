"""Benchmark of the radonnets package: two workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 25 --trace 0

Workloads are `corpus` and `cli` (see `perfbench/README.md`).  Each runs
closed-loop from one process and one thread with one client.  It runs
rounds of its request list, each round every request once, for about
`--seconds` of busy time (at least five rounds), then checks every output.
A request's latency is the best of its timings over the rounds.  Set-up
runs before every round, so that its timings too are spread over the run;
`setup_s` is their median, and the first set-up's workload serves every
round.  The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`; the line before it carries details
(tail percentile, sample count, rounds, failures, digests).

`--trace 1` runs untraced, then again with every public function of the
seven modules wrapped (see tracing.py), prints the per-layer metrics and
the tracing overhead, and writes the spans and the net-quality report to
`.bench_out/`.

The package is imported from `src/` of the checkout and nowhere else; when
it is missing the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".bench_out")
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_ROUNDS = 5

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "net_size_ratio": "ratio",
    "full_net_fraction": "ratio",
}


def load_library():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import radonnets
    import radonnets.cli  # noqa: F401  (the cli workload and the tracer need it loaded)

    if Path(radonnets.__file__).resolve().parent != (src / "radonnets").resolve():
        raise ImportError(f"radonnets was imported from {radonnets.__file__}, not from {src}")
    return radonnets


@dataclass
class Done:
    req: object
    rec: dict | None
    error: str | None
    latency: float
    round_index: int


def run_rounds(wl, seconds: float, rounds: int | None = None, tracer=None, between=None):
    """Rounds over the workload's requests: exactly `rounds` of them, or at
    least MIN_ROUNDS and then more while another round fits in `seconds` of
    busy time.  A round is never cut, so every request runs in every round.
    `between()`, when given, runs before every round after the first,
    outside the busy time.

    Returns the finished requests, round after round, and the busy time
    (request execution only).
    """
    done: list[Done] = []
    busy = 0.0
    r = 0
    reqs = wl.requests
    # Keep the collector from re-scanning the set-up's objects on every round.
    gc.collect()
    gc.freeze()
    while True:
        if between is not None and r > 0:
            between()
            gc.collect()
        start = perf_counter()
        for req in reqs:
            if tracer is not None:
                tracer.request = len(done)
            t0 = perf_counter()
            try:
                if tracer is not None:
                    with tracer.span("request"):
                        rec, error = req.run(), None
                else:
                    rec, error = req.run(), None
            except Exception:  # a failed request is counted, and the loop goes on
                rec, error = None, traceback.format_exc()
            done.append(Done(req, rec, error, perf_counter() - t0, r))
        busy += perf_counter() - start
        r += 1
        if r == rounds or (rounds is None and r >= MIN_ROUNDS and busy * (r + 1) / r > seconds):
            return done, busy


def check_outputs(done: list[Done], expected_digest: str | None):
    """Failures as {request index: message}, plus the fixed-output digest of each round.

    The first round's outputs go through the workload's checks; a later
    round's output must equal the first round's output of the same request.
    """
    failures: dict[int, str] = {}
    fixed_by_round: dict[int, list[int]] = defaultdict(list)
    n = sum(d.round_index == 0 for d in done)
    for i, d in enumerate(done):
        if d.req.fixed:
            fixed_by_round[d.round_index].append(i)
        if d.error is not None:
            failures[i] = d.error.strip().splitlines()[-1]
            continue
        try:
            if d.round_index == 0:
                problems = d.req.check(d.rec)
            else:
                first = done[i % n]
                same = first.rec is not None and d.req.view(d.rec) == first.req.view(first.rec)
                problems = [] if same else [f"round {d.round_index} output differs from round 0"]
        except Exception:  # a check that cannot read the output is a failed request
            problems = [traceback.format_exc().strip().splitlines()[-1]]
        if problems:
            failures[i] = f"{d.req.space}: {problems[0]}"
    digests = {}
    for r, indices in fixed_by_round.items():
        views = [done[i].req.view(done[i].rec) if done[i].rec is not None else None for i in indices]
        digest = hashlib.sha256(json.dumps(views, sort_keys=True).encode()).hexdigest()
        digests[r] = digest
        if digest != expected_digest:
            for i in indices:
                failures.setdefault(i, f"fixed outputs of round {r} do not match the recorded digest")
    return failures, digests


def best_latencies(done: list[Done]) -> list[float]:
    """Each request's best time over the rounds, in request order.

    Other tenants of a shared host only ever add time to a request; the best
    of several timings spread over the run is the steadiest estimate of what
    the request itself costs.
    """
    n = sum(d.round_index == 0 for d in done)
    best = [d.latency for d in done[:n]]
    for i, d in enumerate(done[n:]):
        best[i % n] = min(best[i % n], d.latency)
    return best


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def tail_percentile(requests: int) -> float:
    """The highest ladder percentile with at least ten requests beyond it."""
    return next((p for p in TAIL_LADDER if requests * (100 - p) / 100 >= 10), TAIL_LADDER[-1])


def quality_summary(quality) -> dict:
    size = sum(q.size for q in quality)
    optimum = sum(q.optimum for q in quality)
    full = sum(q.size == q.ground for q in quality)
    worst = max(quality, key=lambda q: (q.size / q.optimum, q.label), default=None)
    return {
        "nets": len(quality),
        "built_points": size,
        "optimum_points": optimum,
        "net_size_ratio": size / optimum if optimum else 0.0,
        "full_nets": full,
        "full_net_fraction": full / len(quality) if quality else 0.0,
        "worst": None
        if worst is None
        else {"instance": worst.label, "size": worst.size, "optimum": worst.optimum, "ratio": worst.size / worst.optimum},
    }


def timed_setup(make):
    gc.collect()
    t0 = perf_counter()
    wl = make()
    wl.setup()
    return wl, perf_counter() - t0


def finish(done, wl, expected_digest, extra: dict, fixed_only: bool):
    """Check the outputs and measure net quality over the first round's
    correct requests, or over its fixed ones only: those do not vary with
    the seed."""
    failures, digests = check_outputs(done, expected_digest)
    good = [
        (d.req, d.rec)
        for i, d in enumerate(done)
        if d.round_index == 0 and i not in failures and (d.req.fixed or not fixed_only)
    ]
    quality = quality_summary(wl.quality(good))
    detail = {
        "requests": len(done),
        "failed_fraction": len(failures) / len(done),
        "failures": sorted(set(failures.values()))[:5],
        "fixed_digests": sorted(set(digests.values())),
        "net_quality": quality,
        **extra,
    }
    return failures, quality, detail


def emit(detail: dict, attempted: int, failed: int, metrics: dict, units: dict) -> None:
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )


def measure(args, lib, expected) -> int:
    make = lambda: workloads.WORKLOADS[args.workload](lib, args.seed, expected)
    wl, elapsed = timed_setup(make)
    setups = [elapsed]
    done, busy = run_rounds(wl, args.seconds, between=lambda: setups.append(timed_setup(make)[1]))
    best = best_latencies(done)
    latencies = sorted(best)
    tail_p = tail_percentile(len(best))
    failures, quality, detail = finish(
        done,
        wl,
        expected["fixed_outputs"].get(args.workload),
        {
            "workload": args.workload,
            "seed": args.seed,
            "rounds": done[-1].round_index + 1,
            "busy_s": busy,
            "wall_throughput_per_s": len(done) / busy,
            "setup_runs_s": setups,
            "tail_percentile": tail_p,
            "tail_samples": len(latencies),
        },
        fixed_only=True,
    )
    metrics = {
        "throughput_per_s": len(best) / sum(best),
        "latency_p50_ms": 1000 * nearest_rank(latencies, 50),
        "latency_tail_ms": 1000 * nearest_rank(latencies, tail_p),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "net_size_ratio": quality["net_size_ratio"],
        "full_net_fraction": quality["full_net_fraction"],
    }
    emit(detail, len(done), len(failures), metrics, END_TO_END_UNITS)
    return 0


def trace(args, lib, expected) -> int:
    make = lambda: workloads.WORKLOADS[args.workload](lib, args.seed, expected)
    wl, plain_setup = timed_setup(make)
    plain, plain_busy = run_rounds(wl, args.seconds)
    rounds = plain[-1].round_index + 1

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("setup"):
            wl, traced_setup = timed_setup(make)
        traced, traced_busy = run_rounds(wl, args.seconds, rounds=rounds, tracer=tracer)
    finally:
        tracer.uninstall()

    untraced_s = plain_setup + plain_busy
    traced_s = traced_setup + traced_busy
    expected_digest = expected["fixed_outputs"].get(args.workload)
    plain_failures, _ = check_outputs(plain, expected_digest)

    # The five spaces with the most request time, from the untraced run's best timings.
    per_space: dict[str, float] = defaultdict(float)
    for d, t in zip(plain, best_latencies(plain)):
        per_space[d.req.space] += t
    slowest = sorted(per_space.items(), key=lambda kv: -kv[1])[:5]

    failures, quality, detail = finish(traced, wl, expected_digest, {"workload": args.workload, "seed": args.seed}, fixed_only=False)
    metrics = tracer.per_layer({i: d.req.family for i, d in enumerate(traced)})
    metrics["nets.worst_ratio"] = quality["worst"]["ratio"] if quality["worst"] else 0.0
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_fraction"] = (traced_s - untraced_s) / untraced_s
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": rounds,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "build_s_by_family": {f: metrics[f"nets.build_s.{f}"] for f in tracing.FAMILIES},
        "slowest_spaces_s": dict(slowest),
        "net_quality": quality,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    out.write_text(json.dumps({"report": report, "metrics": metrics, "span_fields": ["id", "parent", "request", "name", "start", "end"], "spans": tracer.spans}))
    for key, value in report.items():
        print(f"report {key}: {json.dumps(value)}")
    detail["trace_file"] = str(out)
    emit(detail, len(plain) + len(traced), len(failures) + len(plain_failures), metrics, tracing.PER_LAYER_UNITS)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="radonnets benchmark")
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    try:
        lib = load_library()
    except ImportError as exc:
        print(f"error: cannot import radonnets from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    expected = json.loads((HERE / "expected.json").read_text())
    if args.trace:
        return trace(args, lib, expected)
    return measure(args, lib, expected)


if __name__ == "__main__":
    sys.exit(main())
