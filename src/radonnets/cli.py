"""Command-line front end.

Subcommands: `gen` (write example spaces), `analyze` (invariants),
`net` (build, verify, and compare weak nets), `lowerbound` (certificates),
`kneser` (Kneser graph facts and checks).

Each subcommand only computes: it returns `(inputs, result)`, or None
when it has written its own output (`gen` without `-o`).  `main` alone
times the call, wraps it as `{command, inputs, result, elapsed_seconds}`,
prints the report and sets the exit code.

Reports are JSON with stable key order; `--human` prints flat key:value
lines instead.  Epsilon is always an exact fraction string "p/q".

Exit codes: 0 success; 2 bad input (parse errors, violated
preconditions, I/O problems); 3 internal consistency failure (a
mathematical guarantee did not hold, e.g. the piercing intersection came
up empty or a built net failed verification).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .bounds import (
    chromatic_lower_bound,
    kneser_chromatic_number,
    kneser_graph,
    radon_lower_bound,
)
from .exact import exact_chromatic_number, minimal_weak_net
from .generators import GENERATORS, GeneratorSpec
from .invariants import analyze
from .nets import build_weak_net
from .space import (
    _FRACTION_RE,
    ConsistencyError,
    ConvexitySpace,
    Distribution,
    TooLarge,
    check_eps,
    format_space_file,
    halfspaces,
    parse_distribution_file,
    parse_space_file,
)


def _eps_arg(text: str) -> Fraction:
    m = _FRACTION_RE.fullmatch(text)
    if not m:
        raise argparse.ArgumentTypeError(f"eps must be an exact fraction 'p/q', got {text!r}")
    try:
        return check_eps(Fraction(int(m.group(1)), int(m.group(2))))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _digest(path: Path, text: str) -> dict:
    return {"path": str(path), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def _read_space(path: str) -> tuple[dict, str, ConvexitySpace]:
    text = Path(path).read_text()
    name, space = parse_space_file(text)
    return _digest(Path(path), text), name, space


def _read_dist(path: str, space: ConvexitySpace) -> tuple[dict, Distribution]:
    text = Path(path).read_text()
    mu = parse_distribution_file(text)
    if mu.size != space.ground.size:
        raise ValueError(
            f"distribution has {mu.size} weights but the space has {space.ground.size} points"
        )
    return _digest(Path(path), text), mu


def _flatten(report: dict) -> list[str]:
    """One `key.subkey: value` line per leaf, depth first in key order."""
    lines = []
    stack = [("", report)]
    while stack:
        prefix, value = stack.pop()
        if isinstance(value, dict):
            items = [(f"{prefix}.{k}" if prefix else str(k), v) for k, v in value.items()]
            stack.extend(reversed(items))
        elif isinstance(value, list):
            lines.append(f"{prefix}: {json.dumps(value)}")
        else:
            lines.append(f"{prefix}: {value}")
    return lines


def _emit(report: dict, human: bool) -> None:
    if human:
        print("\n".join(_flatten(report)))
    else:
        print(json.dumps(report, indent=2, allow_nan=False))


def _labels(space: ConvexitySpace, points) -> list[str]:
    return list(space.ground.labels_of(points))


# --- subcommands ---------------------------------------------------------------


def _edges_arg(text: str) -> tuple[tuple[str, str], ...]:
    edges = []
    for part in text.split(","):
        ends = part.split("-")
        if len(ends) != 2 or not all(ends):
            raise argparse.ArgumentTypeError(f"edge {part!r} is not of the form a-b")
        edges.append((ends[0], ends[1]))
    return tuple(edges)


def _elements_arg(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


def _relations_arg(text: str) -> tuple[tuple[str, str], ...]:
    if not text:
        return ()
    rels = []
    for part in text.split(","):
        ends = part.split("<")
        if len(ends) != 2 or not all(ends):
            raise argparse.ArgumentTypeError(f"relation {part!r} is not of the form a<b")
        rels.append((ends[0], ends[1]))
    return tuple(rels)


def _cmd_gen(args: argparse.Namespace) -> Optional[tuple[dict, dict]]:
    kind = GENERATORS[args.kind]
    params = {k: getattr(args, k) for k in kind.params}
    name = args.name or kind.default_name(**params)
    space = GeneratorSpec(args.kind, params).build()
    text = format_space_file(name, space)
    if args.output is None:
        sys.stdout.write(text)
        return None
    Path(args.output).write_text(text)
    result = {"name": name, "points": space.ground.size, "convex_sets": len(space.convex)}
    return {"output": _digest(Path(args.output), text)}, result


def _cmd_analyze(args: argparse.Namespace) -> tuple[dict, dict]:
    space_input, name, space = _read_space(args.space)
    report = analyze(space)
    result = {
        "name": name,
        "radon": report.radon,
        "helly": report.helly,
        "vc": report.vc,
        "separable": report.separable,
        "radon_witness": _labels(space, report.radon_witness),
        "helly_witness": [_labels(space, s) for s in report.helly_witness],
        "vc_witness": _labels(space, report.vc_witness),
    }
    return {"space": space_input}, result


def _cmd_net(args: argparse.Namespace) -> tuple[dict, dict]:
    space_input, name, space = _read_space(args.space)
    dist_input, mu = _read_dist(args.dist, space)
    net = build_weak_net(space, halfspaces(space), mu, args.eps)
    result = {
        "name": name,
        "eps": _frac(args.eps),
        "helly": net.params.helly,
        "vc": net.params.vc,
        "delta": _frac(net.params.delta),
        "depth": net.params.depth,
        "size": len(net.points),
        "points": _labels(space, net.points),
        "size_bound": net.size_bound if math.isfinite(net.size_bound) else None,
    }
    if args.verify:
        # `build_weak_net` has run the exhaustive check: a failure exits 3.
        result["verified"] = True
    if args.oracle:
        optimum, witness = minimal_weak_net(space, mu, args.eps)
        result["oracle_optimum"] = optimum
        result["oracle_witness"] = _labels(space, witness)
        result["ratio"] = len(net.points) / optimum if optimum else None
    return {"space": space_input, "dist": dist_input}, result


def _cmd_lowerbound(args: argparse.Namespace) -> tuple[dict, dict]:
    space_input, name, space = _read_space(args.space)
    inputs = {"space": space_input}
    mu = None
    if args.dist is not None:
        dist_input, mu = _read_dist(args.dist, space)
        inputs["dist"] = dist_input

    method = args.method
    if method == "auto":
        method = "chromatic" if mu is not None else "radon"
    result: dict = {"name": name, "eps": _frac(args.eps)}
    if method == "chromatic":
        if mu is None:
            raise ValueError("the chromatic method needs a distribution file")
        try:
            cert = chromatic_lower_bound(space, mu, args.eps)
        except TooLarge:
            if args.method != "auto":
                raise
            cert = radon_lower_bound(space, args.eps)
            result["fallback"] = "radon"
    else:
        cert = radon_lower_bound(space, args.eps)
    result["bound"] = cert.bound
    result["method"] = cert.method
    if cert.support is not None:
        result["support"] = _labels(space, cert.support)
        result["mu"] = [_frac(w) for w in cert.mu.weights]
    if cert.graph is not None:
        result["graph"] = {
            "vertices": len(cert.graph.sets),
            "edges": cert.graph.graph.edge_count(),
        }
    return inputs, result


def _cmd_kneser(args: argparse.Namespace) -> tuple[dict, dict]:
    n = args.n
    k = args.k if args.k is not None else (n // 4 if args.alon else None)
    if k is None:
        raise ValueError("--k is required unless --alon implies k = n/4")
    if args.alon and (n < 4 or n % 4 or k != n // 4):
        raise ValueError("--alon needs n divisible by 4 and k = n/4")
    kg = kneser_graph(n, k)
    result: dict = {
        "n": n,
        "k": k,
        "vertices": len(kg.sets),
        "edges": kg.graph.edge_count(),
        "formula_chromatic": kneser_chromatic_number(n, k),
    }
    if args.exact or args.alon:
        chi = exact_chromatic_number(kg.graph)
        result["exact_chromatic"] = chi
        result["matches_formula"] = chi == result["formula_chromatic"]
        if not result["matches_formula"]:
            raise ConsistencyError(
                f"exact chromatic number {chi} disagrees with the closed form"
            )
    if args.alon:
        result["alon_check"] = {
            "threshold": f"{n}/10",
            "holds": 10 * result["exact_chromatic"] > n,
        }
    return {}, result


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="radonnets",
        description="Invariants, weak epsilon-nets, and lower bounds for finite convexity spaces.",
    )
    parser.add_argument("--human", action="store_true", help="flat key:value output instead of JSON")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an example space file")
    gen.add_argument("kind", choices=list(GENERATORS))
    gen.add_argument("--m", type=int, help="point count (power)")
    gen.add_argument("--n", type=int, help="cube dimension (cylinders)")
    gen.add_argument("--edges", type=_edges_arg, help="tree edges a-b,b-c (subtree)")
    gen.add_argument("--width", type=int, help="grid width (lattice)")
    gen.add_argument("--height", type=int, help="grid height (lattice)")
    gen.add_argument("--elements", type=_elements_arg, help="comma-separated poset elements (poset)")
    gen.add_argument("--relations", type=_relations_arg, default=(), help="relations a<b,b<c (poset)")
    gen.add_argument("--points", type=int, help="point count (random)")
    gen.add_argument("--seed", type=int, help="seed (random)")
    gen.add_argument("--name", help="space name (defaults to a parameter-derived name)")
    gen.add_argument("-o", "--output", help="write to a file and print a report (default: stdout)")
    gen.set_defaults(func=_cmd_gen)

    an = sub.add_parser("analyze", help="compute Radon, Helly, VC, and separability")
    an.add_argument("space", help="space file")
    an.set_defaults(func=_cmd_analyze)

    net = sub.add_parser("net", help="build a weak epsilon-net")
    net.add_argument("space", help="space file")
    net.add_argument("dist", help="distribution file")
    net.add_argument("--eps", type=_eps_arg, required=True, help="threshold, exact 'p/q'")
    net.add_argument("--verify", action="store_true", help="report the piercing check every build runs")
    net.add_argument("--oracle", action="store_true", help="also compute the exact optimum")
    net.set_defaults(func=_cmd_net)

    lb = sub.add_parser("lowerbound", help="emit a lower-bound certificate")
    lb.add_argument("space", help="space file")
    lb.add_argument("dist", nargs="?", help="distribution file (chromatic method)")
    lb.add_argument("--eps", type=_eps_arg, required=True, help="threshold, exact 'p/q'")
    lb.add_argument("--method", choices=["auto", "chromatic", "radon"], default="auto")
    lb.set_defaults(func=_cmd_lowerbound)

    kn = sub.add_parser("kneser", help="Kneser graph facts and checks")
    kn.add_argument("--n", type=int, required=True)
    kn.add_argument("--k", type=int)
    kn.add_argument("--exact", action="store_true", help="compute the exact chromatic number")
    kn.add_argument("--alon", action="store_true", help="check chi(KG_{n,n/4}) > n/10")
    kn.set_defaults(func=_cmd_kneser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.command == "gen":
        missing = [f"--{k}" for k in GENERATORS[args.kind].params if getattr(args, k) is None]
        if missing:
            print(f"gen {args.kind} requires {', '.join(missing)}", file=sys.stderr)
            return 2
    try:
        started = time.perf_counter()
        outcome = args.func(args)
        if outcome is not None:
            inputs, result = outcome
            report = {
                "command": args.command,
                "inputs": inputs,
                "result": result,
                "elapsed_seconds": round(time.perf_counter() - started, 6),
            }
            _emit(report, args.human)
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
