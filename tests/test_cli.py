import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import radonnets
from radonnets import (
    Distribution,
    GroundSet,
    PointSet,
    format_distribution_file,
    format_space_file,
    intersection_closure,
    parse_space_file,
)
from radonnets.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


@pytest.fixture()
def path3_file(tmp_path, capsys):
    path = tmp_path / "path3.json"
    code, out, _ = run_cli(capsys, "gen", "subtree", "--edges", "a-b,b-c")
    assert code == 0
    path.write_text(out)
    return str(path)


def strict_json(text):
    """Parse a report, refusing the non-JSON constants Infinity and NaN."""

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def write_uniform(tmp_path, size, name="mu.json"):
    path = tmp_path / name
    path.write_text(format_distribution_file(Distribution.uniform(size)))
    return str(path)


# --- gen ------------------------------------------------------------------------


def test_gen_writes_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "gen", "power", "--m", "2")
    assert code == 0
    name, space = parse_space_file(out)
    assert name == "power-2"
    assert space.ground.labels == ("1", "2")


def test_gen_report_and_digest(tmp_path, capsys):
    target = tmp_path / "cyl.json"
    report = run_json(capsys, "gen", "cylinders", "--n", "2", "-o", str(target))
    assert report["command"] == "gen"
    assert report["result"] == {"name": "cylinders-2", "points": 4, "convex_sets": 10}
    text = target.read_text()
    assert report["inputs"]["output"]["sha256"] == hashlib.sha256(text.encode()).hexdigest()
    assert report["elapsed_seconds"] >= 0


def test_gen_all_kinds(tmp_path, capsys):
    cases = [
        (["gen", "lattice", "--width", "2", "--height", "3"], "lattice-2x3"),
        (["gen", "poset", "--elements", "a,b,c", "--relations", "a<b"], "poset-3e"),
        (["gen", "random", "--points", "4", "--seed", "7"], "random-4p-7"),
        (["gen", "power", "--m", "3", "--name", "cube"], "cube"),
        (["gen", "subtree", "--edges", "a-b,b-c"], "subtree-3v"),
        (["gen", "poset", "--elements", "a,b"], "poset-2e"),
    ]
    for argv, expected in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert parse_space_file(out)[0] == expected


def test_gen_missing_parameters(capsys):
    code, _, err = run_cli(capsys, "gen", "lattice", "--width", "2")
    assert code == 2
    assert "gen lattice requires --height" in err.splitlines()


def test_gen_random_non_separable_exits_3(monkeypatch, capsys):
    from radonnets import generators
    from radonnets.space import SeparationCheck

    monkeypatch.setattr(generators, "is_separable", lambda space: SeparationCheck(False, None))
    code, _, err = run_cli(capsys, "gen", "random", "--points", "4", "--seed", "7")
    assert code == 3
    assert "consistency failure" in err


def test_gen_rejects_bad_edges(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "gen", "subtree", "--edges", "a-b-c")
    assert exc.value.code == 2


# --- analyze --------------------------------------------------------------------


def test_analyze_report(tmp_path, capsys):
    target = tmp_path / "p3.json"
    run_json(capsys, "gen", "power", "--m", "3", "-o", str(target))
    report = run_json(capsys, "analyze", str(target))
    result = report["result"]
    assert result["name"] == "power-3"
    assert (result["radon"], result["helly"], result["vc"]) == (4, 3, 3)
    assert result["separable"] is True
    assert result["radon_witness"] == ["1", "2", "3"]
    assert report["inputs"]["space"]["path"] == str(target)


def test_analyze_human_output(path3_file, capsys):
    code, out, _ = run_cli(capsys, "--human", "analyze", path3_file)
    assert code == 0
    assert "result.radon: 3" in out.splitlines()
    assert "command: analyze" in out.splitlines()


def test_analyze_missing_file(capsys):
    code, _, err = run_cli(capsys, "analyze", "/nonexistent/space.json")
    assert code == 2
    assert "error:" in err


def test_analyze_deeply_nested_space_file_exits_2(tmp_path, capsys):
    """JSON nested past the recursion limit is bad input, not a traceback."""
    space = tmp_path / "nested.json"
    space.write_text("[" * 200_000)
    code, out, err = run_cli(capsys, "analyze", str(space))
    assert code == 2
    assert out == ""
    assert "space file is not valid JSON" in err


def test_analyze_empty_ground_set_exits_2(tmp_path, capsys):
    """The parser accepts an empty ground set; analyze rejects it as bad
    input, as `lowerbound --method radon` does, not as a consistency failure."""
    space = tmp_path / "empty.json"
    space.write_text(json.dumps({"name": "e", "ground": [], "convex": [[]]}))
    code, out, err = run_cli(capsys, "analyze", str(space))
    assert code == 2
    assert out == ""
    assert "the ground set is empty" in err


# --- net ------------------------------------------------------------------------


def test_net_on_path(path3_file, tmp_path, capsys):
    dist = write_uniform(tmp_path, 3)
    report = run_json(
        capsys, "net", path3_file, dist, "--eps", "3/5", "--verify", "--oracle"
    )
    result = report["result"]
    assert result["eps"] == "3/5"
    assert result["points"] == ["b"]
    assert result["size"] == 1
    assert result["verified"] is True
    assert result["oracle_optimum"] == 1
    assert result["ratio"] == 1.0
    assert result["depth"] == 0


def test_net_rejects_decimal_eps(path3_file, tmp_path, capsys):
    dist = write_uniform(tmp_path, 3)
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "net", path3_file, dist, "--eps", "0.6")
    assert exc.value.code == 2


def test_net_rejects_size_mismatch(path3_file, tmp_path, capsys):
    dist = write_uniform(tmp_path, 4)
    code, _, err = run_cli(capsys, "net", path3_file, dist, "--eps", "1/2")
    assert code == 2
    assert "3 points" in err


def test_net_deeply_nested_distribution_file_exits_2(path3_file, tmp_path, capsys):
    dist = tmp_path / "nested.json"
    dist.write_text("[" * 200_000)
    code, out, err = run_cli(capsys, "net", path3_file, str(dist), "--eps", "1/2")
    assert code == 2
    assert out == ""
    assert "distribution file is not valid JSON" in err


def test_net_consistency_failure_exit_code(tmp_path, capsys):
    space = tmp_path / "bad.json"
    space.write_text(
        json.dumps(
            {
                "name": "not-separable",
                "ground": ["a", "b", "c"],
                "convex": [[], [1], [2], [0, 1, 2]],
            }
        )
    )
    dist = write_uniform(tmp_path, 3)
    code, _, err = run_cli(capsys, "net", str(space), dist, "--eps", "1/3")
    assert code == 3
    assert "consistency failure" in err


def test_net_tiny_eps_reports_null_size_bound(path3_file, tmp_path, capsys):
    """The size bound overflows a float at eps = 1/10^60; the report says null."""
    dist = write_uniform(tmp_path, 3)
    code, out, err = run_cli(capsys, "net", path3_file, dist, "--eps", f"1/{10**60}", "--verify")
    assert code == 0, err
    result = strict_json(out)["result"]
    assert result["depth"] == 617
    assert result["size_bound"] is None
    assert result["verified"] is True


@pytest.mark.parametrize("digits", [120, 300, 400])
def test_net_too_deep_for_the_recursion_limit_exits_2(digits, path3_file, tmp_path, capsys):
    dist = write_uniform(tmp_path, 3)
    code, out, err = run_cli(capsys, "net", path3_file, dist, "--eps", f"1/{10**digits}")
    assert code == 2
    assert out == ""
    assert "recursion levels" in err


@pytest.mark.parametrize("digits", [300, 400])
def test_net_tiny_delta_keeps_the_packing_cap_in_log_space(digits, path3_file, tmp_path, capsys):
    """With room for the recursion, a delta whose float overflows the
    Haussler cap (1/10^300) or underflows to 0 (1/10^400) still builds."""
    dist = write_uniform(tmp_path, 3)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 5000)
    try:
        code, out, err = run_cli(capsys, "net", path3_file, dist, "--eps", f"1/{10**digits}", "--verify")
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0, err
    result = strict_json(out)["result"]
    assert result["depth"] > 3000
    assert result["size_bound"] is None
    assert result["verified"] is True


# --- lowerbound -----------------------------------------------------------------


def test_lowerbound_chromatic(tmp_path, capsys):
    space = tmp_path / "cyl.json"
    run_json(capsys, "gen", "cylinders", "--n", "2", "-o", str(space))
    dist = write_uniform(tmp_path, 4)
    report = run_json(capsys, "lowerbound", str(space), dist, "--eps", "1/4")
    result = report["result"]
    assert result["bound"] == 4
    assert result["method"] == "exact-chromatic"
    assert result["graph"] == {"vertices": 4, "edges": 6}


def test_lowerbound_radon(tmp_path, capsys):
    space = tmp_path / "p4.json"
    run_json(capsys, "gen", "power", "--m", "4", "-o", str(space))
    report = run_json(capsys, "lowerbound", str(space), "--eps", "1/4")
    result = report["result"]
    assert result["bound"] == 4
    assert result["method"] == "lovasz-closed-form"
    assert result["support"] == ["1", "2", "3", "4"]
    assert result["mu"] == ["1/4"] * 4


def test_lowerbound_chromatic_needs_dist(tmp_path, capsys):
    space = tmp_path / "p3.json"
    run_json(capsys, "gen", "power", "--m", "3", "-o", str(space))
    code, _, err = run_cli(capsys, "lowerbound", str(space), "--eps", "1/4", "--method", "chromatic")
    assert code == 2
    assert "distribution" in err


# --- kneser ---------------------------------------------------------------------


def test_kneser_exact(capsys):
    report = run_json(capsys, "kneser", "--n", "5", "--k", "2", "--exact")
    result = report["result"]
    assert result["vertices"] == 10
    assert result["edges"] == 15
    assert result["formula_chromatic"] == 3
    assert result["exact_chromatic"] == 3
    assert result["matches_formula"] is True


def test_kneser_alon(monkeypatch, capsys):
    from radonnets import bounds, cli

    real = cli.exact_chromatic_number
    calls = []

    def counted(graph):
        calls.append(graph.vertex_count)
        return real(graph)

    monkeypatch.setattr(cli, "exact_chromatic_number", counted)
    monkeypatch.setattr(bounds, "exact_chromatic_number", counted)
    report = run_json(capsys, "kneser", "--n", "8", "--alon")
    result = report["result"]
    assert result["k"] == 2
    assert result["exact_chromatic"] == 6
    assert result["alon_check"] == {"threshold": "8/10", "holds": True}
    assert calls == [28]  # the check reuses the chi it reports


def test_kneser_graph_too_large_exits_2_at_once(capsys):
    """C(10^6, 5*10^5) is never computed in full: the count stops at the cap."""
    code, out, err = run_cli(capsys, "kneser", "--n", "1000000", "--k", "500000")
    assert code == 2
    assert out == ""
    assert "more vertices than the cap of 64" in err


def test_kneser_argument_errors(capsys):
    code, _, err = run_cli(capsys, "kneser", "--n", "7", "--alon")
    assert code == 2
    code, _, err = run_cli(capsys, "kneser", "--n", "5")
    assert code == 2
    assert "--k" in err


def test_python_dash_m_runs_the_cli():
    """`python -m radonnets.cli` reaches `main`, like the installed script."""
    src = str(Path(radonnets.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "radonnets.cli", "kneser", "--n", "5", "--k", "2"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["formula_chromatic"] == 3


# --- repeated calls ---------------------------------------------------------------


def _strip_elapsed(out):
    return "\n".join(line for line in out.splitlines() if "elapsed_seconds" not in line)


def test_repeated_main_calls_match_fresh_parser(path3_file, tmp_path, capsys):
    """The parser is built once per process; reusing it across calls with
    different subcommands, and after an argument error, changes no output."""
    from radonnets import cli

    dist = write_uniform(tmp_path, 3)
    calls = [
        ["gen", "power", "--m", "2"],
        ["analyze", path3_file],
        ["net", path3_file, dist, "--eps", "0.6"],
        ["net", path3_file, dist, "--eps", "3/5", "--verify", "--oracle"],
        ["gen", "lattice", "--width", "2"],
        ["--human", "lowerbound", path3_file, dist, "--eps", "1/3"],
        ["kneser", "--n", "5", "--k", "2", "--exact"],
        ["analyze", path3_file],
    ]

    def run_all(fresh):
        outputs = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            outputs.append((code, _strip_elapsed(captured.out), captured.err))
        return outputs

    fresh = run_all(fresh=True)
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 2, 0, 0, 0]
    assert "eps must be an exact fraction" in fresh[2][2]
    assert run_all(fresh=False) == fresh
    assert run_all(fresh=False) == fresh


# --- fuzzed inputs ----------------------------------------------------------------


@st.composite
def cli_inputs(draw):
    """A random intersection-closed space on up to 6 points (separable or
    not), a random integer measure and an eps from 1 down to 1/10^400."""
    n = draw(st.integers(1, 6))
    basis = draw(st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    space = intersection_closure(GroundSet(tuple(f"p{i}" for i in range(n))), [PointSet(m) for m in basis])
    nums = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    nums[draw(st.integers(0, n - 1))] = draw(st.integers(1, 5))
    q = draw(st.one_of(st.integers(1, 12), st.integers(0, 400).map(lambda k: 10**k)))
    p = draw(st.integers(1, min(q, 12)))
    return space, Distribution.from_integer_weights(nums), f"{p}/{q}"


@settings(max_examples=100, deadline=None)
@given(cli_inputs())
def test_cli_ends_in_a_report_or_an_error_code(tmp_path_factory, case):
    space, mu, eps = case
    work = tmp_path_factory.mktemp("fuzz")
    space_path, dist_path = work / "space.json", work / "mu.json"
    space_path.write_text(format_space_file("fuzz", space))
    dist_path.write_text(format_distribution_file(mu))
    space_file, dist_file = str(space_path), str(dist_path)
    calls = [
        ["analyze", space_file],
        ["net", space_file, dist_file, "--eps", eps, "--verify", "--oracle"],
        ["lowerbound", space_file, dist_file, "--eps", eps, "--method", "chromatic"],
        ["lowerbound", space_file, "--eps", eps, "--method", "radon"],
    ]
    for argv in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3), argv
        if code == 0:
            strict_json(out.getvalue())


@st.composite
def mutated_cli_inputs(draw):
    """Valid space and distribution files from `cli_inputs`, one of them
    truncated, with a few bytes overwritten (often by JSON syntax), or with
    a few digits changed (still JSON: other indices, labels or weights)."""
    space, mu, eps = draw(cli_inputs())
    files = {"space": format_space_file("fuzz", space).encode(), "dist": format_distribution_file(mu).encode()}
    name = draw(st.sampled_from(sorted(files)))
    data = bytearray(files[name])
    kind = draw(st.sampled_from(["truncate", "overwrite", "digits"]))
    if kind == "truncate":
        del data[draw(st.integers(0, len(data) - 1)):]
    elif kind == "overwrite":
        for _ in range(draw(st.integers(1, 4))):
            at = draw(st.integers(0, len(data) - 1))
            data[at] = draw(st.one_of(st.integers(0, 255), st.sampled_from(b'-/.,:"[]{}')))
    else:
        digits = [i for i, c in enumerate(data) if chr(c).isdigit()]
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.sampled_from(digits))] = draw(st.sampled_from(b"0123456789"))
    files[name] = bytes(data)
    return files["space"], files["dist"], eps


@settings(max_examples=150, deadline=None)
@given(mutated_cli_inputs())
def test_cli_survives_truncated_and_mutated_files(tmp_path_factory, case):
    space_bytes, dist_bytes, eps = case
    work = tmp_path_factory.mktemp("mutated")
    space_path, dist_path = work / "space.json", work / "mu.json"
    space_path.write_bytes(space_bytes)
    dist_path.write_bytes(dist_bytes)
    space_file, dist_file = str(space_path), str(dist_path)
    calls = [
        ["analyze", space_file],
        ["net", space_file, dist_file, "--eps", eps, "--verify", "--oracle"],
        ["lowerbound", space_file, dist_file, "--eps", eps, "--method", "chromatic"],
        ["lowerbound", space_file, "--eps", eps, "--method", "radon"],
    ]
    for argv in calls:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3), argv
        event(f"{argv[0]} exits {code}")
        if code == 0:
            strict_json(out.getvalue())
