import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from math import comb
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
        (["gen", "poset", "--elements", "a,b", "--relations", ""], "poset-2e"),
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


def test_gen_rejects_bad_relations(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "gen", "poset", "--elements", "a,b", "--relations", "a-b")
    assert exc.value.code == 2
    assert "relation 'a-b' is not of the form a<b" in capsys.readouterr().err


@pytest.mark.parametrize("elements, name", [(",a", "''"), ("a,a<a", "'a<a'")])
def test_gen_rejects_poset_names_that_make_labels_ambiguous(capsys, elements, name):
    code, out, err = run_cli(capsys, "gen", "poset", "--elements", elements)
    assert (code, out) == (2, "")
    assert f"poset element {name} is empty or contains '<'" in err


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
    for argv in (["analyze", str(space)], ["lowerbound", str(space), "--eps", "1/2", "--method", "radon"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2, argv
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


@pytest.mark.parametrize("text", ["1/2\n", "\u0661/2", "1/2\u0660"])
def test_fractions_are_whole_ascii_strings(text, path3_file, tmp_path, capsys):
    """A 'p/q' string is ASCII digits from end to end: a trailing newline
    or a non-ASCII digit is refused in `--eps` and in a weight alike."""
    dist = write_uniform(tmp_path, 3)
    with pytest.raises(SystemExit) as exc:
        main(["net", path3_file, dist, "--eps", text])
    assert exc.value.code == 2
    assert "eps must be an exact fraction" in capsys.readouterr().err
    weights = tmp_path / "weights.json"
    weights.write_text(json.dumps({"weights": [text, "1/4", "1/4"]}))
    code, out, err = run_cli(capsys, "net", path3_file, str(weights), "--eps", "1/2")
    assert code == 2
    assert out == ""
    assert "is not of the form 'p/q'" in err


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
def test_net_past_the_level_ceiling_exits_2(digits, path3_file, tmp_path, capsys):
    """An eps that needs more levels than the net build's fixed ceiling of
    950 is refused before any level is built."""
    dist = write_uniform(tmp_path, 3)
    code, out, err = run_cli(capsys, "net", path3_file, dist, "--eps", f"1/{10**digits}")
    assert code == 2
    assert out == ""
    assert "levels; the net build allows 950" in err


@pytest.mark.parametrize("digits", [300, 400])
def test_net_tiny_delta_keeps_the_packing_cap_in_log_space(digits, path3_file, tmp_path, capsys, monkeypatch):
    """Under a raised level ceiling, a delta whose float overflows the
    Haussler cap (1/10^300) or underflows to 0 (1/10^400) still builds."""
    dist = write_uniform(tmp_path, 3)
    monkeypatch.setattr("radonnets.nets._LEVEL_CEILING", 5000)
    code, out, err = run_cli(capsys, "net", path3_file, dist, "--eps", f"1/{10**digits}", "--verify")
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


def test_lowerbound_auto_falls_back_to_radon_over_the_cap(monkeypatch, tmp_path, capsys):
    """Over the size cap, `--method auto` reports the Radon certificate
    instead of the exact chromatic one; `--method chromatic` refuses."""
    monkeypatch.setenv("RADON_NETS_CAP", "4")
    space = tmp_path / "p4.json"
    run_json(capsys, "gen", "power", "--m", "4", "-o", str(space))
    dist = write_uniform(tmp_path, 4)
    result = run_json(capsys, "lowerbound", str(space), dist, "--eps", "1/2")["result"]
    assert result["fallback"] == "radon"
    assert result["bound"] == 2
    assert result["method"] == "lovasz-closed-form"
    code, out, err = run_cli(capsys, "lowerbound", str(space), dist, "--eps", "1/2", "--method", "chromatic")
    assert code == 2
    assert out == ""
    assert "6 minimal dense sets, exact cap is 4" in err


@pytest.mark.parametrize("eps", ["0/1", "3/2"])
def test_eps_outside_the_unit_interval_is_a_usage_error(eps, path3_file, tmp_path, capsys):
    dist = write_uniform(tmp_path, 3)
    with pytest.raises(SystemExit) as exc:
        main(["net", path3_file, dist, "--eps", eps])
    assert exc.value.code == 2
    assert "eps must satisfy 0 < eps <= 1" in capsys.readouterr().err


# --- kneser ---------------------------------------------------------------------


def test_kneser_exact(capsys):
    report = run_json(capsys, "kneser", "--n", "5", "--k", "2", "--exact")
    result = report["result"]
    assert result["vertices"] == 10
    assert result["edges"] == 15
    assert result["formula_chromatic"] == 3
    assert result["exact_chromatic"] == 3
    assert result["matches_formula"] is True


@pytest.mark.parametrize("n, chi", [(4, 4), (8, 6)])
def test_kneser_alon(n, chi, monkeypatch, capsys):
    """chi(KG_{n,n/4}) > n/10 holds at n = 4 and 8, computed from the chi
    the report gives."""
    from radonnets import bounds, cli

    real = cli.exact_chromatic_number
    calls = []

    def counted(graph):
        calls.append(graph.vertex_count)
        return real(graph)

    monkeypatch.setattr(cli, "exact_chromatic_number", counted)
    monkeypatch.setattr(bounds, "exact_chromatic_number", counted)
    report = run_json(capsys, "kneser", "--n", str(n), "--alon")
    result = report["result"]
    assert result["k"] == n // 4
    assert result["exact_chromatic"] == chi
    assert result["alon_check"] == {"threshold": f"{n}/10", "holds": True}
    assert calls == [comb(n, n // 4)]  # the check reuses the chi it reports


def test_kneser_graph_too_large_exits_2_at_once(capsys):
    """C(10^6, 5*10^5) is never computed in full: the count stops at the cap."""
    code, out, err = run_cli(capsys, "kneser", "--n", "1000000", "--k", "500000")
    assert code == 2
    assert out == ""
    assert "more vertices than the cap of 64" in err


def test_kneser_exact_past_the_recursion_limit_reports_chi(monkeypatch, capsys):
    """KG_{13,6} leaves 1,714 vertices to color after its clique, more
    than the recursion limit has levels: the search is a loop, so it
    reports the closed form."""
    monkeypatch.setenv("RADON_NETS_CAP", "2000")
    code, out, err = run_cli(capsys, "kneser", "--n", "13", "--k", "6", "--exact")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["exact_chromatic"] == result["formula_chromatic"] == 3


def test_kneser_graph_on_a_huge_ground_set_exits_2_at_once(capsys):
    """KG_{n,n} has one vertex, so its count passes the cap; the n-set
    is its ground set, and the ground cap refuses it before any subset
    is built."""
    code, out, err = run_cli(capsys, "kneser", "--n", "10000000", "--k", "10000000")
    assert code == 2
    assert out == ""
    assert "ground set has 10000000 points, cap is 64" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--n", "7", "--alon"), "--alon needs n divisible by 4"),
        (("--n", "6", "--alon"), "--alon needs n divisible by 4"),
        (("--n", "0", "--alon"), "--alon needs n divisible by 4"),
        (("--n", "5"), "--k"),
    ],
    ids=["n7-alon", "n6-alon", "n0-alon", "n5-no-k"],
)
def test_kneser_argument_errors(argv, message, capsys):
    code, _, err = run_cli(capsys, "kneser", *argv)
    assert code == 2
    assert message in err


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


def test_every_report_has_the_same_envelope(path3_file, tmp_path, capsys):
    """Every subcommand that reports is wrapped in one envelope, with the
    same key order in JSON and under `--human`."""
    dist = write_uniform(tmp_path, 3)
    calls = [
        ["gen", "power", "--m", "2", "-o", str(tmp_path / "p2.json")],
        ["analyze", path3_file],
        ["net", path3_file, dist, "--eps", "1/3", "--verify", "--oracle"],
        ["lowerbound", path3_file, dist, "--eps", "1/3", "--method", "chromatic"],
        ["lowerbound", path3_file, "--eps", "1/3", "--method", "radon"],
        ["kneser", "--n", "5", "--k", "2", "--exact"],
    ]
    for argv in calls:
        report = run_json(capsys, *argv)
        assert list(report) == ["command", "inputs", "result", "elapsed_seconds"]
        assert report["command"] == argv[0]
        code, out, err = run_cli(capsys, "--human", *argv)
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == f"command: {argv[0]}"
        assert lines[-1].startswith("elapsed_seconds: ")


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
