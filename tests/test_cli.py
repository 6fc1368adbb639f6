import hashlib
import json

import pytest

from radonnets import Distribution, format_distribution_file, parse_space_file
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
    ]
    for argv, expected in cases:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert parse_space_file(out)[0] == expected


def test_gen_missing_parameters(capsys):
    code, _, err = run_cli(capsys, "gen", "lattice", "--width", "2")
    assert code == 2
    assert "--height" in err


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


def test_kneser_alon(capsys):
    report = run_json(capsys, "kneser", "--n", "8", "--alon")
    result = report["result"]
    assert result["k"] == 2
    assert result["alon_check"] == {"threshold": "8/10", "holds": True}


def test_kneser_argument_errors(capsys):
    code, _, err = run_cli(capsys, "kneser", "--n", "7", "--alon")
    assert code == 2
    code, _, err = run_cli(capsys, "kneser", "--n", "5")
    assert code == 2
    assert "--k" in err


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
