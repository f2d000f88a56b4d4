import json

import pytest

from cycletrim import harness, serialize_graph
from cycletrim.cli import main

from helpers import complete_bipartite, cycle_graph, k4_golden, petersen, theta


def write_graph(tmp_path, g, name="g.edges"):
    path = tmp_path / name
    path.write_text(serialize_graph(g))
    return str(path)


def test_solve_ok(tmp_path, capsys):
    code = main(["solve", write_graph(tmp_path, theta())])
    out = capsys.readouterr().out
    assert code == 0
    assert "status: ok" in out
    assert "weight: 4" in out
    assert "0 -> 2 -> 1 -> 3 -> 0" in out
    assert "front gate" in out


def test_solve_json(tmp_path, capsys):
    code = main(["solve", write_graph(tmp_path, k4_golden()), "--json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["status"] == "ok"
    assert obj["weight"] == "14"
    assert obj["tour"] == [0, 2, 1, 3]
    assert obj["trace"][0]["cycle"] == 2


def test_solve_not_hamiltonian_exit_code(tmp_path, capsys):
    assert main(["solve", write_graph(tmp_path, petersen())]) == 3


def test_solver_stuck_exit_code(tmp_path, capsys):
    from helpers import wheel5

    assert main(["solve", write_graph(tmp_path, wheel5())]) == 4


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\n")
    assert main(["solve", str(bad)]) == 2
    assert main(["solve", str(tmp_path / "missing.edges")]) == 2
    disconnected = tmp_path / "two.edges"
    disconnected.write_text("0 1 1\n2 3 1\n")
    assert main(["solve", str(disconnected)]) == 2


def test_overlong_weight_is_a_parse_error(tmp_path, capsys):
    # far beyond the digits int() converts; refused before any conversion
    bad = tmp_path / "huge.edges"
    bad.write_text("0 1 " + "9" * 5000 + "\n1 2 1\n0 2 1\n")
    for command in ("solve", "oracle", "compare"):
        assert main([command, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and err.count("\n") == 1
        assert len(err) < 200


def test_oversized_input_fails_fast(tmp_path, capsys):
    # 25 vertices is above the oracle's cap; the solver refuses before its
    # exhaustive front gate instead of searching
    path = write_graph(tmp_path, cycle_graph(25))
    for command in ("solve", "compare", "oracle"):
        assert main([command, path]) == 1
        assert "instance too large" in capsys.readouterr().err


def test_usage_exit_code(capsys):
    assert main([]) == 1
    assert main(["mine", "--count", "3"]) == 1  # --report is required
    assert main(["frobnicate"]) == 1


def test_oracle_command(tmp_path, capsys):
    assert main(["oracle", write_graph(tmp_path, k4_golden())]) == 0
    out = capsys.readouterr().out
    assert "optimum weight: 14" in out
    assert main(["oracle", write_graph(tmp_path, petersen())]) == 3


def test_oracle_rejects_unequal_bipartite_sides(tmp_path, capsys):
    # K_{11,12} has no Hamilton cycle, and the oracle settles it up front
    assert main(["oracle", write_graph(tmp_path, complete_bipartite(11, 12))]) == 3
    assert capsys.readouterr().out == "hamiltonian: no\n"


def test_compare_skips_the_oracle_on_gate_rejected_input(tmp_path, capsys, monkeypatch):
    # the gate's verdict is exact, so compare takes "no optimum" from it
    def no_oracle(g):
        raise AssertionError("min_tour ran")

    monkeypatch.setattr(harness, "min_tour", no_oracle)
    g = complete_bipartite(11, 12)
    report = harness.compare_graph(g, instance_id="k11_12", seed=0).report
    assert report.status == "not_hamiltonian_input"
    assert report.opt_weight is None and report.match is None
    assert main(["compare", write_graph(tmp_path, g), "--json"]) == 3
    assert json.loads(capsys.readouterr().out)["opt_weight"] is None


def test_compare_json(tmp_path, capsys):
    code = main(["compare", write_graph(tmp_path, k4_golden()), "--json"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["match"] is True
    assert obj["algo_weight"] == 14
    assert obj["opt_weight"] == 14


def test_mine_command(tmp_path, capsys):
    report = tmp_path / "out" / "report.jsonl"
    code = main(
        [
            "mine",
            "--count", "6",
            "--n-min", "5",
            "--n-max", "6",
            "--edge-prob", "0.6",
            "--weights", "uniform:1:20",
            "--seed", "5",
            "--report", str(report),
        ]
    )
    assert code == 0
    assert report.exists()
    out = capsys.readouterr().out
    assert "match rate" in out
    last = json.loads(report.read_text().splitlines()[-1])
    assert last["kind"] == "summary"


def test_mine_bad_weights_spec(tmp_path):
    assert (
        main(["mine", "--weights", "gauss:1:2", "--report", str(tmp_path / "r")]) == 1
    )


def test_mine_weights_take_ascii_digits_only(tmp_path, capsys):
    # Arabic-Indic one and nine: \d would take them as 1 and 9
    code = main(["mine", "--weights", "uniform:\u0661:\u0669", "--report", str(tmp_path / "r")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_mine_weight_bound_length_is_capped(tmp_path, capsys):
    # far beyond the digits int() converts; refused before any conversion
    code = main(["mine", "--weights", "uniform:1:" + "9" * 5000, "--report", str(tmp_path / "r")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert not (tmp_path / "r").exists()


def test_mine_bad_config(tmp_path):
    assert (
        main(
            [
                "mine",
                "--count", "2",
                "--n-max", "13",
                "--report", str(tmp_path / "r"),
            ]
        )
        == 1
    )


@pytest.mark.parametrize("where", ["directory", "under_a_file"])
def test_mine_unusable_report_path_fails_before_drawing(tmp_path, capsys, monkeypatch, where):
    # a directory cannot be opened as the report; a report under a file
    # cannot get its parent directory made
    (tmp_path / "file").write_text("")
    report = tmp_path if where == "directory" else tmp_path / "file" / "r.jsonl"
    drawn = []
    draw = harness.random_connected_graph
    monkeypatch.setattr(
        harness, "random_connected_graph", lambda *args: drawn.append(args) or draw(*args)
    )
    code = main(["mine", "--count", "3", "--report", str(report)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid campaign config:") and err.count("\n") == 1
    assert drawn == []
