"""CLI exit codes, output formats, and determinism."""

import csv
import io
import json

import numpy as np
import pytest
from click.testing import CliRunner

from sigmech.bounds import make_correlated_instance, make_tightness_instance
from sigmech.cli import LP_SIZE_CAP, main
from sigmech.instances import (
    format_instance,
    parse_instance,
    random_independent_system,
    write_instance,
)
from sigmech.model import LocationModel, SystemModel


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def example_path(tmp_path):
    path = tmp_path / "critical.json"
    write_instance(make_tightness_instance(2, 3.0).system, path)
    return str(path)


@pytest.fixture()
def joint_path(tmp_path):
    path = tmp_path / "correlated.json"
    write_instance(make_correlated_instance(2, 10.0), path)
    return str(path)


def test_solve_centralized_prints_throughput(runner, example_path):
    result = runner.invoke(main, ["solve", example_path, "--mode", "centralized"])
    assert result.exit_code == 0
    assert "Th = 1.000000" in result.output
    assert "mechanism" in result.output


def test_solve_decentralized_prints_iso_throughputs(runner, example_path):
    result = runner.invoke(
        main, ["solve", example_path, "--mode", "decentralized", "--summary"]
    )
    assert result.exit_code == 0
    assert "Th_D = 0.784610" in result.output
    assert "Th_iso = 0.535898 0.535898" in result.output
    assert "mechanism" not in result.output


def test_solve_no_info_is_zero(runner, example_path):
    result = runner.invoke(main, ["solve", example_path, "--mode", "no-info"])
    assert result.exit_code == 0
    assert "Th = 0.000000" in result.output


def test_solve_parse_error_exits_2(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope", encoding="utf-8")
    result = runner.invoke(main, ["solve", str(bad)])
    assert result.exit_code == 2
    assert "line" in result.stderr


def test_solve_non_utf8_instance_exits_2_with_one_line(runner, tmp_path):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"locations": [{"name": "caf\u00e9"}]}'.encode("latin-1"))
    result = runner.invoke(main, ["solve", str(bad)])
    assert result.exit_code == 2
    [line] = result.stderr.splitlines()
    assert line.startswith("error: the instance file is not UTF-8 text")
    assert isinstance(result.exception, SystemExit)  # no UnicodeDecodeError traceback


def test_solve_validation_error_exits_2(runner, tmp_path):
    path = tmp_path / "invalid.json"
    path.write_text(
        json.dumps(
            {
                "locations": [
                    {
                        "name": "a",
                        "states": ["x", "y"],
                        "prior": [0.5, 0.6],
                        "utility": [1.0, -1.0],
                    }
                ]
            }
        ),
        encoding="utf-8",
    )
    result = runner.invoke(main, ["solve", str(path)])
    assert result.exit_code == 2
    assert "prior" in result.stderr


def test_solve_joint_decentralized_needs_fallback_flag(runner, joint_path):
    refused = runner.invoke(main, ["solve", joint_path, "--mode", "decentralized"])
    assert refused.exit_code == 3
    assert "--fallback" in refused.stderr

    allowed = runner.invoke(
        main,
        ["solve", joint_path, "--mode", "decentralized", "--fallback", "--summary"],
    )
    assert allowed.exit_code == 0
    assert "Th_fallback = 0.500000" in allowed.output


def test_solve_heterogeneous_precondition_exits_3(runner, tmp_path):
    path = tmp_path / "sunny.json"
    write_instance(
        SystemModel(
            (LocationModel("sunny", ("bad", "good"), (0.2, 0.8), (-1.0, 1.0), 2.0),)
        ),
        path,
    )
    result = runner.invoke(main, ["solve", str(path), "--mode", "heterogeneous"])
    assert result.exit_code == 3
    assert "sunny" in result.stderr


def test_solve_heterogeneous_on_a_joint_prior_exits_3(runner, joint_path):
    result = runner.invoke(main, ["solve", joint_path, "--mode", "heterogeneous"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.splitlines() == [
        "error: heterogeneous_compose needs independent priors"
    ]


def test_solve_heterogeneous_value(runner, tmp_path):
    path = tmp_path / "het.json"
    write_instance(
        SystemModel(
            tuple(
                LocationModel(f"l{i}", ("bad", "good"), (0.8, 0.2), (-1.0, 1.0), v)
                for i, v in enumerate((2.0, 1.0))
            )
        ),
        path,
    )
    result = runner.invoke(main, ["solve", str(path), "--mode", "heterogeneous", "--summary"])
    assert result.exit_code == 0
    assert "Val = 1.040000" in result.output


def test_compare_rows_and_parse_back(runner, example_path):
    result = runner.invoke(main, ["compare", example_path])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    by_name = {row["name"]: row for row in rows}
    assert set(by_name) == {"centralized", "decentralized", "full-info", "no-info"}
    assert float(by_name["centralized"]["throughput"]) == pytest.approx(1.0, abs=1e-7)
    assert float(by_name["decentralized"]["throughput"]) == pytest.approx(
        0.78460969, abs=1e-6
    )
    assert float(by_name["decentralized"]["ratio_to_centralized"]) >= 0.75
    assert float(by_name["decentralized"]["guarantee"]) == 0.75
    assert float(by_name["full-info"]["throughput"]) == pytest.approx(0.25, abs=1e-7)
    assert float(by_name["no-info"]["throughput"]) == 0.0


def test_compare_single_location_ratio_is_one(runner, tmp_path):
    path = tmp_path / "single.json"
    write_instance(
        SystemModel(
            (LocationModel("only", ("bad", "good"), (0.8, 0.2), (-1.0, 1.0)),)
        ),
        path,
    )
    result = runner.invoke(main, ["compare", str(path)])
    rows = {r["name"]: r for r in csv.DictReader(io.StringIO(result.output))}
    assert float(rows["decentralized"]["ratio_to_centralized"]) == pytest.approx(
        1.0, abs=1e-9
    )
    assert float(rows["decentralized"]["guarantee"]) == 1.0


def test_compare_joint_uses_fallback_row(runner, joint_path):
    result = runner.invoke(main, ["compare", joint_path])
    rows = {r["name"]: r for r in csv.DictReader(io.StringIO(result.output))}
    assert "fallback" in rows
    assert float(rows["fallback"]["ratio_to_centralized"]) >= 0.5 - 1e-7
    assert float(rows["fallback"]["guarantee"]) == 0.5


def test_verify_deterministic_output(runner):
    args = ["--seed", "7", "verify", "lemmas", "--trials", "100"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == 0
    assert first.output == second.output


def test_verify_subcommand_seed_override(runner):
    base = runner.invoke(main, ["verify", "lemmas", "--trials", "50", "--seed", "9"])
    other = runner.invoke(main, ["--seed", "9", "verify", "lemmas", "--trials", "50"])
    assert base.exit_code == 0
    assert base.output == other.output


def test_verify_suites_pass(runner):
    independent = runner.invoke(
        main,
        ["verify", "independent-bound", "--K", "2..4", "--trials", "25", "--seed", "3"],
    )
    assert independent.exit_code == 0
    assert "RESULT PASS" in independent.output

    tight = runner.invoke(main, ["verify", "tightness", "--K", "2..4", "--X", "2,3,10"])
    assert tight.exit_code == 0

    correlated = runner.invoke(
        main,
        ["verify", "correlated-bound", "--K", "2..3", "--trials", "20", "--seed", "3"],
    )
    assert correlated.exit_code == 0


def test_verify_bad_range_exits_2(runner):
    result = runner.invoke(main, ["verify", "tightness", "--K", "5..2"])
    assert result.exit_code == 2


def test_range_guards_exit_2(runner):
    for args in (
        ["sweep", "tightness", "--K", "1..3", "--X", "10"],
        ["sweep", "tightness", "--K", "2..3", "--X", "0.5"],
        ["sweep", "tightness", "--X", "abc"],
        ["verify", "tightness", "--K", "1..3"],
        ["verify", "correlated-bound", "--K", "1..2"],
        ["verify", "tightness", "--X", "0.5"],
        ["verify", "tightness", "--X", "a,b"],
        ["verify", "tightness", "--X", ""],
        ["verify", "independent-bound", "--trials", "0"],
        ["sweep", "tightness", "--X", ""],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), args


def _one_error_line(result, code: int) -> None:
    assert result.exit_code == code, result.output
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines
    assert isinstance(result.exception, SystemExit)  # no traceback


def test_sweep_refuses_non_finite_numbers(runner):
    # At one time --X nan printed a row of nans with exit 0 and --X inf
    # died in an argmin over an empty sequence.
    for generator in ("tightness", "correlated"):
        for x in ("nan", "inf", "10,-inf"):
            result = runner.invoke(main, ["sweep", generator, "--K", "2..2", "--X", x])
            _one_error_line(result, 2)


def test_verify_refuses_non_finite_numbers(runner):
    # A NaN slack or tolerance, or a negative tolerance, failed checks of
    # valid instances (RESULT FAIL, exit 1); an infinite one passed any.
    for args in (
        ["verify", "tightness", "--K", "2..2", "--X", "nan"],
        ["verify", "tightness", "--K", "2..2", "--X", "3,inf"],
        ["--tolerance", "nan", "verify", "tightness", "--K", "2..2"],
        ["--tolerance", "inf", "verify", "lemmas", "--trials", "1"],
        ["--tolerance", "-1", "verify", "tightness", "--K", "2..2", "--X", "3"],
    ):
        result = runner.invoke(main, args)
        _one_error_line(result, 2)
        assert result.stdout == "", args


def test_solve_and_compare_refuse_a_non_finite_instance(runner, tmp_path):
    # Python's json reads NaN and Infinity; validation refuses them.
    path = tmp_path / "nan.json"
    path.write_text(
        '{"locations": [{"name": "a", "states": ["x", "y"], "prior": [0.5, 0.5], '
        '"utility": [NaN, 1.0], "payoff": Infinity}]}',
        encoding="utf-8",
    )
    for args in (["solve", str(path)], ["compare", str(path)]):
        result = runner.invoke(main, args)
        _one_error_line(result, 2)
        assert "utility[0] is not finite: nan" in result.stderr
        assert "payoff is not finite: inf" in result.stderr


def test_decentralized_with_a_nonpositive_payoff_exits_3(runner, tmp_path):
    path = tmp_path / "toxic.json"
    write_instance(
        SystemModel((
            LocationModel("good", ("bad", "good"), (0.8, 0.2), (-1.0, 1.0), 2.0),
            LocationModel("toxic", ("bad", "good"), (0.8, 0.2), (-1.0, 1.0), -1.0),
        )),
        path,
    )
    for args in (["solve", str(path), "--mode", "decentralized"], ["compare", str(path)]):
        result = runner.invoke(main, args)
        _one_error_line(result, 3)
        assert "toxic" in result.stderr
    assert runner.invoke(main, ["solve", str(path), "--mode", "heterogeneous"]).exit_code == 0


def test_sweep_tightness_ratio_approaches_guarantee(runner):
    result = runner.invoke(main, ["sweep", "tightness", "--K", "2..4", "--X", "1000"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert len(rows) == 3
    for row in rows:
        guarantee = float(row["independence_guarantee"])
        ratio = float(row["ratio"])
        assert guarantee <= ratio <= guarantee + 1e-3


def test_sweep_tightness_solves_k2_to_k10(runner):
    result = runner.invoke(main, ["sweep", "tightness", "--K", "2..10"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [int(row["K"]) for row in rows] == list(range(2, 11))
    for row in rows:
        inst = make_tightness_instance(int(row["K"]), float(row["X"]))
        assert float(row["Th"]) == pytest.approx(1.0, abs=1e-7)
        assert float(row["Th_D"]) == pytest.approx(inst.predicted_decentralized, abs=1e-8)


def test_sweep_tightness_k10_at_x10_prints_full_throughput(runner):
    # The full LP stopped 1.6e-9 short here (states of probability 5.9e-21
    # give reduced costs below lp.OPT_TOL); the orbit LP's 11 state orbits do not.
    result = runner.invoke(main, ["sweep", "tightness", "--K", "10..10", "--X", "10"])
    assert result.exit_code == 0
    row = next(csv.DictReader(io.StringIO(result.output)))
    assert row["Th"] == "1"


def test_sweep_pair_row_constants(runner):
    result = runner.invoke(main, ["sweep", "correlated", "--K", "2..2", "--X", "10"])
    row = next(csv.DictReader(io.StringIO(result.output)))
    assert float(row["independence_guarantee"]) == 0.75
    assert float(row["one_over_K"]) == 0.5
    assert float(row["correlated_upper_bound"]) == pytest.approx(2.0 / 3.0, abs=1e-9)


def test_sweep_correlated_bounds_only_for_large_k(runner):
    result = runner.invoke(main, ["sweep", "correlated", "--K", "2..9", "--X", "10"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert len(rows) == 8
    for row in rows:
        k = int(row["K"])
        assert float(row["correlated_upper_bound"]) > float(row["one_over_K"])
        if k <= LP_SIZE_CAP:
            assert row["Th"] != ""
        else:
            assert row["Th"] == ""


def test_sweep_correlated_prints_one_row_per_penalty_above_k(runner):
    result = runner.invoke(main, ["sweep", "correlated", "--K", "2..3", "--X", "3,1000"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [(row["K"], row["X"]) for row in rows] == [("2", "3"), ("2", "1000"), ("3", "1000")]
    assert all(float(row["Th"]) == pytest.approx(1.0, abs=1e-9) for row in rows)

    result = runner.invoke(main, ["sweep", "correlated", "--K", "3..3", "--X", "2,3"])
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [(row["K"], row["X"], row["Th"]) for row in rows] == [("3", "", "")]


def test_sweep_correlated_solves_k5_and_k6(runner):
    result = runner.invoke(main, ["sweep", "correlated", "--K", "5..6"])
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [int(row["K"]) for row in rows] == [5, 6]
    for row in rows:
        th, fallback = float(row["Th"]), float(row["Th_D"])
        assert th == pytest.approx(1.0, abs=1e-7)
        assert fallback >= th / int(row["K"]) - 1e-7


def test_output_flag_writes_file(runner, example_path, tmp_path):
    out = tmp_path / "report.csv"
    result = runner.invoke(main, ["--output", str(out), "compare", example_path])
    assert result.exit_code == 0
    assert result.output == ""
    rows = list(csv.DictReader(out.open()))
    assert rows[0]["name"] == "centralized"


def test_unwritable_output_exits_2_with_one_line(runner, tmp_path):
    out = tmp_path / "missing" / "out.csv"
    result = runner.invoke(main, ["--output", str(out), "sweep", "tightness", "--K", "2..2"])
    assert result.exit_code == 2
    [line] = result.stderr.splitlines()
    assert line.startswith("error: [Errno 2] No such file or directory")
    assert isinstance(result.exception, SystemExit)  # no FileNotFoundError traceback


def test_verify_failure_prints_replayable_instance(runner, monkeypatch):
    # Force a failing slack so the failure path is exercised end to end.
    import sigmech.cli as cli_module

    monkeypatch.setattr(
        cli_module.bounds, "independence_guarantee", lambda k: 2.0
    )
    result = runner.invoke(
        main,
        ["verify", "independent-bound", "--K", "2..2", "--trials", "2", "--seed", "3"],
    )
    assert result.exit_code == 1
    assert "RESULT FAIL" in result.output
    assert "offending instance" in result.output
    blob = result.output.split("offending instance:\n", 1)[1].rsplit("RESULT", 1)[0]
    system = parse_instance(blob)
    assert format_instance(system) == blob.strip()


def test_solver_error_exits_4_with_one_line(runner, example_path, monkeypatch):
    from sigmech import centralized
    from sigmech.model import SolverError

    def failing_solve(*args, **kwargs):
        raise SolverError("simplex exceeded the iteration cap of 7 pivots")

    monkeypatch.setattr(centralized, "solve", failing_solve)
    result = runner.invoke(main, ["solve", example_path])
    assert result.exit_code == 4
    assert result.stderr.splitlines() == [
        "error: LP solver failed: simplex exceeded the iteration cap of 7 pivots"
    ]
    assert isinstance(result.exception, SystemExit)  # no SolverError traceback


def test_out_of_memory_exits_2_with_one_line(runner, monkeypatch):
    from sigmech import centralized

    def failing_lp(*args, **kwargs):
        raise MemoryError("Unable to allocate 2.26 GiB for an array with shape (272, 1114112)")

    monkeypatch.setattr(centralized, "obedience_lp", failing_lp)
    result = runner.invoke(main, ["sweep", "tightness", "--K", "3..3", "--X", "10"])
    assert result.exit_code == 2
    assert result.stderr.splitlines() == [
        "error: out of memory: Unable to allocate 2.26 GiB for an array with shape (272, 1114112)"
    ]
    assert isinstance(result.exception, SystemExit)  # no MemoryError traceback


def test_verify_independent_bound_k6_passes(runner):
    result = runner.invoke(
        main, ["--seed", "0", "verify", "independent-bound", "--K", "6..6", "--trials", "5"]
    )
    assert result.exit_code == 0
    assert "5/5 pass" in result.output
    assert result.output.endswith("RESULT PASS\n")


def test_verify_solver_error_exits_4_with_replayable_instance(runner, monkeypatch):
    from sigmech import centralized
    from sigmech.model import SolverError

    def failing_solve(*args, **kwargs):
        raise SolverError("simplex exceeded the iteration cap of 7 pivots")

    monkeypatch.setattr(centralized, "solve", failing_solve)
    result = runner.invoke(
        main, ["verify", "independent-bound", "--K", "2..2", "--trials", "1"]
    )
    assert result.exit_code == 4
    assert isinstance(result.exception, SystemExit)
    head, offending, blob = result.stderr.partition("\noffending instance:\n")
    assert head == "error: LP solver failed: simplex exceeded the iteration cap of 7 pivots"
    assert offending
    rng = np.random.default_rng([0, 1, 0])
    assert parse_instance(blob) == random_independent_system(rng, (2, 2), (2, 3))
