"""The paired-run verdict of tools/bench_pairs.py on fixed numbers."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
verdict = bench_pairs.verdict

PARENT = [7.0, 6.5, 7.2, 6.8, 7.1, 6.9, 7.4, 6.6, 7.0, 6.7]  # Q1 6.675, Q3 7.125


def test_quartiles_follow_statistics_quantiles():
    assert bench_pairs.quartiles(PARENT) == pytest.approx((6.675, 6.95, 7.125))
    assert bench_pairs.quartiles([3.0]) == (3.0, 3.0, 3.0)


def test_clear_gain_in_every_pair():
    change = [v - 1.5 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.25) == bench_pairs.GAIN
    # The same numbers read as a higher-is-better metric are a regression.
    assert verdict(PARENT, change, "higher", 0.1) == bench_pairs.REGRESSION


def test_nine_of_ten_pairs_is_enough_eight_is_not():
    change = [v - 1.5 for v in PARENT]
    change[0] = PARENT[0] + 0.1
    assert verdict(PARENT, change, "lower", 0.25) == bench_pairs.GAIN
    change[1] = PARENT[1]  # a tie counts for neither side
    assert bench_pairs.pairs_won(PARENT, change, "lower") == 8
    assert verdict(PARENT, change, "lower", 0.25) == bench_pairs.NO_REGRESSION


def test_median_gap_must_exceed_the_parent_iqr():
    # Better in every pair, but the medians differ by 0.4 < IQR 0.45.
    change = [v - 0.4 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.25) == bench_pairs.NO_REGRESSION
    change = [v - 0.5 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.25) == bench_pairs.GAIN


def test_a_gain_needs_at_least_ten_pairs():
    change = [v - 1.5 for v in PARENT]
    assert bench_pairs.PAIRS == 10
    assert verdict(PARENT[:1], change[:1], "lower", 0.25) == bench_pairs.NO_REGRESSION
    assert verdict(PARENT[:9], change[:9], "lower", 0.25) == bench_pairs.NO_REGRESSION
    # Two sets pooled are judged as one set of 20 pairs.
    assert verdict(PARENT * 2, change * 2, "lower", 0.25) == bench_pairs.GAIN


def test_more_failed_operations_void_a_gain():
    change = [v - 1.5 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.25, more_failures=True) == bench_pairs.NO_REGRESSION


def test_regression_beyond_the_bound():
    change = [v * 1.3 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.25) == bench_pairs.REGRESSION
    change = [v * 1.2 for v in PARENT]
    assert verdict(PARENT, change, "lower", 0.25) == bench_pairs.NO_REGRESSION


def test_spread_wider_than_the_bound_is_unresolved():
    # IQR 0.45 against an allowed 0.01 * 6.95: no conclusion either way.
    assert verdict(PARENT, list(PARENT), "lower", 0.01) == bench_pairs.UNRESOLVED
    # Unless every change run reads better than every parent run, even
    # where the medians differ by less than the parent's IQR (1.55 here).
    parent = [6.0, 6.1, 6.2, 6.3, 6.4, 7.5, 7.6, 7.7, 7.8, 7.9]
    change = [5.9 + 0.01 * i for i in range(10)]
    assert verdict(parent, change, "lower", 0.01) == bench_pairs.NO_REGRESSION
    change[-1] = 6.05
    assert verdict(parent, change, "lower", 0.01) == bench_pairs.UNRESOLVED


def test_equal_counts_are_no_regression():
    runs = [5120.0] * 10
    assert verdict(runs, list(runs), "higher", 0.01) == bench_pairs.NO_REGRESSION


def test_mismatched_runs_are_refused():
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT[:9], "lower", 0.25)
    with pytest.raises(ValueError):
        verdict(PARENT, PARENT, "faster", 0.25)


def _checkout(root: Path, bound: float) -> Path:
    (root / "perfbench" / "out").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 30, "bound": bound}))
    (root / "perfbench" / "run.py").write_text("print('run')\n")
    return root


def test_benchmark_files_skip_run_outputs(tmp_path):
    root = _checkout(tmp_path, 0.25)
    (root / "perfbench" / "out" / "run.json").write_text("{}")
    (root / "perfbench" / "__pycache__").mkdir()
    (root / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"\0")
    assert sorted(bench_pairs.benchmark_files(root)) == ["BENCHMARK.json", "perfbench/run.py"]


def test_checkouts_with_other_benchmark_files_are_refused(tmp_path, capsys):
    parent = _checkout(tmp_path / "parent", 0.25)
    change = _checkout(tmp_path / "change", 0.5)  # a loosened bound
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit):
        bench_pairs.main([str(parent), str(change), "--out", str(out)])
    assert "BENCHMARK.json" in capsys.readouterr().err
    (change / "BENCHMARK.json").write_bytes((parent / "BENCHMARK.json").read_bytes())
    (change / "perfbench" / "workloads.py").write_text("")
    with pytest.raises(SystemExit):
        bench_pairs.main([str(parent), str(change), "--out", str(out)])
    assert "perfbench/workloads.py" in capsys.readouterr().err
    assert not out.exists()
