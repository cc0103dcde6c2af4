"""Golden stdout: the sweeps, the four verify suites at their defaults and
the example instance's solve and compare print exactly the bytes recorded
under ``tests/golden/``.

Each golden file is the stdout of ``sigmech <args>`` with the example
instance (the critical two-location tightness instance, X = 3) written to
``critical.json``.  A change that moves any printed digit fails here.
The verify suites' bytes are the same with one BLAS thread and with
OpenBLAS's default thread count.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from sigmech.bounds import make_tightness_instance
from sigmech.cli import main
from sigmech.instances import write_instance

GOLDEN = Path(__file__).resolve().parent / "golden"
INSTANCE = "critical.json"

CASES = [
    ("sweep_tightness", ["sweep", "tightness", "--K", "2..8", "--X", "10,1000"]),
    ("sweep_correlated", ["sweep", "correlated", "--K", "2..8"]),
    *[
        (f"solve_{mode}", ["solve", INSTANCE, "--mode", mode])
        for mode in ("centralized", "decentralized", "heterogeneous", "full-info", "no-info")
    ],
    ("compare", ["compare", INSTANCE]),
    *[
        (f"verify_{suite}", ["verify", suite])
        for suite in ("independent-bound", "tightness", "correlated-bound", "lemmas")
    ],
]


@pytest.mark.parametrize("name, args", CASES, ids=[name for name, _ in CASES])
def test_stdout_matches_golden(name, args, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_instance(make_tightness_instance(2, 3.0).system, INSTANCE)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.stderr
    assert result.stdout_bytes == (GOLDEN / f"{name}.txt").read_bytes()
