"""Tests of the benchmark harness itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

import run
import tracing

run._import_sigmech()

import workloads as wl  # noqa: E402
from sigmech import centralized, decentralized, lp, model  # noqa: E402


def test_tail_is_the_highest_rank_with_ten_samples_beyond():
    for count in (11, 24, 162, 400):
        index = wl.tail_index(count)
        assert count - 1 - index == 10
    assert wl.tail_percentile(24) == pytest.approx(100 * 14 / 24)
    assert wl.tail_percentile(400) == pytest.approx(97.5)


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.spans = [
        tracing.Span(0, None, "outer", 0.0, 10.0),
        tracing.Span(1, 0, "inner", 1.0, 4.0),
        tracing.Span(2, 1, "leaf", 2.0, 3.0),
        tracing.Span(3, 0, "inner", 5.0, 6.0),
    ]
    assert tracer.self_times() == pytest.approx({"outer": 6.0, "inner": 3.0, "leaf": 1.0})


def test_install_wraps_and_restore_puts_originals_back():
    fake = types.ModuleType("fake")
    fake.double = lambda x: 2 * x
    original = fake.double
    tracer = tracing.Tracer()
    tracer.install([tracing.Target(fake, "double", "fake.double",
                                   counter=lambda a, k, r: {"items": a[0]}),
                    tracing.Target(fake, "missing", "fake.missing")])
    assert fake.double is not original and not hasattr(fake, "missing")
    assert fake.double(3) == 6 and not tracer.spans  # disabled: plain pass-through
    tracer.enabled = True
    assert fake.double(4) == 8
    tracer.restore()
    assert fake.double is original
    assert tracer.counts["fake.double.calls"] == 1
    assert tracer.counts["fake.double.items"] == 4
    assert [s.name for s in tracer.spans] == ["fake.double", tracing.COUNT_SPAN]


def test_call_sites_of_lp_solve_are_told_apart():
    system = wl.large_lp(0)[2].system  # tightness K=3, X=10
    validate = model.require_valid
    tracer = tracing.Tracer()
    tracer.install(run._layer_targets())
    try:
        assert centralized.solve is not lp.solve and decentralized.solve is not lp.solve
        assert centralized.require_valid is not validate
        tracer.enabled = True
        out = wl.op_independent(wl.fresh(system), None)
    finally:
        tracer.enabled = False
        tracer.restore()
    assert centralized.solve is lp.solve and decentralized.solve is lp.solve
    assert centralized.require_valid is validate and model.require_valid is validate
    assert tracer.counts["lp.solve.central.calls"] == 1
    assert tracer.counts["lp.solve.isolated.calls"] == system.num_locations
    assert tracer.counts["centralized.build_centralized_lp.vars"] == out["lp_vars"]
    assert tracer.maxima["lp.solve.central.max_violation"] < 1e-7
    assert tracer.self_times()["lp.solve.central"] > 0.0


@pytest.fixture(scope="module")
def sample():
    """One instance of each kind, with the outputs of its operation."""
    picked = {}
    for inst in wl.verify_mix(0) + wl.large_lp(0)[:8] + wl.large_lp(0)[-2:]:
        picked.setdefault(inst.kind, inst)
    decentral = [i for i in wl.decentral_oracle(0) if i.kind == "decentral"]
    picked["decentral"] = min(decentral, key=lambda i: i.system.state_count)
    picked["grid-joint"] = next(i for i in wl.decentral_oracle(0) if i.kind == "grid-joint")
    picked["grid-independent"] = wl.decentral_oracle(0)[-1]
    assert set(picked) == set(wl.OPERATIONS)
    return [(inst, wl.OPERATIONS[inst.kind](wl.fresh(inst.system), inst))
            for inst in picked.values()]


PERTURB = {
    "independent": ("th_d", -1e-6),
    "tightness": ("th", -2e-7),
    "joint": ("fallback", -1.0),
    "correlated": ("th", 2e-7),
    "weighted": ("value", 1e-8),
    "decentral": ("th_d", 1e-8),
    "grid-joint": ("grid", 1.0),
    "grid-independent": ("grid", 1.0),
}


def test_outputs_pass_and_perturbed_outputs_fail(sample):
    for inst, out in sample:
        assert wl.check(inst, out) == [], inst.name
        key, delta = PERTURB[inst.kind]
        assert wl.check(inst, dict(out, **{key: out[key] + delta})), inst.name
        assert wl.check(inst, dict(out, **{key: float("nan")})), inst.name


def test_known_failures_are_kept_out_of_the_timed_ladder():
    timed = wl.large_lp(0)
    everything = wl.large_lp(0, with_known_failures=True)
    assert len(timed) == 24 and len(everything) == 26
    assert [i.name for i in everything if i.known_failure] == [
        "tightness K=10 X=1000", "stall random_independent_system([0,1,0], K=6)"]


def test_budget_interrupts_and_disarms():
    budget = run.Budget(0.05)
    start = time.perf_counter()
    with pytest.raises(tracing.BudgetExceeded):
        with budget:
            while True:
                pass
    assert time.perf_counter() - start < 1.0
    with budget:
        pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_same_seed_same_inputs_and_shapes_fixed_across_seeds():
    a, b, c = wl.verify_mix(3), wl.verify_mix(3), wl.verify_mix(4)
    assert [i.system for i in a] == [i.system for i in b]
    assert [i.system.state_sizes for i in a] == [i.system.state_sizes for i in c]
    assert [i.system for i in a] != [i.system for i in c]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "large-lp", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
