"""Acceptance suite: every documented guarantee at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

import functools
import math

import numpy as np
import pytest
from click.testing import CliRunner

from sigmech.bounds import (
    correlated_upper_bound,
    independence_guarantee,
    make_tightness_instance,
    max_join_bound,
    solve_balanced_share,
    union_guarantee_gap,
)
from sigmech.centralized import solve_centralized
from sigmech.cli import main
from sigmech.decentralized import (
    check_obedience,
    compose_optimal,
    correlated_fallback,
    heterogeneous_compose,
)
from sigmech.instances import random_independent_system, random_joint_system
from sigmech.model import CustomerStrategy, binary_mechanism
from sigmech.oracle import (
    best_response,
    evaluate,
    full_information,
    grid_search_decentralized,
    no_information,
)

SEED = 20240817


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:2d} [FAIL] {description}")
                raise
            print(f"criterion {number:2d} [PASS] {description}")

        return run

    return decorate


@criterion(1, "centralized LP matches best-response evaluation and baselines")
def test_criterion_1_centralized_lp_correctness():
    for t in range(200):
        rng = np.random.default_rng([SEED, 1, t])
        system = random_independent_system(rng, (1, 4), (2, 3))
        mech, report = solve_centralized(system)
        replay = evaluate(system, mech, best_response(system, mech))
        assert abs(replay.throughput - report.throughput) <= 1e-7
        for baseline in (full_information(system), no_information(system)):
            base = evaluate(system, baseline, best_response(system, baseline))
            assert report.throughput >= base.throughput - 1e-7


@criterion(2, "no grid mechanism beats the isolated composition")
def test_criterion_2_composition_optimality():
    for t in range(50):
        rng = np.random.default_rng([SEED, 2, t])
        system = random_independent_system(rng, 2, 2)
        _, _, report = compose_optimal(system)
        _, found = grid_search_decentralized(system, 0.02)
        assert found <= report.throughput + 1e-9


@criterion(3, "independence guarantee holds on 500 random instances")
def test_criterion_3_independence_guarantee():
    assert abs(independence_guarantee(2) - 0.75) <= 1e-12
    assert abs(independence_guarantee(3) - 19.0 / 27.0) <= 1e-12
    for t in range(500):
        rng = np.random.default_rng([SEED, 3, t])
        system = random_independent_system(rng, (1, 5), (2, 3))
        _, central = solve_centralized(system)
        _, _, dec = compose_optimal(system)
        bound = independence_guarantee(system.num_locations) * central.throughput
        assert dec.throughput >= bound - 1e-7


@criterion(4, "tight instances reach throughput 1 and the closed form")
def test_criterion_4_tightness():
    for k in (2, 3, 4):
        for x in (10.0, 100.0, 1000.0):
            inst = make_tightness_instance(k, x)
            _, central = solve_centralized(inst.system)
            assert abs(central.throughput - 1.0) <= 1e-7
            _, _, dec = compose_optimal(inst.system)
            assert abs(dec.throughput - inst.predicted_decentralized) <= 1e-6
        inst = make_tightness_instance(k, 1e4)
        _, central = solve_centralized(inst.system)
        _, _, dec = compose_optimal(inst.system)
        ratio = dec.throughput / central.throughput
        assert ratio >= independence_guarantee(k) - 1e-7
        assert ratio - independence_guarantee(k) < 5e-4


@criterion(5, "critical-prior example: (1, 0.784610, 0.25, 0)")
def test_criterion_5_reference_example():
    inst = make_tightness_instance(2, 3.0)
    system = inst.system
    _, central = solve_centralized(system)
    assert abs(central.throughput - 1.0) <= 1e-7
    _, _, dec = compose_optimal(system)
    assert dec.throughput == pytest.approx(0.7846097, abs=1e-6)
    full = full_information(system)
    full_report = evaluate(system, full, best_response(system, full))
    assert abs(full_report.throughput - 0.25) <= 1e-7
    none = no_information(system)
    none_report = evaluate(system, none, best_response(system, none))
    assert abs(none_report.throughput - 0.0) <= 1e-7


@criterion(6, "payoff-weighted composition keeps the guarantee")
def test_criterion_6_weighted_guarantee():
    for t in range(200):
        rng = np.random.default_rng([SEED, 6, t])
        system = random_independent_system(
            rng, (1, 4), (2, 3), require_negative_mean=True, payoff_range=(0.0, 3.0)
        )
        mech, strategy, value = heterogeneous_compose(system)
        report = evaluate(system, mech, strategy)
        assert abs(value - report.value) <= 1e-9
        _, central = solve_centralized(system, weighted=True)
        bound = independence_guarantee(system.num_locations) * central.value
        assert value >= bound - 1e-7


@criterion(7, "fallback achieves 1/K of centralized on joint priors")
def test_criterion_7_fallback_guarantee():
    for t in range(100):
        rng = np.random.default_rng([SEED, 7, t])
        k = int(rng.integers(2, 5))
        system = random_joint_system(rng, k, 2)
        central_mech, central = solve_centralized(system)
        fallback = correlated_fallback(system, central_mech)
        report = evaluate(system, fallback, best_response(system, fallback))
        assert report.throughput >= central.throughput / k - 1e-7


@criterion(8, "correlated worst-case constants and envelope grid")
def test_criterion_8_correlated_constants():
    assert abs(solve_balanced_share(2) - 0.5) <= 1e-12
    assert abs(correlated_upper_bound(2) - 2.0 / 3.0) <= 1e-9
    assert abs(correlated_upper_bound(10) - 0.26) <= 1.5e-2
    assert abs(correlated_upper_bound(100) - 0.05) <= 1.5e-2
    for k in (2, 3):
        _, full = max_join_bound(k, 0.01)
        assert abs(full - k * solve_balanced_share(k)) <= k * 0.01


@criterion(9, "product formula, union gap, and obedience characterization")
def test_criterion_9_supporting_identities():
    for t in range(500):
        rng = np.random.default_rng([SEED, 91, t])
        system = random_independent_system(rng, (1, 4), (2, 3))
        probs = [rng.uniform(0.0, 1.0, loc.num_states) for loc in system.locations]
        mech = binary_mechanism(probs)
        labels = mech.joint_signals
        rows = np.zeros((len(labels), system.num_locations + 1))
        for row, u in enumerate(labels):
            ones = [k for k, bit in enumerate(u) if bit == 1]
            if ones:
                rows[row, int(rng.choice(ones)) + 1] = 1.0
            else:
                rows[row, 0] = 1.0
        strategy = CustomerStrategy(labels, rows, class_fd=True)
        report = evaluate(system, mech, strategy)
        closed = 1.0
        for loc, p in zip(system.locations, probs):
            closed *= 1.0 - float(np.dot(loc.prior_array(), p))
        assert abs(report.throughput - (1.0 - closed)) <= 1e-9

    rng = np.random.default_rng([SEED, 92])
    for _ in range(10_000):
        k = int(rng.integers(1, 7))
        raw = rng.uniform(0.0, 1.0, k)
        shares = raw / raw.sum() * rng.uniform(0.0, 1.0)
        assert union_guarantee_gap(tuple(shares)) >= -1e-12

    from test_decentralized import _fd_strategy_exists

    for t in range(200):
        rng = np.random.default_rng([SEED, 93, t])
        system = random_independent_system(rng, 2, (2, 3))
        probs = [rng.uniform(0.0, 1.0, loc.num_states) for loc in system.locations]
        mech = binary_mechanism(probs)
        assert check_obedience(system, mech).holds == _fd_strategy_exists(system, mech)


@criterion(10, "verification command is byte-reproducible under a fixed seed")
def test_criterion_10_verify_determinism():
    runner = CliRunner()
    for args in (
        ["--seed", "7", "verify", "lemmas", "--trials", "200"],
        ["--seed", "7", "verify", "independent-bound", "--K", "2..4", "--trials", "25"],
    ):
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.exit_code == 0
        assert first.stdout_bytes == second.stdout_bytes
