"""Centralized LP construction and solution tests."""

import dataclasses
import itertools
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sigmech.bounds import make_correlated_instance, make_tightness_instance
import sigmech
from sigmech.centralized import (
    build_centralized_lp,
    lp_orbits,
    obedient_strategy,
    orbit_lp,
    priority_start,
    solve_centralized,
    uninformative_start,
)
from sigmech.decentralized import compose_optimal
from sigmech.instances import random_independent_system, random_joint_system
from sigmech.lp import FEAS_TOL, solve, violation_at
from sigmech.model import LocationModel, SystemModel, state_indices
from sigmech.oracle import best_response, evaluate, full_information, no_information


def single_location(p=0.2):
    return SystemModel(
        (LocationModel("a", ("bad", "good"), (1.0 - p, p), (-1.0, 1.0)),)
    )


def _constraint_counts(lp, num_actions):
    """Matrix rows on the join columns and on the leave columns (the leave
    rows, written negated as ``>=`` rows), and the number of groups."""
    on_leave = np.abs(lp.matrix[:, ::num_actions]).sum(axis=1) > 0.0
    return {"join": int((~on_leave).sum()), "leave": int(on_leave.sum()), "groups": lp.num_groups}


def test_lp_dimensions_single_location():
    lp = build_centralized_lp(single_location())
    assert lp.n_vars == 4  # 2 states x 2 actions
    kinds = _constraint_counts(lp, 2)
    assert kinds["join"] == 1  # the join row; K = 1 has no deviation rows
    assert kinds["leave"] == 1
    assert kinds["groups"] == 2  # one row sum per state


def test_lp_dimensions_two_binary_locations():
    lp = build_centralized_lp(make_tightness_instance(2, 3.0).system)
    assert lp.n_vars == 12  # 4 states x 3 actions
    kinds = _constraint_counts(lp, 3)
    assert kinds["join"] == 2 + 2  # K*(K-1) deviation rows + K join rows
    assert kinds["leave"] == 2
    assert kinds["groups"] == 4


def test_no_constraint_row_is_all_zero():
    for kind, seed in itertools.product(("independent", "joint", "weighted"), range(5)):
        system = _random_system(seed, kind)
        lp = build_centralized_lp(system, kind == "weighted")
        k = system.num_locations
        assert lp.n_constraints == k * (k - 1) + 2 * k
        assert lp.num_groups == system.state_count
        assert np.bincount(lp.groups).min() > 0  # no empty row sum
        assert np.abs(lp.matrix).sum(axis=1).min() > 0.0


def test_lp_dimensions_correlated_pair():
    lp = build_centralized_lp(make_correlated_instance(2, 10.0))
    assert lp.n_vars == 27  # 9 states x 3 actions


def test_single_location_throughput():
    mech, report = solve_centralized(single_location())
    assert report.throughput == pytest.approx(0.4, abs=1e-9)
    # good state always recommended, bad state a quarter of the time
    table = mech.table.reshape(2, 2)
    assert table[1, 1] == pytest.approx(1.0, abs=1e-9)
    assert table[0, 1] == pytest.approx(0.25, abs=1e-9)


def test_critical_prior_reaches_full_throughput():
    inst = make_tightness_instance(2, 3.0)
    _, report = solve_centralized(inst.system)
    assert report.throughput == pytest.approx(1.0, abs=1e-7)


def test_all_nonnegative_utilities_join_always():
    system = SystemModel(
        (LocationModel("a", ("s0", "s1"), (0.5, 0.5), (0.5, 2.0)),)
    )
    _, report = solve_centralized(system)
    assert report.throughput == pytest.approx(1.0, abs=1e-9)


def test_weighted_objective_uses_payoffs():
    locs = (
        LocationModel("a", ("bad", "good"), (0.8, 0.2), (-1.0, 1.0), payoff=2.0),
        LocationModel("b", ("bad", "good"), (0.8, 0.2), (-1.0, 1.0), payoff=1.0),
    )
    system = SystemModel(locs)
    _, weighted = solve_centralized(system, weighted=True)
    _, unweighted = solve_centralized(system)
    assert weighted.value >= unweighted.value - 1e-9
    assert weighted.value >= weighted.throughput - 1e-9


def test_weighted_mode_allows_nonpositive_payoffs():
    locs = (
        LocationModel("good", ("bad", "good"), (0.8, 0.2), (-1.0, 1.0), payoff=1.0),
        LocationModel("toxic", ("bad", "good"), (0.8, 0.2), (-1.0, 1.0), payoff=-1.0),
    )
    system = SystemModel(locs)
    _, report = solve_centralized(system, weighted=True)
    assert report.value >= 0.4 - 1e-7  # at least the single-location optimum
    assert report.per_location_throughput[1] <= 1e-7  # never pays to send there


def test_obedience_feasibility_of_returned_mechanism():
    rng = np.random.default_rng(21)
    for _ in range(25):
        system = random_independent_system(rng, (1, 3), (2, 3))
        mech, report = solve_centralized(system)
        assert report.worst_slack >= -1e-7
        assert report.strategy_optimal
        mu = system.joint_vector
        util = system.utility_matrix
        k = system.num_locations
        for a in range(1, k + 1):
            mass = mu * mech.table[:, a]
            own = float(mass @ util[:, a - 1])
            assert own >= -1e-7
            for other in range(k):
                assert own >= float(mass @ util[:, other]) - 1e-7
            leave_mass = mu * mech.table[:, 0]
            assert float(leave_mass @ util[:, a - 1]) <= 1e-7


def test_reported_throughput_matches_reevaluation_and_baselines():
    rng = np.random.default_rng(22)
    for _ in range(25):
        system = random_independent_system(rng, (1, 3), (2, 3))
        mech, report = solve_centralized(system)
        again = evaluate(system, mech, obedient_strategy(system.num_locations))
        assert abs(report.throughput - again.throughput) <= 1e-12
        for baseline in (full_information(system), no_information(system)):
            base = evaluate(system, baseline, best_response(system, baseline))
            assert report.throughput >= base.throughput - 1e-7


def test_utility_scaling_leaves_throughput_unchanged():
    rng = np.random.default_rng(23)
    for _ in range(10):
        system = random_independent_system(rng, (1, 3), (2, 3))
        scale = float(rng.uniform(0.1, 50.0))
        scaled = SystemModel(
            tuple(
                LocationModel(
                    loc.name,
                    loc.states,
                    loc.prior,
                    tuple(scale * h for h in loc.utility),
                    loc.payoff,
                )
                for loc in system.locations
            )
        )
        _, base = solve_centralized(system)
        _, other = solve_centralized(scaled)
        assert abs(base.throughput - other.throughput) <= 1e-7


def test_centralized_dominates_decentralized_on_independent_instances():
    rng = np.random.default_rng(24)
    for _ in range(15):
        system = random_independent_system(rng, (1, 4), (2, 3))
        _, central = solve_centralized(system)
        _, _, dec = compose_optimal(system)
        assert central.throughput >= dec.throughput - 1e-7


def test_lp_optimum_matches_vertex_enumeration_on_tiny_systems():
    from test_lp import enumerate_vertices

    rng = np.random.default_rng(25)
    for _ in range(15):
        system = random_independent_system(rng, 1, (2, 3))
        lp = build_centralized_lp(system)
        oracle_value, _ = enumerate_vertices(lp)
        _, report = solve_centralized(system)
        assert oracle_value is not None
        assert abs(report.throughput - oracle_value) <= 1e-7


def _random_system(seed: int, kind: str) -> SystemModel:
    rng = np.random.default_rng(seed)
    if kind == "joint":
        return random_joint_system(rng, int(rng.integers(1, 4)), 2)
    if kind == "weighted":
        return random_independent_system(
            rng, (1, 3), (2, 3), require_negative_mean=True, payoff_range=(-1.0, 3.0)
        )
    return random_independent_system(rng, (1, 3), (2, 3))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["independent", "joint", "weighted"]),
    weighted=st.booleans(),
)
def test_warm_start_matches_two_phase_solve(seed, kind, weighted):
    """The warm-started solve equals HiGHS on the same LP, a solver sharing no code with it."""
    system = _random_system(seed, kind)
    lp = build_centralized_lp(system, weighted)
    start = np.zeros(lp.n_vars)
    start[uninformative_start(system.joint_vector, system.utility_matrix)] = 1.0
    assert violation_at(lp, start) <= 1e-12
    reference = _highs_optimum(lp)
    _, report = solve_centralized(system, weighted)
    value = report.value if weighted else report.throughput
    assert abs(value - reference) <= 1e-9


def _highs_optimum(lp) -> float:
    """The LP's optimum by HiGHS, a solver sharing no code with ``lp.solve``."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    groups = np.arange(lp.num_groups)[:, None] == lp.groups  # one row sum per group
    reference = linprog(
        -lp.objective,
        A_ub=-lp.matrix,  # written as <= rows for linprog
        b_ub=-lp.rhs,
        A_eq=groups.astype(float),
        b_eq=np.ones(lp.num_groups),
        method="highs",
        # HiGHS's default 1e-7 tolerances would skip state masses below them.
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    assert reference.status == 0
    return -reference.fun


def _start_system(seed: int, kind: str) -> SystemModel:
    """Random system for the start tests.  Independent or joint priors get
    payoffs from [-1, 3] and, in four of five draws, utilities shifted so
    that no prior mean is positive, where the payoff-priority start
    applies; identical locations come from :func:`_symmetric_system`."""
    if kind == "identical":
        return _symmetric_system(seed, joint=seed % 2 == 1, payoffs=True)[0]
    rng = np.random.default_rng(seed)
    if kind == "joint":
        system = random_joint_system(rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
    else:
        system = random_independent_system(rng, (1, 3), (2, 3))
    nonpositive = rng.random() < 0.8
    locations = []
    for loc in system.locations:
        shift = max(0.0, loc.expected_utility()) + rng.uniform(0.0, 0.2) if nonpositive else 0.0
        locations.append(
            dataclasses.replace(
                loc,
                utility=tuple(h - shift for h in loc.utility),
                payoff=float(rng.uniform(-1.0, 3.0)),
            )
        )
    return SystemModel(tuple(locations), system.joint)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["independent", "joint", "identical"]),
    weighted=st.booleans(),
)
# Identical locations with a positive prior mean: the start by class is
# infeasible for the full LP (violation 0.0265 at seed 451), while its
# spread over orbits and the class-free start are feasible.
@example(seed=451, kind="identical", weighted=False)
@example(seed=1313, kind="identical", weighted=True)
@example(seed=1337, kind="identical", weighted=False)
def test_priority_start_is_feasible_and_no_worse_than_uninformative(seed, kind, weighted):
    system = _start_system(seed, kind)
    lp = build_centralized_lp(system, weighted)
    mu, util, classes = system.joint_vector, system.utility_matrix, system.location_classes
    weights = np.asarray(system.payoffs) if weighted else None
    start = priority_start(mu, util, weights, classes)
    point = np.zeros(lp.n_vars)
    point[start] = 1.0
    if (mu @ util).max() <= 0.0:
        assert violation_at(lp, point) <= FEAS_TOL
    # The full LP starts from the class-free start.
    full_start = np.zeros(lp.n_vars)
    full_start[priority_start(mu, util, weights)] = 1.0
    assert violation_at(lp, full_start) <= FEAS_TOL
    leave = np.zeros(lp.n_vars)
    leave[uninformative_start(mu, util, classes)] = 1.0
    assert lp.objective @ point >= lp.objective @ leave

    # The orbit LP starts from the spread of the start's choices.
    orbits = lp_orbits(system)
    reduced = orbit_lp(lp, orbits)
    spread = np.zeros(reduced.n_vars)
    spread[orbits.columns[start[orbits.states]]] = 1.0
    assert violation_at(reduced, spread) <= FEAS_TOL

    reference = _highs_optimum(lp)
    full = solve(lp, priority_start(mu, util, weights)).objective_value
    _, report = solve_centralized(system, weighted)
    assert abs(full - reference) <= 1e-9
    assert abs((report.value if weighted else report.throughput) - reference) <= 1e-9


def test_priority_start_falls_back_to_equal_weights_under_a_joint_prior():
    # Location a pays 2 and b pays 1; both prior means are negative.  Payoff
    # priority recommends a wherever a is worth joining, but on a's good
    # state b is usually better still: the deviation row from a to b sums
    # to 0.1 (0.5 + 1) + 0.1 (0.5 - 3) = -0.1.
    locations = (
        LocationModel("a", ("bad", "good"), (0.8, 0.2), (-1.0, 0.5), payoff=2.0),
        LocationModel("b", ("bad", "good"), (0.8, 0.2), (-1.0, 3.0), payoff=1.0),
    )
    system = SystemModel(locations, (0.7, 0.1, 0.1, 0.1))  # states (a, b): 00, 10, 01, 11
    lp = build_centralized_lp(system, weighted=True)
    by_payoff = np.zeros(lp.n_vars)
    by_payoff[[0, 3 + 1, 6 + 2, 9 + 1]] = 1.0  # leave, a, b, a
    assert violation_at(lp, by_payoff) == pytest.approx(0.1)

    mu, util = system.joint_vector, system.utility_matrix
    basis = priority_start(mu, util, np.asarray(system.payoffs))
    assert basis.tolist() == [0, 3 + 1, 6 + 2, 9 + 2]  # full information: b on 11
    assert basis.tolist() == priority_start(mu, util).tolist()
    value = solve(lp, basis).objective_value
    leave = solve(lp, uninformative_start(mu, util)).objective_value
    assert value == pytest.approx(leave, abs=1e-12)
    _, report = solve_centralized(system, weighted=True)
    assert abs(report.value - value) <= 1e-12


def test_uninformative_basis_recommends_the_best_positive_mean():
    sunny = LocationModel("sunny", ("bad", "good"), (0.2, 0.8), (-1.0, 1.0))
    sunnier = LocationModel("sunnier", ("bad", "good"), (0.1, 0.9), (-1.0, 1.0))
    gloomy = LocationModel("gloomy", ("bad", "good"), (0.8, 0.2), (-1.0, 1.0))
    for system, best in ((SystemModel((sunny, sunnier)), 2), (SystemModel((gloomy, gloomy)), 0)):
        basis = uninformative_start(system.joint_vector, system.utility_matrix)
        assert basis.tolist() == [3 * w + best for w in range(4)]


def test_former_k6_stall_instance_solves_to_decentralized_optimum():
    system = random_independent_system(np.random.default_rng([0, 1, 0]), (6, 6), (2, 3))
    assert system.state_sizes == (3, 3, 3, 2, 2, 3)
    _, central = solve_centralized(system)
    _, _, dec = compose_optimal(system)
    assert central.throughput == pytest.approx(1.0, abs=1e-9)
    assert abs(central.throughput - dec.throughput) <= 1e-7


def _full_lp_optimum(system: SystemModel) -> float:
    """The optimum of the full obedience LP, solved without the orbit reduction."""
    start = uninformative_start(system.joint_vector, system.utility_matrix)
    return solve(build_centralized_lp(system), start).objective_value


def test_correlated_k7_solves_to_full_throughput():
    # A ratio test that let a row above the minimum ratio leave the basis
    # drove a basic value to -0.00114 on this instance.
    assert abs(_full_lp_optimum(make_correlated_instance(7, 1000.0)) - 1.0) <= 1e-9


def test_correlated_k8_solves_to_full_throughput():
    # 6561 states and 59049 variables.  A tableau holding the group rows
    # would need about 3 GB for it; the groups' key columns keep it at 73
    # rows.  Other penalties end on a solver error in the full LP at K=8;
    # solve_centralized solves them over orbits.
    assert abs(_full_lp_optimum(make_correlated_instance(8, 1000.0)) - 1.0) <= 1e-9


def test_correlated_penalties_where_the_full_lp_fails_solve_over_orbits():
    # On this grid the full LP ends on an infeasible basis or more than
    # 1e-9 short of 1 at 3 penalties for K=5, 10 for K=7 and 5 for K=8.
    # Sweep solves K=8 (cli.LP_SIZE_CAP) at any penalty above 8.
    grid = np.logspace(1, 7, 25)  # 25 penalties spaced evenly in log, 10 to 1e7
    for k, penalty in itertools.product((5, 7, 8), grid):
        _, report = solve_centralized(make_correlated_instance(k, penalty))
        assert abs(report.throughput - 1.0) <= 1e-9, (k, penalty)


def test_orbit_cells_that_drifted_from_the_leave_start_reach_full_throughput():
    # From "leave everywhere" these ended 1.6e-9 to 2.2e-9 short of 1: the
    # basic values read off the tableau drift on bases with condition
    # numbers up to 2e14.  The payoff-priority start avoids those bases.
    grid = np.logspace(1, 7, 25)
    for k, penalty in ((4, grid[23]), (4, grid[24]), (6, grid[21])):  # 5.6e6, 1e7, 1.78e6
        _, report = solve_centralized(make_correlated_instance(k, float(penalty)))
        assert abs(report.throughput - 1.0) <= 1e-9, (k, penalty)


def _dirichlet_system(rng: np.random.Generator, num_locations: int) -> SystemModel:
    """Independent 3-state locations with Dirichlet(1, 1, 1) priors and
    utilities N(0, 1) - 1, drawn location by location."""
    locations = []
    for k in range(num_locations):
        prior = rng.dirichlet(np.ones(3))
        utility = rng.normal(size=3) - 1.0
        locations.append(
            LocationModel(f"loc{k + 1}", ("s0", "s1", "s2"), tuple(prior), tuple(utility))
        )
    return SystemModel(tuple(locations))


def test_random_three_state_k8_full_lp_solves_from_the_priority_start():
    # 6561 states, 59049 variables.  From "leave everywhere" a row pivot of
    # 1.2e-9 wrecks the tableau after about 1000 pivots; from the priority
    # start it takes about 1000 pivots and 1 s.
    system = _dirichlet_system(np.random.default_rng([0, 8]), 8)
    assert max(loc.expected_utility() for loc in system.locations) < 0.0
    start = priority_start(system.joint_vector, system.utility_matrix)
    value = solve(build_centralized_lp(system), start).objective_value
    assert abs(value - 1.0) <= 1e-9


def test_orbit_lp_equals_the_full_lp_on_generator_instances():
    for k in range(2, 7):
        systems = [make_tightness_instance(k, x).system for x in (10.0, 1000.0)]
        systems += [make_correlated_instance(k, x) for x in (k + 1.0, 1000.0)]
        for system in systems:
            _, report = solve_centralized(system)
            assert abs(report.throughput - _full_lp_optimum(system)) <= 1e-9


def test_identical_locations_give_three_rows_and_one_column_per_orbit():
    system = make_tightness_instance(9, 10.0).system
    orbits = lp_orbits(system)
    reduced = orbit_lp(build_centralized_lp(system), orbits)
    # Good-location counts 0..9: leave at each, one recommendation at the
    # counts 0 and 9, and a good and a bad one at the 8 counts between.
    assert reduced.num_groups == 10
    assert reduced.n_vars == 10 + 2 + 2 * 8
    assert orbits.rows.tolist() == [0, 72, 81]  # deviation (1, 2), join 1, leave 1
    assert np.bincount(orbits.columns).sum() == system.state_count * 10


def test_tightness_k10_large_scale_reaches_full_throughput():
    inst = make_tightness_instance(10, 1000.0)
    _, report = solve_centralized(inst.system)
    assert abs(report.throughput - 1.0) <= 1e-7


def test_solving_does_not_import_scipy():
    src = Path(sigmech.__file__).resolve().parent.parent
    code = (
        "import sys, sigmech\n"
        "from sigmech.bounds import make_tightness_instance\n"
        "from sigmech.centralized import solve_centralized\n"
        "solve_centralized(make_tightness_instance(3, 10.0).system)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=src,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.strip() == "[]"


def _rows_by_loop(system, weighted):
    """The obedience LP built one row and one coefficient at a time, groups by state."""
    k_count, s_count = system.num_locations, system.state_count
    mu, util = system.joint_vector, system.utility_matrix
    n = s_count * (k_count + 1)
    objective = np.zeros(n)
    rows, rhs = [], []

    def row_with(action, values):
        row = np.zeros(n)
        for w in range(s_count):
            row[w * (k_count + 1) + action] = values[w]
        return row

    for k in range(k_count):
        weight = system.payoffs[k] if weighted else 1.0
        for w in range(s_count):
            objective[w * (k_count + 1) + k + 1] = mu[w] * weight
    for k in range(k_count):
        for other in range(k_count):
            if other == k:
                continue
            rows.append(row_with(k + 1, mu * (util[:, k] - util[:, other])))
            rhs.append(0.0)
    for k in range(k_count):
        rows.append(row_with(k + 1, mu * util[:, k]))
        rhs.append(0.0)
    for k in range(k_count):
        rows.append(row_with(0, -(mu * util[:, k])))  # leaving beats joining k
        rhs.append(0.0)
    groups = np.zeros(n, dtype=int)
    for w in range(s_count):
        groups[w * (k_count + 1) : (w + 1) * (k_count + 1)] = w
    return objective, np.array(rows), rhs, groups


@pytest.mark.parametrize("kind", ["independent", "joint", "weighted"])
def test_index_arithmetic_build_equals_row_by_row_build(kind):
    for seed in range(5):
        system = _random_system(seed, kind)
        weighted = kind == "weighted"
        lp = build_centralized_lp(system, weighted)
        objective, matrix, rhs, groups = _rows_by_loop(system, weighted)
        assert np.array_equal(lp.objective, objective)
        assert np.array_equal(lp.matrix, matrix)
        assert lp.rhs.tolist() == rhs
        assert np.array_equal(lp.groups, groups)


def _symmetric_system(seed: int, joint: bool, payoffs: bool) -> tuple[SystemModel, list]:
    """Random system whose locations form classes of 1-3 identical ones, at
    least one class of 2-3, shuffled; with ``joint`` its prior is an explicit
    table that is exactly constant on orbits of states and zero on some of
    them.  Returns the system and its expected classes.

    Prior weights are drawn from [0.2, 1] and utilities on a 0.01 grid:
    HiGHS drops constraint coefficients below 1e-9, and state masses near
    that made it report optima up to 5e-6 above the true one."""
    rng = np.random.default_rng(seed)
    sizes = [int(rng.integers(2, 4))]
    while sum(sizes) < 5 and rng.random() < 0.6:
        sizes.append(int(rng.integers(1, 6 - sum(sizes))))
    order = rng.permutation(sum(sizes))
    owner = np.repeat(np.arange(len(sizes)), sizes)[order]  # class of each location
    kinds = []
    for _ in sizes:
        n = int(rng.integers(2, 4))
        utility = rng.integers(-200, 201, n) / 100.0
        utility[int(rng.integers(n))] = rng.integers(0, 201) / 100.0
        raw = rng.uniform(0.2, 1.0, n)
        payoff = float(rng.uniform(0.5, 2.0)) if payoffs else 1.0
        kinds.append((n, tuple(raw / raw.sum()), tuple(utility), payoff))
    state_sizes = [kinds[c][0] for c in owner]
    table = None
    if joint:
        index = state_indices(state_sizes)
        canonical = index.copy()
        for c in range(len(sizes)):
            members = np.flatnonzero(owner == c)
            canonical[:, members] = np.sort(index[:, members], axis=1)
        _, orbit = np.unique(canonical, axis=0, return_inverse=True)
        weights = rng.uniform(0.2, 1.0, orbit.max() + 1) * (rng.random(orbit.max() + 1) < 0.7)
        weights[orbit[0]] += 0.1  # not all zero
        raw = weights[orbit.reshape(-1)]
        table = raw / raw.sum()
        for c in range(len(sizes)):
            marginal = np.zeros(kinds[c][0])
            np.add.at(marginal, index[:, np.flatnonzero(owner == c)[0]], table)
            kinds[c] = (kinds[c][0], tuple(marginal), *kinds[c][2:])
    locations = tuple(
        LocationModel(f"loc{k + 1}", tuple(f"s{i}" for i in range(kinds[c][0])), *kinds[c][1:])
        for k, c in enumerate(owner)
    )
    classes = sorted(tuple(np.flatnonzero(owner == c).tolist()) for c in range(len(sizes)))
    return SystemModel(locations, None if table is None else tuple(table)), classes


def _swap_permutations(system: SystemModel):
    """(state map, action map) of each swap of adjacent members of a class."""
    index = system.state_index_matrix
    strides = np.cumprod((1,) + system.state_sizes[:-1])
    for members in system.location_classes:
        for k, l in zip(members, members[1:]):
            swapped = index.copy()
            swapped[:, [k, l]] = index[:, [l, k]]
            actions = np.arange(system.num_locations + 1)
            actions[[k + 1, l + 1]] = [l + 1, k + 1]
            yield swapped @ strides, actions


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    joint=st.booleans(),
    payoffs=st.booleans(),
    weighted=st.booleans(),
)
def test_orbit_lp_matches_the_full_lp_and_highs(seed, joint, payoffs, weighted):
    system, classes = _symmetric_system(seed, joint, payoffs)
    assert sorted(system.location_classes) == classes
    lp = build_centralized_lp(system, weighted)
    mech, report = solve_centralized(system, weighted)
    value = report.value if weighted else report.throughput

    start = uninformative_start(system.joint_vector, system.utility_matrix)
    full = solve(lp, start).objective_value
    assert abs(value - full) <= 1e-9
    assert abs(value - _highs_optimum(lp)) <= 1e-9

    table = mech.table
    assert violation_at(lp, table.reshape(-1)) <= FEAS_TOL
    for states, actions in _swap_permutations(system):
        assert np.array_equal(table[states][:, actions], table)  # constant on orbits


def test_orbit_lp_of_an_asymmetric_system_is_the_full_lp():
    for kind, seed in itertools.product(("independent", "joint", "weighted"), range(5)):
        system = _random_system(seed, kind)
        assert all(len(members) == 1 for members in system.location_classes)
        weighted = kind == "weighted"
        lp = build_centralized_lp(system, weighted)
        orbits = lp_orbits(system)
        reduced = orbit_lp(lp, orbits)
        for name in ("objective", "matrix", "rhs", "groups"):
            ours, full = getattr(reduced, name), getattr(lp, name)
            assert (ours.dtype, ours.shape) == (full.dtype, full.shape), name
            assert ours.tobytes() == full.tobytes(), name
        weights = np.asarray(system.payoffs) if weighted else None
        start = priority_start(
            system.joint_vector, system.utility_matrix, weights, system.location_classes
        )
        basis = priority_start(system.joint_vector, system.utility_matrix, weights)
        assert np.array_equal(orbits.columns[start[orbits.states]], basis)
        mech, _ = solve_centralized(system, weighted)
        x = solve(lp, basis).x
        expected = x.reshape(mech.table.shape).copy()
        expected[(expected < 0.0) & (expected >= -1e-12)] = 0.0  # as the mechanism clamps
        assert mech.table.tobytes() == expected.tobytes()


def test_only_interchangeable_locations_reach_the_orbit_reduction(monkeypatch):
    def refuse(*args):
        raise AssertionError("orbit reduction called")

    monkeypatch.setattr(sigmech.centralized, "lp_orbits", refuse)
    monkeypatch.setattr(sigmech.centralized, "orbit_lp", refuse)
    for kind in ("independent", "joint", "weighted"):
        system = _random_system(0, kind)
        weighted = kind == "weighted"
        _, report = solve_centralized(system, weighted)
        value = report.value if weighted else report.throughput
        lp = build_centralized_lp(system, weighted)
        start = uninformative_start(system.joint_vector, system.utility_matrix)
        assert abs(value - solve(lp, start).objective_value) <= 1e-9
    with pytest.raises(AssertionError, match="orbit reduction called"):
        solve_centralized(make_tightness_instance(3, 10.0).system)
