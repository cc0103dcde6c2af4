"""Isolated LP, composition, obedience, payoff-weighted, and fallback tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmech.bounds import (
    independence_guarantee,
    make_correlated_instance,
    make_tightness_instance,
)
from sigmech.centralized import solve_centralized
from sigmech.decentralized import (
    CONDITION_I,
    CONDITION_II,
    NEITHER,
    ObedienceVerdict,
    check_obedience,
    compose_optimal,
    correlated_fallback,
    heterogeneous_compose,
    solve_isolated,
)
from sigmech.instances import random_independent_system, random_joint_system
from sigmech.model import (
    CentralizedMechanism,
    DecentralizedMechanism,
    InputError,
    LocationModel,
    PreconditionError,
    SystemModel,
    binary_mechanism,
)
from sigmech.oracle import best_response, evaluate


def location(p=0.2, good=1.0, bad=-1.0, payoff=1.0, name="a"):
    return LocationModel(name, ("bad", "good"), (1.0 - p, p), (bad, good), payoff)


def pair_system(p=0.2):
    return SystemModel(
        tuple(location(p, name=f"l{i}") for i in range(2))
    )


def brute_force_isolated(loc, resolution=1e-4):
    """Grid maximum of the join probability over binary mechanisms
    satisfying both posterior constraints, chunked to bound memory."""
    prior = loc.prior_array()
    util = loc.utility_array()
    steps = int(round(1.0 / resolution)) + 1
    values = np.linspace(0.0, 1.0, steps)
    assert loc.num_states == 2
    best = 0.0
    mean = float(prior @ util)
    for chunk_start in range(0, steps, 256):
        a = values[chunk_start : chunk_start + 256][:, None]
        b = values[None, :]
        one_mass = prior[0] * a + prior[1] * b
        one_util = prior[0] * util[0] * a + prior[1] * util[1] * b
        ok = (one_util >= -1e-12) & (mean - one_util <= 1e-12)
        if ok.any():
            best = max(best, float(np.where(ok, one_mass, -1.0).max()))
    return best


def test_isolated_standard_instance():
    sol = solve_isolated(location())
    assert sol.th_iso == pytest.approx(0.4, abs=1e-9)
    assert sol.th_iso == pytest.approx(brute_force_isolated(location()), abs=2e-4)
    ones = sol.mechanism.table[:, 1]
    assert ones[1] == pytest.approx(1.0, abs=1e-9)
    assert ones[0] == pytest.approx(0.25, abs=1e-9)


def test_isolated_obedience_sums_hold():
    rng = np.random.default_rng(31)
    for _ in range(40):
        system = random_independent_system(rng, 1, (2, 3))
        loc = system.locations[0]
        sol = solve_isolated(loc)
        weighted = loc.prior_array() * loc.utility_array()
        assert float(weighted @ sol.mechanism.table[:, 1]) >= -1e-7
        assert float(weighted @ sol.mechanism.table[:, 0]) <= 1e-7
        assert sol.th_iso == pytest.approx(
            float(loc.prior_array() @ sol.mechanism.table[:, 1]), abs=1e-9
        )


def test_isolated_critical_prior_value():
    inst = make_tightness_instance(2, 3.0)
    sol = solve_isolated(inst.system.locations[0])
    assert sol.th_iso == pytest.approx(inst.good_state_prior * 4.0, abs=1e-9)
    assert sol.th_iso == pytest.approx(0.5358984, abs=1e-6)


def test_isolated_hopeless_and_eager_locations():
    hopeless = LocationModel("h", ("s0", "s1"), (0.5, 0.5), (-2.0, -1.0))
    assert solve_isolated(hopeless).th_iso == pytest.approx(0.0, abs=1e-9)
    eager = location(p=0.8)  # mean utility 0.6
    sol = solve_isolated(eager)
    assert sol.th_iso == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(
    counts=st.lists(st.integers(0, 20), min_size=2, max_size=6).filter(any),
    data=st.data(),
)
def test_isolated_matches_highs_on_the_bounded_formulation(counts, data):
    """th_iso equals HiGHS on max prior.x s.t. both posteriors obeyed, 0 <= x <= 1.

    Priors are count ratios and utilities lie on a 1e-3 grid: HiGHS drops
    constraint coefficients below 1e-9, so finer masses would change its LP.
    """
    linprog = pytest.importorskip("scipy.optimize").linprog
    n = len(counts)
    util = data.draw(st.lists(st.integers(-3000, 3000), min_size=n, max_size=n))
    prior = np.array(counts) / sum(counts)
    loc = LocationModel(
        "a", tuple(f"s{i}" for i in range(n)), tuple(prior), tuple(np.array(util) / 1000)
    )
    weighted = loc.prior_array() * loc.utility_array()
    # signal 1: weighted.x >= 0; signal 0: weighted.(1 - x) <= 0.
    reference = linprog(
        -loc.prior_array(),
        A_ub=-np.array([weighted, weighted]),
        b_ub=[0.0, -float(weighted.sum())],
        bounds=(0.0, 1.0),
        method="highs",
        # HiGHS's default 1e-7 tolerances would skip state masses below them.
        options={"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10},
    )
    assert reference.status == 0
    assert abs(solve_isolated(loc).th_iso + reference.fun) <= 1e-9


def test_isolated_equals_the_one_location_centralized_lp():
    rng = np.random.default_rng(32)
    for _ in range(30):
        system = random_independent_system(rng, 1, (2, 4))
        sol = solve_isolated(system.locations[0])
        mech, report = solve_centralized(system)
        assert sol.th_iso == report.throughput
        assert np.array_equal(sol.mechanism.table, mech.table)


def test_compose_two_identical_locations():
    mech, strategy, report = compose_optimal(pair_system())
    assert report.throughput == pytest.approx(0.64, abs=1e-9)
    assert strategy.class_fd and strategy.violations() == []
    assert report.worst_slack >= -1e-7
    # full enumeration agrees with the product formula
    again = evaluate(pair_system(), mech, strategy)
    assert again.throughput == pytest.approx(0.64, abs=1e-9)


def test_compose_tightness_instance_value():
    inst = make_tightness_instance(2, 3.0)
    _, _, report = compose_optimal(inst.system)
    assert report.throughput == pytest.approx(0.7846097, abs=1e-6)
    assert report.throughput == pytest.approx(inst.predicted_decentralized, abs=1e-9)


def test_compose_with_certain_location_reaches_one():
    system = SystemModel((location(p=0.8, name="sure"), location(name="other")))
    _, _, report = compose_optimal(system)
    assert report.throughput == pytest.approx(1.0, abs=1e-9)


def test_compose_requires_independent_priors():
    with pytest.raises(PreconditionError, match="correlated_fallback"):
        compose_optimal(make_correlated_instance(2, 10.0))


def test_obedience_composition_is_condition_ii():
    system = pair_system()
    mech, _, _ = compose_optimal(system)
    assert check_obedience(system, mech).kind == CONDITION_II


def test_obedience_always_signal_one_is_condition_i():
    # Condition (II) holds too: the signal-1 utility mass is the prior
    # mean 0.2 and signal 0 is never sent.  Condition (I) is reported first.
    system = SystemModel((location(p=0.6),))
    mech = binary_mechanism([[1.0, 1.0]])
    weighted = system.locations[0].prior_array() * system.locations[0].utility_array()
    assert weighted @ mech.parts[0].table[:, 1] >= 0.0
    assert weighted @ mech.parts[0].table[:, 0] <= 0.0
    assert check_obedience(system, mech) == ObedienceVerdict(CONDITION_I, 0)


def test_obedience_witness_skips_a_location_with_negative_mean():
    # Both locations always send 1; only location 1 is worth joining on its prior.
    system = SystemModel((location(p=0.2, name="poor"), location(p=0.6, name="rich")))
    assert system.locations[0].expected_utility() < 0.0
    mech = binary_mechanism([[1.0, 1.0], [1.0, 1.0]])
    assert check_obedience(system, mech) == ObedienceVerdict(CONDITION_I, 1)


def test_obedience_neither_example():
    system = SystemModel((location(p=0.2),))
    verdict = check_obedience(system, binary_mechanism([[0.5, 1.0]]))
    assert verdict.kind == NEITHER


def test_obedience_rejects_non_binary_and_joint():
    system = pair_system()
    from sigmech.oracle import full_information

    with pytest.raises(InputError):
        check_obedience(system, full_information(system))
    with pytest.raises(InputError, match="covers 1 locations, system has 2"):
        check_obedience(system, binary_mechanism([[0.5, 0.5]]))
    with pytest.raises(InputError, match=r"location 0 table shape \(1, 2\)"):
        check_obedience(system, binary_mechanism([[0.5], [0.5, 0.5]]))
    joint = random_joint_system(np.random.default_rng(1), 2)
    with pytest.raises(PreconditionError):
        check_obedience(joint, binary_mechanism([[0.5, 0.5], [0.5, 0.5]]))


def _fd_strategy_exists(system, mech):
    """Exhaustive existence check for an optimal join-on-1 strategy,
    straight from the optimality condition over the signal vectors."""
    labels, table = mech.joint_signals, mech.joint_table()
    mu = system.joint_vector
    mass = mu[:, None] * table
    probs = mass.sum(axis=0)
    wins = system.utility_matrix.T @ mass
    for s, u in enumerate(labels):
        if probs[s] <= 1e-12:
            continue
        utilities = wins[:, s] / probs[s]
        best = max(0.0, float(utilities.max()))
        ones = [k for k, bit in enumerate(u) if bit == 1]
        if not ones:
            if utilities.max() > 1e-9:
                return False
            continue
        if max(utilities[k] for k in ones) < best - 1e-9:
            return False
    return True


def test_obedience_verdict_matches_existence_oracle():
    rng = np.random.default_rng(32)
    agree = 0
    for _ in range(200):
        system = random_independent_system(rng, 2, (2, 3))
        probs = [rng.uniform(0.0, 1.0, loc.num_states) for loc in system.locations]
        mech = binary_mechanism(probs)
        verdict = check_obedience(system, mech)
        assert verdict.holds == _fd_strategy_exists(system, mech)
        agree += 1
    assert agree == 200


def test_heterogeneous_two_locations_value():
    system = SystemModel(
        (location(payoff=2.0, name="hi"), location(payoff=1.0, name="lo"))
    )
    mech, strategy, value = heterogeneous_compose(system)
    assert value == pytest.approx(1.04, abs=1e-9)
    report = evaluate(system, mech, strategy)
    assert report.value == pytest.approx(value, abs=1e-9)
    assert strategy.violations() == []


def test_heterogeneous_single_location_and_uniform_payoffs():
    single = SystemModel((location(payoff=5.0),))
    _, _, value = heterogeneous_compose(single)
    assert value == pytest.approx(2.0, abs=1e-9)

    uniform = pair_system()
    _, _, value = heterogeneous_compose(uniform)
    _, _, report = compose_optimal(uniform)
    assert value == pytest.approx(report.throughput, abs=1e-9)


def test_compose_optimal_refuses_a_nonpositive_payoff():
    # On the product of the isolated optima the class-Fd customer joins
    # "toxic" on its signal 1 (posterior utility 0), where the
    # system-favoring customer leaves: T_k (0.4, 0.24) and value 0.56
    # against best_response's (0.4, 0) and 0.80.
    system = SystemModel((location(payoff=2.0, name="good"), location(payoff=-1.0, name="toxic")))
    mech = DecentralizedMechanism(tuple(solve_isolated(loc).mechanism for loc in system.locations))
    report = evaluate(system, mech, best_response(system, mech))
    assert report.per_location_throughput == pytest.approx((0.4, 0.0), abs=1e-12)
    assert report.value == pytest.approx(0.8, abs=1e-12)
    for payoff in (-1.0, 0.0):
        bad = SystemModel((system.locations[0], location(payoff=payoff, name="toxic")))
        with pytest.raises(PreconditionError, match="location 1 .'toxic'. has nonpositive payoff"):
            compose_optimal(bad)


def test_heterogeneous_drops_useless_locations():
    system = SystemModel(
        (
            location(payoff=2.0, name="keep"),
            LocationModel("neg", ("s0", "s1"), (0.5, 0.5), (-1.0, -2.0), 3.0),
            location(payoff=-1.0, name="worthless"),
        )
    )
    mech, strategy, value = heterogeneous_compose(system)
    assert value == pytest.approx(2.0 * 0.4, abs=1e-9)
    # dropped locations always signal 0
    assert float(mech.parts[1].table[:, 1].max()) == 0.0
    assert float(mech.parts[2].table[:, 1].max()) == 0.0
    report = evaluate(system, mech, strategy)
    assert report.value == pytest.approx(value, abs=1e-9)
    _assert_best_response_rows(system, mech, strategy)


def _join_on_one_systems():
    """Random independent systems with positive payoffs, some of them with
    a location that never sends 1 (negative utility in every state)."""
    rng = np.random.default_rng(34)
    systems = [
        random_independent_system(
            rng, (1, 5), (2, 3), require_negative_mean=True, payoff_range=(0.0, 3.0)
        )
        for _ in range(20)
    ]
    systems += [
        random_independent_system(
            np.random.default_rng([7, t]), (2, 6), (2, 3),
            require_negative_mean=t % 2 == 0, payoff_range=(0.5, 2.0),
        )
        for t in range(300)
    ]
    never = LocationModel("never", ("s0", "s1"), (0.5, 0.5), (-1.0, -2.0), 1.5)
    systems += [SystemModel(s.locations + (never,)) for s in systems[:20]]
    systems += [SystemModel((never,) + s.locations) for s in systems[20:40]]
    return systems


def _assert_best_response_rows(system, mech, strategy):
    """Class-Fd rows that are best_response's on every sent signal."""
    assert strategy.class_fd and strategy.violations() == []
    sent = system.joint_vector @ mech.joint_table() > 1e-12
    assert np.array_equal(strategy.table[sent], best_response(system, mech).table[sent])


def test_join_on_one_rows_match_the_signal_labels():
    for system in _join_on_one_systems():
        mech, strategy, report = compose_optimal(system)
        _assert_best_response_rows(system, mech, strategy)
        reference = evaluate(system, mech, best_response(system, mech))
        assert report.per_location_throughput == pytest.approx(
            reference.per_location_throughput, rel=0.0, abs=1e-12
        )
        assert report.value == pytest.approx(reference.value, rel=0.0, abs=1e-12)

        if all(loc.expected_utility() < 0.0 for loc in system.locations):
            mech, strategy, _ = heterogeneous_compose(system)
            _assert_best_response_rows(system, mech, strategy)


def test_heterogeneous_requires_negative_mean_utility():
    system = SystemModel((location(p=0.8, name="sunny"),))
    with pytest.raises(PreconditionError, match="sunny"):
        heterogeneous_compose(system)


def test_heterogeneous_guarantee_on_random_instances():
    rng = np.random.default_rng(33)
    for _ in range(25):
        system = random_independent_system(
            rng, (1, 4), (2, 3), require_negative_mean=True, payoff_range=(0.0, 3.0)
        )
        _, _, value = heterogeneous_compose(system)
        _, central = solve_centralized(system, weighted=True)
        bound = independence_guarantee(system.num_locations) * central.value
        assert value >= bound - 1e-7
        assert value <= central.value + 1e-7  # decentralized never beats centralized


def test_fallback_formula_on_independent_pair():
    locs = (
        LocationModel("a", ("s0", "s1"), (0.6, 0.4), (1.0, -1.0)),
        LocationModel("b", ("s0", "s1"), (0.3, 0.7), (-1.0, 1.0)),
    )
    system = SystemModel(locs)
    # handmade direct mechanism with per-location masses 0.3 and 0.5
    table = np.zeros((4, 3))
    for flat, (i, j) in enumerate([(0, 0), (1, 0), (0, 1), (1, 1)]):
        table[flat, 1] = 0.3
        table[flat, 2] = 0.5
        table[flat, 0] = 0.2
    central = CentralizedMechanism((0, 1, 2), table)
    mech = correlated_fallback(system, central)
    # location 2 carries more mass, so it signals and location 1 stays silent
    assert float(mech.parts[0].table[:, 1].max()) == 0.0
    expected = [
        sum(
            system.joint_prior((i, j)) * table[i + 2 * j, 2]
            for i in range(2)
        )
        / system.locations[1].prior[j]
        for j in range(2)
    ]
    assert mech.parts[1].table[:, 1] == pytest.approx(expected, abs=1e-12)


def test_fallback_breaks_roundoff_ties_toward_the_first_location():
    system = pair_system()
    # masses 0.4 and 0.4 + 4e-16: equal up to roundoff, so location 1 signals
    table = np.zeros((4, 3))
    table[:, 1] = 0.4
    table[:, 2] = 0.4 + 4e-16
    table[:, 0] = 1.0 - table[:, 1] - table[:, 2]
    central = CentralizedMechanism((0, 1, 2), table)
    mech = correlated_fallback(system, central)
    assert float(mech.parts[0].table[:, 1].max()) > 0.0
    assert float(mech.parts[1].table[:, 1].max()) == 0.0
    # a clear lead still wins
    table[:, 2] = 0.41
    table[:, 0] = 1.0 - table[:, 1] - table[:, 2]
    mech = correlated_fallback(system, CentralizedMechanism((0, 1, 2), table))
    assert float(mech.parts[0].table[:, 1].max()) == 0.0


def test_fallback_on_correlated_worst_case():
    system = make_correlated_instance(2, 10.0)
    _, report = solve_centralized(system)
    assert report.throughput == pytest.approx(1.0, abs=1e-7)

    # canonical optimal mechanism: recommend the good location, else the ok one
    from sigmech.centralized import obedient_strategy
    from sigmech.model import state_indices

    table = np.zeros((9, 3))
    for flat, idx in enumerate(state_indices((3, 3)).tolist()):
        if 0 in idx:
            table[flat, idx.index(0) + 1] = 1.0
        elif 1 in idx:
            table[flat, idx.index(1) + 1] = 1.0
        else:
            table[flat, 0] = 1.0  # zero-probability state
    central = CentralizedMechanism((0, 1, 2), table)
    report = evaluate(system, central, obedient_strategy(2))
    assert report.throughput == pytest.approx(1.0, abs=1e-12)
    assert report.per_location_throughput == pytest.approx((0.5, 0.5), abs=1e-12)

    mech = correlated_fallback(system, central)
    fb = evaluate(system, mech, best_response(system, mech))
    assert fb.throughput >= 0.5 - 1e-7

    # a table one column short of signals 0..K is refused, not read as given
    narrow = CentralizedMechanism((0, 1, 2), np.full((9, 2), 0.5))
    with pytest.raises(InputError, match=r"mechanism table shape \(9, 2\)"):
        correlated_fallback(system, narrow)


def test_fallback_and_obedience_refuse_non_stochastic_tables():
    # Tables of the right shape are still refused when violations() is not empty.
    rows_sum_to_nine = CentralizedMechanism((0, 1, 2), np.full((9, 3), 3.0))
    with pytest.raises(InputError, match="row sums off by up to 8"):
        correlated_fallback(make_correlated_instance(2, 10.0), rows_sum_to_nine)
    negative = binary_mechanism([[2.0, 0.5], [0.5, 0.5]])  # sigma(0|bad) = -1
    with pytest.raises(InputError, match="location 0 table: negative entry -1"):
        check_obedience(pair_system(), negative)


def test_fallback_never_recommending_gives_zero():
    system = pair_system()
    table = np.zeros((4, 3))
    table[:, 0] = 1.0
    central = CentralizedMechanism((0, 1, 2), table)
    mech = correlated_fallback(system, central)
    fb = evaluate(system, mech, best_response(system, mech))
    assert fb.throughput == 0.0


def test_fallback_guarantee_on_random_joint_instances():
    rng = np.random.default_rng(34)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        system = random_joint_system(rng, k, 2)
        central_mech, central = solve_centralized(system)
        mech = correlated_fallback(system, central_mech)
        fb = evaluate(system, mech, best_response(system, mech))
        assert fb.throughput >= central.throughput / k - 1e-7


def test_independence_guarantee_on_random_instances():
    rng = np.random.default_rng(35)
    for _ in range(40):
        system = random_independent_system(rng, (1, 5), (2, 3))
        _, central = solve_centralized(system)
        _, _, dec = compose_optimal(system)
        bound = independence_guarantee(system.num_locations) * central.throughput
        assert dec.throughput >= bound - 1e-7
