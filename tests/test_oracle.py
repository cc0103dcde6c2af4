"""Best-response, evaluation, baseline, and grid-search oracle tests."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmech import oracle
from sigmech.bounds import make_tightness_instance, max_join_bound
from sigmech.decentralized import check_obedience, compose_optimal
from sigmech.instances import random_independent_system, random_joint_system
from sigmech.model import (
    CustomerStrategy,
    DecentralizedMechanism,
    InputError,
    LocationModel,
    LocationSignaling,
    SystemModel,
    binary_mechanism,
)
from sigmech.oracle import (
    best_response,
    evaluate,
    full_information,
    grid_search_decentralized,
    no_information,
)


def single_location(p=0.2, good=1.0, bad=-1.0):
    return SystemModel(
        (LocationModel("a", ("bad", "good"), (1.0 - p, p), (bad, good)),)
    )


def pair_system(p=0.2):
    return SystemModel(
        tuple(
            LocationModel(f"l{i}", ("bad", "good"), (1.0 - p, p), (-1.0, 1.0))
            for i in range(2)
        )
    )


def test_best_response_leaves_on_negative_mean():
    system = single_location()
    mech = no_information(system)
    strategy = best_response(system, mech)
    assert strategy.table[0].tolist() == [1.0, 0.0]


def test_best_response_full_information_joins_good_states():
    inst = make_tightness_instance(2, 3.0)
    mech = full_information(inst.system)
    strategy = best_response(inst.system, mech)
    for row, signal in enumerate(strategy.signals):
        action = int(np.argmax(strategy.table[row]))
        if "good" in signal:
            assert action != 0
            assert signal[action - 1] == "good"
        else:
            assert action == 0


def test_best_response_tie_goes_to_smallest_index():
    system = pair_system()
    mech, _, _ = compose_optimal(system)
    strategy = best_response(system, mech)
    both = strategy.signals.index((1, 1))
    # both posteriors are exactly zero: system-favoring tie picks location 1
    assert strategy.table[both].tolist() == [0.0, 1.0, 0.0]


def test_evaluate_all_leave_strategy_is_zero():
    system = pair_system()
    mech, _, _ = compose_optimal(system)
    table = np.zeros((4, 3))
    table[:, 0] = 1.0
    strategy = CustomerStrategy(mech.joint_signals, table)
    report = evaluate(system, mech, strategy)
    assert report.throughput == 0.0
    assert report.value == 0.0


def test_evaluate_constant_signals_product_formula():
    system = pair_system()
    mech = binary_mechanism([[0.3, 0.3], [0.5, 0.5]])
    labels = mech.joint_signals
    table = np.zeros((4, 3))
    table[labels.index((0, 0)), 0] = 1.0
    table[labels.index((1, 0)), 1] = 1.0
    table[labels.index((0, 1)), 2] = 1.0
    table[labels.index((1, 1)), 1] = 1.0
    strategy = CustomerStrategy(labels, table, class_fd=True)
    report = evaluate(system, mech, strategy)
    assert report.throughput == pytest.approx(0.65, abs=1e-12)
    assert report.throughput == pytest.approx(
        sum(report.per_location_throughput), abs=1e-9
    )


def test_full_information_baseline_values():
    inst = make_tightness_instance(2, 3.0)
    mech = full_information(inst.system)
    report = evaluate(inst.system, mech, best_response(inst.system, mech))
    assert report.throughput == pytest.approx(0.25, abs=1e-9)

    system = single_location()
    report = evaluate(system, full_information(system), best_response(system, full_information(system)))
    assert report.throughput == pytest.approx(0.2, abs=1e-12)


def test_no_information_baselines():
    inst = make_tightness_instance(2, 3.0)
    mech = no_information(inst.system)
    report = evaluate(inst.system, mech, best_response(inst.system, mech))
    assert report.throughput == 0.0

    eager = single_location(p=0.8)  # mean utility 0.6 >= 0
    mech = no_information(eager)
    report = evaluate(eager, mech, best_response(eager, mech))
    assert report.throughput == pytest.approx(1.0, abs=1e-12)


def test_shape_mismatch_rejected():
    system = pair_system()
    mech, _, _ = compose_optimal(system)
    bad = CustomerStrategy((0, 1), np.eye(2))
    with pytest.raises(InputError):
        evaluate(system, mech, bad)


@pytest.mark.parametrize("joint", [False, True])
def test_signal_table_width_must_match_its_signals(joint):
    system = pair_system()
    if joint:
        system = SystemModel(system.locations, tuple(system.joint_vector))
    good = LocationSignaling((0, 1), np.eye(2))
    narrow = LocationSignaling((0, 1), np.ones((2, 1)))
    mech = DecentralizedMechanism((good, narrow))
    with pytest.raises(InputError, match="location 1 table shape"):
        best_response(system, mech)
    strategy = CustomerStrategy(mech.joint_signals, np.eye(3)[[0, 1, 2, 0]])
    with pytest.raises(InputError, match="location 1 table shape"):
        evaluate(system, mech, strategy)
    if not joint:
        with pytest.raises(InputError, match="location 1 table shape"):
            check_obedience(system, mech)


def _dense_masses(system, mech):
    """Reference signal masses from the dense joint table sigma(s|w)."""
    mass = system.joint_vector[:, None] * mech.joint_table()
    return mech.joint_signals, mass.sum(axis=0), system.utility_matrix.T @ mass


def _posterior_check(system, mech, strategy):
    """Direct posterior re-check of the optimality condition at 1e-9."""
    labels, probs, wins = _dense_masses(system, mech)
    for s in range(len(labels)):
        if probs[s] <= 1e-12:
            continue
        utilities = np.concatenate([[0.0], wins[:, s] / probs[s]])
        best = utilities.max()
        for action in range(system.num_locations + 1):
            if strategy.table[s, action] > 1e-12:
                assert utilities[action] >= best - 1e-9


def test_best_response_satisfies_optimality_condition():
    rng = np.random.default_rng(11)
    for _ in range(30):
        system = random_independent_system(rng, (1, 3), (2, 3))
        probs = [rng.uniform(0.0, 1.0, loc.num_states) for loc in system.locations]
        mech = binary_mechanism(probs)
        strategy = best_response(system, mech)
        _posterior_check(system, mech, strategy)


def test_best_response_dominates_random_strategies():
    rng = np.random.default_rng(12)
    for _ in range(10):
        system = random_independent_system(
            rng, (1, 3), (2, 3), payoff_range=(0.0, 3.0)
        )
        probs = [rng.uniform(0.0, 1.0, loc.num_states) for loc in system.locations]
        mech = binary_mechanism(probs)
        br = best_response(system, mech)
        br_report = evaluate(system, mech, br)

        labels = br.signals
        _, probs_s, wins = _dense_masses(system, mech)

        def customer_utility(strategy):
            total = 0.0
            for s in range(len(labels)):
                for action in range(1, system.num_locations + 1):
                    total += strategy.table[s, action] * wins[action - 1, s]
            return total

        br_utility = customer_utility(br)
        for _ in range(100):
            rows = np.zeros((len(labels), system.num_locations + 1))
            for s in range(len(labels)):
                rows[s, int(rng.integers(system.num_locations + 1))] = 1.0
            random_strategy = CustomerStrategy(labels, rows)
            # the best response always dominates on the customer's own utility
            assert br_utility >= customer_utility(random_strategy) - 1e-9

            # among customer-optimal strategies it dominates on value too
            opt_rows = np.zeros_like(rows)
            for s in range(len(labels)):
                if probs_s[s] <= 1e-12:
                    opt_rows[s, 0] = 1.0
                    continue
                utilities = np.concatenate([[0.0], wins[:, s] / probs_s[s]])
                argmaxes = np.nonzero(utilities >= utilities.max() - 1e-12)[0]
                opt_rows[s, int(rng.choice(argmaxes))] = 1.0
            optimal_strategy = CustomerStrategy(labels, opt_rows)
            report = evaluate(system, mech, optimal_strategy)
            assert br_report.value >= report.value - 1e-9


def test_grid_search_binary_pair():
    system = pair_system()
    _, _, report = compose_optimal(system)
    mech, found = grid_search_decentralized(system, 0.02)
    assert abs(found - report.throughput) <= 2 * 0.02
    assert found <= report.throughput + 1e-9
    check = evaluate(system, mech, best_response(system, mech))
    assert check.throughput == pytest.approx(found, abs=1e-12)


def test_grid_search_single_location():
    system = single_location()
    _, found = grid_search_decentralized(system, 0.01)
    assert abs(found - 0.4) <= 0.01


def test_grid_search_hopeless_instance_is_zero():
    system = SystemModel(
        (LocationModel("a", ("s0", "s1"), (0.5, 0.5), (-1.0, -2.0)),)
    )
    _, found = grid_search_decentralized(system, 0.05)
    assert found == 0.0


def test_grid_search_parameter_guard():
    big = SystemModel(
        tuple(
            LocationModel(f"l{i}", ("s0", "s1", "s2"), (0.4, 0.3, 0.3), (1.0, 0.0, -1.0))
            for i in range(3)
        )
    )
    with pytest.raises(InputError, match="parameters"):
        grid_search_decentralized(big, 0.5)
    with pytest.raises(InputError, match="resolution"):
        grid_search_decentralized(single_location(), 0.0)


def test_grid_search_candidate_guard(monkeypatch):
    # One 8-state location passes the parameter guard, but at resolution 0.1
    # it has 11^8 = 214M candidates and its grid alone would take 13.7 GB.
    wide = LocationModel(
        "wide", tuple(f"s{i}" for i in range(8)), (0.125,) * 8, (1.0,) + (-1.0,) * 7
    )

    def no_grid(*args):
        raise AssertionError("a grid was built before the guard")

    monkeypatch.setattr(oracle, "_location_combos", no_grid)
    with pytest.raises(InputError, match="214358881 at resolution 0.1"):
        grid_search_decentralized(SystemModel((wide,)), 0.1)
    with pytest.raises(InputError, match="candidates"):
        grid_search_decentralized(pair_system(), 0.01)  # 101^4 = 104M
    monkeypatch.undo()
    # The largest grids in use stay below the limit: 51^4, as in acceptance
    # criterion 2, and 11^6 for two three-state locations at 0.1.
    assert 51**4 <= oracle.GRID_CANDIDATE_LIMIT < 11**7
    three = LocationModel("t", ("s0", "s1", "s2"), (0.5, 0.3, 0.2), (-1.0, 0.5, 1.0))
    _, found = grid_search_decentralized(SystemModel((three, three)), 0.1)
    assert 0.0 <= found <= 1.0


def test_grid_search_never_beats_composition_on_independent_instances():
    # Best-response scoring over every binary candidate stays below the
    # isolated composition: grid candidates are only coarser versions of
    # what the composition already optimizes over.
    rng = np.random.default_rng(15)
    for _ in range(8):
        system = random_independent_system(rng, 2, 2)
        _, _, report = compose_optimal(system)
        _, found = grid_search_decentralized(system, 0.05)
        assert found <= report.throughput + 1e-9
        assert found >= report.throughput - 2 * 0.05 - 1e-9


def test_grid_search_never_beats_centralized():
    rng = np.random.default_rng(14)
    for _ in range(6):
        system = random_independent_system(rng, (1, 2), (2, 3))
        from sigmech.centralized import solve_centralized

        _, central = solve_centralized(system)
        _, found = grid_search_decentralized(system, 0.05)
        assert found <= central.throughput + 1e-7


def test_grid_search_obedient_filter_matches_composition():
    # The grid lands within two grid steps below the composition, and the
    # composition's own mechanism is obedient and scores its product
    # throughput, so the best-response grid needs no obedient filter.
    from sigmech.decentralized import check_obedience

    rng = np.random.default_rng(13)
    for _ in range(5):
        system = random_independent_system(rng, 2, 2)
        mech, _, report = compose_optimal(system)
        _, found = grid_search_decentralized(system, 0.05)
        assert found <= report.throughput + 1e-9
        assert found >= report.throughput - 2 * 0.05 - 1e-9
        assert check_obedience(system, mech).holds
        miss = 1.0
        for loc, part in zip(system.locations, mech.parts):
            miss *= 1.0 - float(loc.prior_array() @ part.table[:, 1])
        assert report.throughput == pytest.approx(1.0 - miss, abs=1e-12)


def _all_grid_candidates(system, resolution):
    import itertools

    steps = int(round(1.0 / resolution))
    values = np.linspace(0.0, 1.0, steps + 1)
    per_state = [values] * sum(loc.num_states for loc in system.locations)
    for flat in itertools.product(*per_state):
        probs = []
        at = 0
        for loc in system.locations:
            probs.append(list(flat[at : at + loc.num_states]))
            at += loc.num_states
        yield binary_mechanism(probs)


def test_grid_search_equals_naive_candidate_loop():
    rng = np.random.default_rng(16)
    for _ in range(3):
        system = random_independent_system(rng, 2, 2)
        naive = max(
            evaluate(system, mech, best_response(system, mech)).throughput
            for mech in _all_grid_candidates(system, 0.25)
        )
        _, found = grid_search_decentralized(system, 0.25)
        assert found == pytest.approx(naive, abs=1e-12)


def _with_payoffs(system, payoffs):
    locations = tuple(
        dataclasses.replace(loc, payoff=float(pay))
        for loc, pay in zip(system.locations, payoffs)
    )
    return SystemModel(locations, system.joint)


def _naive_grid_value(system, resolution):
    return max(
        evaluate(system, mech, best_response(system, mech)).throughput
        for mech in _all_grid_candidates(system, resolution)
    )


@pytest.mark.parametrize(
    "make, resolution",
    [
        (lambda rng: random_independent_system(rng, 1, 3), 0.1),
        (lambda rng: random_independent_system(rng, 3, 2), 0.5),
        (lambda rng: random_independent_system(rng, 1, (2, 3)), 0.5),
        (lambda rng: SystemModel(random_independent_system(rng, 2, 2).locations[:1]
                                 + random_independent_system(rng, 1, 3).locations), 0.25),
        (lambda rng: _with_payoffs(random_independent_system(rng, 2, 2), (-0.5, 1.5)), 0.25),
        (lambda rng: _with_payoffs(random_joint_system(rng, 2, 2), (1.5, -0.5)), 0.25),
        (lambda rng: _with_payoffs(random_joint_system(rng, 3, 2), (1.0, -0.5, 2.0)), 0.5),
    ],
    ids=["K1-three-states", "three-binary-locations", "K1-resolution-half",
         "states-2-3", "mixed-sign-independent", "mixed-sign-joint", "mixed-sign-joint-K3"],
)
def test_folded_grid_search_equals_naive_candidate_loop(make, resolution):
    # The fold scores only the all-ones signal and mirrors it for the
    # others; the naive loop evaluates every candidate's every signal.
    rng = np.random.default_rng(20)
    for _ in range(2):
        system = make(rng)
        mech, found = grid_search_decentralized(system, resolution)
        assert found == pytest.approx(_naive_grid_value(system, resolution), abs=1e-12)
        check = evaluate(system, mech, best_response(system, mech))
        assert check.throughput == pytest.approx(found, abs=1e-12)


def test_grid_search_with_small_blocks_matches_default(monkeypatch):
    # Blocks of a single mirror orbit still fold whole orbits and keep
    # the first best candidate across blocks.  Winners may differ among
    # ulp-level ties, so only the value and the winner's score are compared.
    import sigmech.oracle as oracle

    rng = np.random.default_rng(21)
    cases = [
        (_with_payoffs(random_joint_system(rng, 2, 2), (1.5, -0.5)), 0.1),
        (random_joint_system(rng, 2, 2), 0.1),
        (random_independent_system(rng, 2, (2, 3)), 0.1),
        (random_independent_system(rng, 3, 2), 0.25),
    ]
    defaults = [grid_search_decentralized(system, res)[1] for system, res in cases]
    monkeypatch.setattr(oracle, "_BATCH", 1)
    for (system, res), value in zip(cases, defaults):
        mech, found = grid_search_decentralized(system, res)
        assert found == pytest.approx(value, abs=1e-12)
        check = evaluate(system, mech, best_response(system, mech))
        assert check.throughput == pytest.approx(found, abs=1e-12)


def test_grid_search_with_one_block_chunks_matches_naive_loop(monkeypatch):
    # Chunks of one block, some blocks of one orbit: the hoisted masses
    # line up with their blocks, and shorter last blocks and chunks score
    # only their own rows.
    import sigmech.oracle as oracle

    rng = np.random.default_rng(23)
    cases = [
        (_with_payoffs(random_joint_system(rng, 2, 2), (1.5, -0.5)), 0.25, 1),
        (random_independent_system(rng, 3, 2), 0.5, 1),
        (random_independent_system(rng, 2, (1, 3)), 0.5, oracle._BATCH),
    ]
    monkeypatch.setattr(oracle, "_CHUNK_ROWS", 1)
    for system, res, batch in cases:
        monkeypatch.setattr(oracle, "_BATCH", batch)
        mech, found = grid_search_decentralized(system, res)
        assert found == pytest.approx(_naive_grid_value(system, res), abs=1e-12)
        check = evaluate(system, mech, best_response(system, mech))
        assert check.throughput == pytest.approx(found, abs=1e-12)


def test_grid_search_memory_stays_flat():
    # K=4 binary at resolution 1/6 is 7^8 = 5.8M candidates in about 380
    # blocks; hoisting every block's masses at once traces about 26 MiB.
    system = random_independent_system(np.random.default_rng(5), 4, 2)
    tracemalloc.start()
    try:
        grid_search_decentralized(system, 1.0 / 6.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_grid_search_first_candidate_wins_exact_ties(monkeypatch):
    # Every candidate of a hopeless instance scores exactly 0, so the
    # first one, all sigma_k(1|w) = 0, wins whatever the block size.
    import sigmech.oracle as oracle

    bad = LocationModel("a", ("s0", "s1"), (0.5, 0.5), (-1.0, -2.0))
    system = SystemModel((bad, dataclasses.replace(bad, name="b")))
    for batch in (oracle._BATCH, 1):
        monkeypatch.setattr(oracle, "_BATCH", batch)
        mech, found = grid_search_decentralized(system, 0.1)
        assert found == 0.0
        assert all(not part.table[:, 1].any() for part in mech.parts)


def test_grid_search_requires_integer_steps():
    # {0, 0.3, 0.6, 0.9, 1} is not closed under v -> 1 - v.
    with pytest.raises(InputError, match="1/resolution"):
        grid_search_decentralized(single_location(), 0.3)
    # 1/3 is accepted: its three steps lie within 1e-9 of an integer.
    system = pair_system()
    _, found = grid_search_decentralized(system, 1.0 / 3.0)
    assert found == pytest.approx(_naive_grid_value(system, 1.0 / 3.0), abs=1e-12)
    # The join-envelope grid has no such symmetry to rely on.
    _, value = max_join_bound(2, 0.3)
    assert 0.0 < value <= 1.0


def test_best_response_zero_probability_signals_leave():
    system = single_location()
    mech = binary_mechanism([[0.0, 0.0]])  # signal 1 never sent
    strategy = best_response(system, mech)
    row = strategy.signals.index((1,))
    assert strategy.table[row, 0] == 1.0


def _reference_best_response(system, probs, wins):
    """Signal-by-signal best response with the system-favoring tie rule."""
    values = [0.0] + list(system.payoffs)
    priority = sorted(range(len(values)), key=lambda a: (-values[a], a))
    rows = np.zeros((len(probs), system.num_locations + 1))
    for s in range(len(probs)):
        if probs[s] <= 1e-12:
            rows[s, 0] = 1.0
            continue
        utilities = np.concatenate([[0.0], wins[:, s] / probs[s]])
        eligible = utilities >= utilities.max() - 1e-9
        rows[s, next(a for a in priority if eligible[a])] = 1.0
    return rows


def _reference_worst_slack(probs, wins, table):
    worst = 0.0
    for s in range(len(probs)):
        if probs[s] <= 1e-12:
            continue
        best = max(0.0, float(wins[:, s].max()))
        for action in np.flatnonzero(table[s] > 1e-12):
            got = 0.0 if action == 0 else float(wins[action - 1, s])
            worst = min(worst, got - best)
    return worst


def _product_form_case(seed, joint):
    """Small system and decentralized mechanism with exact ties and zeros.

    Priors, utilities and signal tables come from coarse grids, so
    posterior ties, zero-probability signals and never-sent signals occur
    often; payoffs repeat and may be zero or negative; one signal
    alphabet is strings.
    """
    rng = np.random.default_rng(seed)
    sizes = [int(n) for n in rng.integers(1, 4, int(rng.integers(1, 6)))]
    if joint:
        raw = rng.integers(0, 3, int(np.prod(sizes))).astype(float)
        raw[0] += 1.0
        joint_table = raw / raw.sum()
        cube = joint_table.reshape(sizes[::-1])
        axes = range(len(sizes))
        priors = [cube.sum(axis=tuple(a for a in axes if a != len(sizes) - 1 - k))
                  for k in range(len(sizes))]
    else:
        joint_table = None
        priors = []
        for n in sizes:
            raw = rng.integers(0, 3, n).astype(float)
            raw[0] += 1.0
            priors.append(raw / raw.sum())
    locations = tuple(
        LocationModel(
            f"l{k}",
            tuple(f"w{i}" for i in range(n)),
            tuple(priors[k]),
            tuple(rng.choice([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0], n)),
            float(rng.choice([-1.0, 0.0, 1.0, 1.0, 2.0])),
        )
        for k, n in enumerate(sizes)
    )
    system = SystemModel(locations, None if joint_table is None else tuple(joint_table))
    parts = []
    for k, n in enumerate(sizes):
        m = int(rng.integers(1, 4))
        raw = rng.integers(0, 3, (n, m)).astype(float)
        raw[:, 0] += raw.sum(axis=1) == 0.0
        labels = ("lo", "mid", "hi")[:m] if k == 0 else tuple(range(m))
        parts.append(LocationSignaling(labels, raw / raw.sum(axis=1, keepdims=True)))
    return system, DecentralizedMechanism(tuple(parts))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), joint=st.booleans())
def test_product_form_oracles_match_dense_reference(seed, joint):
    """Product-form best response and evaluation equal the dense-table loops.

    On an independent prior neither call builds the joint prior or the
    state-by-location utility matrix.
    """
    system, mech = _product_form_case(seed, joint)
    strategy = best_response(system, mech)
    evaluate(system, mech, strategy)
    if not joint:
        assert "joint_vector" not in system.__dict__
        assert "utility_matrix" not in system.__dict__
    labels, probs, wins = _dense_masses(system, mech)
    assert strategy.signals == labels
    assert np.array_equal(strategy.table, _reference_best_response(system, probs, wins))

    rng = np.random.default_rng(seed)
    rows = np.eye(system.num_locations + 1)[rng.integers(0, system.num_locations + 1, len(labels))]
    for table in (strategy.table, rows):
        report = evaluate(system, mech, CustomerStrategy(labels, table))
        per_location = (probs @ table)[1:]
        assert abs(report.throughput - per_location.sum()) <= 1e-12
        assert abs(report.value - per_location @ system.payoffs) <= 1e-12
        assert abs(report.worst_slack - _reference_worst_slack(probs, wins, table)) <= 1e-12


def _mixed_payoff_joint_pair(rng):
    system = random_joint_system(rng, 2, 2)
    return _with_payoffs(system, (rng.uniform(-1.0, 0.0), rng.uniform(0.5, 2.0)))


def test_joint_grid_search_equals_naive_candidate_loop():
    rng = np.random.default_rng(18)
    # Mean-zero locations stored as a joint prior: pooling every state gives
    # posterior exactly 0, a tie that negative payoffs break toward leaving.
    tied = SystemModel(
        (
            LocationModel("a", ("bad", "good"), (0.5, 0.5), (-1.0, 1.0), -1.0),
            LocationModel("b", ("bad", "good"), (0.75, 0.25), (-1.0, 3.0), -0.5),
        ),
        (0.375, 0.375, 0.125, 0.125),
    )
    for system in [_mixed_payoff_joint_pair(rng) for _ in range(3)] + [tied]:
        naive = max(
            evaluate(system, mech, best_response(system, mech)).throughput
            for mech in _all_grid_candidates(system, 0.25)
        )
        _, found = grid_search_decentralized(system, 0.25)
        assert found == pytest.approx(naive, abs=1e-12)


def test_joint_grid_search_winner_reevaluates_to_its_score():
    rng = np.random.default_rng(19)
    for make in (_mixed_payoff_joint_pair, lambda r: random_joint_system(r, 2, 2)):
        system = make(rng)
        mech, found = grid_search_decentralized(system, 0.05)
        check = evaluate(system, mech, best_response(system, mech))
        assert check.throughput == pytest.approx(found, abs=1e-12)
