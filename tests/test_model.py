"""Domain-type construction, validation, and joint-prior tests."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sigmech.bounds import make_correlated_instance, make_tightness_instance
from sigmech.instances import random_joint_system
from sigmech.model import (
    CentralizedMechanism,
    CustomerStrategy,
    DecentralizedMechanism,
    InputError,
    LocationModel,
    LocationSignaling,
    SystemModel,
    binary_mechanism,
    joint_index,
    joint_prior,
    kron_rows,
    state_indices,
    validate,
)


def two_location_system():
    return SystemModel(
        (
            LocationModel("a", ("s0", "s1"), (0.2, 0.8), (1.0, -1.0)),
            LocationModel("b", ("s0", "s1"), (0.5, 0.5), (0.5, -0.5)),
        )
    )


def test_joint_prior_independent_product():
    system = two_location_system()
    assert joint_prior(system, (0, 0)) == pytest.approx(0.10, abs=1e-12)
    assert joint_prior(system, (1, 1)) == pytest.approx(0.40, abs=1e-12)


def test_joint_prior_table_lookup():
    locs = (
        LocationModel("a", ("s0", "s1"), (0.45, 0.55), (1.0, -1.0)),
        LocationModel("b", ("s0", "s1"), (0.65, 0.35), (1.0, -1.0)),
    )
    # mixed-radix order: (0,0), (1,0), (0,1), (1,1)
    table = (0.2, 0.25, 0.25, 0.3)
    system = SystemModel(locs, joint=table)
    assert joint_prior(system, (1, 0)) == 0.25


def test_joint_prior_correlated_instance_permutation_mass():
    system = make_correlated_instance(3, 10.0)
    # one good location (state index 0), the others ok (state index 1)
    for spot in range(3):
        state = [1, 1, 1]
        state[spot] = 0
        assert joint_prior(system, state) == pytest.approx(1.0 / 12.0, abs=1e-15)


def test_joint_prior_rejects_out_of_range_indices():
    system = two_location_system()
    with pytest.raises(InputError):
        joint_prior(system, (0, 2))
    with pytest.raises(InputError):
        joint_prior(system, (0,))


def test_mixed_radix_order_first_location_fastest():
    tuples = state_indices((2, 3))
    assert tuples.tolist() == [[0, 0], [1, 0], [0, 1], [1, 1], [0, 2], [1, 2]]
    for flat, idx in enumerate(tuples):
        assert joint_index((2, 3), idx) == flat
    for flat, idx in enumerate(state_indices((3, 1, 2, 4))):
        assert joint_index((3, 1, 2, 4), idx) == flat
    assert state_indices((5,)).tolist() == [[0], [1], [2], [3], [4]]


def test_validate_well_formed_instance_is_clean():
    assert validate(make_tightness_instance(2, 3.0).system) == []
    assert validate(make_correlated_instance(2, 10.0)) == []


def test_validate_reports_bad_prior_sum():
    system = SystemModel(
        (LocationModel("a", ("s0", "s1"), (0.5, 0.6), (1.0, -1.0)),)
    )
    problems = validate(system)
    assert len(problems) == 1
    assert "1.1" in problems[0]


def test_validate_reports_marginal_mismatch():
    locs = (
        LocationModel("a", ("s0", "s1"), (0.45, 0.55), (1.0, -1.0)),
        LocationModel("b", ("s0", "s1"), (0.65, 0.35), (1.0, -1.0)),
    )
    # actual marginal of location a is (0.4, 0.6): off by 0.05
    system = SystemModel(locs, joint=(0.3, 0.35, 0.1, 0.25))
    problems = validate(system)
    assert len(problems) == 1
    assert "marginal" in problems[0]
    assert "0.05" in problems[0]


def test_joint_table_size_guard():
    locs = tuple(
        LocationModel(f"l{i}", ("s0", "s1"), (0.5, 0.5), (1.0, -1.0))
        for i in range(21)
    )
    with pytest.raises(InputError, match="guard"):
        SystemModel(locs, joint=(0.0,) * 2**21)
    # The guard reads the state count, so a short table is refused cheaply.
    with pytest.raises(InputError, match="guard"):
        SystemModel(locs, joint=[0.0])


def test_empty_system_rejected():
    with pytest.raises(InputError):
        SystemModel(())


@settings(max_examples=50, deadline=None)
@given(
    priors=st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4), min_size=1, max_size=4
    )
)
def test_independent_joint_vector_sums_to_one(priors):
    locs = []
    for i, raw in enumerate(priors):
        total = sum(raw)
        locs.append(
            LocationModel(
                f"l{i}",
                tuple(f"s{j}" for j in range(len(raw))),
                tuple(v / total for v in raw),
                tuple(0.0 for _ in raw),
            )
        )
    system = SystemModel(tuple(locs))
    assert validate(system) == []
    vec = system.joint_vector
    assert abs(float(vec.sum()) - 1.0) <= 1e-9 * system.state_count
    for flat, idx in enumerate(state_indices(system.state_sizes)):
        assert vec[flat] == pytest.approx(joint_prior(system, idx), abs=1e-15)
    assert np.array_equal(system.state_index_matrix, state_indices(system.state_sizes))


def test_kron_rows_equals_numpy_kron_bit_for_bit():
    rng = np.random.default_rng(7)
    for rows in (1, 3):
        for count in range(1, 6):
            blocks = [rng.uniform(size=(rows, rng.integers(1, 4))) for _ in range(count)]
            got = kron_rows(blocks)
            for r in range(rows):
                expected = np.ones(1)
                for block in blocks:
                    expected = np.kron(block[r], expected)
                assert got[r].tobytes() == expected.tobytes()
            assert got.shape == (rows, math.prod(block.shape[1] for block in blocks))


def test_marginals_equal_a_sequential_sum_bit_for_bit():
    # np.bincount adds in index order, as np.add.at does.
    def reference(index, weights, size):
        out = np.zeros(size)
        np.add.at(out, index, weights)
        return out

    rng = np.random.default_rng(11)
    for trial in range(20):
        system = random_joint_system(rng, 2 + trial % 4, 2 + trial % 2)
        index = state_indices(system.state_sizes)
        joint = np.asarray(system.joint)
        for k, loc in enumerate(system.locations):
            expected = reference(index[:, k], joint, loc.num_states)
            assert system.marginal(k).tobytes() == expected.tobytes()
            assert loc.prior_array().tobytes() == expected.tobytes()


def test_location_classes_group_interchangeable_locations():
    bad_good = LocationModel("a", ("bad", "good"), (0.7, 0.3), (-1.0, 2.0))
    renamed = LocationModel("b", ("bad", "good"), (0.7, 0.3), (-1.0, 2.0))
    richer = LocationModel("c", ("bad", "good"), (0.7, 0.3), (-1.0, 2.0), payoff=2.0)
    system = SystemModel((bad_good, richer, renamed, bad_good))
    assert system.location_classes == ((0, 2, 3), (1,))
    assert make_tightness_instance(4, 10.0).system.location_classes == ((0, 1, 2, 3),)
    assert make_correlated_instance(3, 8.0).location_classes == ((0, 1, 2),)
    # Equal marginals, and the joint prior changes when the two are swapped.
    third = LocationModel("d", ("s0", "s1", "s2"), (0.3, 0.3, 0.4), (-1.0, 0.5, 1.0))
    cyclic = (0.2, 0.0, 0.1, 0.1, 0.2, 0.0, 0.0, 0.1, 0.3)  # location 1 fastest
    skewed = SystemModel((third, third), joint=cyclic)
    assert validate(skewed) == []
    assert skewed.location_classes == ((0,), (1,))
    even = SystemModel((bad_good, renamed), joint=(0.45, 0.25, 0.25, 0.05))
    assert even.location_classes == ((0, 1),)


def test_mechanism_tables_are_immutable():
    mech = binary_mechanism([[0.3, 0.7]])
    with pytest.raises(ValueError):
        mech.parts[0].table[0, 0] = 1.0
    system = two_location_system()
    with pytest.raises(ValueError):
        system.joint_vector[0] = 2.0


def test_centralized_mechanism_clamps_tiny_negatives():
    central = binary_mechanism([[0.5, 0.5]]).to_centralized()
    assert central.violations() == []

    clamped = CentralizedMechanism((0, 1), [[1.0 + 1e-13, -1e-13]])
    assert clamped.table[0, 1] == 0.0
    assert clamped.violations() == []
    bad = CentralizedMechanism((0, 1), [[1.1, -0.1]])
    assert bad.violations()


def test_decentralized_violations_report_tables_of_the_wrong_width():
    assert binary_mechanism([[0.5, 0.5], [0.2, 0.9]]).violations() == []
    narrow = LocationSignaling((0, 1), np.ones((2, 1)))
    flat = LocationSignaling((0, 1), np.array([0.5, 0.5]))
    good = binary_mechanism([[0.5, 0.5]]).parts[0]
    problems = DecentralizedMechanism((good, narrow, flat)).violations()
    assert len(problems) == 2
    assert problems == [
        "location 1 table: shape (2, 1) for 2 signals",
        "location 2 table: shape (2,) for 2 signals",
    ]
    assert CentralizedMechanism((0, 1), np.ones((2, 1))).violations() == [
        "mechanism table: shape (2, 1) for 2 signals"
    ]
    assert CentralizedMechanism((0, 1), np.array([0.5, 0.5])).violations() == [
        "mechanism table: shape (2,) for 2 signals"
    ]
    labels = ((0,), (1,))
    assert CustomerStrategy(labels, np.ones((3, 1))).violations() == [
        "strategy table: shape (3, 1) for 2 signals"
    ]
    assert CustomerStrategy(labels, np.ones(2), class_fd=True).violations() == [
        "strategy table: shape (2,) for 2 signals"
    ]


def test_class_fd_flag_checks_structure():
    mech = binary_mechanism([[0.3, 0.7], [0.2, 0.9]])
    labels = mech.joint_signals
    good = np.zeros((4, 3))
    good[0, 0] = 1.0  # (0,0) -> leave
    good[1, 1] = 1.0  # (1,0) -> join 1
    good[2, 2] = 1.0  # (0,1) -> join 2
    good[3, 1] = 1.0  # (1,1) -> join 1
    assert CustomerStrategy(labels, good, class_fd=True).violations() == []

    leaves = good.copy()
    leaves[3] = (1.0, 0.0, 0.0)
    assert CustomerStrategy(labels, leaves, class_fd=True).violations()

    wrong_join = good.copy()
    wrong_join[1] = (0.0, 0.0, 1.0)
    assert CustomerStrategy(labels, wrong_join, class_fd=True).violations()
