"""Instance file parsing, serialization round-trips, and generators."""

import json

import numpy as np
import pytest

from sigmech.bounds import make_correlated_instance, make_tightness_instance
from sigmech.instances import (
    ParseError,
    format_instance,
    parse_instance,
    random_independent_system,
    random_joint_system,
    read_instance,
    write_instance,
)
from sigmech.model import InputError, validate

EXAMPLE = """
{
  "locations": [
    {"name": "north", "states": ["bad", "good"], "prior": [0.8, 0.2],
     "utility": [-1.0, 1.0]},
    {"name": "south", "states": ["bad", "good"], "prior": [0.5, 0.5],
     "utility": [-0.5, 0.25], "payoff": 2.5}
  ]
}
"""


def test_parse_independent_instance():
    system = parse_instance(EXAMPLE)
    assert system.prior_mode == "independent"
    assert system.num_locations == 2
    assert system.locations[0].payoff == 1.0
    assert system.locations[1].payoff == 2.5
    assert validate(system) == []


def test_parse_joint_instance():
    doc = json.loads(EXAMPLE)
    doc["joint_prior"] = [
        {"state": ["bad", "bad"], "prob": 0.45},
        {"state": ["good", "bad"], "prob": 0.05},
        {"state": ["bad", "good"], "prob": 0.35},
        {"state": ["good", "good"], "prob": 0.15},
    ]
    system = parse_instance(json.dumps(doc))
    assert system.prior_mode == "joint"
    assert system.joint_prior((1, 0)) == 0.05
    assert validate(system) == []


def test_parse_error_cites_position():
    with pytest.raises(ParseError, match="line"):
        parse_instance("{ not json }")


def test_parse_error_cites_key():
    with pytest.raises(ParseError, match=r"locations\[0\].prior"):
        parse_instance(
            '{"locations": [{"name": "a", "states": ["x"], "prior": ["oops"],'
            ' "utility": [0.0]}]}'
        )
    with pytest.raises(ParseError, match="missing key"):
        parse_instance('{"locations": [{"name": "a"}]}')
    with pytest.raises(ParseError, match="not a state"):
        parse_instance(
            '{"locations": [{"name": "a", "states": ["x"], "prior": [1.0],'
            ' "utility": [0.0]}], "joint_prior": [{"state": ["y"], "prob": 1.0}]}'
        )
    with pytest.raises(ParseError, match="duplicate"):
        parse_instance(
            '{"locations": [{"name": "a", "states": ["x"], "prior": [1.0],'
            ' "utility": [0.0]}], "joint_prior": [{"state": ["x"], "prob": 0.5},'
            ' {"state": ["x"], "prob": 0.5}]}'
        )
    with pytest.raises(ParseError, match="number"):
        parse_instance(
            '{"locations": [{"name": "a", "states": ["x"], "prior": [true],'
            ' "utility": [0.0]}]}'
        )


def test_round_trip_is_bit_exact(tmp_path):
    for system in (
        parse_instance(EXAMPLE),
        make_tightness_instance(3, 7.0).system,
        make_correlated_instance(3, 11.0),
        random_independent_system(np.random.default_rng(5), (1, 4), (2, 3)),
        random_joint_system(np.random.default_rng(6), 3, 2),
    ):
        text = format_instance(system)
        again = parse_instance(text)
        assert again.locations == system.locations
        assert again.joint == system.joint
        assert format_instance(again) == text

        path = tmp_path / "instance.json"
        write_instance(system, path)
        assert read_instance(path).locations == system.locations


def test_random_independent_generator_properties():
    rng = np.random.default_rng(7)
    for _ in range(50):
        system = random_independent_system(rng, (1, 5), (2, 3))
        assert validate(system) == []
        assert 1 <= system.num_locations <= 5
        for loc in system.locations:
            assert 2 <= loc.num_states <= 3
            assert max(loc.utility) >= 0.0  # persuadable by default
            assert all(-2.0 <= h <= 2.0 for h in loc.utility)


def test_random_generator_negative_mean_and_payoffs():
    rng = np.random.default_rng(8)
    for _ in range(30):
        system = random_independent_system(
            rng, (1, 4), (2, 3), require_negative_mean=True, payoff_range=(0.0, 3.0)
        )
        for loc in system.locations:
            assert loc.expected_utility() < 0.0
            assert 0.0 <= loc.payoff <= 3.0


def test_negative_mean_needs_two_states_per_location():
    # A one-state location's prior mean is its one utility, which the
    # generator never leaves negative.
    for states in (1, (1, 3)):
        with pytest.raises(InputError, match="at least two states"):
            random_independent_system(
                np.random.default_rng(3), 1, states, require_negative_mean=True
            )


def test_generators_refuse_empty_counts_before_drawing():
    rng = np.random.default_rng(3)
    before = rng.bit_generator.state
    cases = [
        (random_independent_system, (1, 0), "states"),
        (random_independent_system, (0, 2), "num_locations"),
        (random_independent_system, ((2, 1), 2), "num_locations"),
        (random_independent_system, (2, (3, 2)), "states"),
        (random_independent_system, (2, (0, 2)), "states"),
        (random_joint_system, (0, 2), "num_locations"),
        (random_joint_system, (2, 0), "states"),
    ]
    for generate, args, what in cases:
        with pytest.raises(InputError, match=what):
            generate(rng, *args)
    assert rng.bit_generator.state == before


def test_random_joint_generator_properties():
    rng = np.random.default_rng(9)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        system = random_joint_system(rng, k, 2)
        assert system.prior_mode == "joint"
        assert validate(system) == []


def test_generators_are_deterministic():
    one = random_independent_system(np.random.default_rng(42), (1, 5), (2, 3))
    two = random_independent_system(np.random.default_rng(42), (1, 5), (2, 3))
    assert one.locations == two.locations
