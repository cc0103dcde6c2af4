"""Instance files (JSON) and documented random instance generation.

File layout: a top-level object with "locations", an array of objects
carrying "name", "states" (array of strings), "prior" and "utility"
(arrays of numbers, one per state), and an optional "payoff" (default
1).  An optional "joint_prior" array of {"state": [labels], "prob": p}
entries switches the instance to an explicit joint distribution; tuples
not listed get probability zero.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .model import (
    InputError,
    LocationModel,
    SolverError,
    SystemModel,
    require_valid,
    state_indices,
)


class ParseError(InputError):
    """Malformed instance file; the message cites the offending key."""


def _number(value, where: str) -> float:
    if type(value) not in (int, float):
        raise ParseError(f"{where}: expected a number, got {value!r}")
    return float(value)


def _number_list(value, where: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected an array of numbers")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(value))


def parse_instance(text: str) -> SystemModel:
    """Parse an instance document into a SystemModel (not yet validated)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(
            f"invalid JSON at line {err.lineno}, column {err.colno}: {err.msg}"
        ) from err
    if not isinstance(doc, dict):
        raise ParseError("the top level must be an object")
    raw_locations = doc.get("locations")
    if not isinstance(raw_locations, list) or not raw_locations:
        raise ParseError('"locations" must be a nonempty array')

    locations = []
    for i, raw in enumerate(raw_locations):
        where = f"locations[{i}]"
        if not isinstance(raw, dict):
            raise ParseError(f"{where}: expected an object")
        for key in ("name", "states", "prior", "utility"):
            if key not in raw:
                raise ParseError(f"{where}: missing key {key!r}")
        if not isinstance(raw["name"], str):
            raise ParseError(f"{where}.name: expected a string")
        states = raw["states"]
        if not isinstance(states, list) or not all(isinstance(s, str) for s in states):
            raise ParseError(f"{where}.states: expected an array of strings")
        locations.append(
            LocationModel(
                name=raw["name"],
                states=tuple(states),
                prior=_number_list(raw["prior"], f"{where}.prior"),
                utility=_number_list(raw["utility"], f"{where}.utility"),
                payoff=_number(raw.get("payoff", 1.0), f"{where}.payoff"),
            )
        )

    joint = None
    if "joint_prior" in doc:
        raw_joint = doc["joint_prior"]
        if not isinstance(raw_joint, list):
            raise ParseError('"joint_prior" must be an array')
        sizes = tuple(loc.num_states for loc in locations)
        table = np.zeros(math.prod(sizes))
        seen = set()
        for i, raw in enumerate(raw_joint):
            where = f"joint_prior[{i}]"
            if not isinstance(raw, dict) or "state" not in raw or "prob" not in raw:
                raise ParseError(f'{where}: expected an object with "state" and "prob"')
            labels = raw["state"]
            if not isinstance(labels, list) or len(labels) != len(locations):
                raise ParseError(
                    f"{where}.state: expected one state label per location"
                )
            idxs = []
            for k, label in enumerate(labels):
                try:
                    idxs.append(locations[k].states.index(label))
                except ValueError:
                    raise ParseError(
                        f"{where}.state[{k}]: {label!r} is not a state of "
                        f"location {locations[k].name!r}"
                    ) from None
            flat = int(np.ravel_multi_index(idxs, sizes, order="F"))
            if flat in seen:
                raise ParseError(f"{where}: duplicate state tuple {labels}")
            seen.add(flat)
            table[flat] = _number(raw["prob"], f"{where}.prob")
        joint = tuple(table)

    return SystemModel(tuple(locations), joint=joint)


def read_instance(path) -> SystemModel:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as err:
            raise ParseError(f"the instance file is not UTF-8 text: {err}") from None
    return parse_instance(text)


def format_instance(system: SystemModel) -> str:
    """Serialize a system to its JSON document (round-trips bit-exactly)."""
    doc: dict = {
        "locations": [
            {
                "name": loc.name,
                "states": list(loc.states),
                "prior": list(loc.prior),
                "utility": list(loc.utility),
                "payoff": loc.payoff,
            }
            for loc in system.locations
        ]
    }
    if system.joint is not None:
        flats = np.flatnonzero(system.joint)
        tuples = np.unravel_index(flats, system.state_sizes, order="F")
        doc["joint_prior"] = [
            {
                "state": [loc.states[i] for loc, i in zip(system.locations, idxs)],
                "prob": system.joint[flat],
            }
            for flat, idxs in zip(flats, zip(*tuples))
        ]
    return json.dumps(doc, indent=2)


def write_instance(system: SystemModel, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_instance(system))
        handle.write("\n")


# --- Random instance generation -------------------------------------------
#
# Priors are uniform draws normalized to sum 1 (a flat Dirichlet stand-in),
# utilities are uniform in [-2, 2].  A location whose utilities are all
# negative gets one state's utility redrawn from [0, 2] so
# persuasion-relevant properties are exercised.


def _random_utilities(
    rng: np.random.Generator,
    num_states: int,
    require_negative_mean: bool,
    prior: np.ndarray,
) -> tuple[float, ...]:
    for _ in range(1000):
        utility = rng.uniform(-2.0, 2.0, num_states)
        if utility.max() < 0.0:
            utility[int(rng.integers(num_states))] = rng.uniform(0.0, 2.0)
        if require_negative_mean and float(prior @ utility) >= 0.0:
            continue
        return tuple(float(h) for h in utility)
    raise SolverError("could not draw utilities meeting the constraints")


def _count_range(count: int | tuple[int, int], what: str) -> tuple[int, int]:
    """``(low, high)`` of a fixed count or inclusive range, both at least 1."""
    low, high = count if isinstance(count, tuple) else (count, count)
    if low < 1 or high < low:
        raise InputError(
            f"{what} must be a count or a range low..high with 1 <= low <= high, got {count}"
        )
    return low, high


def random_independent_system(
    rng: np.random.Generator,
    num_locations: int | tuple[int, int] = (1, 5),
    states: int | tuple[int, int] = (2, 3),
    *,
    require_negative_mean: bool = False,
    payoff_range: tuple[float, float] | None = None,
) -> SystemModel:
    """Seeded random independent instance.

    ``num_locations`` and ``states`` are fixed counts or inclusive
    ranges, at least 1 (anything else raises :class:`InputError` before
    any draw); ``payoff_range`` draws heterogeneous payoffs uniformly
    (default: every payoff is 1).  ``require_negative_mean`` redraws
    utilities until each location's prior-mean utility is negative; a
    one-state location never gets one, so ``states`` must exclude 1.
    """
    _count_range(num_locations, "num_locations")
    fewest, _ = _count_range(states, "states")
    if require_negative_mean and fewest <= 1:
        raise InputError("require_negative_mean needs at least two states per location")
    if isinstance(num_locations, tuple):
        num_locations = int(rng.integers(num_locations[0], num_locations[1] + 1))
    locations = []
    for k in range(num_locations):
        n = states
        if isinstance(n, tuple):
            n = int(rng.integers(n[0], n[1] + 1))
        raw = rng.uniform(0.0, 1.0, n)
        prior = raw / raw.sum()
        utility = _random_utilities(rng, n, require_negative_mean, prior)
        payoff = 1.0 if payoff_range is None else float(rng.uniform(*payoff_range))
        locations.append(
            LocationModel(
                name=f"loc{k + 1}",
                states=tuple(f"s{i}" for i in range(n)),
                prior=tuple(float(p) for p in prior),
                utility=utility,
                payoff=payoff,
            )
        )
    system = SystemModel(tuple(locations))
    require_valid(system)
    return system


def random_joint_system(
    rng: np.random.Generator,
    num_locations: int,
    states: int = 2,
) -> SystemModel:
    """Seeded random instance with an explicit (generally correlated) joint prior."""
    _count_range(num_locations, "num_locations")
    _count_range(states, "states")
    sizes = (states,) * num_locations
    raw = rng.uniform(0.0, 1.0, math.prod(sizes))
    table = raw / raw.sum()

    index_matrix = state_indices(sizes)
    locations = []
    for k in range(num_locations):
        marginal = np.bincount(index_matrix[:, k], table, states)
        utility = _random_utilities(rng, states, False, marginal)
        locations.append(
            LocationModel(
                name=f"loc{k + 1}",
                states=tuple(f"s{i}" for i in range(states)),
                prior=tuple(float(p) for p in marginal),
                utility=utility,
            )
        )
    system = SystemModel(tuple(locations), joint=tuple(float(p) for p in table))
    require_valid(system)
    return system
