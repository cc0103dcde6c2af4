"""Optimal decentralized signaling for independent systems, the obedience
characterization for binary signals, the payoff-weighted composition, and
the single-location fallback for correlated systems.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .centralized import obedience_lp, priority_start
from .lp import solve
from .model import (
    ZERO_MASS,
    CentralizedMechanism,
    CustomerStrategy,
    DecentralizedMechanism,
    EvaluationReport,
    InputError,
    LocationModel,
    LocationSignaling,
    PreconditionError,
    SystemModel,
    binary_mechanism,
    require_valid,
    state_indices,
)

CONDITION_I = "condition_i"
CONDITION_II = "condition_ii"
NEITHER = "neither"


@dataclass(frozen=True, eq=False)
class IsolatedSolution:
    """Optimal single-location persuasion: binary mechanism and its throughput."""

    mechanism: LocationSignaling
    th_iso: float


@dataclass(frozen=True)
class ObedienceVerdict:
    """Outcome of the binary-signal obedience check.

    ``kind`` is ``condition_i`` (some location always signals 1 and is
    always worth joining), ``condition_ii`` (every location's signals
    are individually obedient), or ``neither``.  ``location`` names the
    witness for condition (I).
    """

    kind: str
    location: int | None = None

    @property
    def holds(self) -> bool:
        return self.kind != NEITHER


def solve_isolated(location: LocationModel) -> IsolatedSolution:
    """Maximize the join probability of one location in isolation.

    This is the obedience LP with K = 1, the single-location persuasion
    problem of Kamenica and Gentzkow: recommend join (signal 1) or leave
    (signal 0) in each state so that both recommendations are obeyed.
    It is solved from full information (join exactly where the utility
    is nonnegative) if the prior-mean utility is not positive, else from
    always joining (see :func:`centralized.priority_start`), and its
    (n, 2) solution is the location's signal table.
    """
    prior = location.prior_array()
    util = location.utility_array()[:, None]
    lp = obedience_lp(prior, util, np.ones(1))
    solution = solve(lp, priority_start(prior, util))
    part = LocationSignaling((0, 1), solution.x.reshape(location.num_states, 2))
    return IsolatedSolution(part, solution.objective_value)


def _join_on_one_strategy(
    system: SystemModel, mech: DecentralizedMechanism, priority: list[int]
) -> CustomerStrategy:
    """Deterministic join-on-1 strategy over the binary joint signal space.

    On each nonzero signal vector the customer joins the first location
    in ``priority`` among those signaling 1.  The all-zero vector maps to
    leaving.
    """
    num_locs = system.num_locations
    labels = mech.joint_signals
    # Signals are (0, 1) at every location, location 1 fastest: bit k of
    # joint signal s is location k's signal.
    ones = state_indices((2,) * num_locs).astype(bool)
    rank = np.argsort(priority)
    pick = np.argmin(np.where(ones, rank, num_locs), axis=1)
    action = np.where(ones.any(axis=1), pick + 1, 0)
    rows = np.zeros((len(labels), num_locs + 1))
    rows[np.arange(len(labels)), action] = 1.0
    return CustomerStrategy(labels, rows, class_fd=True)


def compose_optimal(
    system: SystemModel,
) -> tuple[DecentralizedMechanism, CustomerStrategy, EvaluationReport]:
    """Optimal decentralized mechanism for an independent system.

    Solves each location in isolation and takes the product mechanism;
    the throughput is 1 - prod_k (1 - th_iso_k).  The customer joins,
    among locations signaling 1, one with the largest posterior utility
    given its own signal 1 (smallest index on ties).
    """
    require_valid(system)
    if system.prior_mode != "independent":
        raise PreconditionError(
            "compose_optimal needs independent priors; use correlated_fallback "
            "for systems with a joint prior"
        )
    solutions = [solve_isolated(loc) for loc in system.locations]
    mech = DecentralizedMechanism(tuple(sol.mechanism for sol in solutions))
    posteriors = []
    for loc, part in zip(system.locations, mech.parts):
        prior, ones = loc.prior_array(), part.table[:, 1]
        mass = float(np.dot(prior, ones))
        weighted = float(np.dot(prior * loc.utility_array(), ones))
        posteriors.append(weighted / mass if mass > ZERO_MASS else -math.inf)
    priority = sorted(range(system.num_locations), key=lambda k: (-posteriors[k], k))
    strategy = _join_on_one_strategy(system, mech, priority)
    report = oracle.evaluate(system, mech, strategy)
    return mech, strategy, report


def check_obedience(system: SystemModel, mech: DecentralizedMechanism) -> ObedienceVerdict:
    """Decide whether a binary-signal mechanism admits an optimal join-on-1 strategy.

    Applies :func:`oracle.obedience_conditions` to the mechanism alone.
    Condition (I) is reported first, with its smallest witness location.
    """
    require_valid(system)
    if system.prior_mode != "independent":
        raise PreconditionError("the obedience conditions apply to independent priors")
    if mech.num_locations != system.num_locations or not mech.is_binary:
        raise InputError("check_obedience needs binary signals (0, 1) per location")

    terms = [
        oracle.obedience_terms(loc, part.table[None, :, 0], part.table[None, :, 1])
        for loc, part in zip(system.locations, mech.parts)
    ]
    cond_i, cond_ii = oracle.obedience_conditions(terms, [np.zeros(1, dtype=int)] * len(terms))
    witnesses = np.flatnonzero(cond_i[:, 0])
    if witnesses.size:
        return ObedienceVerdict(CONDITION_I, int(witnesses[0]))
    return ObedienceVerdict(CONDITION_II if cond_ii[0] else NEITHER)


def heterogeneous_compose(
    system: SystemModel,
) -> tuple[DecentralizedMechanism, CustomerStrategy, float]:
    """Payoff-weighted composition for independent systems.

    Locations with nonpositive payoff, or with negative utility on every
    positive-prior state, always signal 0.  The rest must have negative
    prior-mean utility (checked), are sorted by payoff descending, and
    each runs its isolated mechanism; the customer joins the
    highest-payoff location among those signaling 1.  Returns the
    closed-form telescoped value.
    """
    require_valid(system)
    if system.prior_mode != "independent":
        raise PreconditionError("heterogeneous_compose needs independent priors")

    num_locs = system.num_locations
    retained = []
    for k, loc in enumerate(system.locations):
        persuadable = any(
            p > 0.0 and h >= 0.0 for p, h in zip(loc.prior, loc.utility)
        )
        if loc.payoff <= 0.0 or not persuadable:
            continue
        if loc.expected_utility() >= 0.0:
            raise PreconditionError(
                f"location {k} ({loc.name!r}) has nonnegative prior-mean utility "
                f"{loc.expected_utility():.6g}; the payoff-weighted guarantee "
                "requires it to be negative"
            )
        retained.append(k)

    order = sorted(retained, key=lambda k: (-system.locations[k].payoff, k))
    solutions = {k: solve_isolated(system.locations[k]) for k in order}

    parts: list[LocationSignaling] = []
    for k, loc in enumerate(system.locations):
        if k in solutions:
            parts.append(solutions[k].mechanism)
        else:
            table = np.column_stack([np.ones(loc.num_states), np.zeros(loc.num_states)])
            parts.append(LocationSignaling((0, 1), table))
    mech = DecentralizedMechanism(tuple(parts))

    priority = order + [k for k in range(num_locs) if k not in solutions]
    strategy = _join_on_one_strategy(system, mech, priority)

    value = 0.0
    miss = 1.0
    for pos, k in enumerate(order):
        miss *= 1.0 - solutions[k].th_iso
        pay = system.locations[k].payoff
        next_pay = system.locations[order[pos + 1]].payoff if pos + 1 < len(order) else 0.0
        value += (pay - next_pay) * (1.0 - miss)
    return mech, strategy, value


def correlated_fallback(
    system: SystemModel, central: CentralizedMechanism
) -> DecentralizedMechanism:
    """Single-location simulation of an obedient centralized mechanism.

    The location with the largest recommended mass signals 1 with the
    probability that the centralized mechanism would have recommended
    it, conditional on that location's own state; everyone else signals
    0.  Masses within ``oracle.TIE_TOL`` of the largest tie (on symmetric
    instances they differ only by the LP's roundoff), and the first of
    them signals.  A best response then achieves at least 1/K of the
    centralized throughput.
    """
    require_valid(system)
    num_locs = system.num_locations
    if central.signals != tuple(range(num_locs + 1)):
        raise InputError("the centralized mechanism must use signals 0..K")
    if central.table.shape[0] != system.state_count:
        raise InputError("mechanism table does not match the system's state space")

    recommended = system.joint_vector[:, None] * central.table[:, 1:]  # (states, K)
    mass = recommended.sum(axis=0)
    pick = int(np.flatnonzero(mass >= mass.max() - oracle.TIE_TOL)[0])

    denom = system.marginal(pick)
    numer = np.bincount(system.state_index_matrix[:, pick], recommended[:, pick], denom.size)
    ones = np.zeros(numer.size)
    positive = denom > 0.0
    ones[positive] = np.clip(numer[positive] / denom[positive], 0.0, 1.0)

    probs = [np.zeros(loc.num_states) for loc in system.locations]
    probs[pick] = ones
    return binary_mechanism(probs)
