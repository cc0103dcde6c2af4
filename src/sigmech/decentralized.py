"""Optimal decentralized signaling for independent systems, the obedience
characterization for binary signals (conditions (I) and (II), decided by
:func:`check_obedience`), the payoff-weighted composition, and the
single-location fallback for correlated systems.  The mechanisms the last
two take as input must fit the system (:func:`model.require_fit`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import oracle
from .centralized import obedience_lp, priority_start
from .lp import solve
from .model import (
    PROB_TOL,
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
    require_fit,
    require_stochastic,
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


# Signal-1 posterior of a location that never sends 1: below every real
# posterior, so it is joined only on rows no real posterior competes for,
# but above the -inf of a location that sent 0.
_NEVER_SENT = -np.finfo(float).max


def _compose(
    system: SystemModel, members: Iterable[int]
) -> tuple[DecentralizedMechanism, CustomerStrategy, dict[int, IsolatedSolution]]:
    """Product of the members' isolated optima, and its join-on-1 customer.

    Every other location always sends 0.  The customer leaves on the
    all-zero signal; otherwise it joins the location sending 1 that
    :func:`oracle._system_choice`, the rule of :func:`oracle.best_response`,
    picks by signal-1 posterior utility.  Returns the mechanism, the
    strategy and the members' isolated solutions.
    """
    solutions = {k: solve_isolated(system.locations[k]) for k in members}
    parts, posteriors = [], []
    for k, loc in enumerate(system.locations):
        if k in solutions:
            part = solutions[k].mechanism
        else:
            table = np.column_stack([np.ones(loc.num_states), np.zeros(loc.num_states)])
            part = LocationSignaling((0, 1), table)
        prior, ones = loc.prior_array(), part.table[:, 1]
        mass = float(np.dot(prior, ones))
        weighted = float(np.dot(prior * loc.utility_array(), ones))
        posteriors.append(weighted / mass if mass > ZERO_MASS else _NEVER_SENT)
        parts.append(part)
    mech = DecentralizedMechanism(tuple(parts))

    # Signals are (0, 1) at every location, location 1 fastest: bit k of
    # joint signal s is location k's signal.
    ones = state_indices((2,) * system.num_locations).T.astype(bool)
    utilities = np.full((system.num_locations + 1, ones.shape[1]), -np.inf)
    utilities[0, 0] = 0.0  # leaving, on the all-zero signal only
    np.copyto(utilities[1:], np.array(posteriors)[:, None], where=ones)
    rows = np.eye(system.num_locations + 1)[oracle._system_choice(utilities, system.payoffs)]
    return mech, CustomerStrategy(mech.joint_signals, rows, class_fd=True), solutions


def compose_optimal(
    system: SystemModel,
) -> tuple[DecentralizedMechanism, CustomerStrategy, EvaluationReport]:
    """Optimal decentralized mechanism for an independent system.

    Solves each location in isolation and takes the product mechanism;
    the throughput is 1 - prod_k (1 - th_iso_k).  The customer joins,
    among locations signaling 1, the one :func:`oracle.best_response`'s
    tie rule picks by signal-1 posterior utility: within
    ``oracle.TIE_TOL`` of the best, the largest payoff, then the
    smallest index.

    Every payoff must be positive (PreconditionError otherwise): where
    the only location sending 1 has posterior utility 0 and payoff at
    most 0, the system-favoring customer leaves, which no customer that
    joins on 1 can match.  :func:`heterogeneous_compose` drops such
    locations instead.
    """
    require_valid(system)
    if system.prior_mode != "independent":
        raise PreconditionError(
            "compose_optimal needs independent priors; use correlated_fallback "
            "for systems with a joint prior"
        )
    for k, loc in enumerate(system.locations):
        if loc.payoff <= 0.0:
            raise PreconditionError(
                f"location {k} ({loc.name!r}) has nonpositive payoff {loc.payoff:.6g}; "
                "compose_optimal needs every payoff positive"
            )
    mech, strategy, _ = _compose(system, range(system.num_locations))
    report = oracle.evaluate(system, mech, strategy)
    return mech, strategy, report


def check_obedience(system: SystemModel, mech: DecentralizedMechanism) -> ObedienceVerdict:
    """Decide whether a binary-signal mechanism admits an optimal join-on-1 strategy.

    Condition (I) with witness k: location k never sends 0 on a
    positive-prior state, has nonnegative prior-mean utility, and that
    mean times every other location's signal-0 mass covers its signal-0
    utility mass.  Condition (II): every location's signal-1 utility
    mass is nonnegative and its signal-0 utility mass nonpositive.
    Condition (I) is reported first, with its smallest witness location.
    """
    require_valid(system)
    if system.prior_mode != "independent":
        raise PreconditionError("the obedience conditions apply to independent priors")
    require_fit(system, mech)
    require_stochastic(mech)
    if not mech.is_binary:
        raise InputError("check_obedience needs binary signals (0, 1) per location")

    zero_mass, zero_util, means, never_zero = [], [], [], []
    condition_ii = True
    for loc, part in zip(system.locations, mech.parts):
        prior, util = loc.prior_array(), loc.utility_array()
        weighted = prior * util
        zero, one = part.table[:, 0], part.table[:, 1]
        zero_mass.append(float(zero @ prior))
        zero_util.append(float(zero @ weighted))
        means.append(float(np.dot(prior, util)))
        never_zero.append(np.max(prior * zero) <= ZERO_MASS)
        condition_ii = condition_ii and one @ weighted >= -PROB_TOL and zero_util[-1] <= PROB_TOL
    for k, mean in enumerate(means):
        others = (l for l in range(len(means)) if l != k)
        if never_zero[k] and mean >= -PROB_TOL and all(
            zero_mass[l] * mean >= zero_util[l] - PROB_TOL for l in others
        ):
            return ObedienceVerdict(CONDITION_I, k)
    return ObedienceVerdict(CONDITION_II if condition_ii else NEITHER)


def heterogeneous_compose(
    system: SystemModel,
) -> tuple[DecentralizedMechanism, CustomerStrategy, float]:
    """Payoff-weighted composition for independent systems.

    Locations with nonpositive payoff, or with negative utility on every
    positive-prior state, always signal 0.  The rest must have negative
    prior-mean utility (checked), and each runs its isolated mechanism,
    whose signal-1 posterior utility is 0.  The customer joins among
    locations signaling 1 as in :func:`compose_optimal`, by
    :func:`oracle.best_response`'s tie rule, so those posteriors tie and
    the highest payoff wins.  Returns the closed-form telescoped value,
    summed in that payoff order.
    """
    require_valid(system)
    if system.prior_mode != "independent":
        raise PreconditionError("heterogeneous_compose needs independent priors")

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

    mech, strategy, solutions = _compose(system, retained)

    order = sorted(retained, key=lambda k: (-system.locations[k].payoff, k))
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
    require_fit(system, central)
    require_stochastic(central)
    if central.signals != tuple(range(system.num_locations + 1)):
        raise InputError("the centralized mechanism must use signals 0..K")

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
