"""Exact oracles: best response, evaluation, baseline mechanisms, the
binary-signal obedience rule, and grid search over binary decentralized
mechanisms.

Every signal's probability and posterior utilities are computed exactly,
with no sampling, so these are the ground truth the solvers are tested
against.  A decentralized mechanism is handled in product form, one
location's table at a time, so its joint table over states x signals is
never built; a centralized mechanism's table is used as given.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple, Sequence

import numpy as np

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
    SystemModel,
    binary_mechanism,
    require_valid,
)

# Absolute tolerance for customer-utility ties; utilities in play are O(1)-O(K).
TIE_TOL = 1e-9
# Parameter-count guard for the grid search.
GRID_PARAM_LIMIT = 8
# Grid candidates scored per block.  A block's float arrays (128 KiB each)
# stay in cache: 2^14 was the fastest of 2^13..2^18 on a 2-vCPU x86 VM.
_BATCH = 1 << 14

Mechanism = CentralizedMechanism | DecentralizedMechanism


def _signal_masses(
    system: SystemModel, mech: Mechanism
) -> tuple[list, np.ndarray, np.ndarray]:
    """Joint signal labels, their probabilities ``(M,)`` and utility masses ``(K, M)``.

    ``wins[k, s]`` is the prior-and-mechanism weighted utility of joining
    location k on signal s, so ``wins[k, s] / probs[s]`` is its posterior
    utility.  A decentralized mechanism is contracted one location at a
    time against the weight tensor ``[mu; mu*u_1; ...; mu*u_K]``, so its
    dense joint table is never formed.
    """
    if isinstance(mech, DecentralizedMechanism):
        if mech.num_locations != system.num_locations:
            raise InputError(
                f"mechanism covers {mech.num_locations} locations, system has "
                f"{system.num_locations}"
            )
        for k, (part, size) in enumerate(zip(mech.parts, system.state_sizes)):
            if part.table.shape[0] != size:
                raise InputError(f"location {k} table has wrong state count")
        # mu's axes run from the last location to the first (first fastest).
        num_locs = system.num_locations
        mu = system.joint_vector.reshape(system.state_sizes[::-1])
        weights = [mu]
        for k, loc in enumerate(system.locations):
            others = [j for j in range(num_locs) if j != num_locs - 1 - k]
            weights.append(mu * np.expand_dims(loc.utility_array(), others))
        # Contracting axis 1 each time leaves the signal axes in the same order.
        masses = np.stack(weights)
        for part in reversed(mech.parts):
            masses = np.tensordot(masses, part.table, axes=(1, 0))
        masses = masses.reshape(num_locs + 1, -1)
        return mech.joint_signals(), masses[0], masses[1:]
    if mech.table.shape != (system.state_count, mech.num_signals):
        raise InputError(
            f"mechanism table shape {mech.table.shape} does not match "
            f"{system.state_count} states x {mech.num_signals} signals"
        )
    mass = system.joint_vector[:, None] * mech.table
    return list(mech.signals), mass.sum(axis=0), system.utility_matrix.T @ mass


def _system_choice(utilities: np.ndarray, payoffs: Sequence[float]) -> np.ndarray:
    """Action index (axis 0 of ``utilities``) the system-favoring customer plays.

    Among actions within ``TIE_TOL`` of the best utility, the largest
    payoff wins, then the smallest index; action 0 (leave) is worth zero
    to the system.
    """
    values = [0.0] + [float(v) for v in payoffs]
    priority = sorted(range(len(values)), key=lambda a: (-values[a], a))
    rank = np.argsort(priority).reshape((-1,) + (1,) * (utilities.ndim - 1))
    eligible = utilities >= utilities.max(axis=0) - TIE_TOL
    return np.argmin(np.where(eligible, rank, rank.size), axis=0)


def best_response(system: SystemModel, mech: Mechanism) -> CustomerStrategy:
    """Pure optimal customer strategy, ties broken in favor of the system.

    For each signal with positive probability the strategy plays one
    action maximizing the posterior expected utility (leaving is worth
    exactly zero); among maximizers within 1e-9 the action with the
    largest payoff wins, then the smallest index.  Zero-probability
    signals map to action 0.
    """
    labels, probs, wins = _signal_masses(system, mech)
    sent = probs > ZERO_MASS
    utilities = np.vstack([np.zeros(len(labels)), wins / np.where(sent, probs, 1.0)])
    chosen = np.where(sent, _system_choice(utilities, system.payoffs), 0)
    rows = np.zeros((len(labels), system.num_locations + 1))
    rows[np.arange(len(labels)), chosen] = 1.0
    return CustomerStrategy(tuple(labels), rows)


def evaluate(system: SystemModel, mech: Mechanism, strategy: CustomerStrategy) -> EvaluationReport:
    """Exact throughput, value, and the strategy's worst optimality slack."""
    labels, probs, wins = _signal_masses(system, mech)
    num_actions = system.num_locations + 1
    if strategy.table.shape != (len(labels), num_actions):
        raise InputError(
            f"strategy table shape {strategy.table.shape} does not match "
            f"{len(labels)} signals x {num_actions} actions"
        )
    if tuple(strategy.signals) != tuple(labels):
        raise InputError("strategy signal labels do not match the mechanism")

    action_mass = probs @ strategy.table
    per_location = action_mass[1:]
    throughput = float(per_location.sum())
    value = float(np.dot(per_location, system.payoffs))

    # Utility mass of every action (leaving is worth zero) less the best one,
    # over the (signal, action) pairs the strategy plays on sent signals.
    gains = np.vstack([np.zeros(len(labels)), wins])
    sent = probs > ZERO_MASS
    played = (strategy.table.T > ZERO_MASS) & sent
    worst = float(np.min(gains - gains.max(axis=0), where=played, initial=0.0))
    return EvaluationReport(
        throughput=throughput,
        value=value,
        per_location_throughput=tuple(float(v) for v in per_location),
        strategy_optimal=worst >= -1e-7,
        worst_slack=worst,
    )


def full_information(system: SystemModel) -> DecentralizedMechanism:
    """Each location truthfully reports its own state (signals = states)."""
    parts = [
        LocationSignaling(tuple(loc.states), np.eye(loc.num_states))
        for loc in system.locations
    ]
    return DecentralizedMechanism(tuple(parts))


def no_information(system: SystemModel) -> DecentralizedMechanism:
    """Each location sends one constant signal."""
    parts = [
        LocationSignaling((0,), np.ones((loc.num_states, 1)))
        for loc in system.locations
    ]
    return DecentralizedMechanism(tuple(parts))


class ObedienceTerms(NamedTuple):
    """One location's obedience terms, one entry per candidate binary table."""

    zero_mass: np.ndarray  # prior mass of signal 0
    zero_util: np.ndarray  # utility mass of signal 0
    one_util: np.ndarray  # utility mass of signal 1
    never_zero: np.ndarray  # signal 0 is never sent on a positive-prior state
    mean_util: float  # prior-mean utility


def obedience_terms(loc: LocationModel, zero: np.ndarray, one: np.ndarray) -> ObedienceTerms:
    """Obedience terms of candidate signal-0 and signal-1 tables ``(candidates, n_k)``."""
    prior = loc.prior_array()
    util = loc.utility_array()
    weighted = prior * util
    return ObedienceTerms(
        zero @ prior,
        zero @ weighted,
        one @ weighted,
        np.max(prior * zero, axis=1) <= ZERO_MASS,
        float(np.dot(prior, util)),
    )


def obedience_conditions(
    terms: Sequence[ObedienceTerms], rows: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """The binary-signal obedience conditions of candidate mechanisms.

    Candidate i uses row ``rows[k][i]`` of location k's terms.  Condition
    (I) with witness k: location k never sends 0, has nonnegative
    prior-mean utility, and that mean times every other location's
    signal-0 mass covers its signal-0 utility mass.  Condition (II):
    every location's signal-1 utility mass is nonnegative and signal-0
    utility mass nonpositive.  Either one means the mechanism admits an
    optimal join-on-1 strategy.  Returns condition (I) per witness
    location, shape ``(K, m)``, and condition (II), shape ``(m,)``.
    """
    cond_ii = np.ones(rows[0].size, dtype=bool)
    for t, r in zip(terms, rows):
        cond_ii &= ((t.one_util >= -PROB_TOL) & (t.zero_util <= PROB_TOL))[r]
    cond_i = np.zeros((len(terms), rows[0].size), dtype=bool)
    for k, witness in enumerate(terms):
        if witness.mean_util < -PROB_TOL:
            continue
        held = witness.never_zero[rows[k]]
        for l, (other, r) in enumerate(zip(terms, rows)):
            if l != k:
                held &= (other.zero_mass * witness.mean_util >= other.zero_util - PROB_TOL)[r]
        cond_i[k] = held
    return cond_i, cond_ii


def _grid_values(resolution: float) -> np.ndarray:
    if not 0.0 < resolution < 1.0:
        raise InputError(f"resolution must lie in (0, 1), got {resolution}")
    steps = 1.0 / resolution
    if abs(steps - round(steps)) < 1e-9:
        return np.linspace(0.0, 1.0, int(round(steps)) + 1)
    vals = np.arange(0.0, 1.0 + 1e-12, resolution)
    if vals[-1] < 1.0 - 1e-12:
        vals = np.append(vals, 1.0)
    return np.clip(vals, 0.0, 1.0)


def _location_combos(values: np.ndarray, num_states: int) -> np.ndarray:
    grids = np.meshgrid(*([values] * num_states), indexing="ij")
    return np.stack(grids, axis=-1).reshape(-1, num_states)


def grid_search_decentralized(
    system: SystemModel,
    resolution: float,
    *,
    obedient_only: bool = False,
) -> tuple[DecentralizedMechanism, float]:
    """Enumerate binary-signal decentralized mechanisms on a parameter grid.

    Every sigma_k(1|w_k) ranges over {0, resolution, ..., 1}.  By default
    each candidate is scored by best response plus exact evaluation, so
    the result is a lower bound on the optimal decentralized throughput.
    With ``obedient_only`` (independent priors only) candidates are
    filtered to those admitting an optimal join-on-1 strategy and scored
    by the closed-form product throughput.

    Candidates are numbered with location 1's grid point fastest and the
    first best-scoring one wins.  Scoring runs in blocks of the other
    locations' grid points, against every location-1 grid point at once.
    """
    require_valid(system)
    sizes = system.state_sizes
    if sum(sizes) > GRID_PARAM_LIMIT:
        raise InputError(
            f"grid search needs at most {GRID_PARAM_LIMIT} parameters, "
            f"instance has {sum(sizes)}"
        )
    if obedient_only and system.prior_mode != "independent":
        raise InputError("the obedience filter applies to independent priors only")

    values = _grid_values(resolution)
    num_locs = system.num_locations
    combos = [_location_combos(values, n) for n in sizes]
    counts = [c.shape[0] for c in combos]
    head = counts[0]
    rest_total = math.prod(counts[1:])

    if obedient_only:
        terms = [obedience_terms(loc, 1.0 - c, c) for loc, c in zip(system.locations, combos)]
    else:
        # weights[r, (a, w_1)] is the mass [mu; mu*u_1; ...; mu*u_K][a] of the
        # state with location-1 index w_1 and other-locations index r.
        weights = system.joint_vector[:, None] * np.column_stack(
            [np.ones(system.state_count), system.utility_matrix]
        )
        weights = weights.reshape(-1, sizes[0], num_locs + 1).transpose(0, 2, 1)
        weights = weights.reshape(-1, (num_locs + 1) * sizes[0])
        head_signal = (1.0 - combos[0], combos[0])  # (head, n_1) per signal of location 1
        always_join_on_tie = min(system.payoffs) > 0.0

    best_value = -math.inf
    best_flat = 0
    batch = max(1, _BATCH // head)
    for start in range(0, rest_total, batch):
        block = np.arange(start, min(start + batch, rest_total))
        rows = [np.arange(head)]
        rem = block
        for k in range(1, num_locs):
            rows.append(rem % counts[k])
            rem = rem // counts[k]

        if obedient_only:
            rows = [np.tile(rows[0], block.size)] + [np.repeat(r, head) for r in rows[1:]]
            cond_i, cond_ii = obedience_conditions(terms, rows)
            miss = np.ones(rows[0].size)
            for t, r in zip(terms, rows):
                miss *= t.zero_mass[r]
            scores = np.where(cond_ii | cond_i.any(axis=0), 1.0 - miss, -math.inf)
        else:
            scores = np.zeros((block.size, head))
            rest_signal = [(1.0 - combos[k][rows[k]], combos[k][rows[k]])
                           for k in range(1, num_locs)]
            for u_rest in itertools.product((0, 1), repeat=num_locs - 1):
                # sig[i, r]: chance that block row i's other locations send u_rest in r.
                sig = np.ones((block.size, 1))
                for q, u in zip(rest_signal, u_rest):
                    sig = (q[u][:, :, None] * sig[:, None, :]).reshape(block.size, -1)
                # rest_mass[(a, i), w_1]: block row i's mass a with location 1 at w_1.
                rest_mass = (sig @ weights).reshape(block.size, num_locs + 1, -1)
                rest_mass = rest_mass.transpose(1, 0, 2).reshape(-1, sizes[0])
                for q in head_signal:
                    mass = (rest_mass @ q.T).reshape(num_locs + 1, block.size, head)
                    prob, wins = mass[0], mass[1:]
                    valid = prob > ZERO_MASS
                    if always_join_on_tie:
                        # With every payoff positive, the system-favoring best
                        # response joins exactly when some location's posterior
                        # clears the tie tolerance.
                        joins = wins.max(axis=0) >= -TIE_TOL * prob
                    else:
                        utilities = np.concatenate(
                            [np.zeros((1,) + prob.shape), wins / np.where(valid, prob, 1.0)]
                        )
                        joins = _system_choice(utilities, system.payoffs) != 0
                    scores += np.where(valid & joins, prob, 0.0)

        scores = scores.ravel()
        arg = int(np.argmax(scores))
        if scores[arg] > best_value:
            best_value = float(scores[arg])
            best_flat = start * head + arg

    rem = best_flat
    chosen_probs = []
    for k in range(num_locs):
        chosen_probs.append(combos[k][rem % counts[k]])
        rem //= counts[k]
    return binary_mechanism(chosen_probs), best_value
