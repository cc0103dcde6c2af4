"""Exact oracles: best response, evaluation, baseline mechanisms, the
binary-signal obedience rule, and grid search over binary decentralized
mechanisms.

Every signal's probability and posterior utilities are computed exactly,
with no sampling, so these are the ground truth the solvers are tested
against.  A decentralized mechanism is handled in product form, so its
joint table over states x signals is never built.  On an independent
prior every joint signal's probability and utility masses are products
of per-location sums, so no array over the state space is built either;
on a joint prior the mechanism is contracted one location's table at a
time against the joint prior.  A centralized mechanism's table is used
as given.

The grid search scores one joint signal per candidate, not 2^K.  The
customer acts on posteriors, not on signal names, so relabeling a
location's two signals leaves a mechanism's throughput unchanged.  On a
grid closed under v -> 1 - v that relabeling is a mirror of the
location's grid index, so the all-ones signal's contributions, summed
over the 2^K mirror images of each candidate, give its full score.
"""

from __future__ import annotations

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
    kron_rows,
    require_valid,
)

# Absolute tolerance for customer-utility ties; utilities in play are O(1)-O(K).
TIE_TOL = 1e-9
# Parameter-count guard for the grid search.
GRID_PARAM_LIMIT = 8
# Candidate-count guard for the grid search, checked before any grid is
# built: above 51^4 (two binary locations at resolution 0.02), below 11^7.
# Each location's grid is built whole, so this also bounds its memory.
GRID_CANDIDATE_LIMIT = 10**7
# Grid candidates scored per block, unless one location-1 grid times the
# 2^(K-1) mirror images of an orbit is larger.  A block's float arrays
# (128 KiB each) stay in cache: with mirror-orbit blocks 2^14 and 2^15
# tied as the fastest of 2^13..2^18 on a 2-vCPU x86 VM (BENCH_grid_fold.json).
_BATCH = 1 << 14

Mechanism = CentralizedMechanism | DecentralizedMechanism


def _signal_masses(
    system: SystemModel, mech: Mechanism
) -> tuple[tuple, np.ndarray, np.ndarray]:
    """Joint signal labels, their probabilities ``(M,)`` and utility masses ``(K, M)``.

    ``wins[k, s]`` is the prior-and-mechanism weighted utility of joining
    location k on signal s, so ``wins[k, s] / probs[s]`` is its posterior
    utility.  A decentralized mechanism's dense joint table is never
    formed.  On an independent prior every joint signal's masses are
    products of per-location sums: location k contributes
    ``prior_k @ table_k`` to every row but its own utility row, which
    gets ``(prior_k * u_k) @ table_k``, and :func:`kron_rows` multiplies
    them out with location 1 fastest.  On a joint prior the mechanism is
    contracted one location at a time against the weight tensor
    ``[mu; mu*u_1; ...; mu*u_K]``.
    """
    if isinstance(mech, DecentralizedMechanism):
        if mech.num_locations != system.num_locations:
            raise InputError(
                f"mechanism covers {mech.num_locations} locations, system has "
                f"{system.num_locations}"
            )
        for k, (part, size) in enumerate(zip(mech.parts, system.state_sizes)):
            if part.table.shape != (size, len(part.signals)):
                raise InputError(
                    f"location {k} table shape {part.table.shape} does not match "
                    f"{size} states x {len(part.signals)} signals"
                )
        num_locs = system.num_locations
        if system.joint is None:
            blocks = []
            for k, (loc, part) in enumerate(zip(system.locations, mech.parts)):
                prior = loc.prior_array()
                block = np.repeat((prior @ part.table)[None], num_locs + 1, axis=0)
                block[k + 1] = (prior * loc.utility_array()) @ part.table
                blocks.append(block)
            masses = kron_rows(blocks)
            return mech.joint_signals, masses[0], masses[1:]
        # mu's axes run from the last location to the first (first fastest).
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
        return mech.joint_signals, masses[0], masses[1:]
    if mech.table.shape != (system.state_count, mech.num_signals):
        raise InputError(
            f"mechanism table shape {mech.table.shape} does not match "
            f"{system.state_count} states x {mech.num_signals} signals"
        )
    mass = system.joint_vector[:, None] * mech.table
    return mech.signals, mass.sum(axis=0), system.utility_matrix.T @ mass


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
    return CustomerStrategy(labels, rows)


def evaluate(system: SystemModel, mech: Mechanism, strategy: CustomerStrategy) -> EvaluationReport:
    """Exact throughput, value, and the strategy's worst optimality slack."""
    labels, probs, wins = _signal_masses(system, mech)
    num_actions = system.num_locations + 1
    if strategy.table.shape != (len(labels), num_actions):
        raise InputError(
            f"strategy table shape {strategy.table.shape} does not match "
            f"{len(labels)} signals x {num_actions} actions"
        )
    if strategy.signals != labels:
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


def _obedient_best(system: SystemModel, combos: list[np.ndarray]) -> tuple[float, int]:
    """Top score of the obedience filter and its first candidate number.

    Blocks are runs of consecutive candidates: every location-1 grid
    point against a run of the other locations' grid points.
    """
    counts = [c.shape[0] for c in combos]
    head = counts[0]
    terms = [obedience_terms(loc, 1.0 - c, c) for loc, c in zip(system.locations, combos)]
    rest_total = math.prod(counts[1:])
    best_value, best_flat = -math.inf, 0
    batch = max(1, _BATCH // head)
    for start in range(0, rest_total, batch):
        flat = np.arange(start * head, min(start + batch, rest_total) * head)
        rows = np.unravel_index(flat, counts, order="F")
        cond_i, cond_ii = obedience_conditions(terms, rows)
        miss = np.ones(rows[0].size)
        for t, r in zip(terms, rows):
            miss *= t.zero_mass[r]
        scores = np.where(cond_ii | cond_i.any(axis=0), 1.0 - miss, -math.inf)
        arg = int(np.argmax(scores))
        if scores[arg] > best_value:
            best_value, best_flat = float(scores[arg]), start * head + arg
    return best_value, best_flat


def _folded_best(system: SystemModel, combos: list[np.ndarray]) -> tuple[float, int]:
    """Top best-response score and its first candidate number.

    Only the all-ones joint signal is scored.  Signal u's contribution at
    candidate c is the all-ones contribution at c with every location
    where u_k = 0 mirrored (combo index i -> count - 1 - i), so one
    reversed add per location axis sums all 2^K signals.  A block holds
    orbit representatives (every other location's combo index in its
    lower half, middle included), their 2^(K-1) mirrors and every
    location-1 grid point.
    """
    sizes = system.state_sizes
    num_locs = system.num_locations
    counts = [c.shape[0] for c in combos]
    head = counts[0]
    # weights[r, (a, w_1)] is the mass [mu; mu*u_1; ...; mu*u_K][a] of the
    # state with location-1 index w_1 and other-locations index r.
    weights = system.joint_vector[:, None] * np.column_stack(
        [np.ones(system.state_count), system.utility_matrix]
    )
    weights = weights.reshape(-1, sizes[0], num_locs + 1).transpose(0, 2, 1)
    weights = weights.reshape(-1, (num_locs + 1) * sizes[0])
    always_join_on_tie = min(system.payoffs) > 0.0

    halves = [(count + 1) // 2 for count in counts[1:]]
    mirrors = 1 << (num_locs - 1)
    # mirrored[m, k - 1]: location k is mirrored in mirror pattern m.
    mirrored = ((np.arange(mirrors)[:, None] >> np.arange(num_locs - 1)) & 1).astype(bool)
    strides = np.cumprod([1] + counts[:-1])
    reps_total = math.prod(halves)
    best_value, best_flat = -math.inf, 0
    batch = max(1, _BATCH // (mirrors * head))
    for start in range(0, reps_total, batch):
        rem = np.arange(start, min(start + batch, reps_total))
        size = rem.size * mirrors
        # sig[i, r]: chance that row i's other locations all send 1 in state r;
        # rest[i]: row i's candidate number with location 1 at grid point 0.
        picks = [np.ones((size, 1))]  # sig's one column when K = 1
        rest = np.zeros(size, dtype=np.int64)
        for k in range(1, num_locs):
            low = rem % halves[k - 1]
            rem = rem // halves[k - 1]
            index = np.where(mirrored[:, k - 1], counts[k] - 1 - low[:, None], low[:, None]).ravel()
            rest += index * strides[k]
            picks.append(combos[k][index])
        sig = kron_rows(picks)
        # rest_mass[(a, i), w_1]: row i's mass a with location 1 at w_1.
        rest_mass = (sig @ weights).reshape(size, num_locs + 1, -1)
        rest_mass = rest_mass.transpose(1, 0, 2).reshape(-1, sizes[0])
        mass = (rest_mass @ combos[0].T).reshape(num_locs + 1, size, head)
        prob, wins = mass[0], mass[1:]
        valid = prob > ZERO_MASS
        # Two rules, because the fast one pays: on the 12 decentral-oracle grid
        # instances (one run each, 2-vCPU x86 VM) the grid search took 0.53 s
        # with it, 3.43 s with the general rule alone and 0.80 s with one rule
        # written in mass terms.
        if always_join_on_tie:
            # With every payoff positive, the system-favoring best response
            # joins exactly when some location's posterior clears the tie
            # tolerance.
            joins = wins.max(axis=0) >= -TIE_TOL * prob
        else:
            utilities = np.concatenate(
                [np.zeros((1,) + prob.shape), wins / np.where(valid, prob, 1.0)]
            )
            joins = _system_choice(utilities, system.payoffs) != 0
        scores = np.where(valid & joins, prob, 0.0)
        scores = scores.reshape((-1,) + (2,) * (num_locs - 1) + (head,))
        for axis in range(1, scores.ndim):
            scores = scores + np.flip(scores, axis)
        # The folded scores are exactly equal across each mirror orbit, and
        # blocks take the representatives in candidate order, so the first
        # block that reaches the top holds the first best-scoring candidate.
        scores = scores.reshape(size, head)
        top = scores.max()
        if top > best_value:
            rows, heads = np.nonzero(scores == top)
            best_value, best_flat = float(top), int((rest[rows] + heads).min())
    return best_value, best_flat


def grid_search_decentralized(
    system: SystemModel,
    resolution: float,
    *,
    obedient_only: bool = False,
) -> tuple[DecentralizedMechanism, float]:
    """Enumerate binary-signal decentralized mechanisms on a parameter grid.

    Every sigma_k(1|w_k) ranges over {0, resolution, ..., 1}; 1/resolution
    must be an integer (within 1e-9), so the grid is closed under
    v -> 1 - v.  By default each candidate is scored by best response plus
    exact evaluation, so the result is a lower bound on the optimal
    decentralized throughput.  The customer acts on posteriors, not on
    signal names, so signal u's contribution at a candidate is the
    all-ones signal's contribution at the candidate with every location
    where u_k = 0 mirrored (sigma_k -> 1 - sigma_k); only the all-ones
    signal is scored, and the 2^K relabelings are summed by one reversed
    add per location.  With ``obedient_only`` (independent priors only)
    candidates are filtered to those admitting an optimal join-on-1
    strategy and scored by the closed-form product throughput.

    Candidates are numbered with location 1's grid point fastest (each
    location's grid points in ``itertools.product`` order of its states),
    and the candidate with the smallest number among those scoring
    exactly the top score wins.
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
    steps = 1.0 / resolution
    if abs(steps - round(steps)) >= 1e-9:
        raise InputError(
            f"grid search needs 1/resolution to be an integer, got resolution {resolution}"
        )
    candidates = len(values) ** sum(sizes)  # prod_k (1/resolution + 1)^{n_k}
    if candidates > GRID_CANDIDATE_LIMIT:
        raise InputError(
            f"grid search scores at most {GRID_CANDIDATE_LIMIT} candidates, "
            f"instance has {candidates} at resolution {resolution}"
        )

    combos = [_location_combos(values, n) for n in sizes]
    best_value, best_flat = (_obedient_best if obedient_only else _folded_best)(system, combos)

    chosen = np.unravel_index(best_flat, [c.shape[0] for c in combos], order="F")
    return binary_mechanism([c[i] for c, i in zip(combos, chosen)]), best_value
