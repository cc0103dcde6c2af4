"""Exact oracles: best response, evaluation, baseline mechanisms, and
grid search over binary decentralized mechanisms.

Every signal's probability and posterior utilities are computed exactly,
with no sampling, so these are the ground truth the solvers are tested
against.  A decentralized mechanism is handled in product form, so its
joint table over states x signals is never built.  On an independent
prior every joint signal's probability and utility masses are products
of per-location sums, so no array over the state space is built either;
on a joint prior the mechanism is contracted one location's table at a
time against the joint prior.  A centralized mechanism's table is used
as given.  Every table must first fit the system (:func:`model.require_fit`).

The grid search scores one joint signal per candidate, not 2^K.  The
customer acts on posteriors, not on signal names, so relabeling a
location's two signals leaves a mechanism's throughput unchanged.  On a
grid closed under v -> 1 - v that relabeling is a mirror of the
location's grid index, so the all-ones signal's contributions, summed
over the 2^K mirror images of each candidate, give its full score.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .model import (
    ZERO_MASS,
    CentralizedMechanism,
    CustomerStrategy,
    DecentralizedMechanism,
    EvaluationReport,
    InputError,
    LocationSignaling,
    SystemModel,
    binary_mechanism,
    kron_rows,
    require_fit,
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
# 2^(K-1) mirror images of an orbit is larger.  A block's buffers, allocated
# once per call, hold K + 1 masses, two floats and two bools per candidate;
# at 2^14 candidates each float buffer (128 KiB) stays in cache: with
# mirror-orbit blocks 2^14 and 2^15 tied as the fastest of 2^13..2^18 on a
# 2-vCPU x86 VM (BENCH_grid_fold.json).  Near the candidate limit one block
# can hold a whole location-1 grid: one 8-state location at resolution 1/6
# has 7^8 grid points, so 196 MB of buffers beside its 369 MB grid.
_BATCH = 1 << 14
# Rows of the other locations' masses computed at once, in whole blocks: a
# chunk holds max(_CHUNK_ROWS, rows of one block) rows of at most 45 floats
# (signal products, combos and masses per location-1 state), under 2 MB at
# any grid the candidate limit admits.
_CHUNK_ROWS = 1 << 12

Mechanism = CentralizedMechanism | DecentralizedMechanism


def _state_weights(system: SystemModel) -> np.ndarray:
    """(S, K + 1) masses ``[mu, mu*u_1, ..., mu*u_K]`` of every state."""
    return system.joint_vector[:, None] * np.column_stack(
        [np.ones(system.state_count), system.utility_matrix]
    )


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
    require_fit(system, mech)
    if isinstance(mech, DecentralizedMechanism):
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
        # The state axes run from the last location to the first (first
        # fastest); contracting axis 1 each time leaves the signal axes in
        # the same order.
        masses = _state_weights(system).T.reshape((num_locs + 1,) + system.state_sizes[::-1])
        for part in reversed(mech.parts):
            masses = np.tensordot(masses, part.table, axes=(1, 0))
        masses = masses.reshape(num_locs + 1, -1)
        return mech.joint_signals, masses[0], masses[1:]
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


def _folded_best(system: SystemModel, combos: list[np.ndarray]) -> tuple[float, int]:
    """Top best-response score and its first candidate number.

    Only the all-ones joint signal is scored.  Signal u's contribution at
    candidate c is the all-ones contribution at c with every location
    where u_k = 0 mirrored (combo index i -> count - 1 - i), so its sum
    over c's mirror orbit is c's score.  A block holds orbit
    representatives (every other location's combo index in its lower
    half, middle included), their 2^(K-1) mirrors and every location-1
    grid point.  Each mirror axis is folded by adding its two halves,
    the most significant first, and the location-1 axis by adding the
    reversed columns onto the first ceil(count/2), so only the
    representatives keep a score.  The other locations' masses are
    computed for a chunk of blocks at once; each block then does one
    GEMM against location 1's grid and the scoring, in buffers allocated
    once per call.

    One join rule serves every payoff: the customer joins when
    :func:`_system_choice` picks a location (leave is worth 0, ties within
    TIE_TOL go to the largest payoff, leave beats payoff-0 locations on a
    tie), its posterior comparisons multiplied through by prob.  With t =
    TIE_TOL * prob, P the locations paying more than 0, N the others and
    bar = max(0, max_N wins) - t, it joins iff max_P wins >= bar (a P
    location ties leave and every N one) or bar > 0 (an N location beats
    leave).  Rounding is monotone, so bar = max(-t, fl(max_N wins - t))
    and bar > 0 iff max_N wins > t; with N empty, bar = -t.
    """
    sizes = system.state_sizes
    num_locs = system.num_locations
    counts = [c.shape[0] for c in combos]
    head = counts[0]
    half_head = (head + 1) // 2
    # weights[r, (a, w_1)] is the mass [mu; mu*u_1; ...; mu*u_K][a] of the
    # state with location-1 index w_1 and other-locations index r.
    weights = _state_weights(system).reshape(-1, sizes[0], num_locs + 1).transpose(0, 2, 1)
    weights = weights.reshape(-1, (num_locs + 1) * sizes[0])
    positive = [k for k, pay in enumerate(system.payoffs) if pay > 0.0]
    nonpositive = [k for k, pay in enumerate(system.payoffs) if pay <= 0.0]

    halves = [(count + 1) // 2 for count in counts[1:]]
    mirrors = 1 << (num_locs - 1)
    # mirrored[m, k - 1]: location k is mirrored in mirror pattern m.
    mirrored = ((np.arange(mirrors)[:, None] >> np.arange(num_locs - 1)) & 1).astype(bool)
    strides = np.cumprod([1] + counts[:-1])
    reps_total = math.prod(halves)
    batch = max(1, _BATCH // (mirrors * head))  # orbits per block
    rows = batch * mirrors
    chunk = batch * max(1, _CHUNK_ROWS // rows)  # orbits per chunk

    # One block's buffers, flat; a shorter last block uses their leading part.
    lhs = np.empty(rows * (num_locs + 1) * sizes[0])
    mass = np.empty(rows * (num_locs + 1) * head)
    valid = np.empty(rows * head, dtype=bool)
    joins = np.empty(rows * head, dtype=bool)
    # scores and spare take turns as source and target of the folds.
    scores = np.empty(rows * head)
    spare = np.empty(rows * head)

    def lead(buffer: np.ndarray, *shape: int) -> np.ndarray:
        return buffer[: math.prod(shape)].reshape(shape)

    best_value, best_flat = -math.inf, 0
    for start in range(0, reps_total, chunk):
        rem = np.arange(start, min(start + chunk, reps_total))
        # rest[j]: representative j's candidate number with location 1 at
        # grid point 0, the smallest in its orbit; sig[i, r]: chance that
        # row i's other locations all send 1 in state r, rows ordered
        # (representative, mirror pattern).
        rest = np.zeros(rem.size, dtype=np.int64)
        picks = [np.ones((rem.size * mirrors, 1))]  # sig's one column when K = 1
        for k in range(1, num_locs):
            low = rem % halves[k - 1]
            rem = rem // halves[k - 1]
            rest += low * strides[k]
            index = np.where(mirrored[:, k - 1], counts[k] - 1 - low[:, None], low[:, None]).ravel()
            picks.append(combos[k][index])
        sig = kron_rows(picks)
        # chunk_mass[i, a, w_1]: row i's mass a with location 1 at w_1.
        chunk_mass = (sig @ weights).reshape(-1, num_locs + 1, sizes[0])
        for first in range(0, rest.size, batch):
            reps = min(batch, rest.size - first)
            size = reps * mirrors
            block = lead(lhs, num_locs + 1, size, sizes[0])
            rows_of_block = chunk_mass[first * mirrors : first * mirrors + size]
            np.copyto(block, rows_of_block.transpose(1, 0, 2))
            out = lead(mass, (num_locs + 1) * size, head)
            np.matmul(block.reshape(-1, sizes[0]), combos[0].T, out=out)
            prob, wins = out[:size], out[size:].reshape(num_locs, size, head)
            ok, join = lead(valid, size, head), lead(joins, size, head)
            # The docstring's join rule; bar is held in the score buffer.
            bar = score = lead(scores, size, head)
            np.multiply(prob, -TIE_TOL, out=bar)
            floor = 0.0
            for k in nonpositive:
                floor = np.maximum(floor, wins[k], out=lead(spare, size, head))
            if nonpositive:
                np.add(bar, floor, out=bar)
            peak = wins[positive[0]] if positive else -math.inf
            for k in positive[1:]:
                peak = np.maximum(peak, wins[k], out=lead(spare, size, head))
            np.greater_equal(peak, bar, out=join)
            if nonpositive:
                np.logical_or(join, np.greater(bar, 0.0, out=ok), out=join)
            np.greater(prob, ZERO_MASS, out=ok)
            np.logical_and(ok, join, out=ok)
            # prob * keep is np.where(ok, prob, 0.0) up to the sign of a zero
            # score, which no orbit's sum keeps: its members' probabilities
            # add up to 1.
            keep = lead(spare, size, head)
            np.copyto(keep, ok)
            np.multiply(prob, keep, out=score)
            # Fold the mirror axes, most significant bit first, then the
            # location-1 axis onto its first half_head columns.
            source, target, width = scores, spare, mirrors * head
            while width > head:
                width //= 2
                pair = lead(source, reps, 2, width)
                np.add(pair[:, 0], pair[:, 1], out=lead(target, reps, width))
                source, target = target, source
            folded = lead(source, reps, head)
            top_rows = lead(target, reps, half_head)
            np.add(folded[:, :half_head], folded[:, ::-1][:, :half_head], out=top_rows)
            # Folded scores are exactly equal across each orbit, and blocks
            # take the representatives in candidate order, so the first
            # block that reaches the top holds the first best candidate.
            top = top_rows.max()
            if top > best_value:
                winners, heads = np.nonzero(top_rows == top)
                best_value = float(top)
                best_flat = int((rest[first + winners] + heads).min())
    return best_value, best_flat


def grid_search_decentralized(
    system: SystemModel, resolution: float
) -> tuple[DecentralizedMechanism, float]:
    """Enumerate binary-signal decentralized mechanisms on a parameter grid.

    Every sigma_k(1|w_k) ranges over {0, resolution, ..., 1}; 1/resolution
    must be an integer (within 1e-9), so the grid is closed under
    v -> 1 - v.  Each candidate is scored by best response plus exact
    evaluation, so the result is a lower bound on the optimal
    decentralized throughput.  Only the all-ones joint signal is scored,
    and mirrored for the others (see the module docstring).

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
    best_value, best_flat = _folded_best(system, combos)

    chosen = np.unravel_index(best_flat, [c.shape[0] for c in combos], order="F")
    return binary_mechanism([c[i] for c, i in zip(combos, chosen)]), best_value
