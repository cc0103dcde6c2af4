"""Optimal centralized signaling via the direct obedient-recommendation LP.

Signals are action recommendations 0..K (0 = leave).  The LP maximizes
the recommended join mass subject to obedience: following is at least as
good as any deviation, joining a recommended location beats leaving, and
leaving when told to is a best response.

Interchangeable locations (``SystemModel.location_classes``) make the LP
invariant under permuting them, so averaging any optimum over those
permutations gives an optimum that is constant on orbits (Bödi, Herr
and Joswig, Math. Prog. 2013).  ``solve_centralized`` therefore solves
the LP over orbits (:func:`orbit_lp`): one column per orbit of (state,
action) pairs, one column group per orbit of states and one matrix row
per orbit of rows.  It then spreads each orbit's value evenly over its
members.  With no two locations alike every orbit would be a single
column or row, so it solves the full LP directly.

The simplex starts from a vertex known to be feasible
(:func:`priority_start`).  When no location is worth joining on the
prior, which is where signaling matters, that is the payoff-priority
recommendation: each state recommends the highest-weight location worth
joining there.  Otherwise it is the uninformative recommendation of the
best location on the prior (:func:`uninformative_start`).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import oracle
from .lp import LinearProgram, solve
from .model import (
    CentralizedMechanism,
    CustomerStrategy,
    EvaluationReport,
    SystemModel,
    require_valid,
)


def obedience_lp(mu: np.ndarray, util: np.ndarray, weights: np.ndarray) -> LinearProgram:
    """Obedience LP for prior ``mu`` (S,), utilities ``util`` (S, K), weights (K,).

    One variable per (state w, recommendation a), at index
    w * (K + 1) + a; a = 0 is leave.  The matrix rows, all ``>= 0``, are
    the K*(K-1) deviation rows (recommended k beats each other location
    l, k-major), the K join-beats-leaving rows, then the K leave rows
    (leaving beats joining k, written -mu u_k >= 0).  Each state's
    recommendations sum to 1: state w is column group w, not a matrix
    row.  The objective weighs location k's recommendation mass by
    ``weights[k]``.  With K = 1 this is the single-location persuasion
    problem.
    """
    num_states, num_locs = util.shape
    num_actions = num_locs + 1
    mass = (mu[:, None] * util).T  # (K, states): mu(w) u_k(w)
    locs = np.arange(num_locs)

    objective = np.zeros((num_states, num_actions))
    objective[:, 1:] = mu[:, None] * weights

    # Each row block is viewed as (rows, state, action) to fill by index.
    num_dev = num_locs * (num_locs - 1)
    matrix = np.zeros((num_dev + 2 * num_locs, num_states * num_actions))
    deviation = matrix[:num_dev].reshape(num_locs, num_locs - 1, num_states, num_actions)
    for k in range(num_locs):
        others = util[:, locs != k]
        deviation[k, :, :, k + 1] = (mu[:, None] * (util[:, k : k + 1] - others)).T
    join = matrix[num_dev : num_dev + num_locs].reshape(num_locs, num_states, num_actions)
    join[locs, :, locs + 1] = mass
    leave = matrix[num_dev + num_locs :]
    np.negative(mass, out=leave.reshape(num_locs, num_states, num_actions)[:, :, 0])

    groups = np.repeat(np.arange(num_states), num_actions)
    return LinearProgram(objective.reshape(-1), matrix, np.zeros(matrix.shape[0]), groups)


def uninformative_start(
    mu: np.ndarray, util: np.ndarray, classes: tuple[tuple[int, ...], ...] = ()
) -> np.ndarray:
    """Start basis of :func:`obedience_lp`: x(w, a*), one member of every state's group.

    a* is the location with the largest prior-mean utility ``mu @ util``
    if that mean is positive, else 0 (leave).  Following a* is then a
    best response to the prior, so this point satisfies every obedience
    row, for any objective, and is a feasible basis of the obedience LP.

    If a* lies in one of ``classes`` (interchangeable locations), each
    state instead recommends the member of a*'s class with the largest
    utility there, the first on ties.  Spread evenly over each orbit, as
    the orbit LP's start, this recommends a uniformly drawn member among
    those in the class's best state.  That is obedient: the recommended
    member is at least as good as every other member, and by symmetry
    each member's recommendations carry an equal share of the class's
    best utility, whose mean is at least a*'s positive prior mean, so
    following beats leaving and every location outside the class.  With
    a* alone in its class the start is x(w, a*).
    """
    num_states, num_locs = util.shape
    first = np.arange(num_states) * (num_locs + 1)
    means = mu @ util
    best = int(np.argmax(means))
    if means[best] <= 0.0:
        return first
    members = np.array(next((c for c in classes if best in c), (best,)))
    return first + members[np.argmax(util[:, members], axis=1)] + 1


def priority_start(
    mu: np.ndarray,
    util: np.ndarray,
    weights: np.ndarray | None = None,
    classes: tuple[tuple[int, ...], ...] = (),
) -> np.ndarray:
    """Start basis of :func:`obedience_lp` with objective ``weights`` (None
    for equal weights): the payoff-priority recommendation.

    If some prior mean ``mu @ util`` is positive this is
    :func:`uninformative_start`, which with ``classes`` is feasible only
    as its spread over orbits, the orbit LP's start; the full LP starts
    from the class-free start (no ``classes``).  Otherwise each
    state recommends, among the locations with positive weight and
    nonnegative utility there, one with the largest weight, then the
    largest utility, then the first in ``classes`` order (classes by
    first member, each in increasing order; location order without
    classes), and leave where none qualifies.  Its objective is
    nonnegative, so at least the uninformative start's, and it is
    feasible:

    - With equal weights it is the full-information recommendation,
      obedient state by state: the recommended location is worth
      joining and at least as good as any other, and leave is
      recommended only where every location is worse than leaving.
      This covers every unweighted LP and every single-location one.
    - With ``weights`` only the deviation rows toward lower-weight
      locations and the leave rows of nonpositive-weight locations can
      fail, and under a joint prior some do.  So those rows are checked,
      from one (K + 1, K) mass matrix; if one fails, the rule is retried
      with equal weight on every positive-weight location, and if that
      fails too the start recommends leave everywhere.

    Ties are broken by class, so a state and its images under
    permutations within classes recommend locations of one class with
    one utility.  Each row orbit then sums to the same value over this
    start as over the orbit LP's start, the spread of this one's choices
    at one state of every orbit, so that start is feasible as well.
    (Under equal weights every tie-break is obedient state by state.)
    """
    if (mu @ util).max() > 0.0:
        return uninformative_start(mu, util, classes)
    num_states, num_locs = util.shape
    first = np.arange(num_states) * (num_locs + 1)
    if weights is None:
        return first + (util.argmax(axis=1) + 1) * (util.max(axis=1) >= 0.0)
    order = np.concatenate(classes) if classes else np.arange(num_locs)
    for trial in (weights, np.where(weights > 0.0, 1.0, 0.0)):
        rank = np.where(util >= 0.0, trial, 0.0)[:, order]
        top = rank.max(axis=1)
        pick = np.argmax(np.where(rank == top[:, None], util[:, order], -np.inf), axis=1)
        actions = np.where(top > 0.0, order[pick] + 1, 0)
        if _obedient(mu, util, actions):
            return first + actions
    return first


def _obedient(mu: np.ndarray, util: np.ndarray, actions: np.ndarray) -> bool:
    """Whether recommending ``actions`` (0 = leave) meets the deviation and
    leave rows; the join rows hold term by term where every recommended
    location's utility is nonnegative."""
    num_states, num_locs = util.shape
    recommended = np.zeros((num_locs + 1, num_states))
    recommended[actions, np.arange(num_states)] = mu
    mass = recommended @ util  # mass[a, l]: mu u_l summed where a is recommended
    own = mass[1:].diagonal()
    return bool((mass[0] <= 0.0).all() and (own[:, None] >= mass[1:]).all())


def build_centralized_lp(system: SystemModel, weighted: bool = False) -> LinearProgram:
    """The system's obedience LP (see :func:`obedience_lp`), states in mixed-radix order.

    Its matrix holds the K*(K-1) deviation, K join and K leave rows, in
    that order; the state row sums are its S column groups, in state
    order.  With ``weighted`` the objective weighs location k's
    recommendation mass by its payoff instead of 1.
    """
    require_valid(system)
    weights = np.asarray(system.payoffs if weighted else np.ones(system.num_locations))
    return obedience_lp(system.joint_vector, system.utility_matrix, weights)


def obedient_strategy(num_locations: int) -> CustomerStrategy:
    """Follow every recommendation: f(a|a) = 1 over signals 0..K."""
    return CustomerStrategy(
        tuple(range(num_locations + 1)), np.eye(num_locations + 1)
    )


class Orbits(NamedTuple):
    """Orbits of the system's obedience LP under permutations within location classes.

    Orbits are numbered in the order of their keys (see
    :func:`lp_orbits`).  ``multiplicity[o]`` is the number of columns of
    orbit o at each state of its state orbit ``groups[o]``.
    """

    columns: np.ndarray       # (S (K+1),) the orbit of every column
    multiplicity: np.ndarray  # (orbits,)
    groups: np.ndarray        # (orbits,) the state orbit of every orbit
    states: np.ndarray        # (state orbits,) one state of every state orbit
    rows: np.ndarray          # the first matrix row of every row orbit, in row order


def _number(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Ids 0, 1, ... of the distinct ``keys`` (integers below ``size``) in key
    order, and those distinct keys."""
    present = np.zeros(size, dtype=bool)
    present[keys] = True
    return np.cumsum(present)[keys] - 1, np.flatnonzero(present)


def lp_orbits(system: SystemModel) -> Orbits:
    """Orbits of :func:`build_centralized_lp`'s columns, groups and rows.

    A permutation of locations within their classes maps state w to the
    state in which the permuted locations hold w's states, and action
    a >= 1 to the permuted location.  So a state orbit is keyed by its
    state with each class's members sorted by state (one of its states),
    the orbit of (w, 0) is w's state orbit with leave, and the orbit of
    (w, a) for a >= 1 is (state orbit, class of a, state of a at w).
    Deviation rows (k, l), and join or leave rows k, are in one orbit
    when their locations' classes agree.  With no two locations alike
    every orbit is a single column, state or row, numbered as the LP
    numbers them.
    """
    classes = system.location_classes
    num_locs = system.num_locations
    num_states = system.state_count
    class_of = [0] * num_locs
    for c, members in enumerate(classes):
        for k in members:
            class_of[k] = c

    index = system.state_index_matrix
    canonical = index.copy()
    for members in classes:
        canonical[:, members] = np.sort(index[:, members], axis=1)
    # The same keys as np.ravel_multi_index(canonical.T, sizes, order="F"),
    # which checks bounds and takes 1.5-3x as long.
    strides = np.cumprod((1,) + system.state_sizes[:-1])
    state_orbit, states = _number(canonical @ strides, num_states)

    # Column keys: the state orbit, then the action kind, which is 0 for
    # leave and one more than (class, state) for a location.
    most = max(system.state_sizes)
    num_kinds = 1 + len(classes) * most
    keys = np.zeros((num_states, num_locs + 1), dtype=int)
    np.add(index, np.array(class_of) * most + 1, out=keys[:, 1:])
    keys += state_orbit[:, None] * num_kinds
    columns, orbit_keys = _number(keys.reshape(-1), states.size * num_kinds)
    groups = orbit_keys // num_kinds
    multiplicity = np.bincount(columns) // np.bincount(state_orbit)[groups]

    row_keys = [("deviation", class_of[k], class_of[l])
                for k in range(num_locs) for l in range(num_locs) if l != k]
    row_keys += [("join", c) for c in class_of]
    row_keys += [("leave", c) for c in class_of]
    firsts: dict = {}
    rows = [r for r, key in enumerate(row_keys) if firsts.setdefault(key, r) == r]
    return Orbits(columns, multiplicity, groups, states, np.array(rows, dtype=int))


def orbit_lp(lp: LinearProgram, orbits: Orbits) -> LinearProgram:
    """The obedience LP ``lp`` over ``orbits``: one column per orbit.

    Orbit o's column y_o stands for x = y_o / multiplicity[o] on each of
    its members, so the columns of a state orbit sum to 1 and form its
    group.  Its objective entry and its entry in each row orbit's first
    row are the sums over its members divided by its multiplicity.  A
    point constant on orbits meets every row of an orbit as it meets
    the first, so this LP and the full LP have the same optimum.  With
    every orbit a single column or row it holds ``lp``'s arrays unchanged.
    """
    order = np.argsort(orbits.columns, kind="stable")  # the members of orbit 0, 1, ...
    sizes = np.bincount(orbits.columns)
    starts = np.cumsum(sizes) - sizes

    def orbit_sums(values: np.ndarray) -> np.ndarray:
        return np.add.reduceat(values.take(order, axis=-1), starts, axis=-1) / orbits.multiplicity

    rows = orbits.rows
    return LinearProgram(
        orbit_sums(lp.objective),
        orbit_sums(lp.matrix[rows]),
        lp.rhs[rows],
        orbits.groups,
    )


def solve_centralized(
    system: SystemModel, weighted: bool = False
) -> tuple[CentralizedMechanism, EvaluationReport]:
    """Optimal direct mechanism and its evaluation under obedience.

    Builds the full LP.  With interchangeable locations it solves the LP
    over their orbits (:func:`orbit_lp`) and spreads each orbit's value
    evenly over its members; with no two locations alike it solves the
    full LP.  The simplex starts from the payoff-priority
    recommendation, with ties broken by class (see
    :func:`priority_start`), which is always feasible.  The report's
    throughput (unweighted) or value (weighted) matches the LP optimum.
    """
    lp = build_centralized_lp(system, weighted)
    start = priority_start(
        system.joint_vector,
        system.utility_matrix,
        np.asarray(system.payoffs) if weighted else None,
        system.location_classes,
    )
    if len(system.location_classes) == system.num_locations:
        x = solve(lp, start).x
    else:
        orbits = lp_orbits(system)
        solution = solve(orbit_lp(lp, orbits), orbits.columns[start[orbits.states]])
        x = (solution.x / orbits.multiplicity)[orbits.columns]
    num_actions = system.num_locations + 1
    table = x.reshape(system.state_count, num_actions)
    mech = CentralizedMechanism(tuple(range(num_actions)), table)
    report = oracle.evaluate(system, mech, obedient_strategy(system.num_locations))
    return mech, report
