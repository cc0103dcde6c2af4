"""Optimal centralized signaling via the direct obedient-recommendation LP.

Signals are action recommendations 0..K (0 = leave).  The LP maximizes
the recommended join mass subject to obedience: following is at least as
good as any deviation, joining a recommended location beats leaving, and
leaving when told to is a best response.
"""

from __future__ import annotations

import numpy as np

from . import oracle
from .lp import GREATER, LESS, LinearProgram, solve
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
    w * (K + 1) + a; a = 0 is leave.  The matrix rows are the K*(K-1)
    deviation rows (recommended k beats each other location l, k-major),
    the K join-beats-leaving rows, then the K leave rows.  Each state's
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
    leave.reshape(num_locs, num_states, num_actions)[:, :, 0] = mass

    relations = [GREATER] * (num_dev + num_locs) + [LESS] * num_locs
    groups = np.repeat(np.arange(num_states), num_actions)
    return LinearProgram(
        objective.reshape(-1), matrix, relations, np.zeros(matrix.shape[0]), groups
    )


def uninformative_start(mu: np.ndarray, util: np.ndarray) -> np.ndarray:
    """Start basis of :func:`obedience_lp`: x(w, a*), one member of every state's group.

    a* is the location with the largest prior-mean utility ``mu @ util``
    if that mean is positive, else 0 (leave).  Following a* is then a
    best response to the prior, so this point satisfies every obedience
    row, for any objective, and is a feasible basis of the obedience LP.
    """
    means = mu @ util
    best = int(np.argmax(means))
    action = best + 1 if means[best] > 0.0 else 0
    num_states, num_locs = util.shape
    return np.arange(num_states) * (num_locs + 1) + action


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


def uninformative_basis(system: SystemModel) -> np.ndarray:
    """The uninformative start (see :func:`uninformative_start`) of the system's LP."""
    return uninformative_start(system.joint_vector, system.utility_matrix)


def obedient_strategy(num_locations: int) -> CustomerStrategy:
    """Follow every recommendation: f(a|a) = 1 over signals 0..K."""
    return CustomerStrategy(
        tuple(range(num_locations + 1)), np.eye(num_locations + 1)
    )


def solve_centralized(
    system: SystemModel, weighted: bool = False
) -> tuple[CentralizedMechanism, EvaluationReport]:
    """Optimal direct mechanism and its evaluation under obedience.

    The simplex starts from the uninformative recommendation (see
    :func:`uninformative_basis`), which is always feasible.  The report's
    throughput (unweighted) or value (weighted) matches the LP optimum.
    """
    lp = build_centralized_lp(system, weighted)
    solution = solve(lp, uninformative_basis(system))
    num_actions = system.num_locations + 1
    table = np.asarray(solution.x).reshape(system.state_count, num_actions)
    mech = CentralizedMechanism(tuple(range(num_actions)), table)
    report = oracle.evaluate(system, mech, obedient_strategy(system.num_locations))
    return mech, report
