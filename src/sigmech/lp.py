"""A small dense linear-program representation and simplex solver.

Sized for the obedience LPs this package builds: hundreds to a few
thousand dense variables, every one of them nonnegative.  An LP is held
as numpy arrays (objective, constraint matrix, relations, rhs).
Equality constraints are handled natively, pricing is Dantzig's rule
with a permanent switch to Bland's rule after a degenerate stall (which
guarantees termination), and the iteration cap is
50 * (variables + constraints).  A pivot updates only the tableau rows
with a nonzero entry in the pivot column.

One way in: ``solve(lp, basis)`` starts from a basis the caller knows
to be feasible.  ``basis`` names one column per equality row (in row
order); every inequality row starts on its own slack.  The solver
eliminates the named columns into the tableau, checks that the
resulting basic solution is feasible (rhs >= -FEAS_TOL, else
SolverError) and runs the simplex from there.  For an LP with no
equality rows the basis is empty, which needs every rhs of a ``<=`` row
to be nonnegative (and of a ``>=`` row nonpositive).

One way out: a returned solution is optimal, and every failure,
an unbounded LP included, raises SolverError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .model import InputError, SolverError

FEAS_TOL = 1e-8    # feasibility tolerance (start basis, violation checks)
# Reduced-cost (optimality) tolerance.  The obedience LPs have objective
# coefficients as small as single state probabilities, so a looser value
# stops short of the optimum on large instances.
OPT_TOL = 1e-11
PIVOT_TOL = 1e-9   # smallest pivot element accepted in the ratio test

LESS = "<="
GREATER = ">="
EQUAL = "="
_RELATIONS = (LESS, GREATER, EQUAL)


class ConstraintRow(NamedTuple):
    """One constraint of a LinearProgram; ``coeffs`` is a view into its matrix."""

    coeffs: np.ndarray
    relation: str
    rhs: float


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective . x subject to matrix @ x (relations) rhs and x >= 0.

    ``objective`` has shape (n,), ``matrix`` (m, n), ``relations`` holds
    m of LESS / GREATER / EQUAL and ``rhs`` has shape (m,).  Inputs are
    converted to float arrays without copying where possible.
    """

    objective: np.ndarray
    matrix: np.ndarray | None = None
    relations: Sequence[str] = ()
    rhs: np.ndarray | Sequence[float] = ()
    # The relations as +1 (<=), -1 (>=) or 0 (=), derived from ``relations``.
    senses: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        objective = np.asarray(self.objective, dtype=float)
        n = objective.size
        matrix = np.zeros((0, n)) if self.matrix is None else np.asarray(self.matrix, dtype=float)
        if matrix.size == 0:
            matrix = matrix.reshape(0, n)
        relations = np.asarray(self.relations, dtype=str)
        unknown = set(relations.tolist()) - set(_RELATIONS)
        if unknown:
            raise InputError(f"unknown relation {sorted(unknown)[0]!r}")
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "relations", relations)
        senses = (relations == LESS).astype(int) - (relations == GREATER)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_constraints(self) -> int:
        return self.matrix.shape[0]

    @property
    def constraints(self) -> tuple[ConstraintRow, ...]:
        """The constraint rows one by one, as views into the matrix."""
        return tuple(
            ConstraintRow(self.matrix[i], str(self.relations[i]), float(self.rhs[i]))
            for i in range(self.n_constraints)
        )


@dataclass(frozen=True)
class LpSolution:
    """An optimal solution: its point, objective value and worst constraint breach."""

    x: tuple[float, ...]
    objective_value: float
    max_violation: float


def _check_shapes(lp: LinearProgram) -> None:
    n = lp.n_vars
    if lp.objective.ndim != 1 or n < 1:
        raise InputError("a linear program needs a 1-D objective over at least one variable")
    if lp.matrix.ndim != 2 or lp.matrix.shape[1] != n:
        raise InputError(
            f"constraint matrix of shape {lp.matrix.shape} does not have {n} columns"
        )
    m = lp.n_constraints
    if lp.relations.shape != (m,) or lp.rhs.shape != (m,):
        raise InputError(
            f"{m} constraint rows need {m} relations and {m} right-hand sides, "
            f"got {lp.relations.size} and {lp.rhs.size}"
        )


def violation_at(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint breach, or negative entry, at the point x."""
    x = np.asarray(x, dtype=float)
    gap = lp.matrix @ x - lp.rhs
    breach = np.where(lp.senses, lp.senses * gap, np.abs(gap))
    return max(0.0, float(breach.max(initial=0.0)), float((-x).max()))


class _Tableau:
    """Dense simplex tableau; last row holds reduced costs, last column rhs.

    The bottom-right cell carries the negated objective so a single pivot
    routine updates everything.
    """

    def __init__(self, body: np.ndarray, basis: np.ndarray, cap: int):
        self.T = body
        self.basis = basis
        self.cap = cap
        self.iterations = 0
        self.bland = False
        self._best = -math.inf
        self._stall = 0
        # Degenerate pivots beyond this switch pricing to Bland's rule.
        self._stall_limit = 10 * (body.shape[0] + 25)

    @property
    def num_cols(self) -> int:
        return self.T.shape[1] - 1

    @property
    def num_rows(self) -> int:
        return self.T.shape[0] - 1

    def objective(self) -> float:
        return -float(self.T[-1, -1])

    def set_costs(self, costs: np.ndarray) -> None:
        """Recompute the reduced-cost row for the current basis."""
        m = self.num_rows
        cb = costs[self.basis]
        self.T[-1, : self.num_cols] = costs - cb @ self.T[:m, : self.num_cols]
        self.T[-1, -1] = -float(cb @ self.T[:m, -1])

    def _pivot(self, row: int, col: int) -> None:
        """Gauss-Jordan pivot touching only rows with a nonzero pivot-column entry.

        Rows with a zero entry would be updated with a factor of exactly
        0, so skipping them gives the same tableau as the dense update.
        """
        T = self.T
        pivot_row = T[row]
        pivot_row /= pivot_row[col]
        column = T[:, col]
        rows = column.nonzero()[0]
        rows = rows[rows != row]
        if rows.size:
            T[rows] -= column[rows, None] * pivot_row
        column[:] = 0.0
        pivot_row[col] = 1.0
        self.basis[row] = col

    def run(self) -> None:
        """Pivot to optimality; raise SolverError if the LP is unbounded."""
        T = self.T
        m = self.num_rows
        n = self.num_cols
        while True:
            costs = T[-1, :n]
            if self.bland:
                eligible = np.nonzero(costs > OPT_TOL)[0]
                if eligible.size == 0:
                    return
                col = int(eligible[0])
            else:
                col = int(np.argmax(costs))
                if costs[col] <= OPT_TOL:
                    return
            column = T[:m, col]
            positive = column > PIVOT_TOL
            if not positive.any():
                raise SolverError(f"the LP is unbounded along column {col}")
            ratios = np.full(m, math.inf)
            ratios[positive] = T[:m, -1][positive] / column[positive]
            # Only rows at the minimum ratio may leave, so every basic value
            # stays nonnegative; ties go to the smallest basis index.
            tied = np.nonzero(ratios <= ratios.min())[0]
            row = int(tied[np.argmin(self.basis[tied])])
            self._pivot(row, col)
            self.iterations += 1
            if self.iterations > self.cap:
                raise SolverError(
                    f"simplex exceeded the iteration cap of {self.cap} pivots"
                )
            obj = self.objective()
            if obj > self._best + 1e-12:
                self._best = obj
                self._stall = 0
            else:
                self._stall += 1
                if self._stall > self._stall_limit:
                    self.bland = True


def _warm_tableau(lp: LinearProgram, structural: np.ndarray, cap: int) -> _Tableau:
    """Tableau in the basis of ``structural`` (equality rows) plus every slack.

    Block elimination: with B the equality rows' block in the structural
    columns, the equality rows become B^-1 times themselves (B is the
    identity for the obedience LPs, so nothing is solved), and every
    inequality row that touches a structural column loses that part.
    """
    m, n = lp.matrix.shape
    equal_rows = np.flatnonzero(lp.senses == 0)
    slack_rows = np.flatnonzero(lp.senses)
    body = np.zeros((m + 1, n + slack_rows.size + 1))
    T = body[:m]
    T[:, :n] = lp.matrix
    T[:, -1] = lp.rhs
    # Every inequality becomes a <= row with a +1 slack.
    T[lp.senses < 0] *= -1.0
    slack_cols = n + np.arange(slack_rows.size)
    T[slack_rows, slack_cols] = 1.0

    block = T[equal_rows[:, None], structural]
    identity = np.eye(equal_rows.size)
    if not np.array_equal(block, identity):
        try:
            T[equal_rows] = np.linalg.solve(block, T[equal_rows])
        except np.linalg.LinAlgError:
            raise SolverError("start basis is singular on the equality rows") from None
    coupling = T[slack_rows[:, None], structural]
    touches = coupling.any(axis=1)
    if touches.any():
        first = equal_rows[0]
        # A contiguous run of equality rows (the obedience LPs' row sums)
        # is read in place rather than copied.
        if equal_rows[-1] - first + 1 == equal_rows.size:
            equalities = T[first : first + equal_rows.size]
        else:
            equalities = T[equal_rows]
        T[slack_rows[touches]] -= coupling[touches] @ equalities
    T[slack_rows[:, None], structural] = 0.0
    T[equal_rows[:, None], structural] = identity

    values = T[:, -1]
    if values.size and values.min() < -FEAS_TOL:
        raise SolverError(
            f"start basis is infeasible: a basic variable is {values.min():.3g}, "
            f"below -{FEAS_TOL}"
        )
    np.maximum(values, 0.0, out=values)
    basis = np.zeros(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[equal_rows] = structural
    return _Tableau(body, basis, cap)


def solve(
    lp: LinearProgram,
    basis: Sequence[int] | np.ndarray,
    *,
    _iteration_cap: int | None = None,
) -> LpSolution:
    """Solve the LP from a feasible start and return an optimal solution.

    ``basis`` names one variable per equality row, in row order, whose
    columns together with every inequality row's slack form a feasible
    starting basis (see the module docstring).

    Raises InputError on shape mismatches, SolverError if the LP is
    unbounded, the pivot limit is exceeded or the given basis is
    singular or infeasible.
    """
    _check_shapes(lp)
    cap = _iteration_cap
    if cap is None:
        cap = 50 * (lp.n_vars + lp.n_constraints)

    structural = np.asarray(basis, dtype=int).reshape(-1)
    num_equal = int(np.count_nonzero(lp.senses == 0))
    if structural.size != num_equal:
        raise InputError(
            f"basis names {structural.size} columns for {num_equal} equality rows"
        )
    if structural.size and (structural.min() < 0 or structural.max() >= lp.n_vars):
        raise InputError(f"basis columns must lie in [0, {lp.n_vars})")
    tableau = _warm_tableau(lp, structural, cap)

    costs = np.zeros(tableau.num_cols)
    costs[: lp.n_vars] = lp.objective
    tableau.set_costs(costs)
    tableau.run()

    x = np.zeros(tableau.num_cols)
    x[tableau.basis] = tableau.T[: tableau.num_rows, -1]
    x = x[: lp.n_vars]
    objective = float(np.dot(lp.objective, x))
    worst = violation_at(lp, x)
    if worst > FEAS_TOL:
        raise SolverError(
            f"simplex returned an optimal basis with violation {worst:.3g} "
            f"above the {FEAS_TOL} feasibility tolerance"
        )
    return LpSolution(tuple(x.tolist()), objective, worst)
