"""A small dense linear-program representation and simplex solver.

Sized for the obedience LPs this package builds: hundreds to a few
thousand dense variables, every one of them nonnegative.  An LP is held
as numpy arrays: an objective, a matrix of ``<=`` and ``>=`` rows with
their rhs, and optional column groups.  ``groups[j]`` names the group of
column j, and every group's columns sum to 1.  These are generalized
upper bounds (Dantzig and Van Slyke, JCSS 1967): the obedience LPs' one
row sum per state is held as a group, not as a matrix row.

Pricing is Dantzig's rule with a permanent switch to Bland's rule after
a degenerate stall (which guarantees termination), and the iteration
cap is 50 * (variables + rows + groups).  A pivot updates only the
tableau rows with a nonzero entry in the pivot column.  If the
normalized pivot row is sparse (nonzeros below SPARSE_ROW of the
tableau width) it updates only the columns where that row is nonzero;
otherwise it updates the touched rows across their full width.  Both
apply the same operation to every element that changes, so the tableau
and the pivot path do not depend on which one runs.

One way in: ``solve(lp, basis)`` starts from a basis the caller knows
to be feasible.  ``basis`` names one member column per group, in group
order; every matrix row starts on its own slack.  The solver writes each
group as a tableau row of ones with rhs 1, removes the named columns
from the matrix rows (with one member per group basic, that is a
gather: row r loses its entry at the named column of each column's
group), checks that the resulting basic solution is feasible
(rhs >= -FEAS_TOL, else SolverError) and runs the simplex from there.
For an LP without groups the basis is empty, which needs every rhs of
a ``<=`` row to be nonnegative (and of a ``>=`` row nonpositive).

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
# A pivot row with fewer nonzeros than this share of the tableau width
# updates only its nonzero columns, by an indexed gather and scatter;
# a denser row updates whole rows.  Timed one pivot at a time on 40 x 121,
# 120 x 500 and 600 x 5211 tableaux (2-vCPU x86 VM), the two updates cost
# the same at 15-30% nonzero.  The obedience LPs' pivot rows mostly sit far
# from the cut: a median of about 60% nonzero on the verify suites' small
# LPs, under 1% on the sweep's large ones.  Either update alone is slower
# end to end: the sparse one on every pivot costs the small LPs about 30%,
# the whole-row one the large LPs about 55%.
SPARSE_ROW = 0.25

LESS = "<="
GREATER = ">="
_RELATIONS = (LESS, GREATER)


class ConstraintRow(NamedTuple):
    """One matrix row of a LinearProgram; ``coeffs`` is a view into its matrix."""

    coeffs: np.ndarray
    relation: str
    rhs: float


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective . x subject to matrix @ x (relations) rhs, group sums 1, x >= 0.

    ``objective`` has shape (n,), ``matrix`` (m, n), ``relations`` holds
    m of LESS / GREATER and ``rhs`` has shape (m,).  ``groups``, if
    given, has shape (n,) and holds each column's group id, from 0: the
    columns of every group sum to 1.  Inputs are converted to arrays
    without copying where possible.
    """

    objective: np.ndarray
    matrix: np.ndarray | None = None
    relations: Sequence[str] = ()
    rhs: np.ndarray | Sequence[float] = ()
    groups: np.ndarray | Sequence[int] | None = None
    # The relations as +1 (<=) or -1 (>=), derived from ``relations``.
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
        if self.groups is not None:
            groups = np.asarray(self.groups)
            if groups.shape != (n,) or not np.issubdtype(groups.dtype, np.integer):
                raise InputError(
                    f"groups must be {n} integer group ids, one per column, "
                    f"got shape {groups.shape} of {groups.dtype}"
                )
            if n and groups.min() < 0:
                raise InputError(f"group ids must be nonnegative, got {groups.min()}")
            object.__setattr__(self, "groups", groups)
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
        """Number of matrix rows; the group sums are not counted."""
        return self.matrix.shape[0]

    @property
    def num_groups(self) -> int:
        """Number of column groups: one more than the largest group id."""
        if self.groups is None or self.groups.size == 0:
            return 0
        return int(self.groups.max()) + 1

    @property
    def constraints(self) -> tuple[ConstraintRow, ...]:
        """The matrix rows one by one, as views into the matrix."""
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
    """Largest constraint breach, group-sum gap |sum - 1| or negative entry at x."""
    x = np.asarray(x, dtype=float)
    breach = lp.senses * (lp.matrix @ x - lp.rhs)
    worst = max(0.0, float(breach.max(initial=0.0)), float((-x).max()))
    if lp.num_groups:
        sums = np.bincount(lp.groups, weights=x, minlength=lp.num_groups)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    return worst


class _Tableau:
    """Dense simplex tableau; last row holds reduced costs, last column rhs.

    The bottom-right cell carries the negated objective so a single pivot
    routine updates everything.
    """

    def __init__(self, body: np.ndarray, basis: np.ndarray, cap: int):
        self.T = np.ascontiguousarray(body)
        self._flat = self.T.reshape(-1)  # a view, for the sparse pivot's gather
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
        """Gauss-Jordan pivot touching only the entries it changes.

        Rows with a zero pivot-column entry, and columns with a zero
        pivot-row entry, would be updated by exactly 0, so skipping them
        gives the same tableau as the dense update.  Columns are skipped
        only for a sparse pivot row (see SPARSE_ROW).
        """
        T = self.T
        pivot_row = T[row]
        pivot_row /= pivot_row[col]
        column = T[:, col]
        rows = column.nonzero()[0]
        rows = rows[rows != row]
        if rows.size:
            cols = pivot_row.nonzero()[0]
            if cols.size < SPARSE_ROW * pivot_row.size:
                block = (rows * pivot_row.size)[:, None] + cols
                self._flat[block] -= column[rows, None] * pivot_row[cols]
            else:
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


def _warm_tableau(lp: LinearProgram, start: np.ndarray, cap: int) -> _Tableau:
    """Tableau in the basis of every matrix row's slack plus ``start`` (one per group).

    The matrix rows come first, then one row of ones per group.  Row r of
    the matrix loses A[r, start[groups[j]]] at every column j and, since
    each group sums to 1, the sum of its start-column entries at the rhs.
    """
    m, n = lp.matrix.shape
    body = np.zeros((m + start.size + 1, n + m + 1))
    T = body[:-1]
    rows = T[:m]
    rows[:, :n] = lp.matrix
    rows[:, -1] = lp.rhs
    # Every inequality becomes a <= row with a +1 slack.
    rows[lp.senses < 0] *= -1.0
    slack_cols = n + np.arange(m)
    rows[np.arange(m), slack_cols] = 1.0
    if start.size:
        coupling = rows[:, start]
        rows[:, :n] -= coupling[:, lp.groups]
        rows[:, -1] -= coupling.sum(axis=1)
        T[m + lp.groups, np.arange(n)] = 1.0
        T[m:, -1] = 1.0

    values = T[:, -1]
    if values.size and values.min() < -FEAS_TOL:
        raise SolverError(
            f"start basis is infeasible: a basic variable is {values.min():.3g}, "
            f"below -{FEAS_TOL}"
        )
    np.maximum(values, 0.0, out=values)
    return _Tableau(body, np.concatenate([slack_cols, start]), cap)


def solve(
    lp: LinearProgram,
    basis: Sequence[int] | np.ndarray,
    *,
    _iteration_cap: int | None = None,
) -> LpSolution:
    """Solve the LP from a feasible start and return an optimal solution.

    ``basis`` names one member column per group, in group order, whose
    columns together with every matrix row's slack form a feasible
    starting basis (see the module docstring).

    Raises InputError on shape mismatches or a basis column outside its
    group, SolverError if the LP is unbounded, the pivot limit is
    exceeded or the given basis is infeasible.
    """
    _check_shapes(lp)
    num_groups = lp.num_groups
    cap = _iteration_cap
    if cap is None:
        cap = 50 * (lp.n_vars + lp.n_constraints + num_groups)

    start = np.asarray(basis, dtype=int).reshape(-1)
    if start.size != num_groups:
        raise InputError(f"basis names {start.size} columns for {num_groups} groups")
    if num_groups:
        if start.min() < 0 or start.max() >= lp.n_vars:
            raise InputError(f"basis columns must lie in [0, {lp.n_vars})")
        outside = np.flatnonzero(lp.groups[start] != np.arange(num_groups))
        if outside.size:
            g = int(outside[0])
            raise InputError(f"basis column {start[g]} is not a member of group {g}")
    tableau = _warm_tableau(lp, start, cap)

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
