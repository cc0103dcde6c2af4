"""A small dense linear-program representation and simplex solver.

Sized for the obedience LPs this package builds: hundreds of thousands
of variables at most, every one of them nonnegative, and a few hundred
matrix rows.  An LP is held as numpy arrays: an objective, a matrix of
``>=`` rows with their rhs, and optional column groups.  ``groups[j]``
names the group of column j, and every group's columns sum to 1.  The
obedience LPs' one row sum per state is held as a group, not as a
matrix row.

The simplex keeps the groups out of its tableau too: generalized upper
bounding (Dantzig and Van Slyke, JCSS 1967).  Each group has one basic
*key* column whose value is 1 minus the group's other basic columns,
so the tableau holds only the m matrix rows and the cost row, (m + 1) x
(n + m + 1) floats for n variables, whatever the number of groups.  A
key's row is implicit: the group row minus the rows that hold members
of the group.  The ratio test asks every key too, and the leaving
variable is one of three kinds:

- a row basic: the usual pivot;
- a key whose group no row holds (*key replacement*): the entering
  column, then a member of the same group, becomes the key, which
  shifts the group's columns, the rhs and the cost row by the entering
  column;
- a key whose group some row holds (*key swap*): the first holding row
  takes the key's implicit row and the key as its basic, its old basic
  becomes the key, and that row pivots as usual.

Pricing is Dantzig's rule with a permanent switch to Bland's rule after
a degenerate stall (which guarantees termination), and the iteration
cap is 50 * (variables + rows + groups).  Ratio-test ties go to the
smallest basic column index, keys included.  A pivot whose normalized
row is sparse (nonzeros below SPARSE_ROW of the tableau width) updates
only the block of rows with a nonzero pivot-column entry and columns
with a nonzero pivot-row entry; any other pivot updates the whole
tableau in place.  Both subtract the same product from every element
that changes, so the tableau and the pivot path do not depend on which
one runs.

One way in: ``solve(lp, basis)`` starts from a basis the caller knows
to be feasible.  ``basis`` names one member column per group, in group
order, as its key; every matrix row starts on its own slack.  The
solver subtracts the keys' columns from the matrix rows (a gather: row
r loses its entry at the key of each column's group), checks that the
resulting basic solution is feasible (rhs >= -FEAS_TOL, else
SolverError) and runs the simplex from there.  For an LP without groups
the basis is empty, which needs every rhs to be nonpositive.

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
# updates only its nonzero columns of the touched rows, by an indexed
# gather and scatter; a denser row updates the whole tableau in place.
# Timed one pivot at a time on 40 x 121, 120 x 500 and 600 x 5211
# tableaux (2-vCPU x86 VM), the two cost the same at 15-30% nonzero.
# The obedience LPs' pivot rows mostly sit far from the cut: a median of
# about 55% nonzero on all three benchmark workloads.  One pass of each
# at seed 0 takes the sparse and whole-tableau updates 334 and 1809
# times (verify-mix), 4 and 96 times (large-lp), and 0 and 2513 times
# (decentral-oracle).  The large sparse-row LPs are full K=8 LPs (59049
# variables): CI's two memory tests, correlated and random three-state
# `default_rng([0, 8])`, with medians of 0.2% and 11% (93 and 313 row
# pivots, all sparse); `[1, 8]` takes 196 sparse and 308 whole-tableau
# updates.  Each update alone is slower on them (median solve time of 3
# runs on that VM, one BLAS thread): the whole-tableau one took the
# correlated LP from 0.11 to 1.4 s and `[0, 8]` from 0.76 to 4.8 s, the
# sparse one `[1, 8]` from 5.6 to 9.6 s.
SPARSE_ROW = 0.25


class ConstraintRow(NamedTuple):
    """One matrix row of a LinearProgram; ``coeffs`` is a view into its matrix."""

    coeffs: np.ndarray


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective . x subject to matrix @ x >= rhs, group sums 1, x >= 0.

    ``objective`` has shape (n,), ``matrix`` (m, n) and ``rhs`` (m,).
    ``groups``, if given, has shape (n,) and holds each column's group
    id, from 0: the columns of every group sum to 1.  Inputs are
    converted to arrays without copying where possible; a shape that
    does not fit raises InputError.
    """

    objective: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray | Sequence[float]
    groups: np.ndarray | Sequence[int] | None = None
    # Number of column groups: one more than the largest group id.
    num_groups: int = field(init=False, repr=False)

    def __post_init__(self):
        objective = np.asarray(self.objective, dtype=float)
        matrix = np.asarray(self.matrix, dtype=float)
        rhs = np.asarray(self.rhs, dtype=float)
        n = objective.size
        if objective.ndim != 1 or n < 1:
            raise InputError("a linear program needs a 1-D objective over at least one variable")
        if matrix.ndim != 2 or matrix.shape[1] != n:
            raise InputError(
                f"constraint matrix of shape {matrix.shape} is not 2-D with {n} columns"
            )
        m = matrix.shape[0]
        if rhs.shape != (m,):
            raise InputError(
                f"{m} constraint rows need {m} right-hand sides, got shape {rhs.shape}"
            )
        num_groups = 0
        if self.groups is not None:
            groups = np.asarray(self.groups)
            if groups.shape != (n,) or not np.issubdtype(groups.dtype, np.integer):
                raise InputError(
                    f"groups must be {n} integer group ids, one per column, "
                    f"got shape {groups.shape} of {groups.dtype}"
                )
            if groups.min() < 0:
                raise InputError(f"group ids must be nonnegative, got {groups.min()}")
            num_groups = int(groups.max()) + 1
            object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "num_groups", num_groups)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rhs", rhs)

    @property
    def n_vars(self) -> int:
        return self.objective.size

    @property
    def n_constraints(self) -> int:
        """Number of matrix rows; the group sums are not counted."""
        return self.matrix.shape[0]

    @property
    def constraints(self) -> tuple[ConstraintRow, ...]:
        """The matrix rows one by one, as views into the matrix."""
        return tuple(ConstraintRow(row) for row in self.matrix)


@dataclass(frozen=True, eq=False)
class LpSolution:
    """An optimal solution: its point (read-only), objective value and worst
    constraint breach."""

    x: np.ndarray
    objective_value: float
    max_violation: float


def violation_at(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint breach, group-sum gap |sum - 1| or negative entry at x."""
    x = np.asarray(x, dtype=float)
    breach = lp.rhs - lp.matrix @ x
    worst = max(0.0, float(breach.max(initial=0.0)), float((-x).max()))
    if lp.num_groups:
        sums = np.bincount(lp.groups, weights=x, minlength=lp.num_groups)
        worst = max(worst, float(np.abs(sums - 1.0).max()))
    return worst


class _Tableau:
    """Simplex tableau of the matrix rows; last row holds reduced costs, last column rhs.

    The bottom-right cell carries the negated objective so a single pivot
    routine updates everything.

    Column groups stay out of the tableau (generalized upper bounding).
    ``groups`` holds the group of each of the first ``groups.size``
    columns; the other columns (the slacks) belong to none.  ``basis``
    names row r's basic column at r, then one basic *key* column per
    group.  No row holds a key: its tableau column is zero, the other
    columns of its group are stored relative to it, and its value is 1
    minus the values of the group's columns basic in rows.  Its implicit
    row is the group row (ones on the group, rhs 1) minus the rows that
    hold the group.  ``row_bin[r]`` is the group of row r's basic column,
    or the number of groups for a column outside every group; the rows
    start on such columns.  So the tableau takes O(m n) memory for m rows
    and n columns, however many groups there are.  A leaving row basic
    pivots (``_pivot``); a leaving key is replaced or swapped
    (``_leave_key``).
    """

    def __init__(
        self,
        body: np.ndarray,
        basis: np.ndarray,
        cap: int,
        groups: np.ndarray | None = None,
    ):
        self.T = np.ascontiguousarray(body)
        self.basis = basis
        self.groups = np.zeros(0, dtype=int) if groups is None else groups
        m = self.num_rows
        self._no_group = basis.size - m  # the number of groups: row_bin of a slack
        self.row_bin = np.full(m, self._no_group)
        self.cap = cap
        self.iterations = 0
        self.bland = False
        self._best = -math.inf
        self._stall = 0
        # Degenerate pivots beyond this switch pricing to Bland's rule.  Every
        # key counts as the row its group would be in a tableau holding it.
        self._stall_limit = 10 * (basis.size + 1 + 25)

    @property
    def num_cols(self) -> int:
        return self.T.shape[1] - 1

    @property
    def num_rows(self) -> int:
        return self.T.shape[0] - 1

    def objective(self) -> float:
        return -float(self.T[-1, -1])

    def _group_of(self, col: int) -> int:
        return self.groups.item(col) if col < self.groups.size else self._no_group

    def values(self) -> np.ndarray:
        """The basic solution: row basics from the rhs, keys from their group sums."""
        m = self.num_rows
        rhs = self.T[:m, -1]
        x = np.zeros(self.num_cols)
        x[self.basis[:m]] = rhs
        x[self.basis[m:]] = 1.0 - np.bincount(self.row_bin, rhs, self._no_group + 1)[:-1]
        return x

    def _key_ratios(self, column: np.ndarray, g: int, out: np.ndarray) -> None:
        """Write each key's ratio for an entering ``column`` of group g into ``out``.

        Key h falls at rate [h = g] minus the column's entries in the rows
        holding h, from its value 1 minus their rhs.  A key that does not
        fall keeps its entry.  ``out`` has one more entry, for the slacks.
        """
        bins, size = self.row_bin, out.size
        falls = np.bincount(bins, column, size)  # minus each key's rate
        falls[g] -= 1.0
        falls[-1] = 0.0
        values = np.bincount(bins, self.T[:-1, -1], size)  # 1 minus each key's value
        np.divide(values - 1.0, falls, out=out, where=falls < -PIVOT_TOL)

    def _pivot(self, row: int, col: int) -> None:
        """Gauss-Jordan pivot, by one of two updates of the same floats.

        Rows with a zero pivot-column entry, and columns with a zero
        pivot-row entry, are updated by exactly 0.  A sparse pivot row
        (see SPARSE_ROW) updates only the block of touched rows and its
        nonzero columns; any other updates the whole tableau in place.
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
                T[np.ix_(rows, cols)] -= column[rows, None] * pivot_row[cols]
            else:
                factor = column.copy()
                factor[row] = 0.0
                T -= np.multiply.outer(factor, pivot_row)
        column[:] = 0.0
        pivot_row[col] = 1.0
        self.basis[row] = col
        self.row_bin[row] = self._group_of(col)

    def _leave_key(self, g: int, col: int) -> None:
        """Basis change in which the key of group g leaves and ``col`` enters.

        If no row holds group g, ``col`` (then a member of g) becomes the
        key: a rank-one update of the group's columns, the rhs and the
        cost row.  Otherwise the first holding row takes the key's
        implicit row, the key and that row's basic swap places, and the
        row pivots as usual.
        """
        T = self.T
        key = self.num_rows + g
        holding = (self.row_bin == g).nonzero()[0]
        if not holding.size:
            T[:, -1] -= T[:, col]
            T[:, (self.groups == g).nonzero()[0]] -= T[:, col, None]
            self.basis[key] = col
            return
        row = holding.item(0)
        implicit = np.negative(T[row], out=T[row])
        for r in holding[1:]:
            implicit -= T[r]
        implicit[(self.groups == g).nonzero()[0]] += 1.0
        implicit[-1] += 1.0
        basis = self.basis
        basis[row], basis[key] = basis.item(key), basis.item(row)
        self._pivot(row, col)

    def run(self) -> None:
        """Pivot to optimality; raise SolverError if the LP is unbounded."""
        T = self.T
        m = self.num_rows
        n = self.num_cols
        rhs = T[:m, -1]
        # Ratios of the row basics, then of the keys, then a slot for the slacks.
        ratios = np.empty(self.basis.size + 1)
        row_ratios, key_ratios = ratios[:m], ratios[m:]
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
            ratios.fill(math.inf)
            np.divide(rhs, column, out=row_ratios, where=column > PIVOT_TOL)
            self._key_ratios(column, self._group_of(col), key_ratios)
            best = ratios.min()
            if best == math.inf:
                raise SolverError(f"the LP is unbounded along column {col}")
            # Only basics at the minimum ratio may leave, so every basic value
            # stays nonnegative; ties go to the smallest basic column index.
            tied = np.nonzero(ratios <= best)[0]
            leave = int(tied[np.argmin(self.basis[tied])])
            if leave < m:
                self._pivot(leave, col)
            else:
                self._leave_key(leave - m, col)
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


# Floats per column block of _warm_tableau's gather (8 MiB), so that its
# temporary does not grow with the LP.
_GATHER_FLOATS = 1 << 20


def _warm_tableau(lp: LinearProgram, start: np.ndarray, cap: int) -> _Tableau:
    """Tableau in the basis of every matrix row's slack plus the keys ``start``.

    Row r of the matrix loses A[r, start[groups[j]]] at every column j
    and, since each group sums to 1, the sum of its start-column entries
    at the rhs; the costs lose the start column's cost the same way.
    """
    m, n = lp.matrix.shape
    body = np.zeros((m + 1, n + m + 1))
    rows = body[:m]
    # Every row A x >= b becomes the row -A x <= -b with a +1 slack.
    np.negative(lp.matrix, out=rows[:, :n])
    np.negative(lp.rhs, out=rows[:, -1])
    np.fill_diagonal(rows[:, n : n + m], 1.0)
    costs = body[-1]
    groups = None
    if start.size:
        groups = lp.groups
        coupling = rows[:, start]
        step = max(1, _GATHER_FLOATS // max(m, 1))
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            rows[:, lo:hi] -= coupling[:, groups[lo:hi]]
        rows[:, -1] -= coupling.sum(axis=1)
        key_costs = lp.objective[start]
        np.subtract(lp.objective, key_costs[groups], out=costs[:n])
        costs[-1] = -key_costs.sum()
    else:
        costs[:n] = lp.objective

    values = rows[:, -1]
    if values.size and values.min() < -FEAS_TOL:
        raise SolverError(
            f"start basis is infeasible: a basic variable is {values.min():.3g}, "
            f"below -{FEAS_TOL}"
        )
    np.maximum(values, 0.0, out=values)
    return _Tableau(body, np.concatenate([np.arange(n, n + m), start]), cap, groups)


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

    Raises InputError on a basis of the wrong size or a column outside
    its group, SolverError if the LP is unbounded, the pivot limit is
    exceeded or the given basis is infeasible.
    """
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
    tableau.run()

    x = tableau.values()[: lp.n_vars]
    objective = float(np.dot(lp.objective, x))
    worst = violation_at(lp, x)
    if worst > FEAS_TOL:
        raise SolverError(
            f"simplex returned an optimal basis with violation {worst:.3g} "
            f"above the {FEAS_TOL} feasibility tolerance"
        )
    x.flags.writeable = False
    return LpSolution(x, objective, worst)
