"""A small dense linear-program representation and simplex solver.

Sized for the obedience LPs this package builds: hundreds to a few
thousand dense variables.  An LP is held as numpy arrays (objective,
constraint matrix, relations, rhs, bounds).  Equality constraints are
handled natively, pricing is Dantzig's rule with a permanent switch to
Bland's rule after a degenerate stall (which guarantees termination),
and the iteration cap is 50 * (variables + constraints).  A pivot
updates only the tableau rows with a nonzero entry in the pivot column.

Two ways in:

* ``solve(lp)`` runs the textbook two-phase method: phase 1 drives one
  artificial variable per ``>=`` or ``=`` row to zero, phase 2 optimizes.
* ``solve(lp, basis)`` warm-starts from a basis the caller knows to be
  feasible.  ``basis`` names one structural column per equality row (in
  row order); every inequality row starts on its own slack.  The solver
  eliminates the named columns into the tableau, checks that the
  resulting basic solution is feasible (rhs >= -FEAS_TOL, else
  SolverError) and runs phase 2 directly, with no artificial columns.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .model import InputError, SolverError

FEAS_TOL = 1e-8    # feasibility tolerance (phase-1 optimum, violation checks)
# Reduced-cost (optimality) tolerance.  The obedience LPs have objective
# coefficients as small as single state probabilities, so a looser value
# stops short of the optimum on large instances.
OPT_TOL = 1e-11
PIVOT_TOL = 1e-9   # smallest pivot element accepted in the ratio test

LESS = "<="
GREATER = ">="
EQUAL = "="
_RELATIONS = (LESS, GREATER, EQUAL)


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class ConstraintRow(NamedTuple):
    """One constraint of a LinearProgram; ``coeffs`` is a view into its matrix."""

    coeffs: np.ndarray
    relation: str
    rhs: float


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """maximize objective . x subject to matrix @ x (relations) rhs and bounds.

    ``objective`` has shape (n,), ``matrix`` (m, n), ``relations`` holds
    m of LESS / GREATER / EQUAL, ``rhs`` has shape (m,) and ``bounds``
    (n, 2) with columns lower, upper; the default bounds are [0, inf).
    Inputs are converted to float arrays without copying where possible.
    """

    objective: np.ndarray
    matrix: np.ndarray | None = None
    relations: Sequence[str] = ()
    rhs: np.ndarray | Sequence[float] = ()
    bounds: np.ndarray | None = None
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
        if self.bounds is None:
            bounds = np.column_stack([np.zeros(n), np.full(n, math.inf)])
        else:
            bounds = np.asarray(self.bounds, dtype=float)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "relations", relations)
        senses = (relations == LESS).astype(int) - (relations == GREATER)
        object.__setattr__(self, "senses", senses)
        object.__setattr__(self, "rhs", np.asarray(self.rhs, dtype=float))
        object.__setattr__(self, "bounds", bounds)

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
    status: LpStatus
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
    if lp.bounds.shape != (n, 2):
        raise InputError(f"bounds of shape {lp.bounds.shape} do not match {n} variables")
    inverted = np.flatnonzero(lp.bounds[:, 0] > lp.bounds[:, 1])
    if inverted.size:
        j = int(inverted[0])
        lo, hi = lp.bounds[j]
        raise InputError(f"variable {j} has lower bound {lo} above upper bound {hi}")


def violation_at(lp: LinearProgram, x: np.ndarray) -> float:
    """Largest constraint or bound breach at the point x."""
    x = np.asarray(x, dtype=float)
    gap = lp.matrix @ x - lp.rhs
    breach = np.where(lp.senses, lp.senses * gap, np.abs(gap))
    return max(
        0.0,
        float(breach.max(initial=0.0)),
        float((lp.bounds[:, 0] - x).max()),
        float((x - lp.bounds[:, 1]).max()),
    )


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

    def run(self) -> LpStatus:
        T = self.T
        m = self.num_rows
        n = self.num_cols
        while True:
            costs = T[-1, :n]
            if self.bland:
                eligible = np.nonzero(costs > OPT_TOL)[0]
                if eligible.size == 0:
                    return LpStatus.OPTIMAL
                col = int(eligible[0])
            else:
                col = int(np.argmax(costs))
                if costs[col] <= OPT_TOL:
                    return LpStatus.OPTIMAL
            column = T[:m, col]
            positive = column > PIVOT_TOL
            if not positive.any():
                return LpStatus.UNBOUNDED
            ratios = np.full(m, math.inf)
            ratios[positive] = T[:m, -1][positive] / column[positive]
            best = float(ratios.min())
            tied = np.nonzero(ratios <= best + 1e-9 * (1.0 + abs(best)))[0]
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


@dataclass(frozen=True)
class _Shift:
    """x = offset + sign * y[start], minus y[start + 1] for free variables.

    Every variable becomes one y >= 0 column (two for a free variable);
    a finite upper bound on a lower-bounded variable becomes an extra
    ``y <= upper - lower`` row.
    """

    offset: np.ndarray
    sign: np.ndarray
    start: np.ndarray
    free: np.ndarray
    capped: np.ndarray
    num_y: int
    identity: bool  # y = x - offset: no column is flipped or split

    @classmethod
    def of(cls, lp: LinearProgram) -> "_Shift":
        lo, hi = lp.bounds.T
        no_lower, no_upper = np.isinf(lo), np.isinf(hi)
        capped = np.flatnonzero(~(no_lower | no_upper))
        if not no_lower.any():  # y = x - lower, column for column
            n = lo.size
            return cls(lo, np.ones(n), np.arange(n), np.arange(0), capped, n, True)
        free = no_lower & no_upper
        from_top = no_lower & ~no_upper
        width = 1 + free.astype(int)
        return cls(
            offset=np.where(from_top, hi, np.where(free, 0.0, lo)),
            sign=np.where(from_top, -1.0, 1.0),
            start=np.cumsum(width) - width,
            free=np.flatnonzero(free),
            capped=capped,
            num_y=int(width.sum()),
            identity=False,
        )

    def columns(self, coeffs: np.ndarray) -> np.ndarray:
        """Coefficients on x, shape (r, n), rewritten on y, shape (r, num_y)."""
        if self.identity:
            return coeffs
        out = np.zeros((coeffs.shape[0], self.num_y))
        out[:, self.start] = coeffs * self.sign
        out[:, self.start[self.free] + 1] = -coeffs[:, self.free]
        return out

    def point(self, y: np.ndarray) -> np.ndarray:
        x = self.offset + self.sign * y[self.start]
        x[self.free] -= y[self.start[self.free] + 1]
        return x


def _standard_form(lp: LinearProgram, shift: _Shift):
    """(A, senses, b) over y, with the upper-bound rows appended."""
    A = shift.columns(lp.matrix)
    b = lp.rhs
    if shift.offset.any():
        b = b - lp.matrix @ shift.offset
    senses = lp.senses
    if shift.capped.size:
        extra = np.zeros((shift.capped.size, shift.num_y))
        extra[np.arange(shift.capped.size), shift.start[shift.capped]] = 1.0
        A = np.vstack([A, extra])
        upper = lp.bounds[shift.capped, 1] - lp.bounds[shift.capped, 0]
        b = np.concatenate([b, upper])
        senses = np.concatenate([senses, np.ones(shift.capped.size, dtype=int)])
    return A, senses, np.array(b, dtype=float)


def _two_phase_tableau(A, senses, b, cap):
    """Phase-1 tableau: b >= 0, one slack per inequality, one artificial per >= or = row.

    Returns (tableau, first artificial column, number of artificials).
    """
    m, num_y = A.shape
    # Normalize to b >= 0 by negating rows (a negated <= row is a >= row);
    # >= rows with zero rhs become <= rows for free.
    flip = (b < 0.0) | ((senses < 0) & (b == 0.0))
    row_sign = np.where(flip, -1.0, 1.0)
    senses = np.where(flip, -senses, senses)
    slack_rows = np.flatnonzero(senses)
    art_rows = np.flatnonzero(senses <= 0)
    art_start = num_y + slack_rows.size
    body = np.zeros((m + 1, art_start + art_rows.size + 1))
    np.multiply(A, row_sign[:, None], out=body[:m, :num_y])
    body[:m, -1] = b * row_sign
    slack_cols = num_y + np.arange(slack_rows.size)
    body[slack_rows, slack_cols] = senses[slack_rows]
    art_cols = art_start + np.arange(art_rows.size)
    body[art_rows, art_cols] = 1.0
    basis = np.zeros(m, dtype=int)
    basis[slack_rows] = slack_cols
    basis[art_rows] = art_cols  # a >= row's surplus column is not basic
    return _Tableau(body, basis, cap), art_start, art_rows.size


def _warm_tableau(A, senses, b, structural: np.ndarray, cap) -> _Tableau:
    """Tableau in the basis of ``structural`` (equality rows) plus every slack.

    Block elimination: with B the equality rows' block in the structural
    columns, the equality rows become B^-1 times themselves (B is the
    identity for the obedience LPs, so nothing is solved), and every
    inequality row that touches a structural column loses that part.
    """
    m, num_y = A.shape
    equal_rows = np.flatnonzero(senses == 0)
    slack_rows = np.flatnonzero(senses)
    body = np.zeros((m + 1, num_y + slack_rows.size + 1))
    T = body[:m]
    T[:, :num_y] = A
    T[:, -1] = b
    # Every inequality becomes a <= row with a +1 slack.
    T[senses < 0] *= -1.0
    slack_cols = num_y + np.arange(slack_rows.size)
    T[slack_rows, slack_cols] = 1.0

    block = T[np.ix_(equal_rows, structural)]
    identity = np.eye(equal_rows.size)
    if not np.array_equal(block, identity):
        try:
            T[equal_rows] = np.linalg.solve(block, T[equal_rows])
        except np.linalg.LinAlgError:
            raise SolverError("start basis is singular on the equality rows") from None
    coupling = T[np.ix_(slack_rows, structural)]
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
    T[np.ix_(slack_rows, structural)] = 0.0
    T[np.ix_(equal_rows, structural)] = identity

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
    basis: Sequence[int] | np.ndarray | None = None,
    *,
    _iteration_cap: int | None = None,
) -> LpSolution:
    """Solve the LP; statuses other than OPTIMAL are reported faithfully.

    ``basis``, if given, names one variable per equality row, in row
    order, whose columns together with every inequality row's slack
    form a feasible starting basis (see the module docstring).

    Raises InputError on shape mismatches, SolverError if the pivot
    limit is exceeded or the given basis is singular or infeasible.
    """
    _check_shapes(lp)
    cap = _iteration_cap
    if cap is None:
        cap = 50 * (lp.n_vars + lp.n_constraints)

    shift = _Shift.of(lp)
    A, senses, b = _standard_form(lp, shift)
    if basis is None:
        tableau, art_start, num_art = _two_phase_tableau(A, senses, b, cap)
    else:
        structural = np.asarray(basis, dtype=int).reshape(-1)
        num_equal = int(np.count_nonzero(senses == 0))
        if structural.size != num_equal:
            raise InputError(
                f"basis names {structural.size} columns for {num_equal} equality rows"
            )
        if structural.size and (structural.min() < 0 or structural.max() >= lp.n_vars):
            raise InputError(f"basis columns must lie in [0, {lp.n_vars})")
        tableau = _warm_tableau(A, senses, b, shift.start[structural], cap)
        num_art = 0

    if num_art:
        phase1 = np.zeros(tableau.num_cols)
        phase1[art_start:] = -1.0
        tableau.set_costs(phase1)
        status = tableau.run()
        if status is LpStatus.UNBOUNDED:
            raise SolverError("phase-1 objective reported unbounded")
        if tableau.objective() < -FEAS_TOL:
            return LpSolution(LpStatus.INFEASIBLE, (math.nan,) * lp.n_vars, math.nan, math.nan)
        # Pivot artificials out of the basis; rows that cannot pivot are
        # redundant and dropped.
        m = tableau.num_rows
        keep_rows = np.ones(m, dtype=bool)
        for i in range(m):
            if tableau.basis[i] >= art_start:
                row = tableau.T[i, :art_start]
                candidates = np.nonzero(np.abs(row) > PIVOT_TOL)[0]
                if candidates.size:
                    tableau._pivot(i, int(candidates[0]))
                else:
                    keep_rows[i] = False
        kept = tableau.T[np.append(keep_rows, True)]
        body = np.hstack([kept[:, :art_start], kept[:, -1:]])
        done = tableau.iterations
        tableau = _Tableau(body, tableau.basis[keep_rows], cap)
        tableau.iterations = done

    phase2 = np.zeros(tableau.num_cols)
    phase2[: shift.num_y] = shift.columns(lp.objective[None, :])[0]
    tableau.set_costs(phase2)
    status = tableau.run()
    if status is LpStatus.UNBOUNDED:
        return LpSolution(LpStatus.UNBOUNDED, (math.nan,) * lp.n_vars, math.inf, math.nan)

    y = np.zeros(tableau.num_cols)
    y[tableau.basis] = tableau.T[: tableau.num_rows, -1]
    x = shift.point(y)
    objective = float(np.dot(lp.objective, x))
    worst = violation_at(lp, x)
    if worst > FEAS_TOL:
        raise SolverError(
            f"simplex returned an optimal basis with violation {worst:.3g} "
            f"above the {FEAS_TOL} feasibility tolerance"
        )
    return LpSolution(LpStatus.OPTIMAL, tuple(x.tolist()), objective, worst)
