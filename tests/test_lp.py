"""Simplex solver tests against an independent vertex-enumeration oracle."""

import itertools

import numpy as np
import pytest

from sigmech.lp import SPARSE_ROW, LinearProgram, solve, violation_at
from sigmech.model import InputError, SolverError


def enumerate_vertices(lp):
    """Best objective over all basic feasible points, by brute force.

    Stacks constraints and the x >= 0 bounds as candidate active rows,
    solves every full-rank n-subset that includes all group-sum rows, and
    keeps feasible solutions.  Only suitable for tiny LPs.
    """
    n = lp.n_vars
    rows = [(coeffs, rhs) for coeffs, rhs in zip(lp.matrix, lp.rhs)]
    required = [((lp.groups == g).astype(float), 1.0) for g in range(lp.num_groups)]
    for j in range(n):
        unit = np.zeros(n)
        unit[j] = 1.0
        rows.append((unit, 0.0))

    best = None
    best_x = None
    free = n - len(required)
    for combo in itertools.combinations(range(len(rows)), free):
        mat = np.array([r[0] for r in required] + [rows[i][0] for i in combo])
        rhs = np.array([r[1] for r in required] + [rows[i][1] for i in combo])
        if np.linalg.matrix_rank(mat) < n:
            continue
        try:
            x = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError:
            continue
        if violation_at(lp, x) > 1e-9:
            continue
        value = float(np.dot(lp.objective, x))
        if best is None or value > best:
            best, best_x = value, x
    return best, best_x


def test_single_variable_optimum():
    lp = LinearProgram((1.0,), [[-1.0]], (-1.0,))  # x <= 1
    sol = solve(lp, [])
    assert sol.x.tolist() == [1.0]
    assert sol.objective_value == 1.0


def test_unbounded_reported():
    lp = LinearProgram((1.0,), np.zeros((0, 1)), ())
    with pytest.raises(SolverError, match="unbounded"):
        solve(lp, [])


def test_two_variable_optimum_matches_vertex_enumeration():
    lp = LinearProgram((1.0, 1.0), [[-1.0, -2.0], [-3.0, -1.0]], (-4.0, -6.0))
    sol = solve(lp, [])
    assert sol.objective_value == pytest.approx(2.8, abs=1e-9)
    assert sol.x == pytest.approx((1.6, 1.2), abs=1e-9)
    oracle_value, _ = enumerate_vertices(lp)
    assert sol.objective_value == pytest.approx(oracle_value, abs=1e-9)


def test_equality_constraints_native():
    lp = LinearProgram((1.0, 2.0, -1.0), [[1.0, -1.0, 0.0]], (-0.5,), (0, 0, 0))
    sol = solve(lp, [2])  # x2 = 1 satisfies x0 - x1 >= -0.5
    oracle_value, _ = enumerate_vertices(lp)
    assert sol.objective_value == pytest.approx(oracle_value, abs=1e-8)


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError, match="2 columns"):
        LinearProgram((1.0, 0.0), [[1.0]], (1.0,))
    with pytest.raises(InputError, match="1 columns"):
        LinearProgram((1.0,), [[1.0, 1.0]], (1.0,))
    with pytest.raises(InputError, match="right-hand sides"):
        LinearProgram((1.0, 0.0), [[1.0, 0.0]], (1.0, 2.0))
    with pytest.raises(InputError, match="right-hand sides"):
        LinearProgram((1.0, 0.0), [[1.0, 0.0]], [[1.0]])
    # Four entries fit two rows of two columns, but a matrix is 2-D.
    with pytest.raises(InputError, match="2-D"):
        LinearProgram((1.0, 0.0), [1.0, 0.0, 0.0, 1.0], (0.0, 0.0))
    with pytest.raises(InputError, match="2-D"):
        LinearProgram((1.0, 0.0), np.zeros((1, 1, 2)), (0.0,))
    with pytest.raises(InputError, match="2-D"):
        LinearProgram((1.0, 0.0), [], ())
    with pytest.raises(InputError, match="objective"):
        LinearProgram([[1.0, 0.0]], np.zeros((0, 2)), ())
    with pytest.raises(InputError, match="objective"):
        LinearProgram((), np.zeros((0, 0)), ())


def test_solution_point_is_read_only():
    x = solve(_simplex_lp(), [0]).x
    assert isinstance(x, np.ndarray) and not x.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 1.0


def test_iteration_cap_error_names_the_cap():
    lp = LinearProgram((1.0, 1.0), [[-1.0, -2.0], [-3.0, -1.0]], (-4.0, -6.0))
    with pytest.raises(SolverError, match="1 pivot"):
        solve(lp, [], _iteration_cap=1)


def test_degenerate_cycling_instance_terminates():
    # Beale's example: cycles under naive largest-coefficient pricing.  Its
    # three <= rows are written negated.
    lp = LinearProgram(
        (0.75, -150.0, 0.02, -6.0),
        [
            [-0.25, 60.0, 0.04, -9.0],
            [-0.5, 90.0, 0.02, -3.0],
            [0.0, 0.0, -1.0, 0.0],
        ],
        (0.0, 0.0, -1.0),
    )
    sol = solve(lp, [])
    assert sol.objective_value == pytest.approx(0.05, abs=1e-9)


def _random_lp_with_start(rng, grouped=False):
    """Random bounded LP over x >= 0 and a feasible start basis, both by construction.

    With groups, every column lies in one of them and the start point x0
    is 1 on one random member per group and zero elsewhere.  Every row
    holds at x0 with random slack, and a last row -sum(x) >= -cap keeps
    the LP bounded.  A ``grouped`` LP has 4 to 6 columns in 1 to n // 2
    groups and 1 to 5 rows before the cap, so most groups have several
    members.  Returns (lp, basis).
    """
    if grouped:
        n = int(rng.integers(4, 7))
        m = int(rng.integers(1, 6))
        num_groups = int(rng.integers(1, n // 2 + 1))
    else:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 9))
        num_groups = int(rng.integers(0, n + 1))
    groups, basis = None, np.zeros(0, dtype=int)
    x0 = np.zeros(n)
    if num_groups:
        # The first num_groups columns of a permutation found the groups.
        order = rng.permutation(n)
        groups = np.empty(n, dtype=int)
        groups[order[:num_groups]] = np.arange(num_groups)
        groups[order[num_groups:]] = rng.integers(0, num_groups, n - num_groups)
        basis = np.array([rng.choice(np.flatnonzero(groups == g)) for g in range(num_groups)])
        x0[basis] = 1.0
    # Rows drawn as a x <= b (about half of them) are written -a x >= -b.
    sign = np.array([-1.0 if rng.integers(0, 2) else 1.0 for _ in range(m)])
    matrix = sign[:, None] * rng.uniform(-2.0, 2.0, (m, n))
    slack = rng.uniform(0.0, 1.5, m)
    rhs = matrix @ x0 - slack
    matrix = np.vstack([matrix, -np.ones(n)])
    rhs = np.append(rhs, -(x0.sum() + rng.uniform(0.5, 3.0)))
    lp = LinearProgram(rng.uniform(-2.0, 2.0, n), matrix, rhs, groups)
    return lp, basis


def test_random_lps_match_vertex_enumeration():
    rng = np.random.default_rng(20240817)
    for _ in range(120):
        lp, basis = _random_lp_with_start(rng)
        sol = solve(lp, basis)
        oracle_value, _ = enumerate_vertices(lp)
        assert oracle_value is not None
        assert abs(sol.objective_value - oracle_value) <= 1e-6


def test_grouped_random_lps_take_every_basis_change(monkeypatch):
    """Row pivots, key replacements and key swaps each occur many times, and
    every LP still reaches the vertex-enumeration optimum."""
    from sigmech.lp import _Tableau

    counts = {"row pivot": 0, "key replacement": 0, "key swap": 0}
    leave_key, run = _Tableau._leave_key, _Tableau.run

    def counting_leave_key(self, g, col):
        held = (self.row_bin == g).any()
        counts["key swap" if held else "key replacement"] += 1
        counts["row pivot"] -= 1  # counted in the iterations below
        leave_key(self, g, col)

    def counting_run(self):
        run(self)
        counts["row pivot"] += self.iterations

    monkeypatch.setattr(_Tableau, "_leave_key", counting_leave_key)
    monkeypatch.setattr(_Tableau, "run", counting_run)
    rng = np.random.default_rng(1)
    for _ in range(150):
        lp, basis = _random_lp_with_start(rng, grouped=True)
        sol = solve(lp, basis)
        oracle_value, _ = enumerate_vertices(lp)
        assert abs(sol.objective_value - oracle_value) <= 1e-6
    assert min(counts.values()) >= 20, counts


def test_tableau_holds_only_the_matrix_rows():
    """Column groups stay out of the tableau: K^2 + K rows plus the cost row."""
    from sigmech.bounds import make_tightness_instance
    from sigmech.centralized import build_centralized_lp, uninformative_start
    from sigmech.lp import _warm_tableau

    system = make_tightness_instance(9, 10.0).system
    lp = build_centralized_lp(system)
    start = uninformative_start(system.joint_vector, system.utility_matrix)
    tableau = _warm_tableau(lp, start, cap=1)
    assert lp.num_groups == system.state_count == 512
    assert tableau.T.shape == (9 * 9 + 9 + 1, lp.n_vars + lp.n_constraints + 1)


def test_solve_is_deterministic():
    rng = np.random.default_rng(99)
    for _ in range(10):
        lp, basis = _random_lp_with_start(rng)
        first = solve(lp, basis)
        second = solve(lp, basis)
        assert first.x.tobytes() == second.x.tobytes()
        assert first.objective_value == second.objective_value


def test_reported_violation_matches_recomputation():
    rng = np.random.default_rng(7)
    for _ in range(40):
        lp, basis = _random_lp_with_start(rng)
        sol = solve(lp, basis)
        recomputed = 0.0
        x = np.array(sol.x)
        for coeffs, rhs in zip(lp.matrix, lp.rhs):
            recomputed = max(recomputed, rhs - float(np.dot(coeffs, x)))
        for g in range(lp.num_groups):
            recomputed = max(recomputed, abs(float(x[lp.groups == g].sum()) - 1.0))
        recomputed = max(recomputed, float(-x.min()))
        assert abs(recomputed - sol.max_violation) <= 1e-12
        assert sol.max_violation <= 1e-8


def _simplex_lp():
    """max x0 + 2 x1 - x2 on the simplex x0 + x1 + x2 = 1 (one group), with x1 <= 0.6."""
    return LinearProgram((1.0, 2.0, -1.0), [[0.0, -1.0, 0.0]], (-0.6,), (0, 0, 0))


def test_warm_start_matches_two_phase_and_vertex_enumeration():
    """Two different feasible starts reach the vertex-enumeration optimum."""
    lp = _simplex_lp()
    oracle_value, _ = enumerate_vertices(lp)
    for start in (0, 2):  # x0 = 1 or x2 = 1; both satisfy x1 <= 0.6
        warm = solve(lp, basis=[start])
        assert warm.objective_value == pytest.approx(oracle_value, abs=1e-12)
        assert warm.x == pytest.approx((0.4, 0.6, 0.0), abs=1e-12)


def test_warm_start_rejects_infeasible_and_misshapen_bases():
    lp = LinearProgram((1.0, 2.0), [[0.0, -1.0]], (-0.6,), (0, 1))
    with pytest.raises(SolverError, match="infeasible"):
        solve(_simplex_lp(), basis=[1])  # x1 = 1 breaks x1 <= 0.6
    with pytest.raises(SolverError, match="infeasible"):  # all slacks: x = 0 breaks x >= 1
        solve(LinearProgram((1.0,), [[1.0], [-1.0]], (1.0, -2.0)), [])
    with pytest.raises(InputError):
        solve(lp, basis=[0])
    with pytest.raises(InputError):
        solve(lp, basis=[0, 2])


def test_solve_rejects_a_start_column_outside_its_group():
    lp = LinearProgram((1.0, 2.0, 0.5), [[0.0, -1.0, 0.0]], (-0.6,), (0, 0, 1))
    assert solve(lp, basis=[0, 2]).objective_value == pytest.approx(2.1, abs=1e-12)
    with pytest.raises(InputError, match="not a member of group 1"):
        solve(lp, basis=[0, 1])
    with pytest.raises(InputError, match="not a member of group 0"):
        solve(lp, basis=[2, 2])


def test_violation_reports_group_sum_gap():
    lp = LinearProgram((1.0, 1.0, 1.0), [[-1.0, 0.0, 0.0]], (-1.0,), (0, 0, 1))
    assert violation_at(lp, (0.5, 0.4, 1.0)) == pytest.approx(0.1, abs=1e-15)
    assert violation_at(lp, (0.5, 0.5, 1.0)) == 0.0


def test_malformed_groups_rejected():
    no_rows = np.zeros((0, 3))
    with pytest.raises(InputError, match="3 integer group ids"):
        LinearProgram((1.0, 1.0, 1.0), no_rows, (), (0, 1))
    with pytest.raises(InputError, match="3 integer group ids"):
        LinearProgram((1.0, 1.0, 1.0), no_rows, (), (0.0, 1.0, 1.0))
    with pytest.raises(InputError, match="nonnegative"):
        LinearProgram((1.0, 1.0, 1.0), no_rows, (), (0, -1, 1))


def _tableau_cases(rng):
    """Dense-row cases (12 columns, 60% zeros), the same with every row
    touched (a pivot column without zeros), then pivot rows below the
    SPARSE_ROW cut (40 columns, 3 nonzeros in the pivot row)."""
    for touch_all in (False, True):
        for _ in range(20):
            body = rng.uniform(-2.0, 2.0, (9, 12))
            body[rng.uniform(size=body.shape) < 0.6] = 0.0
            row, col = int(rng.integers(0, 8)), int(rng.integers(0, 11))
            if touch_all:
                body[:, col] = rng.uniform(0.5, 2.0, 9)
            body[row, col] = rng.uniform(0.5, 2.0)
            yield body, row, col
    for _ in range(20):
        body = rng.uniform(-2.0, 2.0, (9, 40))
        body[rng.uniform(size=body.shape) < 0.5] = 0.0
        row, col = int(rng.integers(0, 8)), int(rng.integers(0, 39))
        body[row] = 0.0
        body[row, rng.choice(40, 2, replace=False)] = rng.uniform(-2.0, 2.0, 2)
        body[row, col] = rng.uniform(0.5, 2.0)
        assert np.count_nonzero(body[row]) < SPARSE_ROW * body.shape[1]
        yield body, row, col


def test_row_sparse_pivot_equals_dense_update():
    from sigmech.lp import _Tableau

    rng = np.random.default_rng(3)
    for body, row, col in _tableau_cases(rng):
        dense = body.copy()
        dense[row] /= dense[row, col]
        factors = dense[:, col].copy()
        factors[row] = 0.0
        dense -= np.outer(factors, dense[row])
        dense[:, col] = 0.0
        dense[row, col] = 1.0
        tableau = _Tableau(body, np.arange(8), cap=10)
        tableau._pivot(row, col)
        assert np.array_equal(tableau.T, dense)
        assert tableau.basis[row] == col

