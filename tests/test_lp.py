import numpy as np
import pytest
from scipy.optimize import linprog

from selcheck.lp import ConstraintBlock, LinearProgram, solve_lp


def lp(objective, rows, lower_bounds=None):
    """The LinearProgram on (coefficients, relation, rhs) rows."""
    block = ConstraintBlock(
        matrix=np.array([a for a, _, _ in rows], dtype=float),
        relations=np.array([rel for _, rel, _ in rows]),
        rhs=np.array([b for _, _, b in rows], dtype=float),
    )
    return LinearProgram(objective=objective, constraints=block, lower_bounds=lower_bounds)


def upper_bound_rows(ubs):
    """x_j <= ub_j as rows, for every ub_j that is not None."""
    return [(np.eye(len(ubs))[j], "<=", ub) for j, ub in enumerate(ubs) if ub is not None]


def test_simple_bounded_maximum():
    sol = solve_lp(lp(objective=[1.0], rows=[([1.0], "<=", 3.0)]))
    assert sol.optimal
    assert sol.objective == pytest.approx(3.0)
    assert sol.x[0] == pytest.approx(3.0)


def test_infeasible_classified():
    sol = solve_lp(lp(objective=[1.0], rows=[([1.0], "<=", -1.0)]))
    assert sol.status == "infeasible"
    assert sol.x is None


def test_degenerate_optimum_set():
    sol = solve_lp(lp(objective=[1.0, 1.0], rows=[([1.0, 1.0], "=", 1.0)]))
    assert sol.optimal
    assert sol.objective == pytest.approx(1.0)
    assert sum(sol.x) == pytest.approx(1.0)
    assert all(v >= -1e-9 for v in sol.x)


def test_unbounded_classified():
    sol = solve_lp(lp(objective=[1.0, 0.0], rows=[([0.0, 1.0], "<=", 5.0)]))
    assert sol.status == "unbounded"


def test_bounds_respected():
    sol = solve_lp(
        lp(
            objective=[-1.0, 1.0],
            rows=[([1.0, 1.0], "<=", 3.0), *upper_bound_rows([None, 2.0])],
            lower_bounds=[0.5, 0.0],
        )
    )
    assert sol.optimal
    assert sol.x[0] == pytest.approx(0.5)
    assert sol.x[1] == pytest.approx(2.0)


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        solve_lp(lp(objective=[1.0, 2.0], rows=[([1.0], "<=", 1.0)]))
    with pytest.raises(ValueError):
        solve_lp(lp(objective=[1.0], rows=[([1.0], "<<", 1.0)]))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "problem, message",
    [
        pytest.param(dict(objective=[NAN, 1.0]), "objective", id="objective-nan"),
        pytest.param(dict(objective=[1.0, -INF]), "objective", id="objective-inf"),
        pytest.param(dict(rows=[([1.0, NAN], "<=", 3.0)]), "coefficients", id="coefficient-nan"),
        pytest.param(dict(rows=[([INF, 1.0], ">=", 1.0)]), "coefficients", id="coefficient-inf"),
        pytest.param(dict(rows=[([1.0, 1.0], "=", NAN)]), "rhs", id="rhs-nan"),
        pytest.param(dict(rows=[([1.0, 1.0], "<=", INF)]), "rhs", id="rhs-inf"),
    ],
)
def test_non_finite_input_rejected_up_front(problem, message):
    base = dict(objective=[1.0, 1.0], rows=[([1.0, 1.0], "<=", 3.0)])
    with pytest.raises(ValueError, match=message):
        solve_lp(lp(**{**base, **problem}))


def test_deterministic_across_runs():
    prob = lp(
        objective=[3.0, 2.0, 1.0],
        rows=[([1.0, 1.0, 1.0], "=", 4.0), ([1.0, 0.0, 0.0], "<=", 3.0),
              ([0.0, 1.0, 0.0], ">=", 1.0)],
    )
    first = solve_lp(prob)
    for _ in range(5):
        again = solve_lp(prob)
        assert again.status == first.status
        assert again.x == first.x
        assert again.objective == first.objective


def _random_problem(rng):
    n = int(rng.integers(1, 6))
    m = int(rng.integers(1, 7))
    c = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    rels = [["<=", ">=", "="][rng.integers(0, 3)] for _ in range(m)]
    b = rng.normal(size=m)
    lbs = rng.uniform(-1.0, 0.5, size=n)
    ubs = [None if rng.random() < 0.5 else float(lbs[j] + rng.uniform(0.0, 3.0)) for j in range(n)]
    prob = lp(
        objective=c.tolist(),
        rows=[(A[i].tolist(), rels[i], float(b[i])) for i in range(m)] + upper_bound_rows(ubs),
        lower_bounds=lbs.tolist(),
    )
    return prob, (c, A, rels, b, lbs, ubs)


def test_matches_reference_solver_on_random_problems(rng):
    matched = 0
    for trial in range(250):
        prob, (c, A, rels, b, lbs, ubs) = _random_problem(rng)
        mine = solve_lp(prob)
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for i, rel in enumerate(rels):
            if rel == "<=":
                A_ub.append(A[i]); b_ub.append(b[i])
            elif rel == ">=":
                A_ub.append(-A[i]); b_ub.append(-b[i])
            else:
                A_eq.append(A[i]); b_eq.append(b[i])
        ref = linprog(
            -c,
            A_ub=np.array(A_ub) if A_ub else None, b_ub=np.array(b_ub) if b_ub else None,
            A_eq=np.array(A_eq) if A_eq else None, b_eq=np.array(b_eq) if b_eq else None,
            bounds=list(zip(lbs, ubs)), method="highs",
        )
        if ref.status == 0:
            assert mine.optimal, trial
            assert mine.objective == pytest.approx(-ref.fun, abs=1e-6), trial
            matched += 1
        elif ref.status == 2:
            assert mine.status == "infeasible", trial
        elif ref.status == 3:
            assert mine.status == "unbounded", trial
    assert matched > 40  # the generator must exercise the optimal path


def test_feasibility_of_returned_point(rng):
    for trial in range(100):
        prob, (c, A, rels, b, lbs, ubs) = _random_problem(rng)
        sol = solve_lp(prob)
        if not sol.optimal:
            continue
        x = np.array(sol.x)
        for i, rel in enumerate(rels):
            lhs = float(A[i] @ x)
            if rel == "<=":
                assert lhs <= b[i] + 1e-6, trial
            elif rel == ">=":
                assert lhs >= b[i] - 1e-6, trial
            else:
                assert lhs == pytest.approx(b[i], abs=1e-6), trial
        assert np.all(x >= lbs - 1e-6)
        for j, ub in enumerate(ubs):
            if ub is not None:
                assert x[j] <= ub + 1e-6


def test_objective_dominates_random_feasible_points(rng):
    """Weak-duality style check: no sampled feasible point beats the optimum."""
    for trial in range(200):
        n = int(rng.integers(1, 5))
        c = rng.normal(size=n)
        # box + one <= constraint keeps the problem bounded and samplable
        a = np.abs(rng.normal(size=n)) + 0.1
        ub = float(rng.uniform(1.0, 5.0))
        prob = lp(
            objective=c.tolist(),
            rows=[(a.tolist(), "<=", ub), *upper_bound_rows([2.0] * n)],
        )
        sol = solve_lp(prob)
        assert sol.optimal
        for _ in range(20):
            x = rng.uniform(0.0, 2.0, size=n)
            if a @ x <= ub:
                assert c @ x <= sol.objective + 1e-7
