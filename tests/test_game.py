import hashlib
import time

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_task
from oracles import game_lp_vertex_optimum, highs_objective, highs_objectives, reward_cost, reward_cost_by_cases, tie_rule

from selcheck.game import (
    MAX_COMMANDS,
    OBJECTIVE_TIE_TOL,
    GameInfeasibleError,
    best_response_block,
    build_game,
    build_game_from_weights,
    certified,
    enumerate_attacker_strategies,
    enumerate_designer_strategies,
    lp_for_attacker_strategy,
    screened_out,
    solve_game,
    _solve_by_row_generation,
)
from selcheck.lp import FEAS_TOL, PIVOT_TOL, ConstraintBlock, LpSolution, add_rows, solve_lp
from selcheck.planner import TaskPlan
from selcheck.simulator import catch_mass


def test_designer_strategies_lexicographic():
    assert enumerate_designer_strategies(3, 2) == [(1, 2), (1, 3), (2, 3)]
    assert enumerate_designer_strategies(3, 3) == [(1, 2, 3)]
    assert len(enumerate_designer_strategies(5, 2)) == 10


def test_designer_strategies_k_out_of_range():
    with pytest.raises(ValueError):
        enumerate_designer_strategies(3, 0)
    with pytest.raises(ValueError):
        enumerate_designer_strategies(3, 4)


def test_attacker_strategies_binary_counting():
    q = enumerate_attacker_strategies(3)
    assert len(q) == 8
    assert q[0] == ()
    assert q[1] == (1,)
    assert q[3] == (1, 2)
    assert q[7] == (1, 2, 3)
    assert enumerate_attacker_strategies(1) == [(), (1,)]
    assert len(enumerate_attacker_strategies(10)) == 1024


def test_attacker_enumeration_cap():
    with pytest.raises(ValueError):
        enumerate_attacker_strategies(21)


def test_reward_cost_cases():
    w = (1.0, 1.0, 1.0)
    assert reward_cost((2, 3), (1, 2), w) == (pytest.approx(2 / 3), pytest.approx(2 / 3))
    assert reward_cost((1, 2), (1, 2), w, big_m=100.0) == (100.0, -100.0)
    assert reward_cost((1, 2), (3,), w, big_m=100.0) == (-100.0, 100.0)
    assert reward_cost((1, 2), (), w) == (1.0, 0.0)
    with pytest.raises(ValueError):
        reward_cost((), (1,), w)


def test_reward_cost_matches_case_oracle(rng):
    """Every cell equals an exact Fraction re-derivation, for all N <= 5."""
    big_m = 100.0
    for n in range(2, 6):
        for k in range(1, n):
            weights = tuple(float(w) for w in rng.uniform(0.1, 10.0, size=n))
            game = build_game_from_weights(weights, k, big_m)
            for j, xj in enumerate(game.designer_strategies):
                for l, ql in enumerate(game.attacker_strategies):
                    lam, zeta = reward_cost_by_cases(xj, ql, weights, big_m)
                    assert abs(game.reward[j, l] - float(lam)) <= 1e-12
                    assert abs(game.cost[j, l] - float(zeta)) <= 1e-12


def test_build_game_shapes():
    g = build_game_from_weights((1.0,) * 3, 2)
    assert g.reward.shape == (3, 8)
    g = build_game_from_weights((1.0,) * 4, 2)
    assert g.reward.shape == (6, 16)


def test_build_game_rejects_full_and_out_of_range_k():
    with pytest.raises(ValueError):
        build_game_from_weights((1.0,), 1)  # k == N: no game needed
    with pytest.raises(ValueError):
        build_game_from_weights((1.0, 1.0), 0)
    task = make_task(n=3, n_min=2)
    with pytest.raises(ValueError):
        build_game(task, 1)  # below min_checks
    with pytest.raises(ValueError):
        build_game(make_task(n=0, n_min=0, weights=()), 1)


@pytest.mark.parametrize("big_m", [float("nan"), float("inf"), float("-inf"), 0.0, -1.0])
def test_build_game_rejects_non_finite_or_non_positive_big_m(big_m):
    # a NaN or infinite big_m used to send the simplex to its iteration limit
    with pytest.raises(ValueError, match="big_m"):
        build_game_from_weights((1.0, 1.0, 1.0), 2, big_m=big_m)


def test_lp_for_attacker_strategy_shape():
    g = build_game_from_weights((1.0,) * 3, 2)
    prob = lp_for_attacker_strategy(g, 4)
    assert prob.num_vars == 3
    # 7 best-response rows plus the sum-to-one equality, as one block
    assert isinstance(prob.constraints, ConstraintBlock)
    assert prob.constraints.matrix.shape == (8, 3)
    assert list(prob.constraints.relations) == [">="] * 7 + ["="]
    assert list(prob.constraints.rhs) == [0.0] * 7 + [1.0]
    assert list(prob.lower_bounds) == [1e-6] * 3


def test_game_cap_is_checked_before_anything_is_allocated():
    started = time.monotonic()
    with pytest.raises(ValueError, match="cap"):
        build_game_from_weights((1.0,) * (MAX_COMMANDS + 1), (MAX_COMMANDS + 1) // 2)
    assert time.monotonic() - started < 0.25


def test_epsilon_must_be_positive():
    g = build_game_from_weights((1.0,) * 3, 2)
    with pytest.raises(ValueError):
        lp_for_attacker_strategy(g, 0, epsilon=0.0)
    with pytest.raises(ValueError):
        solve_game(g, epsilon=-1.0)


def test_solve_game_equal_weights_hand_values():
    """N=3, K=2, equal weights: uniform distribution, lowest singleton wins."""
    g = build_game_from_weights((1.0, 1.0, 1.0), 2, big_m=100.0)
    sol = solve_game(g, epsilon=1e-6)
    assert g.attacker_strategies[sol.attacker_strategy] == (1,)
    assert sol.objective == pytest.approx(2 / 3 - 100 / 3, abs=1e-9)
    for p in sol.probabilities:
        assert p == pytest.approx(1 / 3, abs=1e-9)
    marginals = catch_mass(_entry(g, sol.probabilities))
    assert marginals == pytest.approx((2 / 3,) * 3, abs=1e-9)
    # the no-attack strategy can never be the attacker's best response here
    assert sol.statuses[0] == "infeasible"


def test_solution_satisfies_all_game_constraints():
    g = build_game_from_weights((0.5, 1.0, 2.0), 2)
    eps = 1e-6
    sol = solve_game(g, epsilon=eps)
    x = np.array(sol.probabilities)
    assert abs(x.sum() - 1.0) <= 1e-6
    assert np.all(x >= eps - 1e-9)
    own = float(x @ g.cost[:, sol.attacker_strategy])
    for lp in range(len(g.attacker_strategies)):
        assert own >= float(x @ g.cost[:, lp]) - 1e-6
    assert sol.objective == pytest.approx(float(x @ g.reward[:, sol.attacker_strategy]), abs=1e-9)


def test_solve_game_matches_vertex_enumeration_oracle():
    g = build_game_from_weights((1.0, 1.0, 1.0), 2)
    eps = 1e-6
    sol = solve_game(g, epsilon=eps)
    best = None
    for l in range(len(g.attacker_strategies)):
        value = game_lp_vertex_optimum(g, l, eps)
        opt = solve_lp(lp_for_attacker_strategy(g, l, eps))
        if value is None:
            assert opt.status == "infeasible"
        else:
            assert opt.optimal
            assert opt.objective == pytest.approx(value, abs=1e-6)
            best = value if best is None else max(best, value)
    assert sol.objective == pytest.approx(best, abs=1e-6)


def test_vertex_oracle_agrees_on_random_weights(rng):
    eps = 1e-6
    for _ in range(3):
        weights = tuple(float(w) for w in rng.uniform(0.2, 4.0, size=3))
        g = build_game_from_weights(weights, 2)
        sol = solve_game(g, epsilon=eps)
        best = None
        for l in range(len(g.attacker_strategies)):
            value = game_lp_vertex_optimum(g, l, eps)
            if value is not None:
                best = value if best is None else max(best, value)
        assert sol.objective == pytest.approx(best, abs=1e-6)


def test_objective_invariant_under_command_permutation(rng):
    base = (0.5, 1.5, 2.5)
    g = build_game_from_weights(base, 2)
    ref = solve_game(g).objective
    for perm in ((1, 2, 0), (2, 0, 1), (2, 1, 0)):
        weights = tuple(base[i] for i in perm)
        other = solve_game(build_game_from_weights(weights, 2)).objective
        assert other == pytest.approx(ref, abs=1e-6)


def test_weight_scaling_leaves_partial_cells_unchanged():
    w = (0.3, 1.1, 2.7, 0.9)
    a = build_game_from_weights(w, 2)
    b = build_game_from_weights(tuple(5.0 * x for x in w), 2)
    assert np.allclose(a.reward, b.reward)
    assert np.allclose(a.cost, b.cost)
    sa, sb = solve_game(a), solve_game(b)
    assert sa.objective == pytest.approx(sb.objective, abs=1e-9)


def test_partial_cells_share_denominator_and_stay_in_unit_interval():
    g = build_game_from_weights((0.7, 1.3, 2.2), 2, big_m=100.0)
    for j in range(g.reward.shape[0]):
        for l in range(g.reward.shape[1]):
            lam, zeta = g.reward[j, l], g.cost[j, l]
            if abs(lam) == 100.0:
                continue
            assert 0.0 < lam <= 1.0
            assert 0.0 <= zeta <= 1.0


def _entry(game, probabilities):
    """The plan entry holding `probabilities` over the game's checker strategies."""
    return TaskPlan(task_id="t", num_commands=game.num_commands, k_star=game.budget,
                    strategies=game.designer_strategies, probabilities=tuple(probabilities))


def test_marginal_check_probability_mappings():
    g = build_game_from_weights((1.0, 1.0, 1.0), 2)
    # X = [(1,2), (1,3), (2,3)] lexicographic
    assert catch_mass(_entry(g, (0.25, 0.5, 0.25))) == pytest.approx((0.75, 0.5, 0.75))
    assert catch_mass(_entry(g, (1 / 3,) * 3)) == pytest.approx((2 / 3,) * 3)


def test_marginal_is_one_when_single_full_strategy():
    full = TaskPlan(task_id="t", num_commands=3, k_star=3)
    assert catch_mass(full) == (1.0, 1.0, 1.0)


def test_single_strategy_game_forced_distribution():
    # N=2, K=1 gives |X| = 2; shrink further by checking the |X|=1 boundary
    # through a 2-command game where one command has all the weight is not
    # representable, so assert the forced-simplex case via the LP directly.
    g = build_game_from_weights((1.0, 1.0), 1)
    sol = solve_game(g)
    assert sum(sol.probabilities) == pytest.approx(1.0, abs=1e-6)


def test_all_infeasible_raises():
    g = build_game_from_weights((1.0, 1.0, 1.0), 2)
    # epsilon so large the simplex constraint cannot hold
    with pytest.raises(GameInfeasibleError):
        solve_game(g, epsilon=0.9)


# Weight families for the objective oracle: equal weights and two vectors
# of distinct weights, of which each game takes the first N.
ORACLE_GAME_WEIGHTS = {
    "equal": (1.0,) * 8,
    "distinct-a": (0.5, 1.25, 2.0, 0.75, 3.5, 1.75, 0.3, 1.1),
    "distinct-b": (2.9, 0.3, 1.7, 4.1, 0.9, 2.3, 1.1, 0.6),
}


# sha256 of repr([(l*, probabilities, objective, statuses), ...]) of
# solve_game over every N <= 7 (from 2) and K, in that order, at
# epsilon = 1e-6: every byte of the distinct-weight answers.
DISTINCT_WEIGHT_SOLUTIONS_SHA256 = {
    "distinct-a": "687ea0b6673eb910d3474e5c2a5b1748feb340423143a1fe7a6898b42d88ab74",
    "distinct-b": "7724fd688a03d64ac54848b4bb84d7da18d00ebbb110eda6853c2fc879bb3840",
}


@pytest.mark.parametrize("family", sorted(DISTINCT_WEIGHT_SOLUTIONS_SHA256))
def test_distinct_weight_solutions_are_byte_identical(family):
    weights = ORACLE_GAME_WEIGHTS[family]
    answers = []
    for n in range(2, 8):
        for k in range(1, n):
            sol = solve_game(build_game_from_weights(weights[:n], k), 1e-6)
            answers.append((sol.attacker_strategy, sol.probabilities, sol.objective, sol.statuses))
    assert hashlib.sha256(repr(answers).encode()).hexdigest() == DISTINCT_WEIGHT_SOLUTIONS_SHA256[family]


def _assert_certified(game, sol, eps):
    """sol's distribution passes the certificate, checked here from the cost matrix."""
    x = np.array(sol.probabilities)
    rows = game.cost[:, sol.attacker_strategy] - game.cost.T
    assert abs(x.sum() - 1.0) <= FEAS_TOL
    assert (x >= eps).all()
    assert (rows @ x >= -FEAS_TOL * np.abs(rows).max(axis=1)).all()
    assert sol.objective == pytest.approx(float(x @ game.reward[:, sol.attacker_strategy]), abs=1e-9)
    assert "uncertified" not in sol.statuses


@pytest.mark.parametrize("family", sorted(ORACLE_GAME_WEIGHTS))
def test_objective_matches_highs_enumeration(family):
    """Every (N, K) with N <= 7: the winner is the tie rule applied to HiGHS's
    optimum of every full LP, at its objective, with the same feasible set."""
    weights = ORACLE_GAME_WEIGHTS[family]
    eps = 1e-6
    for n in range(2, 8):
        for k in range(1, n):
            game = build_game_from_weights(weights[:n], k)
            reference = highs_objectives(game, eps)
            sol = solve_game(game, eps)
            assert sol.attacker_strategy == tie_rule(reference, OBJECTIVE_TIE_TOL), (n, k)
            assert sol.objective == pytest.approx(reference[sol.attacker_strategy], abs=1e-6), (n, k)
            assert [s == "optimal" for s in sol.statuses] == [v is not None for v in reference], (n, k)
            _assert_certified(game, sol, eps)


@pytest.mark.parametrize("weights", [
    (1.0,) * 7,
    (0.5, 1.25, 2.0, 0.75, 3.5, 1.75, 0.3),
    (2.9, 0.3, 1.7, 4.1, 0.9, 2.3, 1.1),
])
def test_score_matrices_equal_scalar_cells_bit_for_bit(weights):
    """The mask-sum build gives reward_cost's bytes for every N <= 7 and K."""
    for n in range(2, len(weights) + 1):
        for k in range(1, n):
            game = build_game_from_weights(weights[:n], k)
            for j, xj in enumerate(game.designer_strategies):
                for l, ql in enumerate(game.attacker_strategies):
                    assert (game.reward[j, l], game.cost[j, l]) == reward_cost(xj, ql, weights[:n]), (n, k, j, l)


def test_equal_weight_score_matrices_exact_beyond_seven_commands():
    game = build_game_from_weights((0.7,) * 9, 4, big_m=50.0)
    for j in range(0, len(game.designer_strategies), 7):
        for l, ql in enumerate(game.attacker_strategies):
            cell = reward_cost(game.designer_strategies[j], ql, (0.7,) * 9, 50.0)
            assert (game.reward[j, l], game.cost[j, l]) == cell


def test_row_subset_lp_is_a_relaxation():
    g = build_game_from_weights((0.5, 1.25, 2.0, 0.75), 2)
    block = best_response_block(g, 4)
    full = lp_for_attacker_strategy(g, 4)
    sub = lp_for_attacker_strategy(g, 4, rows=[9, 3], block=block)
    assert list(sub.objective) == list(full.objective) == list(g.reward[:, 4])
    # The full LP holds every row but row 4, so row 9 is its ninth.
    assert sub.constraints.matrix[:2].tolist() == [list(block[9]), list(block[3])]
    assert full.constraints.matrix[8].tolist() == list(block[9])
    assert sub.constraints.matrix[-1].tolist() == full.constraints.matrix[-1].tolist() == [1.0] * 6
    assert list(sub.constraints.relations) == [">=", ">=", "="]
    assert list(sub.lower_bounds) == list(full.lower_bounds)
    # Fewer rows can only raise the optimum.
    assert solve_lp(sub).objective >= solve_lp(full).objective - 1e-9


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(weights=st.integers(2, 6).flatmap(
    lambda n: st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
def test_every_returned_distribution_passes_the_certificate(weights):
    eps = 1e-6
    for k in range(1, len(weights)):
        game = build_game_from_weights(tuple(weights), k)
        sol = solve_game(game, eps)
        _assert_certified(game, sol, eps)
        block = best_response_block(game, sol.attacker_strategy)
        assert certified(np.array(sol.probabilities), block, np.abs(block).max(axis=1), eps)


@pytest.mark.parametrize("weights, k, strategy, objective", [
    # Full solve of strategy 26 came back "optimal" with probabilities summing to 62.7.
    ((0.803948, 0.629946, 1.967363, 0.765502, 1.844505, 1.970306), 2, 32, -66.245966),
    # Full solve of strategy 26 came back "optimal" missing its rows by 5.9e8.
    ((0.811728, 1.267837, 1.901232, 1.434898, 0.613063, 1.7306, 1.588924), 2, None, None),
], ids=["n6-plan-weighted", "n7-random"])
def test_games_whose_full_lp_broke_return_the_certified_highs_optimum(weights, k, strategy, objective):
    eps = 1e-6
    game = build_game_from_weights(weights, k)
    reference = highs_objectives(game, eps)
    sol = solve_game(game, eps)
    assert sol.attacker_strategy == tie_rule(reference, OBJECTIVE_TIE_TOL)
    assert sol.objective == pytest.approx(reference[sol.attacker_strategy], abs=1e-6)
    if strategy is not None:
        assert sol.attacker_strategy == strategy
        assert sol.objective == pytest.approx(objective, abs=1e-6)
    assert reference[26] is None and sol.statuses[26] == "infeasible"
    _assert_certified(game, sol, eps)


def test_answer_after_a_long_pivot_sequence_is_certified():
    """Equal weights, N = 10, K = 5, strategy 912: read off the tableau's rhs
    column, its last restricted LP's answer missed the sum-to-one row by 3.5e-5."""
    game = build_game_from_weights((1.0,) * 10, 5)
    status, sol = _solve_by_row_generation(game, 912, 1e-6)
    assert status == "optimal"
    assert sol.objective == pytest.approx(-49.197301420, abs=1e-6)  # tied with HiGHS's best, l = 15


@pytest.mark.parametrize("n, objective", [(8, -49.2478060226), (9, -54.886939760)], ids=["n8", "n9"])
def test_equal_weight_large_games_pick_the_lowest_tied_strategy(n, objective):
    """HiGHS reference optima; l = 7 (commands 1, 2, 3) is the lowest of its tied orbit."""
    sol = solve_game(build_game_from_weights((1.0,) * n, 4))
    assert sol.attacker_strategy == 7
    assert sol.objective == pytest.approx(objective, abs=1e-6)


def test_block_from_one_transposed_cost_equals_the_broadcast_bit_for_bit():
    for weights, k in (((1.0,) * 5, 2), ((0.5, 1.25, 2.0, 0.75, 3.5, 1.75), 3)):
        game = build_game_from_weights(weights, k)
        cost_t = np.ascontiguousarray(game.cost.T)
        for l in range(len(game.attacker_strategies)):
            reference = np.ascontiguousarray(game.cost[:, l] - game.cost.T)
            for block in (best_response_block(game, l), best_response_block(game, l, cost_t)):
                assert block.flags.c_contiguous
                assert block.tobytes() == reference.tobytes()


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_rows_added_warm_match_a_cold_solve_of_all_rows(data):
    """Solving rows R, then adding rows S by dual pivots, answers like a cold solve of R and S."""
    eps = 1e-6
    n = data.draw(st.integers(2, 6), label="n")
    weights = tuple(data.draw(st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n), label="weights"))
    k = data.draw(st.integers(1, n - 1), label="k")
    game = build_game_from_weights(weights, k)
    l = data.draw(st.integers(0, (1 << n) - 1), label="l")
    rows = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=2, max_size=24, unique=True), label="rows")
    cut = data.draw(st.integers(1, len(rows) - 1), label="cut")
    block = best_response_block(game, l)
    first = solve_lp(lp_for_attacker_strategy(game, l, eps, rows=rows[:cut], block=block))
    assume(first.optimal)
    warm = add_rows(first, block[rows[cut:]])
    cold = solve_lp(lp_for_attacker_strategy(game, l, eps, rows=rows, block=block))
    held = block[rows]
    norms = np.abs(held).max(axis=1)
    if warm is None:
        # No warm verdict, and the caller solves the LP cold: it must be
        # infeasible, or feasible only within solve_lp's phase-1 tolerance.
        assert not cold.optimal or (held @ np.array(cold.x) < -PIVOT_TOL * norms).any()
    else:
        assert warm.optimal and cold.optimal
        assert abs(warm.objective - cold.objective) <= 1e-9
        assert certified(np.array(warm.x), held, norms, eps)


def test_game_whose_warm_answer_missed_a_row_returns_the_certified_highs_optimum():
    """A warm answer here once failed the certificate; l goes through the cold rounds instead."""
    eps = 1e-6
    game = build_game_from_weights((1.75, 1.49609375, 1.4623892593852894, 1.4623892593852894,
                                    1.4623892593852894, 0.5), 3)
    reference = highs_objectives(game, eps)
    sol = solve_game(game, eps)
    assert sol.attacker_strategy == tie_rule(reference, OBJECTIVE_TIE_TOL)
    assert sol.objective == pytest.approx(reference[sol.attacker_strategy], abs=1e-6)
    assert [s == "optimal" for s in sol.statuses] == [v is not None for v in reference]
    _assert_certified(game, sol, eps)


@pytest.mark.parametrize("warm_answer", ["none", "uncertified"])
def test_a_warm_round_without_a_certified_answer_falls_back_to_cold_rounds(monkeypatch, warm_answer):
    game = build_game_from_weights((0.5, 1.25, 2.0, 0.75, 3.5, 1.75), 3)
    cold = [_solve_by_row_generation(game, l, 1e-6, warm=False) for l in range(64)]

    def broken(solved, rows):
        if warm_answer == "none":
            return None
        return LpSolution("optimal", tuple(0.0 for _ in solved.x), 0.0, solved.tableau)

    monkeypatch.setattr("selcheck.game.add_rows", broken)
    assert [_solve_by_row_generation(game, l, 1e-6) for l in range(64)] == cold


def test_screened_out_strategies_have_infeasible_highs_lps():
    eps = 1e-6
    screened = 0
    for weights in ORACLE_GAME_WEIGHTS.values():
        for n in range(2, 7):
            for k in range(1, n):
                game = build_game_from_weights(weights[:n], k)
                out = []
                for l in range(1 << n):
                    block = best_response_block(game, l)
                    if screened_out(block, np.abs(block).max(axis=1), eps):
                        out.append(l)
                reference = highs_objectives(game, eps)
                assert all(reference[l] is None for l in out), (weights, n, k)
                screened += len(out)
    assert screened > 0


def test_screen_rules_out_more_strategies_than_the_negative_row_test():
    eps = 1e-6
    game = build_game_from_weights((0.5, 1.25, 2.0, 0.75, 3.5, 1.75), 3)
    old, new = set(), set()
    for l in range(64):
        block = best_response_block(game, l)
        norms = np.abs(block).max(axis=1)
        if (block.max(axis=1) < -FEAS_TOL * norms).any():  # the all-negative-row test it replaced
            old.add(l)
        if screened_out(block, norms, eps):
            new.add(l)
    assert old < new


def _singles(l, n):
    """Row indices of l's single commands, each attacked alone."""
    return [1 << c for c in range(n) if l >> c & 1]


def test_mixture_screened_strategies_have_infeasible_highs_lps():
    eps = 1e-6
    screened = 0
    for weights in ORACLE_GAME_WEIGHTS.values():
        for n in range(2, 8):
            for k in range(1, n):
                game = build_game_from_weights(weights[:n], k)
                for l in range(1 << n):
                    block = best_response_block(game, l)
                    norms = np.abs(block).max(axis=1)
                    if screened_out(block, norms, eps, mixed=_singles(l, n)) and not screened_out(block, norms, eps):
                        assert highs_objective(game, l, eps) is None, (weights, n, k, l)
                        screened += 1
    assert screened > 0


@pytest.mark.parametrize("below", [False, True], ids=["at-bound", "below-bound"])
def test_mixture_screen_bound_is_the_mean_of_the_member_norms(below):
    """Rows (P, -P, -t) and (-P, P, -t), max-norm P each, average to (0, 0, -t),
    whose peak over the floored simplex at epsilon = 1/4 is -t/4.  With
    t = 4 * FEAS_TOL * P that is exactly the bound -FEAS_TOL * P; one ulp more
    of t puts it below.  The average row's own max-norm is t, far below P,
    so a bound scaled by it would rule out the row at the bound too."""
    eps, p = 0.25, 2.0 ** 10
    t = 4 * FEAS_TOL * p
    if below:
        t = np.nextafter(t, np.inf)
    block = np.array([[0.0, 0.0, 0.0], [p, -p, -t], [-p, p, -t]])
    norms = np.abs(block).max(axis=1)
    assert not screened_out(block, norms, eps)  # no single row fails
    assert screened_out(block, norms, eps, mixed=[1, 2]) is below


@pytest.mark.parametrize("family", sorted(ORACLE_GAME_WEIGHTS))
def test_screens_leave_no_infeasible_lp_above_one_check(monkeypatch, family):
    """Every (N, K) with N <= 8: for K >= 2 every strategy the LPs would call
    infeasible is screened out first; for K = 1, C(N, 3) such LPs are left."""
    statuses = []

    def counted(lp):
        sol = solve_lp(lp)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr("selcheck.game.solve_lp", counted)
    weights = ORACLE_GAME_WEIGHTS[family]
    left = {}
    for n in range(2, 9):
        for k in range(1, n):
            statuses.clear()
            solve_game(build_game_from_weights(weights[:n], k), 1e-6)
            left[n, k] = statuses.count("infeasible")
    assert all(v == 0 for (n, k), v in left.items() if k >= 2), left
    assert [left[n, 1] for n in range(2, 9)] == [0, 0, 4, 10, 20, 35, 56]


@pytest.mark.parametrize("peak, sum_x, kept", [
    (-2.0e-6, 1 + 0.9 * FEAS_TOL, True),  # met only by a sum the certificate accepts above one
    (-1.0e-6, 1.0, True),                 # between the bound and the bound less the margin
    (-3.0e-6, None, False),               # below the bound even with the margin
], ids=["margin", "inside-margin", "ruled-out"])
def test_screen_keeps_every_distribution_the_certificate_accepts(peak, sum_x, kept):
    """One row (1, -c) on two commands with epsilon = 0.4: its peak over the
    floored simplex is 0.6 - 0.4 * c, set here to `peak`; the bound is
    -FEAS_TOL * c (about -1.5e-6) and the margin FEAS_TOL * 1."""
    eps, c = 0.4, (0.6 - peak) / 0.4
    block = np.array([[1.0, -c]])
    norms = np.abs(block).max(axis=1)
    assert screened_out(block, norms, eps) is not kept
    if kept:
        x = np.array([sum_x - eps, eps])
        assert certified(x, block, norms, eps)
