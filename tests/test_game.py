import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_task
from oracles import game_lp_vertex_optimum, reward_cost_by_cases, solve_game_all_rows

from selcheck.game import (
    GameInfeasibleError,
    GameInstance,
    GameSolution,
    best_response_block,
    build_game,
    build_game_from_weights,
    enumerate_attacker_strategies,
    enumerate_designer_strategies,
    lp_for_attacker_strategy,
    marginal_check_probability,
    reward_cost,
    solve_game,
)
from selcheck.lp import LinearProgram, solve_lp


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
    # 7 best-response rows plus the sum-to-one equality
    assert len(prob.constraints) == 8
    assert sum(1 for _, rel, _ in prob.constraints if rel == "=") == 1
    assert prob.lower_bounds == [1e-6] * 3


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
    assert marginal_check_probability(g, sol) == pytest.approx((2 / 3,) * 3, abs=1e-9)
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


def test_marginal_check_probability_mappings():
    g = build_game_from_weights((1.0, 1.0, 1.0), 2)
    sol = GameSolution(attacker_strategy=1, probabilities=(0.25, 0.5, 0.25),
                       objective=0.0, statuses=())
    # X = [(1,2), (1,3), (2,3)] lexicographic
    assert marginal_check_probability(g, sol) == pytest.approx((0.75, 0.5, 0.75))
    uniform = GameSolution(attacker_strategy=1, probabilities=(1 / 3,) * 3,
                           objective=0.0, statuses=())
    assert marginal_check_probability(g, uniform) == pytest.approx((2 / 3,) * 3)


def test_marginal_is_one_when_single_full_strategy():
    g = GameInstance(
        num_commands=3, budget=3, weights=(1.0, 1.0, 1.0),
        designer_strategies=((1, 2, 3),), attacker_strategies=((),),
        reward=np.zeros((1, 1)), cost=np.zeros((1, 1)), big_m=100.0,
    )
    sol = GameSolution(attacker_strategy=0, probabilities=(1.0,), objective=0.0, statuses=())
    assert marginal_check_probability(g, sol) == (1.0, 1.0, 1.0)


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


# sha256 over repr((attacker_strategy, probabilities, objective, statuses))
# of solve_game for every (N, K) with 2 <= N <= 6 and 1 <= K < N, using the
# first N weights of each family.  The LPs are massively degenerate, so a
# change in float rounding anywhere in the game or LP set-up can move a
# solution to another optimal vertex; these pin the exact bytes of plans.
GOLDEN_GAME_WEIGHTS = {
    "equal": (1.0,) * 6,
    "distinct-a": (0.5, 1.25, 2.0, 0.75, 3.5, 1.75),
    "distinct-b": (2.9, 0.3, 1.7, 4.1, 0.9, 2.3),
}
GOLDEN_GAME_SHA256 = {
    "equal": "64bed46de616ad95fe015a8c113a1b7a84b2b5608ac467f674be4c3210848508",
    "distinct-a": "69e626fe96494036cbc886a56238ed50db67248f3026c0cdf71a9d70da6e3b64",
    "distinct-b": "769124969c78d42bff660e64c9d827d05ea1d892af5a6831b56a550dafe4ffe8",
}


@pytest.mark.parametrize("family", sorted(GOLDEN_GAME_WEIGHTS))
def test_golden_solve_game_bytes(family):
    weights = GOLDEN_GAME_WEIGHTS[family]
    results = []
    for n in range(2, 7):
        for k in range(1, n):
            sol = solve_game(build_game_from_weights(weights[:n], k))
            results.append((sol.attacker_strategy, sol.probabilities, sol.objective, sol.statuses))
    assert hashlib.sha256(repr(results).encode()).hexdigest() == GOLDEN_GAME_SHA256[family]


def test_solve_lp_same_answer_for_lists_arrays_and_row_views():
    """Row container must not matter: lists, fresh arrays and views of one block."""
    for weights, k in (((1.0,) * 5, 2), ((0.5, 1.25, 2.0, 0.75, 3.5), 3)):
        g = build_game_from_weights(weights, k)
        for l in range(len(g.attacker_strategies)):
            prob = lp_for_attacker_strategy(g, l)
            block = np.array([np.asarray(coeffs, dtype=float) for coeffs, _, _ in prob.constraints])
            assert block.flags.c_contiguous

            def variant(row_of):
                return LinearProgram(
                    objective=list(prob.objective),
                    constraints=[(row_of(i), rel, b) for i, (_, rel, b) in enumerate(prob.constraints)],
                    lower_bounds=list(prob.lower_bounds),
                )

            as_lists = solve_lp(variant(lambda i: block[i].tolist()))
            as_arrays = solve_lp(variant(lambda i: np.array(block[i])))
            as_views = solve_lp(variant(lambda i: block[i]))
            assert as_lists == as_arrays == as_views, l
            assert as_lists == solve_lp(prob), l


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


def test_row_subset_lp_is_a_zero_objective_relaxation():
    g = build_game_from_weights((0.5, 1.25, 2.0, 0.75), 2)
    block = best_response_block(g, 5)
    full = lp_for_attacker_strategy(g, 5)
    sub = lp_for_attacker_strategy(g, 5, rows=[9, 3], block=block)
    assert sub.objective == [0.0] * 6
    # The full LP holds every row but row 5, so row 9 is its ninth.
    assert [list(a) for a, _, _ in sub.constraints[:2]] == [list(block[9]), list(block[3])]
    assert list(full.constraints[8][0]) == list(block[9])
    assert sub.constraints[2] == full.constraints[-1]
    assert sub.lower_bounds == full.lower_bounds


def _violation(game, l, x):
    """Largest miss of the probability sum or of a best-response row at x."""
    x = np.asarray(x)
    return max(abs(x.sum() - 1.0), -float((best_response_block(game, l) @ x).min()))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(weights=st.integers(2, 5).flatmap(
    lambda n: st.lists(st.floats(0.5, 2.0), min_size=n, max_size=n)))
def test_screen_keeps_every_answer_of_the_full_lps(weights):
    """solve_game equals the all-rows loop, except where the full LP's "optimal"
    answer misses its own constraints and the screen calls that LP infeasible."""
    eps = 1e-6
    for k in range(1, len(weights)):
        game = build_game_from_weights(tuple(weights), k)
        reference = solve_game_all_rows(game, eps)
        try:
            screened = solve_game(game, eps)
        except GameInfeasibleError:
            screened = None
        differing = set()
        if screened is not None and reference is not None:
            differing = {l for l, (a, b) in enumerate(zip(reference.statuses, screened.statuses)) if a != b}
        for l in differing:
            assert (reference.statuses[l], screened.statuses[l]) == ("optimal", "infeasible")
            assert _violation(game, l, solve_lp(lp_for_attacker_strategy(game, l, eps)).x) > 1e-6
        if differing:
            reference = solve_game_all_rows(game, eps, treat_infeasible=differing)
        assert screened == reference


def test_screen_rejects_the_infeasible_lp_the_full_solve_called_optimal():
    """A distinct-weight N = 6, K = 2 game whose full LP for attacker strategy 26
    is infeasible but came back "optimal" with probabilities summing to 62.7.
    The reference optimum (HiGHS) is strategy 32 at -66.245966."""
    game = build_game_from_weights((0.803948, 0.629946, 1.967363, 0.765502, 1.844505, 1.970306), 2)
    sol = solve_game(game, 1e-6)
    assert sol.attacker_strategy == 32
    assert sol.objective == pytest.approx(-66.245966, abs=1e-6)
    assert sol.statuses[26] == "infeasible"
    x = np.array(sol.probabilities)
    assert abs(x.sum() - 1.0) <= 1e-9
    assert (best_response_block(game, 32) @ x).min() >= -1e-9
