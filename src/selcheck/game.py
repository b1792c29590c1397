"""Leader-follower game over command subsets and its LP solution.

The checker (leader) commits to a distribution over K-subsets of the N
commands; the attacker (follower) picks any subset of commands to tamper
with, knowing that distribution.  Cell scores: full-overlap means the
attack is caught (reward +M, cost -M), zero overlap with a non-empty
attack means a clean miss (reward -M, cost +M), and partial overlap is
scored by weight fractions over the union of both subsets.

For each attacker strategy l the checker's best committed distribution is
a linear program: maximize expected reward, subject to l being the
attacker's best response (highest expected cost), probabilities summing
to one, and a strict positivity floor epsilon so every subset keeps a
nonzero selection chance.  The solved strategy is the distribution of the
feasible l with the highest objective (lowest index on ties).

Most of those LPs are infeasible (43 to 58 of the 64 at N = 6), and a
full LP spends most of its pivots proving that.  So solve_game screens
each l first.  A best-response row below zero in every coefficient rules
l out at once.  Otherwise, from the uniform distribution, the screen adds
the SCREEN_BATCH rows most violated at the current point (never a row it
already holds) and solves that restricted LP for feasibility alone, for
at most SCREEN_ROUNDS rounds.  The restricted LP keeps a subset of the
full LP's rows and the same simplex, floor and bounds, so it is a
relaxation: if it is infeasible, so is the full LP, and l is recorded
infeasible without the full solve.  Every l the screen does not rule out
still gets its full LP, so every feasible LP's vertex, objective and
status, and with them every plan byte, is the one the full enumeration
gives.  A restricted LP of a few rows is also far better conditioned than
the full one, which reports some infeasible LPs as optimal with answers
that break their own rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .lp import FEAS_TOL, LinearProgram, LpSolution, solve_lp
from .model import Task

DEFAULT_BIG_M = 100.0
DEFAULT_EPSILON = 1e-6

# Objectives closer than this are tied; ties break toward the lower index.
OBJECTIVE_TIE_TOL = 1e-9

# 2^N attacker subsets; beyond this the enumeration is refused outright.
MAX_COMMANDS = 20

# The infeasibility screen: rows added per round, and rounds before the
# full LP.  Larger batches and more rounds proved no more LPs infeasible
# at N = 6 and only cost time.
SCREEN_BATCH = 8
SCREEN_ROUNDS = 2

Strategy = tuple[int, ...]  # 1-based command indices, ascending


class GameInfeasibleError(RuntimeError):
    """Raised when no attacker strategy admits a feasible checker LP."""


def enumerate_designer_strategies(n: int, k: int) -> list[Strategy]:
    """All C(n, k) k-subsets of commands {1..n}, lexicographically ordered."""
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    return list(combinations(range(1, n + 1), k))


def enumerate_attacker_strategies(n: int) -> list[Strategy]:
    """All 2^n command subsets in binary-counting order; index 0 is no attack."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_COMMANDS:
        raise ValueError(f"n={n} exceeds the 2^N enumeration cap ({MAX_COMMANDS})")
    return [tuple(c + 1 for c in range(n) if (mask >> c) & 1) for mask in range(1 << n)]


def reward_cost(
    designer: Strategy, attacker: Strategy, weights: tuple[float, ...], big_m: float = DEFAULT_BIG_M
) -> tuple[float, float]:
    """Score one (checker, attacker) strategy pair.

    An empty attacker subset means no attack and falls under the general
    weight-fraction formula (reward 1, cost 0); only a non-empty attack
    that dodges every checked command counts as a miss.
    """
    checked = frozenset(designer)
    attacked = frozenset(attacker)
    if not checked:
        raise ValueError("designer strategy must be non-empty")
    if checked == attacked:
        return big_m, -big_m
    if attacked and not (checked & attacked):
        return -big_m, big_m
    denom = sum(weights[c - 1] for c in checked | attacked)
    reward = sum(weights[c - 1] for c in checked) / denom
    cost = sum(weights[c - 1] for c in attacked) / denom
    return reward, cost


@dataclass(frozen=True)
class GameInstance:
    num_commands: int
    budget: int
    weights: tuple[float, ...]
    designer_strategies: tuple[Strategy, ...]
    attacker_strategies: tuple[Strategy, ...]
    reward: np.ndarray  # |X| x |Q|
    cost: np.ndarray    # |X| x |Q|
    big_m: float


@dataclass(frozen=True)
class GameSolution:
    attacker_strategy: int            # l*, index into attacker_strategies
    probabilities: tuple[float, ...]  # over designer_strategies
    objective: float
    statuses: tuple[str, ...]         # per-l LP status


def build_game_from_weights(
    weights: tuple[float, ...], k: int, big_m: float = DEFAULT_BIG_M
) -> GameInstance:
    n = len(weights)
    if n < 1:
        raise ValueError("need at least one command")
    if not 1 <= k < n:
        raise ValueError(f"k={k} must satisfy 1 <= k < {n} (k = n needs no game)")
    if not (math.isfinite(big_m) and big_m > 0):
        raise ValueError(f"big_m must be finite and positive, got {big_m!r}")
    designer = enumerate_designer_strategies(n, k)
    attacker = enumerate_attacker_strategies(n)
    # Attacker strategy l is command mask l.  Sum each mask's weights once,
    # adding w_1..w_N in ascending order (adding 0.0 for a clear bit is
    # exact), which is the order reward_cost's frozenset sums take for
    # N <= 7; beyond that distinct weights may differ in the last bit.
    masks = np.arange(1 << n)
    sums = np.zeros(1 << n)
    for c, w in enumerate(weights):
        sums = sums + np.where(masks >> c & 1, w, 0.0)
    checked = np.array([sum(1 << (c - 1) for c in xj) for xj in designer])[:, None]
    union = sums[checked | masks]
    reward = sums[checked] / union
    cost = sums[masks] / union
    caught = checked == masks
    missed = (checked & masks == 0) & (masks != 0)
    reward[caught], cost[caught] = big_m, -big_m
    reward[missed], cost[missed] = -big_m, big_m
    return GameInstance(
        num_commands=n,
        budget=k,
        weights=tuple(weights),
        designer_strategies=tuple(designer),
        attacker_strategies=tuple(attacker),
        reward=reward,
        cost=cost,
        big_m=big_m,
    )


def build_game(task: Task, k: int, big_m: float = DEFAULT_BIG_M) -> GameInstance:
    if task.num_commands < 1:
        raise ValueError(f"task {task.id} issues no commands")
    if k < task.min_checks:
        raise ValueError(f"task {task.id}: k={k} below min_checks={task.min_checks}")
    return build_game_from_weights(task.weights, k, big_m)


def best_response_block(game: GameInstance, l: int) -> np.ndarray:
    """Row l' is cost[:, l] - cost[:, l'], the margin by which l beats l'.

    The broadcast comes out column-major, and a strided row's dot product
    would round differently in solve_lp's rhs shift, so it is made C-contiguous.
    """
    return np.ascontiguousarray(game.cost[:, l] - game.cost.T)


def lp_for_attacker_strategy(
    game: GameInstance,
    l: int,
    epsilon: float = DEFAULT_EPSILON,
    rows: list[int] | None = None,
    block: np.ndarray | None = None,
) -> LinearProgram:
    """The checker's LP pinned to attacker strategy l.

    max  sum_j x_j * reward[j, l]
    s.t. sum_j x_j * cost[j, l] >= sum_j x_j * cost[j, l']   for all l' != l
         sum_j x_j = 1
         x_j >= epsilon

    With `rows`, only those best-response rows l' are kept and the
    objective is zero: the feasibility relaxation solve_game screens with.
    `block` is l's best_response_block when the caller already has it.
    """
    num_q = len(game.attacker_strategies)
    if not 0 <= l < num_q:
        raise ValueError(f"attacker strategy index {l} out of range")
    if epsilon <= 0:
        raise ValueError("epsilon must be strictly positive")
    num_x = len(game.designer_strategies)
    if block is None:
        block = best_response_block(game, l)
    if rows is None:
        rows = [lp for lp in range(num_q) if lp != l]
        objective = game.reward[:, l].tolist()
    else:
        objective = [0.0] * num_x
    constraints = [(block[lp], ">=", 0.0) for lp in rows]
    constraints.append(([1.0] * num_x, "=", 1.0))
    return LinearProgram(objective=objective, constraints=constraints, lower_bounds=[epsilon] * num_x)


def _screened_infeasible(game: GameInstance, l: int, block: np.ndarray, epsilon: float) -> bool:
    """True when l's LP is proven infeasible by one of its best-response rows
    alone, or by a restricted LP on a few of them."""
    # A row below zero in every coefficient fails at every distribution
    # (by more than the margin a one-row LP's phase 1 would forgive).
    if (block.max(axis=1) < -FEAS_TOL * np.abs(block).max(axis=1)).any():
        return True
    rows: list[int] = []
    x = np.full(block.shape[1], 1.0 / block.shape[1])
    for _ in range(SCREEN_ROUNDS):
        margin = block @ x
        # Rows already held are met only to FEAS_TOL, so a re-check would
        # pick them again; leave them out.  Row l is all zeros, never picked.
        margin[rows] = np.inf
        worst = np.argsort(margin, kind="stable")[:SCREEN_BATCH]
        worst = worst[margin[worst] < -FEAS_TOL]
        if not worst.size:
            return False
        rows += worst.tolist()
        sol = solve_lp(lp_for_attacker_strategy(game, l, epsilon, rows=rows, block=block))
        if not sol.optimal:
            return True
        x = np.array(sol.x)
    return False


def solve_game(game: GameInstance, epsilon: float = DEFAULT_EPSILON) -> GameSolution:
    """Solve the LP for every attacker strategy and keep the best feasible one.

    A strategy the screen proves infeasible skips its full LP (see the
    module docstring); its status is "infeasible" either way.
    """
    best_l = -1
    best: LpSolution | None = None
    statuses: list[str] = []
    for l in range(len(game.attacker_strategies)):
        block = best_response_block(game, l)
        if _screened_infeasible(game, l, block, epsilon):
            statuses.append("infeasible")
            continue
        sol = solve_lp(lp_for_attacker_strategy(game, l, epsilon, block=block))
        statuses.append(sol.status)
        if sol.optimal and (best is None or sol.objective > best.objective + OBJECTIVE_TIE_TOL):
            best = sol
            best_l = l
    if best is None:
        raise GameInfeasibleError("no attacker strategy admits a feasible checker LP")
    return GameSolution(
        attacker_strategy=best_l,
        probabilities=best.x,
        objective=best.objective,
        statuses=tuple(statuses),
    )


def marginal_check_probability(game: GameInstance, solution: GameSolution) -> tuple[float, ...]:
    """Per-command probability of being checked in one job under the solution."""
    marginals = [0.0] * game.num_commands
    for xj, prob in zip(game.designer_strategies, solution.probabilities):
        for c in xj:
            marginals[c - 1] += prob
    return tuple(marginals)
