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
nonzero selection chance (the multiple-LPs method of Conitzer and
Sandholm, EC 2006).

Each LP has 2^N - 1 best-response rows, but only about 20 bind at its
optimum, so solve_game adds them lazily (row generation).  A row whose
largest value over the floored simplex {x >= epsilon, sum x = 1} (a closed
form, see screened_out) stays below the certificate's bound rules l out
before any LP.  So does the average of the rows of l's single commands,
the attacker's mix "attack one command of l, drawn uniformly": an answer
the certificate accepts meets each of those rows to -FEAS_TOL times its
max-norm, so it meets their average to -FEAS_TOL times their mean
max-norm, and an average row that peaks below that bound proves that no
such answer exists (l is dominated by the mix; Conitzer and Sandholm,
EC 2005).  With N <= 8 that leaves no LP to find infeasible when K >= 2.
Otherwise, from the uniform distribution, it takes the
SCREEN_BATCH rows most violated at the current point that it does not
hold yet, solves the restricted LP with its objective on the rows held so
far, and checks every row at the answer with one product; it stops when
no row is violated by more than FEAS_TOL of its max-norm.  The first
round is a cold solve_lp; each later one appends only its new rows to the
last optimal tableau and re-solves it by dual pivots (lp.add_rows).  The
restricted LP is a relaxation of the full one, so an infeasible
restricted LP proves l infeasible; that verdict always comes from a cold
solve, since a warm round without an answer is solved again cold.  With
equal weights a feasible LP ends up holding a median of 16 of its 255 rows
at N = 8, 16 of 511 at N = 9 and 27 of 1023 at N = 10.

Every answer must pass a certificate before it counts: its probabilities
sum to one within FEAS_TOL, none is below epsilon, and every best-response
row, held ones included, is at least -FEAS_TOL times that row's max-norm.
An answer that fails gets status "uncertified" and is never returned;
before that, l is solved again from the start with cold rounds only, and
that answer must pass instead.

The solved strategy is the distribution of the lowest l whose objective
is within OBJECTIVE_TIE_TOL of the best certified one.  Tied strategies
(symmetric ones, say) agree only to the LPs' accuracy, so a tolerance
far below that would let roundoff pick the winner.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .lp import FEAS_TOL, ConstraintBlock, LinearProgram, LpSolution, add_rows, solve_lp
from .model import Task

DEFAULT_BIG_M = 100.0
DEFAULT_EPSILON = 1e-6

# Objectives closer than this are tied; ties break toward the lower index.
# On 428 games (N = 2..8, equal and distinct weights) certified objectives
# were within 7e-9 of HiGHS's, and no strategy came closer to the best
# than 7e-5 unless tied with it to 1e-14.
OBJECTIVE_TIE_TOL = 10 * FEAS_TOL

# Games on more commands are refused before anything is allocated.  One
# equal-weight game took about 2.2 s at N = 10 (K = 5) and 11-15 s at
# N = 11 on a 2-vCPU VM; each command doubles the LPs and widens each one.
MAX_COMMANDS = 11

# Rows row generation adds per round: the most violated ones not yet held.
SCREEN_BATCH = 8

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
    attacker = enumerate_attacker_strategies(n)  # checks MAX_COMMANDS before any large array
    designer = enumerate_designer_strategies(n, k)
    # Attacker strategy l is command mask l.  Sum each mask's weights once,
    # adding w_1..w_N in ascending order (adding 0.0 for a clear bit is
    # exact), which is the order a frozenset sum over the cell's commands
    # takes for N <= 7; beyond that distinct weights may differ in the last bit.
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


def best_response_block(game: GameInstance, l: int, cost_t: np.ndarray | None = None) -> np.ndarray:
    """Row l' is cost[:, l] - cost[:, l'], the margin by which l beats l'.

    Row generation reads the block by rows every round (`block @ x`,
    `block[rows]`), so it is built C-contiguous from `cost_t`, game.cost.T
    made C-contiguous, which solve_game makes once per game.
    """
    if cost_t is None:
        cost_t = np.ascontiguousarray(game.cost.T)
    return cost_t[l] - cost_t


def lp_for_attacker_strategy(
    game: GameInstance,
    l: int,
    epsilon: float = DEFAULT_EPSILON,
    rows: Sequence[int] | None = None,
    block: np.ndarray | None = None,
) -> LinearProgram:
    """The checker's LP pinned to attacker strategy l, on best-response rows `rows`.

    max  sum_j x_j * reward[j, l]
    s.t. sum_j x_j * cost[j, l] >= sum_j x_j * cost[j, l']   for l' in rows
         sum_j x_j = 1
         x_j >= epsilon

    `rows` defaults to every l' != l, the full LP; solve_game holds only
    the rows its row generation has added.  `block` is l's
    best_response_block when the caller already has it.
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
        rows = np.flatnonzero(np.arange(num_q) != l)
    relations = np.full(len(rows) + 1, ">=")
    relations[-1] = "="
    rhs = np.zeros(len(rows) + 1)
    rhs[-1] = 1.0
    return LinearProgram(
        objective=game.reward[:, l],
        constraints=ConstraintBlock(np.vstack([block[rows], np.ones(num_x)]), relations, rhs),
        lower_bounds=np.full(num_x, epsilon),
    )


def certified(x: np.ndarray, block: np.ndarray, norms: np.ndarray, epsilon: float) -> bool:
    """True when x is a distribution on which attacker strategy l is a best response.

    The probabilities sum to one within FEAS_TOL and none is below
    epsilon, and every best-response row of l's `block` is at least
    -FEAS_TOL times its max-norm `norms` (the tolerance solve_lp meets
    on its equilibrated rows).
    """
    return bool(
        abs(x.sum() - 1.0) <= FEAS_TOL
        and (x >= epsilon).all()
        and (block @ x >= -FEAS_TOL * norms).all()
    )


def _peak(rows: np.ndarray, epsilon: float) -> np.ndarray:
    """Each row's largest value over the distributions the certificate accepts.

    Over the floored simplex {x >= epsilon, sum x = s} a row r peaks at
    epsilon * sum(r) + (s - n * epsilon) * max(r): every entry at its
    floor and the rest of the mass on r's largest entry.  The certificate
    accepts sums within FEAS_TOL of one, which adds FEAS_TOL * |max(r)| to
    the peak at s = 1.
    """
    top = rows.max(axis=-1)
    return epsilon * rows.sum(axis=-1) + (1.0 - rows.shape[-1] * epsilon) * top + FEAS_TOL * np.abs(top)


def screened_out(block: np.ndarray, norms: np.ndarray, epsilon: float, mixed: Sequence[int] = ()) -> bool:
    """True when no distribution the certificate accepts meets `block`'s rows.

    A row whose peak (see _peak) stays below the certificate's bound,
    -FEAS_TOL times its max-norm, rules l out.  So does the average of the
    rows `mixed`: averaging their certified inequalities r.x >= -FEAS_TOL *
    norm gives mean(r).x >= -FEAS_TOL * mean(norm), which no accepted x
    meets when the average row peaks below that bound.
    """
    if (_peak(block, epsilon) < -FEAS_TOL * norms).any():
        return True
    if len(mixed) < 2:
        return False
    rows = list(mixed)  # a tuple would index block's axes, not its rows
    return bool(_peak(block[rows].mean(axis=0), epsilon) < -FEAS_TOL * norms[rows].mean())


def _solve_by_row_generation(
    game: GameInstance, l: int, epsilon: float, cost_t: np.ndarray | None = None, warm: bool = True
) -> tuple[str, LpSolution | None]:
    """l's status and, when "optimal", its certified LP answer.

    With `warm`, each round after the first appends its rows to the last
    round's tableau (lp.add_rows); where that gives no answer the round is
    solved cold, and an answer that fails the certificate sends l through
    cold rounds only, from the start.
    """
    block = best_response_block(game, l, cost_t)
    norms = np.abs(block).max(axis=1)
    # l's single commands, each attacked alone: a uniform mix of them
    # dominates most infeasible l outright.
    singles = [1 << c for c in range(game.num_commands) if l >> c & 1]
    if screened_out(block, norms, epsilon, mixed=singles):
        return "infeasible", None
    # Zero rows (row l, and any l' that scores like l) hold everywhere.
    scale = np.where(norms > 0.0, norms, 1.0)
    rows: list[int] = []
    x = np.full(block.shape[1], 1.0 / block.shape[1])
    sol = None
    while True:
        slack = block @ x / scale
        # Held rows are met only to FEAS_TOL, so a re-check would pick
        # them again forever; the certificate checks them instead.
        slack[rows] = np.inf
        worst = np.argsort(slack, kind="stable")[:SCREEN_BATCH]
        worst = worst[slack[worst] < -FEAS_TOL]
        if sol is not None and not worst.size:
            break
        rows += worst.tolist()
        sol = add_rows(sol, block[worst]) if warm and sol is not None else None
        if sol is None:
            # A relaxation of l's LP: infeasible here means infeasible there.
            sol = solve_lp(lp_for_attacker_strategy(game, l, epsilon, rows=rows, block=block))
        if not sol.optimal:
            return sol.status, None
        x = np.array(sol.x)
    if not certified(x, block, norms, epsilon):
        if warm:
            return _solve_by_row_generation(game, l, epsilon, cost_t, warm=False)
        return "uncertified", None
    return "optimal", LpSolution(sol.status, sol.x, sol.objective)  # solve_game keeps no tableau


def solve_game(game: GameInstance, epsilon: float = DEFAULT_EPSILON) -> GameSolution:
    """Solve every attacker strategy's LP by row generation; keep the best.

    The winner is the lowest l whose certified objective is within
    OBJECTIVE_TIE_TOL of the best one (see the module docstring).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be strictly positive")
    statuses: list[str] = []
    answers: dict[int, LpSolution] = {}
    cost_t = np.ascontiguousarray(game.cost.T)
    for l in range(len(game.attacker_strategies)):
        status, sol = _solve_by_row_generation(game, l, epsilon, cost_t)
        statuses.append(status)
        if sol is not None:
            answers[l] = sol
    if not answers:
        raise GameInfeasibleError("no attacker strategy admits a feasible checker LP")
    top = max(sol.objective for sol in answers.values())
    best_l = min(l for l, sol in answers.items() if sol.objective >= top - OBJECTIVE_TIE_TOL)
    best = answers[best_l]
    return GameSolution(
        attacker_strategy=best_l,
        probabilities=best.x,
        objective=best.objective,
        statuses=tuple(statuses),
    )

