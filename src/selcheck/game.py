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
optimum, so solve_game adds them lazily (row generation).  Before that,
strategies are ruled out in closed form, in this order:

1. When C(N, K) * epsilon > 1 + FEAS_TOL no distribution meets the floor,
   and solve_game raises GameInfeasibleError before anything else.
2. One array pass over every l (mix_screened_out) mixes only the N rows of
   single commands: weight a on the mean of l's own, 1 - a on the mean of
   the rest, for a on MIX_GRID.  An answer the certificate accepts meets
   each row to -FEAS_TOL times its max-norm, so it meets any convex mix of
   them to the same mix of those norms, and a mix whose largest value over
   the floored simplex {x >= epsilon, sum x = 1} (a closed form, see
   _peak) stays below that bound proves that no such answer exists (l is
   dominated by the mix; Conitzer and Sandholm, EC 2005).  On the oracle
   weight families with N <= 8 and K >= 2 it leaves no l = 0 and no l of
   more than min(K - 1, N - K) commands, so their blocks are never built.
3. Each survivor builds its block and is ruled out when one of its rows
   peaks below its own bound, or when the average of its single commands'
   rows (a = 1 above) does (screened_out).  With N <= 8 that leaves no
   LP to find infeasible when K >= 2.

Row generation then starts from the uniform distribution.  It takes the
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
is within OBJECTIVE_TIE_TOL, scaled up with big_m, of the best certified
one.  Tied strategies (symmetric ones, say) agree only to the LPs'
accuracy, so a tolerance far below that would let roundoff pick the winner.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .lp import FEAS_TOL, ConstraintBlock, LinearProgram, LpSolution, add_rows, solve_lp

DEFAULT_BIG_M = 100.0
DEFAULT_EPSILON = 1e-6

# Objectives closer than this, times big_m / DEFAULT_BIG_M above 1 (their
# roundoff grows with big_m), are tied; ties break toward the lower index.
# On 428 games (N = 2..8, equal and distinct weights, big_m = 100) certified
# objectives were within 7e-9 of HiGHS's, and no strategy came closer to
# the best than 7e-5 unless tied with it to 1e-14.
OBJECTIVE_TIE_TOL = 10 * FEAS_TOL

# The largest big_m a game takes: best-response cells reach 2 * big_m and a
# row's floored-simplex peak sums up to C(11, 5) = 462 of them, which
# overflows near 1e308; at 1e150 even a product of two such sums is finite.
MAX_BIG_M = 1e150

# Games on more commands are refused before anything is allocated; each
# command doubles the attacker strategies and widens each LP.  Seconds per
# game, equal / distinct weights, the slower of two single runs on a
# 2-vCPU VM:
#   N    K = 2         K = 3         K = 5
#   8    0.02 / 0.01   0.03 / 0.05   0.08 / 0.09
#   9    0.01 / 0.01   0.05 / 0.06   0.35 / 0.37
#   10   0.03 / 0.04   0.12 / 0.15   1.5 / 1.6
#   11   0.05 / 0.06   0.35 / 0.37   5.0 / 4.8
MAX_COMMANDS = 11

# Rows row generation adds per round: the most violated ones not yet held.
SCREEN_BATCH = 8

# The weights a that the two-set mix screen puts on the mean of l's own
# single-command rows (1 - a on the mean of the rest); see mix_screened_out.
MIX_GRID = np.linspace(0.0, 1.0, 21)

# Cells in the largest array the mix screen holds at once: it takes as many
# attacker strategies per chunk as fit (at least one), MIX_GRID.size
# mixes of C(N, K) cells each, so about 1 MB per temporary.
MIX_CHUNK_CELLS = 1 << 17

Strategy = tuple[int, ...]  # 1-based command indices, ascending


class GameInfeasibleError(RuntimeError):
    """Raised when no attacker strategy admits a feasible checker LP, or no
    distribution meets the epsilon floor at all."""


def check_big_m(big_m: float) -> None:
    """ValueError unless 0 < big_m <= MAX_BIG_M."""
    if not 0 < big_m <= MAX_BIG_M:  # False for NaN
        raise ValueError(f"big_m must be finite and positive, at most MAX_BIG_M = {MAX_BIG_M:g}; got {big_m!r}")


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
    check_big_m(big_m)
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


def mix_screened_out(cost_t: np.ndarray, n: int, epsilon: float) -> np.ndarray:
    """For every attacker strategy l, True when a two-set mix of its single-command rows rules it out.

    Row c of l is cost[:, l] - cost[:, 1 << c], the margin by which l beats
    attacking command c alone.  The mix puts weight a on the mean of the
    rows of l's own commands and 1 - a on the mean of the rest, for each a
    in MIX_GRID (only a = 0 at l = 0, only a = 1 at the full set).  It is a
    convex combination of rows an answer the certificate accepts meets to
    -FEAS_TOL times their max-norms, so a mix that peaks (see _peak) below
    -FEAS_TOL times the same mix of those max-norms proves that no such
    answer exists.  `cost_t` is game.cost.T, C-contiguous.
    """
    num_q, num_x = cost_t.shape
    singles = cost_t[1 << np.arange(n)]
    a = MIX_GRID
    out = np.zeros(num_q, dtype=bool)
    step = max(1, MIX_CHUNK_CELLS // (max(n, a.size) * num_x))
    for lo in range(0, num_q, step):
        hi = min(lo + step, num_q)
        rows = cost_t[lo:hi, None, :] - singles  # (strategies, n, num_x)
        norms = np.abs(rows).max(axis=2)
        own = (np.arange(lo, hi)[:, None] >> np.arange(n) & 1).astype(bool)
        size = own.sum(axis=1)[:, None]
        # Means over empty sets are zero; `usable` never lets them count.
        w_in = own / np.maximum(size, 1)
        w_out = ~own / np.maximum(n - size, 1)
        mix = a[:, None] * (rows * w_in[:, :, None]).sum(axis=1)[:, None, :]
        mix += (1.0 - a[:, None]) * (rows * w_out[:, :, None]).sum(axis=1)[:, None, :]
        bound = np.outer((w_in * norms).sum(axis=1), a) + np.outer((w_out * norms).sum(axis=1), 1.0 - a)
        usable = ((size > 0) | (a == 0.0)) & ((size < n) | (a == 1.0))
        out[lo:hi] = (usable & (_peak(mix, epsilon) < -FEAS_TOL * bound)).any(axis=1)
    return out


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
    # l's single commands, each attacked alone, averaged: the mix screen's
    # a = 1, here from l's block.
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

    The winner is the lowest l whose certified objective is within the
    tie tolerance of the best one (see the module docstring).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be strictly positive")
    num_x = len(game.designer_strategies)
    if num_x * epsilon > 1.0 + FEAS_TOL:
        raise GameInfeasibleError(
            f"epsilon = {epsilon:g} times C({game.num_commands}, {game.budget}) = {num_x} checker "
            f"strategies is {num_x * epsilon:g} > 1: no distribution gives every strategy its floor"
        )
    statuses: list[str] = []
    answers: dict[int, LpSolution] = {}
    cost_t = np.ascontiguousarray(game.cost.T)
    ruled_out = mix_screened_out(cost_t, game.num_commands, epsilon)
    for l in range(len(game.attacker_strategies)):
        if ruled_out[l]:
            statuses.append("infeasible")
            continue
        status, sol = _solve_by_row_generation(game, l, epsilon, cost_t)
        statuses.append(status)
        if sol is not None:
            answers[l] = sol
    if not answers:
        raise GameInfeasibleError("no attacker strategy admits a feasible checker LP")
    top = max(sol.objective for sol in answers.values())
    tie_tol = OBJECTIVE_TIE_TOL * max(1.0, game.big_m / DEFAULT_BIG_M)
    best_l = min(l for l, sol in answers.items() if sol.objective >= top - tie_tol)
    best = answers[best_l]
    return GameSolution(
        attacker_strategy=best_l,
        probabilities=best.x,
        objective=best.objective,
        statuses=tuple(statuses),
    )

