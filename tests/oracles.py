"""Independent reference implementations used by the test suite only.

These deliberately avoid the package's own code paths: scores are redone
with exact Fraction arithmetic straight from the case rules, LP optima
are recomputed by enumerating polytope vertices instead of pivoting,
per-job catch probabilities are summed over every checked subset and
detection outcome, game optima are taken from scipy's HiGHS on the
full LPs (every best-response row) of every attacker strategy, and
response bounds are summed from Task fields over same-core rank filters
instead of the per-core columns.
"""

from fractions import Fraction
from itertools import combinations, product

import numpy as np
from scipy.optimize import linprog

from selcheck.game import DEFAULT_BIG_M, Strategy


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


def reward_cost_by_cases(designer, attacker, weights, big_m):
    """Exact re-derivation of one score cell from raw subsets."""
    checked = set(designer)
    attacked = set(attacker)
    if checked == attacked:
        return Fraction(big_m), -Fraction(big_m)
    if attacked and not (checked & attacked):
        return -Fraction(big_m), Fraction(big_m)
    w = [Fraction(x) for x in weights]
    denom = sum(w[c - 1] for c in checked | attacked)
    return (
        sum(w[c - 1] for c in checked) / denom,
        sum(w[c - 1] for c in attacked) / denom,
    )


def lp_max_by_vertex_enumeration(objective, ineqs, eq, eq_rhs, tol=1e-9):
    """Maximum of objective over {x : ineqs @ x >= rhs, eq @ x = eq_rhs}.

    Enumerates candidate vertices as intersections of the equality with
    n-1 active inequality rows; sound and complete for bounded polytopes.
    Returns None when no vertex is feasible (empty polytope).
    """
    objective = np.asarray(objective, dtype=float)
    n = objective.shape[0]
    rows = [np.asarray(a, dtype=float) for a, _ in ineqs]
    rhs = [float(b) for _, b in ineqs]
    best = None
    for active in combinations(range(len(rows)), n - 1):
        mat = np.vstack([np.asarray(eq, dtype=float)] + [rows[i] for i in active])
        vec = np.array([eq_rhs] + [rhs[i] for i in active])
        try:
            x = np.linalg.solve(mat, vec)
        except np.linalg.LinAlgError:
            continue
        if all(rows[i] @ x >= rhs[i] - tol for i in range(len(rows))):
            value = float(objective @ x)
            if best is None or value > best:
                best = value
    return best


def game_lp_vertex_optimum(game, l, epsilon):
    """Vertex-enumeration optimum of the checker LP pinned to attacker l."""
    num_x = len(game.designer_strategies)
    ineqs = []
    for lp in range(len(game.attacker_strategies)):
        if lp == l:
            continue
        ineqs.append(((game.cost[:, l] - game.cost[:, lp]).tolist(), 0.0))
    for j in range(num_x):
        e = [0.0] * num_x
        e[j] = 1.0
        ineqs.append((e, epsilon))
    return lp_max_by_vertex_enumeration(
        game.reward[:, l].tolist(), ineqs, [1.0] * num_x, 1.0
    )


def highs_objective(game, l, epsilon):
    """Optimum of attacker strategy l's full LP by scipy's HiGHS, None where infeasible.

    The LP is rebuilt here from the cost and reward matrices, with all
    2^N - 1 best-response rows: cost[:, l'] - cost[:, l] <= 0.
    """
    num_x, num_q = game.cost.shape
    others = np.arange(num_q) != l
    res = linprog(
        -game.reward[:, l],
        A_ub=(game.cost[:, others] - game.cost[:, [l]]).T, b_ub=np.zeros(num_q - 1),
        A_eq=np.ones((1, num_x)), b_eq=[1.0],
        bounds=[(epsilon, None)] * num_x, method="highs",
    )
    return -res.fun if res.status == 0 else None


def highs_objectives(game, epsilon):
    """highs_objective of every attacker strategy, in index order."""
    return [highs_objective(game, l, epsilon) for l in range(game.cost.shape[1])]


def tie_rule(objectives, tol):
    """Lowest index whose objective is within tol of the best (None entries skipped)."""
    top = max(v for v in objectives if v is not None)
    return min(l for l, v in enumerate(objectives) if v is not None and v >= top - tol)


def catch_probability_by_enumeration(strategies, probabilities, compromised, accuracy):
    """Exact chance that one job catches an attack on `compromised`.

    Enumerates each checked subset and, within it, every flagged/missed
    outcome of the checks on compromised commands; a job catches the
    attack when at least one check flags.  Probabilities are normalised by
    their exact sum.
    """
    a = Fraction(accuracy)
    total = Fraction(0)
    for subset, x in zip(strategies, probabilities):
        hit = set(subset) & set(compromised)
        for flags in product((True, False), repeat=len(hit)):
            if any(flags):
                chance = Fraction(1)
                for flagged in flags:
                    chance *= a if flagged else 1 - a
                total += Fraction(x) * chance
    return total / sum(Fraction(x) for x in probabilities)


def marginal_check_probability(entry):
    """Per-command probability of being checked in one job under a plan
    entry: each checked subset's probability added to each of its commands,
    in strategy order."""
    strategies, x = entry.distribution()
    marginals = [0.0] * entry.num_commands
    for xj, prob in zip(strategies, x):
        for c in xj:
            marginals[c - 1] += prob
    return tuple(marginals)


def same_core_by_rank(taskset, task, higher):
    """Brute force: the tasks on task's core ranked above (or below) it,
    highest priority first."""
    core, rank = taskset.platform.partition, taskset.platform.priority
    same_core = [t for t in taskset.tasks if core[t.id] == core[task.id]]
    side = [t for t in same_core
            if (rank[t.id] < rank[task.id] if higher else rank[t.id] > rank[task.id])]
    return tuple(sorted(side, key=lambda t: rank[t.id]))


def response_bounds_by_rank(taskset, tasks, assignment):
    """Each of `tasks`' checked response bound under `assignment`, by task id.

    Summed straight from the Task fields in the package's float order: the
    task's own C + k * C^o, then (1 + D / T_h) * (C_h + k_h * C^o_h) over
    the higher-ranked tasks on its core, highest priority first.
    """
    def checked(t):
        return t.wcet + assignment[t.id] * t.check_overhead

    bounds = {}
    for task in tasks:
        r = float(checked(task))
        for h in same_core_by_rank(taskset, task, higher=True):
            r += (1.0 + task.deadline / h.period) * checked(h)
        bounds[task.id] = r
    return bounds
