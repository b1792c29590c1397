"""Independent reference implementations used by the test suite only.

These deliberately avoid the package's own code paths: scores are redone
with exact Fraction arithmetic straight from the case rules, LP optima
are recomputed by enumerating polytope vertices instead of pivoting,
per-job catch probabilities are summed over every checked subset and
detection outcome, game optima are taken from scipy's HiGHS on the
full LPs (every best-response row) of every attacker strategy, and
response bounds are summed from Task fields over same-core rank filters
instead of the per-core columns.  A taskset draw is redone one slot at a
time in Python floats: Stafford's sampler for many samples in numpy and
for one sample in scalars, the periods, the least-loaded placement with
each admission bound summed left to right, and the per-scheme tests.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np
from scipy.optimize import linprog

from selcheck.game import DEFAULT_BIG_M, Strategy
from selcheck.model import OVERHEAD_PRESETS_US, CoreColumns
from selcheck.workload import SCENARIO_COMMANDS

TIME_TOL = 1e-9


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


# highs_objective's answers, by game and epsilon, then by attacker strategy.
_HIGHS_OPTIMA: dict = {}


def highs_objective(game, l, epsilon):
    """Optimum of attacker strategy l's full LP by scipy's HiGHS, None where infeasible.

    The LP is rebuilt here from the cost and reward matrices, with all
    2^N - 1 best-response rows: cost[:, l'] - cost[:, l] <= 0.  Answers are
    kept by the bytes and shapes of both matrices, so a game with any other
    score is solved afresh.
    """
    key = (game.reward.shape, game.reward.tobytes(), game.cost.shape, game.cost.tobytes(),
           epsilon)
    optima = _HIGHS_OPTIMA.setdefault(key, {})
    if l not in optima:
        optima[l] = _highs_solve(game, l, epsilon)
    return optima[l]


def _highs_solve(game, l, epsilon):
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


def stafford(n, s, m, rng):
    """m samples uniform over {x in [0,1]^n : sum(x) = s}, per Stafford's
    construction, as numpy arrays over the samples: every transition draw,
    then every position draw, then every permutation key."""
    k = int(max(min(math.floor(s), n - 1), 0))
    s = max(min(s, k + 1.0), float(k))

    s1 = s - np.arange(k, k - n, -1.0)
    s2 = np.arange(k + n, k, -1.0) - s
    tiny = np.finfo(float).tiny
    huge = np.finfo(float).max

    # w[i-1, j] carries the (unnormalized) volume of the sub-polytope at
    # level i, column j; t holds the chain's probability of taking the
    # "large coordinate" branch (column moves down) out of each state.
    w = np.zeros((n, n + 1))
    w[0, 1] = huge
    t = np.zeros((n - 1, n))
    for i in range(2, n + 1):
        tmp1 = w[i - 2, 1 : i + 1] * s1[:i] / i
        tmp2 = w[i - 2, 0:i] * s2[n - i : n] / i
        w[i - 1, 1 : i + 1] = tmp1 + tmp2
        tmp3 = w[i - 1, 1 : i + 1] + tiny
        tmp4 = s2[n - i : n] > s1[:i]
        t[i - 2, 0:i] = np.where(tmp4, tmp2 / tmp3, 1.0 - tmp1 / tmp3)

    x = np.zeros((n, m))
    rt = rng.random((n - 1, m))
    rs = rng.random((n - 1, m))
    sv = np.full(m, s)
    jv = np.full(m, k, dtype=int)
    sm = np.zeros(m)
    pr = np.ones(m)
    for i in range(n - 1, 0, -1):
        e = (rt[n - i - 1] < t[i - 1, jv]).astype(float)
        sx = rs[n - i - 1] ** (1.0 / i)
        sm = sm + (1.0 - sx) * pr * sv / (i + 1)
        pr = sx * pr
        x[n - i - 1] = sm + pr * e
        sv = sv - e
        jv = np.maximum(jv - e.astype(int), 0)
    x[n - 1] = sm + pr * sv

    perm = np.argsort(rng.random((n, m)), axis=0)
    return np.take_along_axis(x, perm, axis=0).T


def stafford_one(n, s, rng):
    """stafford(n, s, 1, rng)[0] bit for bit, in Python floats.

    Only the table columns 0..k+1 the walk can reach are built, and the
    transition probability is computed only at the state the walk visits.
    Every table entry is computed in numpy's order, (w * s1) / i; s2 > s1
    picks the branch, as np.where does; the roots come from one vector
    power over all levels, except level 2's, which takes numpy's sqrt path
    as `x ** 0.5` on an array does.
    """
    k = int(max(min(math.floor(s), n - 1), 0))
    s = max(min(s, k + 1.0), float(k))
    tiny = np.finfo(float).tiny
    s1 = [s - (k - j) for j in range(k + 1)]

    w = [0.0] * (k + 2)
    w[1] = np.finfo(float).max
    ws = [w]
    for i in range(2, n):
        row = [0.0] * (k + 2)
        for j in range(min(i, k + 1)):
            row[j + 1] = w[j + 1] * s1[j] / i + w[j] * ((k + i - j) - s) / i
        w = row
        ws.append(w)

    draws = rng.random(3 * n - 2)
    rt, rs = draws[: n - 1].tolist(), draws[n - 1 : 2 * n - 2]
    roots = np.power(rs, 1.0 / np.arange(n - 1, 0, -1.0)).tolist()
    if n >= 3:
        roots[n - 3] = (rs[n - 3 : n - 2] ** 0.5).item()
    x = []
    sv, j, sm, pr = s, k, 0.0, 1.0
    for i, r, sx, w in zip(range(n - 1, 0, -1), rt, roots, reversed(ws)):
        move = False
        if j <= i:
            s2 = (k + i + 1 - j) - s
            tmp1 = w[j + 1] * s1[j] / (i + 1)
            tmp2 = w[j] * s2 / (i + 1)
            tmp3 = (tmp1 + tmp2) + tiny
            move = r < (tmp2 / tmp3 if s2 > s1[j] else 1.0 - tmp1 / tmp3)
        sm = sm + (1.0 - sx) * pr * sv / (i + 1)
        pr = sx * pr
        if move:
            x.append(sm + pr)
            sv = sv - 1.0
            j = max(j - 1, 0)
        else:
            x.append(sm)
    x.append(sm + pr * sv)
    return np.array(x)[np.argsort(draws[2 * n - 2 :])]


def bound_left_to_right(wcet, deadline, periods, wcets):
    """A task's response bound: its own wcet, then (1 + D / T_h) * C_h over
    its higher-priority tasks, highest priority first."""
    r = float(wcet)
    for period, c in zip(periods, wcets):
        r += (1.0 + deadline / period) * c
    return r


class PartitionError(RuntimeError):
    """No core's response-bound admission test accepts a task."""


def balanced_partition_by_response_bound(periods, wcets, num_cores):
    """Each task, in priority order with its deadline equal to its period,
    goes to the least-utilized core whose admission bound passes (lowest
    index on ties); the core of each task, or PartitionError."""
    core_periods = [[] for _ in range(num_cores)]
    core_wcets = [[] for _ in range(num_cores)]
    load = [0.0] * num_cores
    placed = []
    for rank, (period, wcet) in enumerate(zip(periods, wcets)):
        limit = period + TIME_TOL
        for core in sorted(range(num_cores), key=load.__getitem__):
            if bound_left_to_right(wcet, period, core_periods[core], core_wcets[core]) <= limit:
                core_periods[core].append(period)
                core_wcets[core].append(wcet)
                load[core] += wcet / period
                placed.append(core)
                break
        else:
            raise PartitionError(f"task {rank} in priority order is unschedulable on every core")
    return placed


def draw_columns_by_slot(spec, rng):
    """One draw of `spec` from `rng`, one task at a time in Python values:
    its per-core columns, or None when it fits on no partition."""
    tmin = 3 * spec.num_cores if spec.tasks_min is None else spec.tasks_min
    tmax = 10 * spec.num_cores if spec.tasks_max is None else spec.tasks_max
    m = int(rng.integers(tmin, tmax + 1))
    i = spec.utilization_bucket
    total_u = float(rng.uniform((0.01 + 0.1 * i) * spec.num_cores, (0.1 + 0.1 * i) * spec.num_cores))
    utils = [total_u] if m == 1 else (stafford_one(m, total_u, rng) * 1.0 + 0.0).tolist()
    lo, hi = spec.period_min_us, spec.period_max_us
    raw = np.exp(rng.uniform(math.log(lo), math.log(hi), size=m)).tolist()
    periods = [int(min(max(round(v), lo), hi)) for v in raw]
    if spec.n_fixed is not None:
        counts = [spec.n_fixed] * m
    else:
        n_lo, n_hi = SCENARIO_COMMANDS[spec.scenario]
        counts = rng.integers(n_lo, n_hi + 1, size=m).tolist()
    wcets = [max(1, round(u * period)) for u, period in zip(utils, periods)]
    fixed = OVERHEAD_PRESETS_US.get(spec.overhead_preset)
    overheads = ([max(1, round(spec.overhead_fraction * c)) for c in wcets] if fixed is None
                 else [fixed] * m)
    order = sorted(range(m), key=periods.__getitem__)
    try:
        placed = balanced_partition_by_response_bound(
            [periods[i] for i in order], [wcets[i] for i in order], spec.num_cores)
    except PartitionError:
        return None
    width = len(str(m - 1))
    columns = []
    for _ in range(spec.num_cores):
        core_periods = []
        columns.append(CoreColumns([], [], core_periods, core_periods, [], [], [], []))
    for rank, (i, core) in enumerate(zip(order, placed)):
        col = columns[core]
        col.ids.append(f"t{i:0{width}d}")
        col.priorities.append(rank)
        col.periods.append(periods[i])
        col.wcets.append(wcets[i])
        col.check_overheads.append(overheads[i])
        col.num_commands.append(counts[i])
        col.min_checks.append(math.ceil(spec.min_checks_fraction * counts[i]))
    return columns


def fits_at_level(cores, level):
    """True iff every core meets its deadlines with each task at the uniform
    check level ("zero", "min" or "full"), each bound summed left to right."""
    for c in cores:
        checks = {"zero": [0] * len(c.ids), "min": c.min_checks, "full": c.num_commands}[level]
        wcets = [w + k * o for w, k, o in zip(c.wcets, checks, c.check_overheads)]
        for j, deadline in enumerate(c.deadlines):
            if bound_left_to_right(wcets[j], deadline, c.periods, wcets[:j]) > deadline + TIME_TOL:
                return False
    return True
