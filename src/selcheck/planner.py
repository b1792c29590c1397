"""Check-budget selection for a whole taskset.

The system-wide pass first verifies the taskset carries its minimum
checking load (every task at min_checks); if not, the taskset is
infeasible.  It then walks each core from highest to lowest priority and
fixes each task's budget K* at the largest value that keeps the task
itself and everything below it on the same core schedulable.  With every
other budget fixed, each of those tasks' bounds is linear in the task's
k, so its deadline slack at min_checks caps k in closed form; K* is the
smallest cap, clipped to [min_checks, num_commands].  The candidate is
then confirmed with the schedulability evaluator at K* and K* + 1, and
moved one check at a time should rounding disagree, so every decision is
exactly the floating-point deadline test.  Tasks with 0 < K* < N get a
solved game distribution; tasks checking all commands need none.  Tasks
with the same weights and K* share one solved game (see `plan`); the fig 7
sweep plans through `plan` with one memo per bucket cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from . import game as game_mod
from .model import CheckAssignment, Task, TaskId, Taskset, _is_int, _is_number, assignment_at
from .schedulability import (TIME_TOL, checked_wcets, is_schedulable, meets_deadlines,
                             response_bound, tee_wcet)

INFEASIBLE_MESSAGE = "minimum QoS requirements cannot be met"


@dataclass(frozen=True)
class Infeasible:
    reason: str = INFEASIBLE_MESSAGE


@dataclass(frozen=True)
class TaskPlan:
    task_id: TaskId
    num_commands: int
    k_star: int
    # Empty when k_star == num_commands (deterministic full checking).
    strategies: tuple[tuple[int, ...], ...] = ()
    probabilities: tuple[float, ...] = ()
    attacker_strategy: int | None = None
    objective: float | None = None

    @property
    def deterministic(self) -> bool:
        return self.k_star == self.num_commands

    def distribution(self) -> tuple[tuple[tuple[int, ...], ...], tuple[float, ...]]:
        """(strategies, probabilities); a deterministic entry checks all commands with x = 1."""
        if self.deterministic:
            return (tuple(range(1, self.num_commands + 1)),), (1.0,)
        return self.strategies, self.probabilities


@dataclass(frozen=True)
class CheckPlan:
    feasible: bool
    tasks: dict[TaskId, TaskPlan]

    def coverage_pairs(self) -> list[tuple[int, int]]:
        """(k_star, num_commands) for every task that issues commands."""
        return [(e.k_star, e.num_commands) for e in self.tasks.values() if e.num_commands > 0]


def max_feasible_k(task: Task, taskset: Taskset, fixed: CheckAssignment) -> int:
    """Largest k in [min_checks, num_commands] keeping this task's core schedulable.

    `fixed` supplies every other task's check count; the entry for `task`
    (if any) is ignored.  Requires feasibility at k = min_checks, which the
    system-wide pass guarantees before calling.
    """
    lo, hi = task.min_checks, task.num_commands
    columns = taskset.core_columns[taskset.platform.partition[task.id]]
    # The task and everything below it on its core: positions p.. of the columns.
    p = columns.ids.index(task.id)
    wcets = checked_wcets(columns, [lo if tid == task.id else fixed[tid] for tid in columns.ids])
    deadlines, periods = columns.deadlines, columns.periods
    affected = range(p, len(wcets))
    # A slack is >= 0 exactly when its bound passes meets_deadlines's test.
    slacks = [deadlines[j] + TIME_TOL - response_bound(wcets[j], deadlines[j], periods, wcets[:j])
              for j in affected]
    if min(slacks) < 0:
        raise ValueError(f"task {task.id}: infeasible even at min_checks={lo}")

    # Each affected task j's bound grows by a_j * C^o per extra check, where
    # a_j = 1 for the task itself and 1 + D_j / T for a lower-priority task.
    k = hi
    if task.check_overhead:
        for j, slack in zip(affected, slacks):
            a = 1.0 if j == p else 1.0 + deadlines[j] / task.period
            k = min(k, lo + math.floor(slack / (a * task.check_overhead)))

    def meets(checks: int) -> bool:
        wcets[p] = tee_wcet(task, checks)
        return meets_deadlines(columns, wcets, p)

    while k > lo and not meets(k):
        k -= 1
    while k < hi and meets(k + 1):
        k += 1
    return k


def assign_check_budgets(taskset: Taskset) -> dict[TaskId, int] | Infeasible:
    """Per-task K* without game solutions; Infeasible when min_checks already overloads."""
    assignment = assignment_at(taskset, "min")
    if not is_schedulable(taskset, assignment):
        return Infeasible()
    for t in taskset.priority_ordered():
        assignment[t.id] = max_feasible_k(t, taskset, assignment)
    return assignment


def plan(
    taskset: Taskset,
    big_m: float = game_mod.DEFAULT_BIG_M,
    epsilon: float = game_mod.DEFAULT_EPSILON,
    games: dict | None = None,
) -> CheckPlan | Infeasible:
    """Full selection pass: budgets plus a solved distribution where K* < N.

    Each distinct game is solved once: `games` maps (weights, K*, big_m,
    epsilon) to (strategies, GameSolution), a fresh dict unless the caller
    passes one to share across calls.
    """
    budgets = assign_check_budgets(taskset)
    if isinstance(budgets, Infeasible):
        return budgets
    games = {} if games is None else games
    entries: dict[TaskId, TaskPlan] = {}
    for t in taskset.priority_ordered():
        k = budgets[t.id]
        if k == t.num_commands:
            entries[t.id] = TaskPlan(task_id=t.id, num_commands=t.num_commands, k_star=k)
        elif k == 0:
            # Nothing is checked; the single empty strategy is chosen always.
            entries[t.id] = TaskPlan(
                task_id=t.id,
                num_commands=t.num_commands,
                k_star=0,
                strategies=((),),
                probabilities=(1.0,),
            )
        else:
            key = (t.weights, k, big_m, epsilon)
            if key not in games:
                instance = game_mod.build_game_from_weights(t.weights, k, big_m)
                games[key] = (instance.designer_strategies, game_mod.solve_game(instance, epsilon))
            strategies, solution = games[key]
            entries[t.id] = TaskPlan(
                task_id=t.id,
                num_commands=t.num_commands,
                k_star=k,
                strategies=strategies,
                probabilities=solution.probabilities,
                attacker_strategy=solution.attacker_strategy,
                objective=solution.objective,
            )
    return CheckPlan(feasible=True, tasks=entries)


# ---------------------------------------------------------------------------
# Plan file format (JSON): per task id, K*, strategy list, x vector, the
# pinned attacker strategy index and objective.
# ---------------------------------------------------------------------------


def plan_to_dict(check_plan: CheckPlan) -> dict:
    tasks = []
    for e in check_plan.tasks.values():
        tasks.append(
            {
                "id": e.task_id,
                "num_commands": e.num_commands,
                "k_star": e.k_star,
                "strategies": [list(s) for s in e.strategies],
                "probabilities": list(e.probabilities),
                "attacker_strategy": e.attacker_strategy,
                "objective": e.objective,
            }
        )
    return {"feasible": check_plan.feasible, "tasks": tasks}


def _entry_from_dict(entry) -> TaskPlan:
    """One plan-file task entry; ValueError when malformed (the simulator checks x's sign and sum)."""
    tid = entry.get("id") if isinstance(entry, dict) else None
    if not ((_is_int(tid) or isinstance(tid, str)) and isinstance(entry.get("strategies"), list)
            and isinstance(entry.get("probabilities"), list)):
        raise ValueError(f"plan task entry {entry!r} needs an id, strategies and probabilities")
    n, k, strategies, x = (entry[f] for f in ("num_commands", "k_star", "strategies", "probabilities"))
    if not (_is_int(n) and _is_int(k) and 0 <= k <= n):
        raise ValueError(f"task {tid!r}: need integers 0 <= k_star <= num_commands, got {k!r} and {n!r}")
    for s in strategies:
        commands = isinstance(s, list) and all(_is_int(c) and 1 <= c <= n for c in s)
        if not (commands and len(set(s)) == len(s) == k):
            raise ValueError(f"task {tid!r}: strategy {s!r} is not {k} distinct commands in 1..{n}")
    if len(x) != len(strategies) or not all(_is_number(p) and math.isfinite(p) for p in x):
        raise ValueError(f"task {tid!r}: need {len(strategies)} finite probabilities, got {x!r}")
    return TaskPlan(
        task_id=tid,
        num_commands=n,
        k_star=k,
        strategies=tuple(tuple(s) for s in strategies),
        probabilities=tuple(x),
        attacker_strategy=entry.get("attacker_strategy"),
        objective=entry.get("objective"),
    )


def plan_from_dict(doc: dict) -> CheckPlan:
    if not (isinstance(doc, dict) and isinstance(doc.get("tasks"), list)):
        raise ValueError("a plan must be an object with a 'tasks' list")
    if doc.get("feasible") is not True:
        # `plan` writes only feasible plans; an infeasible taskset exits 2 with none.
        says = f", not {json.dumps(doc['feasible'])}" if "feasible" in doc else ""
        raise ValueError(f'a plan must say "feasible": true{says}')
    entries: dict[TaskId, TaskPlan] = {}
    for entry in map(_entry_from_dict, doc["tasks"]):
        if entry.task_id in entries:
            raise ValueError(f"duplicate task id {entry.task_id!r} in plan")
        entries[entry.task_id] = entry
    return CheckPlan(feasible=True, tasks=entries)


def load_plan(path: str | Path) -> CheckPlan:
    return plan_from_dict(json.loads(Path(path).read_text()))
