"""Response-time bounds and feasibility tests under per-command checking overhead.

The bound is the closed linear form

    R_i = C_i^chk + sum_{h in hp(i)} (1 + D_i / T_h) * C_h^chk

with C^chk = C + k * C^o for the assigned number of checks k.  It is an
upper bound, not the iterative fixed-point recurrence.  Every scalar
caller reads a core as columns (`Taskset.core_columns`): `checked_wcets`
gives the core's C^chk column and `response_bound` sums one task's bound
(own term first, then hp(i) from highest priority down) for
`is_schedulable`, `analyze` and the K* search.  A drawn batch's placement
walk, which also gives fig 8 and fig 7 their verdicts, decides many bounds
at once with `admits`, from the bound's other form C_i^chk + sum C_h^chk +
D_i * sum C_h^chk / T_h, and sums `response_bound` only where rounding
could change the answer.  The bound is linear in each task's k, which gives the planner
its closed form for K*; rounding keeps it monotone non-decreasing in every
k, which lets the planner confirm that candidate by stepping one check at
a time.  D_i / T_h is evaluated in double precision and all deadline
comparisons use an absolute tolerance.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .model import CheckAssignment, CoreColumns, Task, Taskset

# Absolute tolerance for comparing the (non-integral) bound to deadlines.
TIME_TOL = 1e-9

# Four units in the last place of 1.0: `admits`' rounding margin per term.
_FOUR_EPS = 4.0 * np.finfo(float).eps


def tee_wcet(task: Task, k: int) -> int:
    """Execution time with k checked commands: C + k * C^o."""
    if not 0 <= k <= task.num_commands:
        raise ValueError(f"task {task.id}: k={k} outside [0, {task.num_commands}]")
    return task.wcet + k * task.check_overhead


def checked_wcets(columns: CoreColumns, checks: Sequence[int]) -> list[int]:
    """C + k * C^o for each task on one core, given each task's k in `checks`."""
    return [w + k * o for w, k, o in zip(columns.wcets, checks, columns.check_overheads)]


def response_bound(wcet: int, deadline: int, periods: Sequence[int], wcets: Sequence[int]) -> float:
    """The bound of a task with execution time `wcet` and relative deadline
    `deadline` under the higher-priority tasks whose periods and execution
    times are `periods` and `wcets`, highest priority first.  The sum runs
    over `wcets`; `periods` may run on past it (a whole core's column)."""
    r = float(wcet)
    for period, c in zip(periods, wcets):
        r += (1.0 + deadline / period) * c
    return r


def admits(wcet: np.ndarray, deadline: np.ndarray, held: np.ndarray, load: np.ndarray,
           members: np.ndarray, exact: Callable[..., float]) -> np.ndarray:
    """Elementwise `response_bound(...) <= deadline + TIME_TOL`, for tasks
    whose `members` higher-priority tasks' execution times sum to `held` and
    their utilizations C_h / T_h to `load`.

    The bound is wcet + held + deadline * load.  Either way of summing n
    positive terms is off from the exact value by at most about (n + 3)
    units in the last place, so where the closed form lies within four
    times that of the limit, `exact(*index)` (the task's `response_bound`,
    or inf where no answer is needed) gives the answer.
    """
    bound = (wcet + held) + deadline * load
    margin = (members + 4.0) * _FOUR_EPS * bound
    limit = deadline + TIME_TOL
    ok = bound + margin <= limit
    unsure = np.nonzero(ok < (bound - margin <= limit))  # within the margin
    if unsure[0].size:
        limit = np.broadcast_to(limit, bound.shape)
        for index in zip(*unsure):
            ok[index] = exact(*index) <= limit[index]
    return ok


def meets_deadlines(columns: CoreColumns, wcets: Sequence[int], start: int = 0) -> bool:
    """True iff the core's tasks from position `start` down meet their
    deadlines, given every task's execution time on the core in `wcets`."""
    deadlines, periods = columns.deadlines, columns.periods
    for j in range(start, len(wcets)):
        if response_bound(wcets[j], deadlines[j], periods, wcets[:j]) > deadlines[j] + TIME_TOL:
            return False
    return True


@dataclass(frozen=True)
class TaskTiming:
    task_id: object
    response_time: float        # vanilla bound (all k = 0)
    response_time_checked: float
    overhead: float
    deadline: int
    schedulable: bool


@dataclass(frozen=True)
class ResponseTimeReport:
    entries: tuple[TaskTiming, ...]


def _core_checks(taskset: Taskset,
                 assignment: CheckAssignment) -> list[tuple[CoreColumns, list[int]]]:
    """Each core's columns with its tasks' k, read from a complete assignment;
    ValueError when a task is missing or its k lies outside [0, N]."""
    for t in taskset.tasks:
        if t.id not in assignment:
            raise ValueError(f"assignment missing task {t.id}")
        if not 0 <= assignment[t.id] <= t.num_commands:
            raise ValueError(f"task {t.id}: k={assignment[t.id]} outside [0, {t.num_commands}]")
    return [(columns, [assignment[tid] for tid in columns.ids])
            for columns in taskset.core_columns.values()]


def analyze(taskset: Taskset, assignment: CheckAssignment) -> ResponseTimeReport:
    """Per-task R, R^chk, overhead O (summed from the k * C^o terms) and deadline flag."""
    entries = []
    for columns, checks in _core_checks(taskset, assignment):
        wcets = checked_wcets(columns, checks)
        periods, overheads = columns.periods, columns.check_overheads
        for j, (tid, deadline) in enumerate(zip(columns.ids, columns.deadlines)):
            r_checked = response_bound(wcets[j], deadline, periods, wcets[:j])
            overhead = float(checks[j] * overheads[j])
            for h in range(j):
                overhead += (1.0 + deadline / periods[h]) * checks[h] * overheads[h]
            entries.append(
                TaskTiming(
                    task_id=tid,
                    response_time=response_bound(columns.wcets[j], deadline, periods,
                                                 columns.wcets[:j]),
                    response_time_checked=r_checked,
                    overhead=overhead,
                    deadline=deadline,
                    schedulable=r_checked <= deadline + TIME_TOL,
                )
            )
    return ResponseTimeReport(entries=tuple(entries))


def is_schedulable(taskset: Taskset, assignment: CheckAssignment) -> bool:
    """True iff every task's checked response-time bound meets its deadline."""
    return all(meets_deadlines(columns, checked_wcets(columns, checks))
               for columns, checks in _core_checks(taskset, assignment))


def report_csv(report: ResponseTimeReport) -> str:
    out = io.StringIO()
    out.write("task,R,R_TEE,O,deadline,schedulable\n")
    for e in report.entries:
        out.write(
            f"{e.task_id},{e.response_time!r},{e.response_time_checked!r},"
            f"{e.overhead!r},{e.deadline},{int(e.schedulable)}\n"
        )
    return out.getvalue()
