"""Response-time bounds and feasibility tests under per-command checking overhead.

The bound is the closed linear form

    R_i = C_i^chk + sum_{h in hp(i)} (1 + D_i / T_h) * C_h^chk

with C^chk = C + k * C^o for the assigned number of checks k.  It is an
upper bound, not the iterative fixed-point recurrence.  One evaluator,
`response_bound`, sums it (own term first, then hp(i) from highest to
lowest priority) for every caller: the placement's admission test, single
bounds, `is_schedulable`, `analyze`, the planner's K* selection and the
fig 8 judge.  The Taskset callers read each core through its column view
(`Taskset.core_columns`), so a drawn workload's columns and its Taskset
are judged by the same arithmetic.  The bound is linear in each task's k,
which gives the planner its closed form for K*; rounding keeps it monotone
non-decreasing in every k, which lets the planner confirm that candidate
by stepping one check at a time.  D_i / T_h is evaluated in double
precision and all deadline comparisons use an absolute tolerance.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Sequence

from .model import CheckAssignment, CoreColumns, Task, TaskId, Taskset

# Absolute tolerance for comparing the (non-integral) bound to deadlines.
TIME_TOL = 1e-9


def tee_wcet(task: Task, k: int) -> int:
    """Execution time with k checked commands: C + k * C^o."""
    if not 0 <= k <= task.num_commands:
        raise ValueError(f"task {task.id}: k={k} outside [0, {task.num_commands}]")
    return task.wcet + k * task.check_overhead


def checked_wcets(tasks: Iterable[Task], assignment: CheckAssignment) -> dict[TaskId, int]:
    """C + k * C^o for each task under the assignment, keyed by task id."""
    return {t.id: tee_wcet(t, assignment[t.id]) for t in tasks}


def response_bound(wcet: int, deadline: int, periods: Sequence[int], wcets: Sequence[int]) -> float:
    """The bound of a task with execution time `wcet` and relative deadline
    `deadline` under the higher-priority tasks whose periods and execution
    times are `periods` and `wcets`, highest priority first.  The sum runs
    over `wcets`; `periods` may run on past it (a whole core's column)."""
    r = float(wcet)
    for period, c in zip(periods, wcets):
        r += (1.0 + deadline / period) * c
    return r


def meets_deadlines(columns: CoreColumns, wcets: Sequence[int], start: int = 0) -> bool:
    """True iff the core's tasks from position `start` down meet their
    deadlines, given every task's execution time on the core in `wcets`."""
    deadlines, periods = columns.deadlines, columns.periods
    for j in range(start, len(wcets)):
        if response_bound(wcets[j], deadlines[j], periods, wcets[:j]) > deadlines[j] + TIME_TOL:
            return False
    return True


def response_time_bound(task: Task, taskset: Taskset, assignment: CheckAssignment) -> float:
    """Upper bound on the worst-case response time of `task` under `assignment`.

    Interference is taken only from higher-priority tasks on the task's core;
    the assignment must cover the task and all of those tasks.
    """
    if task.id not in taskset.platform.partition:
        raise ValueError(f"task {task.id} not in partition")
    hp = taskset.higher_priority(task.id)
    wcets = checked_wcets((task, *hp), assignment)
    return response_bound(wcets[task.id], task.deadline, [h.period for h in hp],
                          [wcets[h.id] for h in hp])


def checking_overhead(task: Task, taskset: Taskset, assignment: CheckAssignment) -> float:
    """Total checking overhead O = R^chk - R, computed directly from k * C^o terms."""
    if task.id not in taskset.platform.partition:
        raise ValueError(f"task {task.id} not in partition")
    o = float(assignment[task.id] * task.check_overhead)
    for h in taskset.higher_priority(task.id):
        o += (1.0 + task.deadline / h.period) * assignment[h.id] * h.check_overhead
    return o


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
    schedulable: bool

    def entry(self, task_id) -> TaskTiming:
        for e in self.entries:
            if e.task_id == task_id:
                return e
        raise KeyError(task_id)


def _complete_wcets(taskset: Taskset, assignment: CheckAssignment) -> dict[TaskId, int]:
    for t in taskset.tasks:
        if t.id not in assignment:
            raise ValueError(f"assignment missing task {t.id}")
    return checked_wcets(taskset.tasks, assignment)


def analyze(taskset: Taskset, assignment: CheckAssignment) -> ResponseTimeReport:
    """Per-task response times and deadline flags for a complete assignment."""
    checked = _complete_wcets(taskset, assignment)
    entries = []
    for core, columns in taskset.core_columns.items():
        wcets = [checked[tid] for tid in columns.ids]
        for j, t in enumerate(taskset.tasks_on_core(core)):
            r_checked = response_bound(wcets[j], t.deadline, columns.periods, wcets[:j])
            entries.append(
                TaskTiming(
                    task_id=t.id,
                    response_time=response_bound(t.wcet, t.deadline, columns.periods,
                                                 columns.wcets[:j]),
                    response_time_checked=r_checked,
                    overhead=checking_overhead(t, taskset, assignment),
                    deadline=t.deadline,
                    schedulable=r_checked <= t.deadline + TIME_TOL,
                )
            )
    return ResponseTimeReport(
        entries=tuple(entries), schedulable=all(e.schedulable for e in entries)
    )


def is_schedulable(taskset: Taskset, assignment: CheckAssignment) -> bool:
    """True iff every task's checked response-time bound meets its deadline."""
    checked = _complete_wcets(taskset, assignment)
    return all(meets_deadlines(columns, [checked[tid] for tid in columns.ids])
               for columns in taskset.core_columns.values())


def report_csv(report: ResponseTimeReport) -> str:
    out = io.StringIO()
    out.write("task,R,R_TEE,O,deadline,schedulable\n")
    for e in report.entries:
        out.write(
            f"{e.task_id},{e.response_time!r},{e.response_time_checked!r},"
            f"{e.overhead!r},{e.deadline},{int(e.schedulable)}\n"
        )
    return out.getvalue()
