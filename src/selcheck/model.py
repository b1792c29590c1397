"""Domain types: tasks, platforms, tasksets and the taskset file format.

All timing fields are positive integers in one fixed time unit
(microseconds).  Millisecond-scale inputs must be scaled by 1000 before
construction.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import NamedTuple, Sequence, Union

import numpy as np

TaskId = Union[str, int]

TIME_UNIT = "us"

# Mode-switch + in-enclave check cost per command, by platform stack.
OVERHEAD_PRESETS_US = {
    "linux-optee": 66_000,
    "freertos": 2_000,
}


@dataclass(frozen=True)
class Task:
    """One periodic task with its actuation-checking parameters.

    wcet/period/deadline/check_overhead are integer time units.  weights
    has one positive entry per actuation command; commands are numbered
    1..num_commands throughout.
    """

    id: TaskId
    wcet: int
    period: int
    deadline: int
    num_commands: int = 0
    min_checks: int = 0
    weights: tuple[float, ...] = ()
    check_overhead: int = 0

    @property
    def utilization(self) -> float:
        return self.wcet / self.period


@dataclass(frozen=True)
class Platform:
    """Static partition of tasks onto cores with per-core fixed priorities.

    priority maps task id to a rank; a smaller rank means higher priority.
    Ranks must be unique within a core (strict total order).
    """

    num_cores: int
    partition: dict[TaskId, int]
    priority: dict[TaskId, int]


class CoreColumns(NamedTuple):
    """One core's tasks, highest priority first, as parallel columns: the
    view of a core that every scalar bound reads (`Taskset.core_columns`)."""

    ids: Sequence[TaskId]
    priorities: Sequence[int]
    deadlines: Sequence[int]
    periods: Sequence[int]
    wcets: Sequence[int]
    check_overheads: Sequence[int]
    num_commands: Sequence[int]
    min_checks: Sequence[int]


class TaskArrays(NamedTuple):
    """The tasks of many tasksets as (tasksets x width) integer arrays, one
    row per taskset, in which each core's tasks appear highest priority
    first, with deadlines equal to their periods.  `core` reads -1 on
    padding, which follows a row's tasks; a drawn batch comes out as them."""

    core: np.ndarray
    period: np.ndarray
    wcet: np.ndarray
    overhead: np.ndarray
    commands: np.ndarray
    min_checks: np.ndarray


@dataclass(frozen=True)
class Taskset:
    """Tasks plus their platform.

    `core_columns`, the one view of a core that every bound reads, is built
    on first use and cached; so platform.partition and platform.priority
    must not be mutated after construction.
    """

    tasks: tuple[Task, ...]
    platform: Platform

    @cached_property
    def _core_orders(self) -> dict[int, tuple[Task, ...]]:
        partition, priority = self.platform.partition, self.platform.priority
        placed = sorted((t for t in self.tasks if t.id in partition), key=lambda t: priority[t.id])
        orders: dict[int, list[Task]] = {}
        for t in placed:
            orders.setdefault(partition[t.id], []).append(t)
        return {core: tuple(members) for core, members in orders.items()}

    @cached_property
    def core_columns(self) -> dict[int, CoreColumns]:
        """core -> its tasks as columns, highest priority first; cores in index order."""
        priority = self.platform.priority
        return {
            core: CoreColumns(*zip(*(
                (t.id, priority[t.id], t.deadline, t.period, t.wcet, t.check_overhead,
                 t.num_commands, t.min_checks)
                for t in order
            )))
            for core, order in sorted(self._core_orders.items())
        }

    def priority_ordered(self) -> tuple[Task, ...]:
        """All tasks, grouped by core index, highest priority first per core."""
        return tuple(t for core in sorted(self._core_orders) for t in self._core_orders[core])


# CheckAssignment: commands checked per job, keyed by task id.
CheckAssignment = dict


def assignment_at(taskset: Taskset, level: str) -> CheckAssignment:
    """Uniform assignment: 'zero' (no checks), 'min' (N_min) or 'full' (N)."""
    if level == "zero":
        return {t.id: 0 for t in taskset.tasks}
    if level == "min":
        return {t.id: t.min_checks for t in taskset.tasks}
    if level == "full":
        return {t.id: t.num_commands for t in taskset.tasks}
    raise ValueError(f"unknown assignment level: {level!r}")


@dataclass(frozen=True)
class Violation:
    task_id: TaskId | None
    field: str
    message: str

    def __str__(self) -> str:
        where = "taskset" if self.task_id is None else f"task {self.task_id}"
        return f"{where}: {self.field}: {self.message}"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _validate_task(task: Task) -> list[Violation]:
    v: list[Violation] = []

    def bad(fieldname: str, message: str) -> None:
        v.append(Violation(task.id, fieldname, message))

    for name in ("wcet", "period", "deadline", "check_overhead"):
        if not _is_int(getattr(task, name)):
            bad(name, "time fields must be integers")
    if _is_int(task.wcet) and task.wcet <= 0:
        bad("wcet", "wcet must be positive")
    if _is_int(task.wcet) and _is_int(task.deadline) and task.wcet > task.deadline:
        bad("deadline", "wcet > deadline")
    if _is_int(task.deadline) and _is_int(task.period) and task.deadline > task.period:
        bad("deadline", "deadline > period")
    for name in ("num_commands", "min_checks"):
        if not _is_int(getattr(task, name)):
            bad(name, "command counts must be integers")
    if _is_int(task.num_commands):
        if task.num_commands < 0:
            bad("num_commands", "num_commands must be >= 0")
        if _is_int(task.min_checks) and not 0 <= task.min_checks <= task.num_commands:
            bad("min_checks", "min_checks outside [0, num_commands]")
        if len(task.weights) != task.num_commands:
            bad("weights", "weight-vector length mismatch")
    # Compared, not converted: an integer too large for a float must not raise here.
    if not all(_is_number(w) and 0 < w <= sys.float_info.max for w in task.weights):
        bad("weights", "weights must be positive finite numbers")
    else:
        # The game adds weights in this order; an infinite total makes its payoffs NaN.
        total = 0.0
        for w in task.weights:
            total += w
        if not math.isfinite(total):
            bad("weights", "the sum of the weights must be finite")
    if _is_int(task.check_overhead) and task.check_overhead < 0:
        bad("check_overhead", "check_overhead must be >= 0")
    return v


def validate(taskset: Taskset) -> list[Violation]:
    """Every invariant violation in the taskset; empty list means ok.

    Violations are data, not faults: malformed tasksets never raise here.
    """
    v: list[Violation] = []
    seen: set[TaskId] = set()
    for task in taskset.tasks:
        if task.id in seen:
            v.append(Violation(task.id, "id", "duplicate task id"))
        seen.add(task.id)
        v.extend(_validate_task(task))

    plat = taskset.platform
    for tid in plat.partition:
        if tid not in seen:
            v.append(Violation(tid, "partition", "partition references unknown task"))
    for task in taskset.tasks:
        if task.id not in plat.partition:
            v.append(Violation(task.id, "partition", "task not assigned to a core"))
            continue
        core = plat.partition[task.id]
        if not 0 <= core < plat.num_cores:
            v.append(Violation(task.id, "partition", f"core index {core} out of range"))
        if task.id not in plat.priority:
            v.append(Violation(task.id, "priority", "task has no priority"))
    per_core_ranks: dict[int, set[int]] = {}
    for tid, rank in plat.priority.items():
        if tid not in plat.partition:
            continue
        ranks = per_core_ranks.setdefault(plat.partition[tid], set())
        if rank in ranks:
            v.append(Violation(tid, "priority", "duplicate priority on core"))
        ranks.add(rank)
    return v


# ---------------------------------------------------------------------------
# Taskset file format (JSON).  Field names are part of the interface:
# time_unit, cores, tasks[] with id, wcet, period, deadline, num_commands,
# min_checks, weights, check_overhead, core, priority.
# ---------------------------------------------------------------------------


def taskset_to_dict(taskset: Taskset) -> dict:
    tasks = []
    for t in taskset.tasks:
        tasks.append(
            {
                "id": t.id,
                "wcet": t.wcet,
                "period": t.period,
                "deadline": t.deadline,
                "num_commands": t.num_commands,
                "min_checks": t.min_checks,
                "weights": list(t.weights),
                "check_overhead": t.check_overhead,
                "core": taskset.platform.partition[t.id],
                "priority": taskset.platform.priority[t.id],
            }
        )
    return {"time_unit": TIME_UNIT, "cores": taskset.platform.num_cores, "tasks": tasks}


_TASK_FIELDS = ("id", "wcet", "period", "deadline", "num_commands", "min_checks", "weights",
                "check_overhead", "core", "priority")


def taskset_from_dict(doc: dict) -> Taskset:
    """The taskset a file document describes.

    ValueError when the document's shape is wrong (a field of the wrong JSON
    type, a missing field); the values themselves are left to validate().
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a taskset must be a JSON object, got {type(doc).__name__}")
    if doc.get("time_unit") != TIME_UNIT:
        raise ValueError(f"unsupported time_unit {doc.get('time_unit')!r}; expected {TIME_UNIT!r}")
    cores = doc.get("cores")
    if not (_is_int(cores) and cores >= 1):
        raise ValueError(f"cores must be an integer >= 1, got {cores!r}")
    if not isinstance(doc.get("tasks"), list):
        raise ValueError("a taskset needs a 'tasks' list")
    tasks = []
    partition: dict[TaskId, int] = {}
    priority: dict[TaskId, int] = {}
    for entry in doc["tasks"]:
        if not isinstance(entry, dict):
            raise ValueError(f"task entry {entry!r} is not an object")
        missing = [name for name in _TASK_FIELDS if name not in entry]
        if missing:
            raise ValueError(f"task entry {entry!r} lacks {', '.join(missing)}")
        tid = entry["id"]
        if not (_is_int(tid) or isinstance(tid, str)):
            raise ValueError(f"task id {tid!r} is not a string or an integer")
        if not isinstance(entry["weights"], list):
            raise ValueError(f"task {tid!r}: weights must be a list")
        if not (_is_int(entry["core"]) and _is_int(entry["priority"])):
            raise ValueError(f"task {tid!r}: core and priority must be integers")
        task = Task(
            id=tid,
            wcet=entry["wcet"],
            period=entry["period"],
            deadline=entry["deadline"],
            num_commands=entry["num_commands"],
            min_checks=entry["min_checks"],
            weights=tuple(entry["weights"]),
            check_overhead=entry["check_overhead"],
        )
        tasks.append(task)
        partition[task.id] = entry["core"]
        priority[task.id] = entry["priority"]
    platform = Platform(num_cores=cores, partition=partition, priority=priority)
    return Taskset(tasks=tuple(tasks), platform=platform)


def save_taskset(taskset: Taskset, path: str | Path) -> None:
    Path(path).write_text(json.dumps(taskset_to_dict(taskset), indent=2) + "\n")


def load_taskset(path: str | Path) -> Taskset:
    return taskset_from_dict(json.loads(Path(path).read_text()))
