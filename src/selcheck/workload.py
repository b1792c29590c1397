"""Random taskset generation over utilization buckets.

Defaults mirror the standard synthetic-workload recipe: 4 cores, task
count uniform in [3P, 10P], log-uniform periods in [10, 1000] ms, total
utilization drawn inside one of ten buckets [(0.01+0.1i)P, (0.1+0.1i)P]
and split across tasks with the Stafford fixed-sum sampler, implicit
deadlines, per-command check overhead at 10% of the task's execution time
(or a fixed platform preset), equal command weights and rate-monotonic
priorities.  Tasks are placed on the least-loaded core whose response
bound admits them, so generated tasksets are always schedulable before any
checking overhead; packing cores to capacity instead would leave the
loaded cores no headroom for checks at all.

Every `gen` and `sweep` taskset takes one fixed-sum sample.  That draw runs
in Python floats over only the table columns its walk can reach (k + 1 of
them, k = floor(total utilization) <= core count), takes every level's
root from one vector power, and evaluates the walk's transition
probability only at the state it visits.  It is byte-identical to the
batched numpy sampler, which stays the path for many samples at once and
the reference in tests.

A draw first yields placed per-core columns (`draw_columns`): for each
core, in priority order, each task's id, period (= deadline), wcet, check
overhead, command count and min_checks.  Fig 8 judges those columns
directly; `draw_taskset` and `gen_taskset` build the Task and Taskset
objects from them for `gen`, figs 6 and 7 and library callers.  Both come
from the same generator draws, so a seed gives the same workload either
way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    OVERHEAD_PRESETS_US,
    CoreColumns,
    Platform,
    Task,
    TaskId,
    Taskset,
    _is_int,
    _is_number,
)
from .planner import PartitionError, balanced_partition_by_response_bound

SCENARIO_COMMANDS = {"medium": (3, 5), "high": (8, 10)}

NUM_BUCKETS = 10

RETRY_BUDGET = 100


class GenerationError(RuntimeError):
    """Retry budget exhausted without producing an acceptable taskset."""


@dataclass(frozen=True)
class WorkloadSpec:
    num_cores: int = 4
    utilization_bucket: int = 0          # i in 0..9
    scenario: str = "medium"             # commands per task drawn from SCENARIO_COMMANDS
    n_fixed: int | None = None           # overrides the scenario range when set
    tasks_min: int | None = None         # default 3 * num_cores
    tasks_max: int | None = None         # default 10 * num_cores
    period_min_us: int = 10_000
    period_max_us: int = 1_000_000
    min_checks_fraction: float = 0.2
    overhead_fraction: float = 0.1
    overhead_preset: str | None = None   # key into OVERHEAD_PRESETS_US
    seed: int = 0

    def check(self) -> None:
        """ValueError unless every field has its type and range; specs come from files."""
        if not (_is_int(self.num_cores) and self.num_cores >= 1):
            raise ValueError(f"num_cores must be an integer >= 1, got {self.num_cores!r}")
        if not (_is_int(self.utilization_bucket) and 0 <= self.utilization_bucket < NUM_BUCKETS):
            raise ValueError(f"utilization_bucket outside 0..{NUM_BUCKETS - 1}")
        if not isinstance(self.scenario, str) or (
                self.n_fixed is None and self.scenario not in SCENARIO_COMMANDS):
            raise ValueError(f"unknown scenario {self.scenario!r}")
        if not (self.n_fixed is None or _is_int(self.n_fixed) and self.n_fixed >= 1):
            raise ValueError(f"n_fixed must be null or an integer >= 1, got {self.n_fixed!r}")
        if not all(v is None or _is_int(v) for v in (self.tasks_min, self.tasks_max)):
            raise ValueError("tasks_min and tasks_max must be null or integers")
        self.task_count_range()
        periods = (self.period_min_us, self.period_max_us)
        if not (all(map(_is_int, periods)) and 0 < periods[0] <= periods[1]):
            raise ValueError(f"bad period range {periods!r}")
        for name in ("min_checks_fraction", "overhead_fraction"):
            if not (_is_number(getattr(self, name)) and 0 <= getattr(self, name) <= 1):
                raise ValueError(f"{name} must be a number in [0, 1], got {getattr(self, name)!r}")
        preset = self.overhead_preset
        if not (preset is None or isinstance(preset, str) and preset in OVERHEAD_PRESETS_US):
            raise ValueError(f"unknown overhead preset {preset!r}")

    def utilization_range(self) -> tuple[float, float]:
        i = self.utilization_bucket
        return (0.01 + 0.1 * i) * self.num_cores, (0.1 + 0.1 * i) * self.num_cores

    def task_count_range(self) -> tuple[int, int]:
        lo = 3 * self.num_cores if self.tasks_min is None else self.tasks_min
        hi = 10 * self.num_cores if self.tasks_max is None else self.tasks_max
        if not 1 <= lo <= hi:
            raise ValueError(f"bad task count range: need 1 <= tasks_min <= tasks_max, "
                             f"got tasks_min {lo} and tasks_max {hi}")
        return lo, hi


def _stafford(n: int, s: float, m: int, rng: np.random.Generator) -> np.ndarray:
    """m samples uniform over {x in [0,1]^n : sum(x) = s}, per Stafford's construction."""
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
        # Both branches compute tmp2/(tmp1+tmp2); the arrangement picks the
        # numerically safe form per side and, when a state has zero volume,
        # defaults to 0 on the left edge and 1 (forced move) on the right.
        tmp4 = s2[n - i : n] > s1[:i]
        t[i - 2, 0:i] = np.where(tmp4, tmp2 / tmp3, 1.0 - tmp1 / tmp3)

    x = np.zeros((n, m))
    rt = rng.random((n - 1, m))  # simplex-type transitions
    rs = rng.random((n - 1, m))  # position inside the simplex
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

    # The construction fills coordinates in a fixed order; permute per sample.
    perm = np.argsort(rng.random((n, m)), axis=0)
    return np.take_along_axis(x, perm, axis=0).T


def _stafford_one(n: int, s: float, rng: np.random.Generator) -> np.ndarray:
    """_stafford(n, s, 1, rng)[0] bit for bit, in Python floats.

    The walk starts in column k and only moves left, so only columns 0..k+1
    of w are built, and t is computed only at the one state the walk visits
    per level.  Byte identity with the numpy path rests on three rules:
    - every table entry is computed in numpy's order, (w * s1) / i;
    - s2 > s1 picks the branch, as np.where did;
    - the roots come from one vector power over all levels, except level 2's:
      `x ** 0.5` on an array takes numpy's sqrt path, which rounds differently
      from the vector power on some draws (and Python's `**` on most).
    """
    k = int(max(min(math.floor(s), n - 1), 0))
    s = max(min(s, k + 1.0), float(k))
    tiny = np.finfo(float).tiny
    s1 = [s - (k - j) for j in range(k + 1)]

    # ws[i-1] is w's row at level i; t's row at level i+1 is read off it.
    w = [0.0] * (k + 2)
    w[1] = np.finfo(float).max
    ws = [w]
    for i in range(2, n):
        row = [0.0] * (k + 2)
        for j in range(min(i, k + 1)):
            row[j + 1] = w[j + 1] * s1[j] / i + w[j] * ((k + i - j) - s) / i
        w = row
        ws.append(w)

    draws = rng.random(3 * n - 2)  # the transitions, positions and permutation keys
    rt, rs = draws[: n - 1].tolist(), draws[n - 1 : 2 * n - 2]
    roots = np.power(rs, 1.0 / np.arange(n - 1, 0, -1.0)).tolist()  # [n-i-1] is level i's
    if n >= 3:
        roots[n - 3] = (rs[n - 3 : n - 2] ** 0.5).item()  # the sqrt path, as in _stafford
    x = []
    sv, j, sm, pr = s, k, 0.0, 1.0
    for i, r, sx, w in zip(range(n - 1, 0, -1), rt, roots, reversed(ws)):
        move = False  # numpy's t is 0 (no move) beyond column i
        if j <= i:  # t at level i+1, column j
            s2 = (k + i + 1 - j) - s
            tmp1 = w[j + 1] * s1[j] / (i + 1)
            tmp2 = w[j] * s2 / (i + 1)
            tmp3 = (tmp1 + tmp2) + tiny
            move = r < (tmp2 / tmp3 if s2 > s1[j] else 1.0 - tmp1 / tmp3)
        sm = sm + (1.0 - sx) * pr * sv / (i + 1)
        pr = sx * pr
        # numpy's sm + pr * e, with e = 1.0 on a move and 0.0 otherwise; both
        # products are exact, so they are left out.
        if move:
            x.append(sm + pr)
            sv = sv - 1.0
            j = max(j - 1, 0)
        else:
            x.append(sm)
    x.append(sm + pr * sv)
    return np.array(x)[np.argsort(draws[2 * n - 2 :])]


def randfixedsum(
    n: int,
    total: float,
    lo: float,
    hi: float,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Draw vectors uniform over {x in [lo, hi]^n : sum(x) = total}.

    Returns shape (n,) by default, or (size, n) when size is given.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if hi < lo:
        raise ValueError("hi < lo")
    if not n * lo - 1e-12 <= total <= n * hi + 1e-12:
        raise ValueError(f"total {total} outside feasible range [{n * lo}, {n * hi}]")
    m = 1 if size is None else int(size)
    span = hi - lo
    if span == 0.0:
        x01 = np.full((m, n), 0.0)
    elif n == 1:
        x01 = np.full((m, 1), (total - lo) / span)
    elif size is None:
        x01 = _stafford_one(n, (total - n * lo) / span, rng)[np.newaxis]
    else:
        x01 = _stafford(n, (total - n * lo) / span, m, rng)
    out = x01 * span + lo
    return out[0] if size is None else out


def gen_periods(n: int, lo: int, hi: int, rng: np.random.Generator) -> list[int]:
    """n log-uniform periods in [lo, hi], rounded to integer time units."""
    if not 0 < lo <= hi:
        raise ValueError("bad period range")
    raw = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n)).tolist()
    return [int(min(max(round(v), lo), hi)) for v in raw]


def _draw_columns(spec: WorkloadSpec, rng: np.random.Generator) -> list[CoreColumns]:
    """One placed draw as per-core columns; PartitionError when it fits on no partition."""
    tmin, tmax = spec.task_count_range()
    m = int(rng.integers(tmin, tmax + 1))
    u_lo, u_hi = spec.utilization_range()
    total_u = float(rng.uniform(u_lo, u_hi))
    utils = randfixedsum(m, total_u, 0.0, 1.0, rng).tolist()
    periods = gen_periods(m, spec.period_min_us, spec.period_max_us, rng)
    if spec.n_fixed is not None:
        counts = [spec.n_fixed] * m
    else:
        # One batched draw gives the values and the generator state of m
        # scalar draws: PCG64 serves both from the same buffered 32-bit stream.
        n_lo, n_hi = SCENARIO_COMMANDS[spec.scenario]
        counts = rng.integers(n_lo, n_hi + 1, size=m).tolist()

    wcets = [max(1, round(u * period)) for u, period in zip(utils, periods)]
    fixed_overhead = OVERHEAD_PRESETS_US.get(spec.overhead_preset)  # None: a share of wcet
    if fixed_overhead is None:
        overhead_fraction = spec.overhead_fraction
        overheads = [max(1, round(overhead_fraction * wcet)) for wcet in wcets]
    else:
        overheads = [fixed_overhead] * m
    min_checks = {n_cmd: math.ceil(spec.min_checks_fraction * n_cmd) for n_cmd in set(counts)}

    # Rate-monotonic priorities: shorter period first, ties by id.  Ids are
    # zero-padded draw indices, so the id order is the index order that the
    # stable sort keeps.
    order = sorted(range(m), key=periods.__getitem__)
    placed = balanced_partition_by_response_bound(
        [periods[i] for i in order], [wcets[i] for i in order], spec.num_cores
    )
    width = len(str(m - 1))
    columns = []
    for _ in range(spec.num_cores):
        core_periods = []  # drawn deadlines equal the periods: both columns are this list
        columns.append(CoreColumns([], [], core_periods, core_periods, [], [], [], []))
    for rank, (i, core) in enumerate(zip(order, placed)):
        ids, ranks, _, core_periods, core_wcets, core_overheads, core_counts, core_min = (
            columns[core])
        ids.append(f"t{i:0{width}d}")
        ranks.append(rank)
        core_periods.append(periods[i])
        core_wcets.append(wcets[i])
        core_overheads.append(overheads[i])
        core_counts.append(counts[i])
        core_min.append(min_checks[counts[i]])
    return columns


def _taskset_from_columns(columns: list[CoreColumns]) -> Taskset:
    """The Taskset of a drawn workload: tasks in id order, equal command weights."""
    weights: dict[int, tuple[float, ...]] = {}
    tasks = []
    partition: dict[TaskId, int] = {}
    priority: dict[TaskId, int] = {}
    for core, col in enumerate(columns):
        for tid, rank, deadline, period, wcet, overhead, n_cmd, min_checks in zip(*col):
            if n_cmd not in weights:
                weights[n_cmd] = (1.0,) * n_cmd
            tasks.append(Task(id=tid, wcet=wcet, period=period, deadline=deadline,
                              num_commands=n_cmd, min_checks=min_checks,
                              weights=weights[n_cmd], check_overhead=overhead))
            partition[tid] = core
            priority[tid] = rank
    tasks.sort(key=lambda t: t.id)  # zero-padded draw indices: the draw order
    platform = Platform(num_cores=len(columns), partition=partition, priority=priority)
    return Taskset(tasks=tuple(tasks), platform=platform)


def draw_columns(spec: WorkloadSpec, rng: np.random.Generator) -> list[CoreColumns] | None:
    """One draw with no retry, as per-core columns: None when it fits on no partition.

    Sweep experiments count unplaceable draws as unschedulable tasksets
    instead of redrawing, so the acceptance-ratio denominator stays the
    number of generated tasksets.
    """
    spec.check()
    try:
        return _draw_columns(spec, rng)
    except PartitionError:
        return None


def draw_taskset(spec: WorkloadSpec, rng: np.random.Generator) -> Taskset | None:
    """`draw_columns`'s draw as a Taskset (the same generator draws)."""
    columns = draw_columns(spec, rng)
    return None if columns is None else _taskset_from_columns(columns)


def gen_taskset(
    spec: WorkloadSpec,
    rng: np.random.Generator,
    retry_budget: int = RETRY_BUDGET,
) -> Taskset:
    """One random taskset for the spec's bucket and scenario.

    Placement admits tasks by the vanilla response bound, so anything
    returned is schedulable with checking disabled; draws whose tasks fit
    on no core are retried up to retry_budget times.
    """
    spec.check()
    for _ in range(retry_budget):
        try:
            return _taskset_from_columns(_draw_columns(spec, rng))
        except PartitionError:
            continue
    raise GenerationError(
        f"no acceptable taskset in {retry_budget} draws "
        f"(bucket {spec.utilization_bucket}, scenario {spec.scenario})"
    )


def taskset_rng(seed: int, *path: int) -> np.random.Generator:
    """Deterministic generator for one (seed, ...) derivation path."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, *path))))
