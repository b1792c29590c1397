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

Tasksets are drawn in batches (`draw_batch`), one slot per taskset, each
slot with its own generator.  A slot's generator makes these draws, in
this order: the task count m (`integers`), the total utilization
(`uniform`), for m >= 2 the fixed-sum sample's 3m - 2 uniforms (`random`:
the walk's transitions, its positions inside the simplex, then the
permutation keys), the m log-periods (`uniform`) and, unless n_fixed is
set, the m command counts (`integers`).  The rest runs as numpy
elementwise operations over (slots x tasks) arrays: Stafford's table and
walk, the periods, wcets and overheads, the rate-monotonic order and the
least-loaded placement.  Each element gets the IEEE operations of a
one-slot draw in the same order, so a slot's bytes do not depend on the
batch it is drawn in:
- the table is built for every slot at once, but a slot's walk reads only
  its own columns 0..k+1 (k = floor of its total), which no padding
  column feeds;
- the walk takes one level per step, the slots of the longest walks first;
  numpy's power and sqrt round each element alike in any layout, and
  level 2's root is a sqrt, as `x ** 0.5` on an array is;
- the slots of one task count sort their permutation keys in one argsort,
  row by row as a single sample's are sorted;
- the rate-monotonic sort is stable, as `sorted` is;
- placement decides each admission with `schedulability.admits`, which
  sums the left-to-right `response_bound` wherever the closed form lies
  within its rounding margin of the deadline.  The same walk decides each
  placed task's bound at min_checks and at N checks on its core, so a
  batch carries every slot's verdict at the three uniform check levels.
`draw_batches` splits a long run of slots into even batches of at most
MAX_BATCH.  Fig 8 counts a batch's verdicts directly, and
`DrawBatch.taskset` builds the Task and Taskset objects of one slot from
its rows for `gen`, figs 6 and 7 and library callers.

A slot's generator comes from its (seed, figure, ...) path: `taskset_rngs`
gives each path the PCG64 state `SeedSequence(path)` would seed, bit for
bit, but hashes MAX_BATCH paths at a time as uint32 array operations
(SeedSequence's hash runs the same constants for every entropy of one
word count) and hands each state to numpy's own PCG64 seeding through the
`ISeedSequence` interface.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import (
    OVERHEAD_PRESETS_US,
    Platform,
    Task,
    TaskArrays,
    TaskId,
    Taskset,
    _is_int,
    _is_number,
)
from .schedulability import admits, response_bound

SCENARIO_COMMANDS = {"medium": (3, 5), "high": (8, 10)}

NUM_BUCKETS = 10

RETRY_BUDGET = 100

# Slots drawn as one batch at most.  A batch's numpy call count is fixed, so
# bigger batches draw faster, but its arrays grow with it: one `sweep --fig
# 8` call at 20 tasksets per bucket (400 slots) is two batches of 200.
MAX_BATCH = 256

# Periods and wcets are exact integers in a double up to this bound.
MAX_PERIOD_US = 2**53


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
        tasks_min = self.task_count_range()[0]
        top = self.utilization_range()[1]
        if tasks_min < top:
            raise ValueError(f"tasks_min {tasks_min} is below bucket {self.utilization_bucket}'s "
                             f"top utilization {top!r}: a task carries at most 1")
        periods = (self.period_min_us, self.period_max_us)
        if not (all(map(_is_int, periods)) and 0 < periods[0] <= periods[1] <= MAX_PERIOD_US):
            raise ValueError(f"bad period range {periods!r}: need 0 < min <= max <= 2**53")
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


def _stafford_rows(n: np.ndarray, s: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Row r: Stafford's sample of n[r] coordinates in [0, 1] summing to s[r],
    made from draws[r, :3n[r] - 2] (the walk's n - 1 transitions, its n - 1
    positions inside the simplex, then n permutation keys); a one-coordinate
    row is s itself.  Returns one column per permutation key that draws can
    hold, zero past each row's n."""
    out = np.zeros((len(n), (draws.shape[1] + 2) // 3))
    out[n == 1, 0] = s[n == 1]
    order = np.argsort(-n, kind="stable")  # longest walks first: the walking rows are a prefix
    order = order[: np.count_nonzero(n > 1)]
    if not order.size:
        return out
    n, s = n[order], s[order]
    width = int(n[0])
    k = np.clip(np.floor(s), 0, n - 1).astype(np.int64)
    s = np.maximum(np.minimum(s, k + 1.0), k)
    cols = np.arange(k.max() + 1)
    s1 = s[:, None] - (k[:, None] - cols)
    # active[i]: the rows whose walk reaches level i (n > i), a prefix.
    active = np.count_nonzero(n > np.arange(width + 1)[:, None], axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        # w[at[i] + r] is row r's table row at level i, kept for the rows
        # that reach level i only.  A column past k + 1 holds junk in some
        # rows; it feeds only columns past k + 1.
        at = np.zeros(width + 1, dtype=np.int64)
        at[2:] = np.cumsum(active[1:width])
        w = np.zeros((at[width], cols.size + 1))
        w[: active[1], 1] = np.finfo(float).max
        for i in range(2, width):
            a = active[i]
            prev = w[at[i - 1] : at[i - 1] + a]
            s2 = (k[:a, None] + i - cols) - s[:a, None]
            w[at[i] : at[i] + a, 1:] = prev[:, 1:] * s1[:a] / i + prev[:, :-1] * s2 / i

        active = active[1:].tolist()  # active[t]: the rows that walk a step t
        sv, j, sm, pr = s.copy(), k.copy(), np.zeros(order.size), np.ones(order.size)
        tiny = np.finfo(float).tiny
        for t in range(width - 1):
            a = active[t]
            rows, here = order[:a], np.arange(a)
            i, jj = n[:a] - 1 - t, j[:a]
            f = i + 1
            # The transition probability at level i + 1, column j, taken as a
            # move only while j <= i (numpy's table is 0 beyond column i).
            s1j = s1[here, jj]
            s2 = (k[:a] + f - jj) - s[:a]
            row = at[i] + here
            tmp1 = w[row, jj + 1] * s1j / f
            tmp2 = w[row, jj] * s2 / f
            tmp3 = (tmp1 + tmp2) + tiny
            move = (jj <= i) & (draws[rows, t] < np.where(s2 > s1j, tmp2 / tmp3,
                                                          1.0 - tmp1 / tmp3))
            # Level i's root of its position draw; level 2's is a sqrt, as
            # `x ** 0.5` on an array is.
            rs = draws[rows, n[:a] - 1 + t]
            root = np.power(rs, 1.0 / i.astype(float))
            two = i == 2
            root[two] = np.sqrt(rs[two])
            sm[:a] = sm[:a] + (1.0 - root) * pr[:a] * sv[:a] / f
            pr[:a] = root * pr[:a]
            # sm + pr * e, with e = 1.0 on a move and 0.0 otherwise; both
            # products are exact, so they are left out.
            out[rows, t] = np.where(move, sm[:a] + pr[:a], sm[:a])
            sv[:a] -= move
            j[:a] = np.maximum(jj - move, 0)
            done = slice(active[t + 1], a)  # the rows whose last level this was
            out[order[done], t + 1] = sm[done] + pr[done] * sv[done]

    # The construction fills coordinates in a fixed order; each row takes its
    # permutation from its own keys, sorted with the rows of its length.
    starts = [0, *(np.flatnonzero(np.diff(n)) + 1).tolist(), order.size]
    for lo, hi in itertools.pairwise(starts):
        m = int(n[lo])
        rows = order[lo:hi]
        perm = np.argsort(draws[rows, 2 * m - 2 : 3 * m - 2], axis=1)
        out[rows, :m] = np.take_along_axis(out[rows, :m], perm, axis=1)
    return out


def randfixedsum(
    n: int,
    total: float,
    lo: float,
    hi: float,
    rng: np.random.Generator,
    size: int | None = None,
) -> np.ndarray:
    """Draw vectors uniform over {x in [lo, hi]^n : sum(x) = total}.

    Returns shape (n,) by default, or (size, n) when size is given.  With
    size, the generator gives every sample's transitions, then every
    sample's positions, then every sample's permutation keys.
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
    else:
        parts = [rng.random((n - 1, m)), rng.random((n - 1, m)), rng.random((n, m))]
        draws = np.ascontiguousarray(np.concatenate(parts).T)
        x01 = _stafford_rows(np.full(m, n), np.full(m, (total - n * lo) / span), draws)
    out = x01 * span + lo
    return out[0] if size is None else out


def _periods(logs: np.ndarray, lo: int, hi: int, out: np.ndarray | None = None) -> np.ndarray:
    """Periods from log-uniform draws: exp, rounded half to even, clipped to [lo, hi]."""
    out = np.exp(logs, out=out)
    return np.clip(np.rint(out, out=out), lo, hi, out=out)


# The uniform check levels every drawn slot is judged at: no checks, each
# task's min_checks and every command, named as `model.assignment_at` names them.
CHECK_LEVELS = ("zero", "min", "full")


def _place(period: np.ndarray, wcet: np.ndarray, overhead: np.ndarray, commands: np.ndarray,
           min_checks: np.ndarray, count: np.ndarray,
           num_cores: int) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Least-loaded placement of each slot's tasks, given as integer arrays
    in priority order with deadlines equal to their periods, judged at every
    check level of CHECK_LEVELS in the same walk over the ranks.

    Each task goes to the least-utilized core whose admission test passes
    with no checks (lowest index on ties).  A newcomer is the lowest
    priority on its core, so only its own bound needs checking: every
    placement is schedulable with checking disabled, and the same test on
    the chosen core at min_checks and at N checks decides the slot's other
    two verdicts.  `admits` decides every test from the core's running sums
    of C^chk and C^chk / T at each level, so each verdict is the
    left-to-right bound's, bit for bit.  Returns each task's core (-1 from
    an unplaceable task on) and, per level, whether each slot fits there;
    at "zero" that is whether it was placed, and an unplaced slot fits at
    no level.
    """
    slots, width = period.shape
    cores = np.arange(min(num_cores, width))  # the least-loaded rule fills cores in index order
    held, load = np.zeros((2, len(CHECK_LEVELS), slots, cores.size))
    members = np.zeros((slots, cores.size))
    core = np.full((slots, width), -1)
    fits = np.ones((len(CHECK_LEVELS), slots), dtype=bool)
    here = np.arange(slots)
    no_checks = np.zeros(slots, dtype=np.int64)
    for rank in range(width):
        live = fits[0] & (count > rank)
        if not live.any():
            break
        checked = wcet[:, rank] + np.stack(
            (no_checks, min_checks[:, rank], commands[:, rank])) * overhead[:, rank]

        def exact(level, s, q):
            above = np.flatnonzero(core[s, :rank] == q)
            k = (0, min_checks[s, above], commands[s, above])[level]
            return response_bound(int(checked[level, s]), int(period[s, rank]),
                                  period[s, above].tolist(),
                                  (wcet[s, above] + k * overhead[s, above]).tolist())

        c = checked[:, :, None].astype(float)
        t = period[:, rank, None].astype(float)
        ok = admits(c, t, held, load, members, exact, live[:, None])
        best = np.where(ok[0], load[0], np.inf).argmin(axis=1)
        fits &= ok[:, here, best] | ~live
        live &= fits[0]
        core[:, rank] = np.where(live, best, -1)
        # Adding 0.0 to the other cores' sums leaves them as they are.
        chosen = (cores == best[:, None]) & live[:, None]
        held += chosen * c
        load += chosen * (c / t)
        members += chosen
    fits[1:] &= fits[0]
    return core, dict(zip(CHECK_LEVELS, fits))


@dataclass(frozen=True)
class DrawBatch:
    """Drawn tasksets, one per slot, as (slots x tasks) arrays in each slot's
    rate-monotonic order, highest priority first; padding follows a slot's
    `count` tasks.  `index` is each task's draw index, which names it.  The
    deadlines are the periods.  In `tasks.core`, padding and every task from
    the first one that fit on no core on read -1; such a slot is not
    `placed`.  `fits[level]` tells, per slot, whether every task meets its
    deadline with each task at that check level (see `_place`)."""

    num_cores: int
    count: np.ndarray
    index: np.ndarray
    tasks: TaskArrays
    fits: dict[str, np.ndarray]

    @property
    def slots(self) -> int:
        return len(self.count)

    @property
    def placed(self) -> np.ndarray:
        """Whether each slot fits on a partition: its verdict at zero checks."""
        return self.fits["zero"]

    def taskset(self, slot: int) -> Taskset | None:
        """The slot's Taskset, None when it fits on no partition: tasks in
        id order, equal command weights."""
        if not self.placed[slot]:
            return None
        m = int(self.count[slot])
        width = len(str(m - 1))
        t = self.tasks
        fields = (self.index, t.core, t.period, t.wcet, t.overhead, t.commands, t.min_checks)
        weights: dict[int, tuple[float, ...]] = {}
        tasks = []
        partition: dict[TaskId, int] = {}
        priority: dict[TaskId, int] = {}
        rows = zip(*(a[slot, :m].tolist() for a in fields))
        for rank, (i, core, period, wcet, overhead, n_cmd, min_checks) in enumerate(rows):
            tid = f"t{i:0{width}d}"
            if n_cmd not in weights:
                weights[n_cmd] = (1.0,) * n_cmd
            tasks.append(Task(id=tid, wcet=wcet, period=period, deadline=period,
                              num_commands=n_cmd, min_checks=min_checks,
                              weights=weights[n_cmd], check_overhead=overhead))
            partition[tid] = core
            priority[tid] = rank
        tasks.sort(key=lambda task: task.id)  # zero-padded draw indices: the draw order
        platform = Platform(num_cores=self.num_cores, partition=partition, priority=priority)
        return Taskset(tasks=tuple(tasks), platform=platform)

    def tasksets(self) -> list[Taskset | None]:
        """Every slot's `taskset`, in slot order."""
        return [self.taskset(slot) for slot in range(self.slots)]


def _shape(spec: WorkloadSpec) -> WorkloadSpec:
    """The spec with the fields a slot draws by itself cleared."""
    return replace(spec, utilization_bucket=0, scenario="", n_fixed=None, seed=0)


def draw_batch(specs: Sequence[WorkloadSpec], rngs: Iterable[np.random.Generator]) -> DrawBatch:
    """One draw with no retry per slot: slot i from specs[i] and the i-th generator.

    The specs may differ in bucket, scenario and n_fixed only; ValueError
    otherwise or on an invalid spec.  Sweep experiments count unplaceable
    draws as unschedulable tasksets instead of redrawing, so the
    acceptance-ratio denominator stays the number of generated tasksets.
    """
    params = {}
    for spec in specs:
        if spec not in params:
            spec.check()
            n_range = SCENARIO_COMMANDS[spec.scenario] if spec.n_fixed is None else None
            params[spec] = (*spec.task_count_range(), *spec.utilization_range(), n_range,
                            spec.n_fixed)
    if len({_shape(spec) for spec in params}) > 1:
        raise ValueError("a batch's specs may differ in bucket, scenario and n_fixed only")
    base = specs[0]
    width = max(p[1] for p in params.values())
    slots = len(specs)
    count = np.zeros(slots, dtype=np.int64)
    total = np.zeros(slots)
    draws = np.zeros((slots, 3 * width - 2))
    log_lo, log_hi = math.log(base.period_min_us), math.log(base.period_max_us)
    logs = np.full((slots, width), log_lo)
    commands = np.zeros((slots, width), dtype=np.int64)
    drawn = 0
    for slot, (spec, rng) in enumerate(zip(specs, rngs)):
        tasks_min, tasks_max, u_lo, u_hi, n_range, n_fixed = params[spec]
        m = int(rng.integers(tasks_min, tasks_max + 1))
        count[slot] = m
        total[slot] = rng.uniform(u_lo, u_hi)
        if m > 1:
            rng.random(out=draws[slot, : 3 * m - 2])
        logs[slot, :m] = rng.uniform(log_lo, log_hi, size=m)
        # One batched draw gives the values and the generator state of m
        # scalar draws: PCG64 serves both from the same buffered 32-bit stream.
        commands[slot, :m] = n_fixed if n_range is None else rng.integers(
            n_range[0], n_range[1] + 1, size=m)
        drawn += 1
    if drawn != slots:
        raise ValueError(f"{slots} specs but {drawn} generators")

    periods = _periods(logs, base.period_min_us, base.period_max_us, out=logs)
    del logs
    utils = _stafford_rows(count, total, draws)
    del draws
    # Rate-monotonic priorities: shorter period first, ties by draw index
    # (a stable sort); padding sorts last.  Arrays are updated in place.
    real = np.arange(width) < count[:, None]
    order = np.argsort(np.where(real, periods, np.inf), axis=1, kind="stable")
    period = np.take_along_axis(periods, order, axis=1)
    wcet = np.take_along_axis(utils, order, axis=1)
    del periods, utils
    np.multiply(wcet, period, out=wcet)
    np.maximum(np.rint(wcet, out=wcet), 1.0, out=wcet)
    fixed_overhead = OVERHEAD_PRESETS_US.get(base.overhead_preset)  # None: a share of wcet
    if fixed_overhead is None:
        overhead = np.rint(base.overhead_fraction * wcet)
        overhead = np.maximum(overhead, 1.0, out=overhead).astype(np.int64)
    else:
        overhead = np.full(wcet.shape, fixed_overhead, dtype=np.int64)
    commands = np.take_along_axis(commands, order, axis=1)
    min_checks = np.ceil(base.min_checks_fraction * commands).astype(np.int64)
    period, wcet = period.astype(np.int64), wcet.astype(np.int64)
    core, fits = _place(period, wcet, overhead, commands, min_checks, count, base.num_cores)
    tasks = TaskArrays(core, period, wcet, overhead, commands, min_checks)
    return DrawBatch(base.num_cores, count, order, tasks, fits)


def draw_batches(specs: Sequence[WorkloadSpec],
                 rngs: Iterable[np.random.Generator]) -> Iterator[DrawBatch]:
    """`draw_batch` over consecutive runs of slots, as few as MAX_BATCH
    allows and of even sizes; each generator is taken from `rngs` only when
    its run is drawn."""
    rngs = iter(rngs)
    runs = -(-len(specs) // MAX_BATCH)
    for run in range(runs):
        lo, hi = len(specs) * run // runs, len(specs) * (run + 1) // runs
        yield draw_batch(specs[lo:hi], itertools.islice(rngs, hi - lo))


def gen_tasksets(
    spec: WorkloadSpec,
    rngs: Sequence[np.random.Generator],
    retry_budget: int = RETRY_BUDGET,
) -> list[Taskset | None]:
    """One taskset per generator, None where retry_budget draws all failed.

    Placement admits tasks by the vanilla response bound, so anything
    returned is schedulable with checking disabled.  The slots whose draw
    fits on no core are redrawn together, each from its own generator, in
    up to retry_budget rounds.
    """
    out: list[Taskset | None] = [None] * len(rngs)
    pending = list(range(len(rngs)))
    for _ in range(retry_budget):
        if not pending:
            break
        drawn = (ts for batch in map(DrawBatch.tasksets, draw_batches(
            [spec] * len(pending), (rngs[i] for i in pending))) for ts in batch)
        for i, taskset in zip(pending, drawn):
            out[i] = taskset
        pending = [i for i in pending if out[i] is None]
    return out


# numpy's SeedSequence hash: a pool of four 32-bit words, the entropy mixed
# in with the A constants, the state drawn out with the B constants.  A
# PCG64 seeds itself from generate_state(4, np.uint64).
_POOL_WORDS = 4
_PCG64_WORDS = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF


def _entropy_words(path: Iterable[int]) -> list[int]:
    """The uint32 entropy words SeedSequence makes of a path of ints: each
    int's little-endian 32-bit words, 0 as one word; ValueError on a
    negative int."""
    words = []
    for value in map(operator.index, path):
        if value < 0:
            raise ValueError(f"seed path entries must be non-negative, got {value}")
        words.append(value & _MASK32)
        while value := value >> 32:
            words.append(value & _MASK32)
    return words


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """`SeedSequence(row).generate_state(4, np.uint64)` for each row of a
    (rows x w) uint32 entropy array, w >= 4.  Shorter entropy is
    padded with zero words: SeedSequence mixes 0 into the pool's free words.
    The hash constants run through the same sequence for every row, so each
    step is one uint32 array operation, which wraps as SeedSequence's
    uint32_t arithmetic does."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ h
        h = h * _MULT_A & _MASK32
        value *= h
        return value ^ (value >> 16)

    def mix(x, y):
        value = x * _MIX_L - y * _MIX_R
        return value ^ (value >> 16)

    pool = [hashmix(entropy[:, i]) for i in range(_POOL_WORDS)]
    for src in range(_POOL_WORDS):
        for dst in range(_POOL_WORDS):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_WORDS, entropy.shape[1]):
        for dst in range(_POOL_WORDS):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    h = _INIT_B
    state = np.empty((len(entropy), 2 * _PCG64_WORDS), dtype="<u4")
    for i in range(2 * _PCG64_WORDS):
        value = pool[i % _POOL_WORDS] ^ h
        h = h * _MULT_B & _MASK32
        value *= h
        state[:, i] = value ^ (value >> 16)
    return state.view("<u8").astype(np.uint64)


class _SeedState:
    """A seed sequence whose one answer is known: the state a PCG64 asks of
    it.  `taskset_rngs` registers it as numpy's ISeedSequence, so that
    importing this module leaves numpy.random unloaded."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _PCG64_WORDS or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError("holds the 4 uint64 words of one PCG64 seed only")
        return self.state


def taskset_rngs(paths: Iterable[Iterable[int]]) -> Iterator[np.random.Generator]:
    """One generator per (seed, ...) path, each in the state
    `Generator(PCG64(SeedSequence(path)))` starts in.  The paths are taken
    MAX_BATCH at a time and each chunk's seed states are hashed together,
    one array pass per entropy word count; a generator is built only when
    it is taken.  ValueError on a negative path entry."""
    np.random.bit_generator.ISeedSequence.register(_SeedState)  # a no-op once registered
    paths = iter(paths)
    while chunk := [_entropy_words(path) for path in itertools.islice(paths, MAX_BATCH)]:
        groups: dict[int, list[int]] = {}
        for row, words in enumerate(chunk):
            groups.setdefault(max(len(words), _POOL_WORDS), []).append(row)
        state = np.empty((len(chunk), _PCG64_WORDS), dtype=np.uint64)
        for width, rows in groups.items():
            entropy = np.array([chunk[row] + [0] * (width - len(chunk[row])) for row in rows],
                               dtype=np.uint32)
            state[rows] = _seed_states(entropy)
        for row in state:
            yield np.random.Generator(np.random.PCG64(_SeedState(row)))
