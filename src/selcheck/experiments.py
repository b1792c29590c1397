"""Parameter sweeps over utilization buckets: coverage, delay tradeoff, acceptance.

Every sweep is deterministic end to end: the taskset at (figure, scenario,
bucket, index) derives its generator from the sweep seed through that path,
so reruns and parallel runs produce byte-identical CSV.

The tradeoff sweep (fig 7) plans each taskset with `planner.plan`,
sharing one solved-game memo across a bucket cell, and simulates nothing:
jobs check i.i.d. subsets, so a victim's mean detection delay has a closed
form, `simulator.mean_detected_delay`, over its plan entry's marginals.
"""

from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from operator import attrgetter
from typing import Iterator

import numpy as np

from . import game as game_mod
from .model import Taskset
from .planner import Infeasible, assign_check_budgets, plan
from .simulator import DEFAULT_MAX_JOBS, catch_mass, coverage_ratio, mean_detected_delay
from .workload import NUM_BUCKETS, WorkloadSpec, draw_batches, taskset_rngs

SCENARIOS = ("medium", "high")

# fig 8 schemes, in CSV row order, each with the uniform check level it must
# fit at.  scate needs only min_checks: the planner finds a K* for every
# taskset schedulable there.
SCHEME_LEVELS = {"unsecured": "zero", "scate": "min", "fine-grain": "full"}

# Coverage-ratio bins for the tradeoff sweep: width 0.1 over [0.2, 1.0].
CR_BIN_EDGES = [0.2 + 0.1 * i for i in range(9)]


@dataclass(frozen=True)
class SweepRow:
    bin: str          # utilization bucket index or coverage-ratio bin lower edge
    scenario: str
    metric: str
    value: float
    samples: int
    seed: int


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("bin,scenario,metric,value,samples,seed\n")
        for r in self.rows:
            out.write(f"{r.bin},{r.scenario},{r.metric},{r.value!r},{r.samples},{r.seed}\n")
        return out.getvalue()


def _cell_draws(
    base: WorkloadSpec, fig: int, scenario_idx: int, bucket: int, count: int, scenario: str,
    n_fixed: int | None = None,
) -> Iterator[tuple[Taskset | None, bool]]:
    """One bucket's draws, drawn in batches: each draw's Taskset, None when
    it fits on no partition, and whether it fits with every command checked."""
    spec = replace(base, scenario=scenario, utilization_bucket=bucket, n_fixed=n_fixed)
    rngs = taskset_rngs((base.seed, fig, scenario_idx, bucket, index) for index in range(count))
    for batch in draw_batches([spec] * count, rngs):
        yield from zip(batch.tasksets(), batch.fits["full"].tolist())


def _coverage_cell(args) -> list[tuple[str, float, int]]:
    base, scenario_idx, bucket, count = args
    scenario = SCENARIOS[scenario_idx]
    feasible = 0
    cr_sum = 0.0
    for ts, _ in _cell_draws(base, 6, scenario_idx, bucket, count, scenario):
        if ts is None or isinstance(budgets := assign_check_budgets(ts), Infeasible):
            continue
        pairs = [(budgets[t.id], t.num_commands) for t in ts.tasks if t.num_commands > 0]
        feasible += 1
        cr_sum += coverage_ratio(pairs)
    return [("coverage_ratio", cr_sum / feasible if feasible else 0.0, feasible)]


def _acceptance_cells(cells) -> list[list[tuple[str, float, int]]]:
    """Every draw of a group of cells counted by the verdicts its placement
    gives, in batches that run across cells, with no Task built.  A draw
    that fits on no partition is unschedulable under every scheme."""
    specs, paths = [], []
    for base, scenario_idx, bucket, count in cells:
        specs += [replace(base, scenario=SCENARIOS[scenario_idx], utilization_bucket=bucket)] * count
        paths += [(base.seed, 8, scenario_idx, bucket, index) for index in range(count)]
    # map keeps each batch's verdicts and drops the batch before the next is drawn.
    judged = list(map(attrgetter("fits"), draw_batches(specs, taskset_rngs(paths))))
    owner = np.repeat(np.arange(len(cells)), [cell[3] for cell in cells])
    ok = {scheme: np.bincount(owner[np.concatenate([fits[level] for fits in judged])],
                              minlength=len(cells)).tolist()
          for scheme, level in SCHEME_LEVELS.items()}
    return [[(scheme, ok[scheme][c] / count, count) for scheme in SCHEME_LEVELS]
            for c, (_, _, _, count) in enumerate(cells)]


def _coverage_bin(pairs: list[tuple[int, int]]) -> int:
    """The bin of the exact coverage ratio of (K*, N) pairs; full coverage joins
    the top bin.  Float arithmetic would put a coverage on an edge (0.6, say)
    one bin low."""
    exact = sum(Fraction(k, n) for k, n in pairs) / len(pairs)
    return min(max(math.floor((exact - Fraction(1, 5)) * 10), 0), len(CR_BIN_EDGES) - 2)


def _tradeoff_cell(args) -> list[tuple[int, bool, float | None]]:
    base, bucket, count, n_fixed, big_m, epsilon = args
    records = []
    # Generated workloads share weights, so distinct (weights, K*) games are
    # few; one memo for the whole cell solves each of them once.
    games: dict = {}
    # A planned taskset fits at min_checks, so its fit at full checks is
    # its fine-grain answer.
    for ts, fits_full in _cell_draws(base, 7, 2, bucket, count, "medium", n_fixed):
        if ts is None or isinstance(result := plan(ts, big_m, epsilon, games), Infeasible):
            continue
        # Every task takes a turn as the victim; the taskset's delay is the
        # mean over victims of their mean detection delay.  A K* = 0 victim
        # detects nothing and is left out.
        delays = [
            mean_detected_delay(catch_mass(e), DEFAULT_MAX_JOBS)
            for e in (result.tasks[t.id] for t in ts.tasks) if e.k_star > 0
        ]
        records.append((_coverage_bin(result.coverage_pairs()), fits_full,
                        sum(delays) / len(delays) if delays else None))
    return records


def _each_cell(cell_worker, cells) -> list:
    return [cell_worker(cell) for cell in cells]


def _run_cells(worker, cells, jobs: int) -> list:
    """worker(group) maps a contiguous group of cells to their results; the
    cells are split into one group per worker process, sizes differing by
    at most one, and a single job runs them all as one group."""
    groups = min(jobs, len(cells))
    if groups <= 1:
        return worker(cells)
    from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs

    edges = [len(cells) * g // groups for g in range(groups + 1)]
    with ProcessPoolExecutor(max_workers=groups) as pool:
        parts = pool.map(worker, [cells[lo:hi] for lo, hi in zip(edges, edges[1:])])
        return [result for part in parts for result in part]


def _scenario_sweep(worker, base: WorkloadSpec, count: int, jobs: int) -> SweepResult:
    """One cell per (scenario, bucket); each yields (metric, value, samples) rows."""
    cells = [
        (base, si, bucket, count) for si in range(len(SCENARIOS)) for bucket in range(NUM_BUCKETS)
    ]
    rows = []
    for (_, si, bucket, _), metrics in zip(cells, _run_cells(worker, cells, jobs)):
        rows += [SweepRow(str(bucket), SCENARIOS[si], *metric, base.seed) for metric in metrics]
    return SweepResult(rows=tuple(rows))


def sweep_coverage(
    base: WorkloadSpec, tasksets_per_bucket: int = 50, jobs: int = 1
) -> SweepResult:
    """Mean coverage ratio of feasible tasksets per bucket and scenario."""
    return _scenario_sweep(functools.partial(_each_cell, _coverage_cell), base,
                           tasksets_per_bucket, jobs)


def sweep_acceptance(
    base: WorkloadSpec, tasksets_per_bucket: int = 50, jobs: int = 1
) -> SweepResult:
    """Acceptance ratio per bucket for the unsecured, fine-grain and scate schemes."""
    return _scenario_sweep(_acceptance_cells, base, tasksets_per_bucket, jobs)


def sweep_detection_tradeoff(
    base: WorkloadSpec,
    n_fixed: int = 5,
    tasksets_per_bucket: int = 50,
    jobs: int = 1,
    big_m: float = game_mod.DEFAULT_BIG_M,
    epsilon: float = game_mod.DEFAULT_EPSILON,
) -> SweepResult:
    """Schedulability gain over fine-grain and exact mean detection delay,
    binned by achieved coverage ratio.  Only bins that received samples are
    reported; a bin's delay row counts only tasksets with a delay."""
    cells = [
        (base, bucket, tasksets_per_bucket, n_fixed, big_m, epsilon)
        for bucket in range(NUM_BUCKETS)
    ]
    results = _run_cells(functools.partial(_each_cell, _tradeoff_cell), cells, jobs)
    bins: dict[int, list[tuple[bool, float | None]]] = {}
    for records in results:
        for b, fine_grain, mean_delay in records:
            bins.setdefault(b, []).append((fine_grain, mean_delay))
    scenario = f"n{n_fixed}"
    rows = []
    for b in sorted(bins):
        records = bins[b]
        gain = sum(1 for fg, _ in records if not fg) / len(records)
        delays = [d for _, d in records if d is not None]
        label = f"{CR_BIN_EDGES[b]:.1f}"
        rows.append(SweepRow(label, scenario, "sched_gain", gain, len(records), base.seed))
        if delays:
            delay = sum(delays) / len(delays)
            rows.append(SweepRow(label, scenario, "mean_delay_jobs", delay, len(delays), base.seed))
    return SweepResult(rows=tuple(rows))
