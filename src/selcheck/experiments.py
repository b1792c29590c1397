"""Parameter sweeps over utilization buckets: coverage, delay tradeoff, acceptance.

Every sweep is deterministic end to end: the taskset at (figure, scenario,
bucket, index) derives its generator from the sweep seed through that path,
so reruns and parallel runs produce byte-identical CSV.
"""

from __future__ import annotations

import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

from . import game as game_mod
from .model import Taskset, assignment_at
from .planner import CheckPlan, Infeasible, TaskPlan, assign_check_budgets
from .schedulability import is_schedulable
from .simulator import AttackSpec, acceptance_ratio, run_detection_experiment
from .workload import NUM_BUCKETS, WorkloadSpec, draw_taskset, taskset_rng

SCENARIOS = ("medium", "high")

# fig 8 schemes, in CSV row order.
ACCEPTANCE_METRICS = ("unsecured", "scate", "fine-grain")

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

    def row(self, bin_: str, scenario: str, metric: str) -> SweepRow:
        for r in self.rows:
            if (r.bin, r.scenario, r.metric) == (bin_, scenario, metric):
                return r
        raise KeyError((bin_, scenario, metric))


def _cell_tasksets(
    base: WorkloadSpec, fig: int, scenario_idx: int, bucket: int, count: int, scenario: str,
    n_fixed: int | None = None,
) -> list[tuple[Taskset | None, int]]:
    """Generate one bucket's batch; each entry carries a seed for follow-on simulation."""
    spec = replace(base, scenario=scenario, utilization_bucket=bucket, n_fixed=n_fixed)
    out = []
    for index in range(count):
        rng = taskset_rng(base.seed, fig, scenario_idx, bucket, index)
        ts = draw_taskset(spec, rng)
        out.append((ts, int(rng.integers(0, 2**62))))
    return out


def _coverage_cell(args) -> tuple[int, float]:
    base, scenario_idx, bucket, count = args
    scenario = SCENARIOS[scenario_idx]
    feasible = 0
    cr_sum = 0.0
    for ts, _ in _cell_tasksets(base, 6, scenario_idx, bucket, count, scenario):
        if ts is None:
            continue
        budgets = assign_check_budgets(ts)
        if isinstance(budgets, Infeasible):
            continue
        pairs = [(budgets[t.id], t.num_commands) for t in ts.tasks if t.num_commands > 0]
        feasible += 1
        cr_sum += sum(k / n for k, n in pairs) / len(pairs)
    return feasible, cr_sum


def _acceptance_cell(args) -> dict[str, float]:
    base, scenario_idx, bucket, count = args
    scenario = SCENARIOS[scenario_idx]
    # None entries fit on no partition: unschedulable under every scheme.
    batch = [ts for ts, _ in _cell_tasksets(base, 8, scenario_idx, bucket, count, scenario)]
    return {scheme: acceptance_ratio(batch, scheme) for scheme in ACCEPTANCE_METRICS}


def _tradeoff_cell(args) -> list[tuple[float, bool, float]]:
    base, bucket, count, trials, n_fixed, big_m, epsilon = args
    records = []
    # Generated workloads share weights, so distinct (weights, k) games are
    # few; cache their solved distributions across the whole cell.
    games: dict[tuple, tuple] = {}
    for ts, sim_seed in _cell_tasksets(base, 7, 2, bucket, count, "medium", n_fixed=n_fixed):
        if ts is None:
            continue
        budgets = assign_check_budgets(ts)
        if isinstance(budgets, Infeasible):
            continue
        victims = [t for t in ts.tasks if t.num_commands > 0]
        cr = sum(budgets[t.id] / t.num_commands for t in victims) / len(victims)
        fine_grain = is_schedulable(ts, assignment_at(ts, "full"))

        # Every task takes a turn as the victim; the taskset's delay is the
        # mean over victims of their simulated mean detection delay.
        per_victim = max(1, trials // len(victims))
        delays = []
        for i, victim in enumerate(victims):
            k = budgets[victim.id]
            if k == victim.num_commands:
                delays.append(1.0)
                continue
            key = (victim.weights, k)
            if key not in games:
                instance = game_mod.build_game(victim, k, big_m)
                solution = game_mod.solve_game(instance, epsilon)
                games[key] = (instance.designer_strategies, solution.probabilities)
            strategies, probabilities = games[key]
            entry = TaskPlan(
                task_id=victim.id,
                num_commands=victim.num_commands,
                k_star=k,
                strategies=strategies,
                probabilities=probabilities,
            )
            plan = CheckPlan(feasible=True, tasks={victim.id: entry})
            attack = AttackSpec(victim=victim.id, commands="random", trigger=0, mode="persistent")
            result = run_detection_experiment(plan, attack, trials=per_victim, seed=sim_seed + i)
            delays.append(result.mean_delay)
        records.append((cr, fine_grain, sum(delays) / len(delays)))
    return records


def _run_cells(worker, cells, jobs: int):
    if jobs <= 1:
        return [worker(c) for c in cells]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, cells))


def sweep_coverage(
    base: WorkloadSpec, tasksets_per_bucket: int = 50, jobs: int = 1
) -> SweepResult:
    """Mean coverage ratio of feasible tasksets per bucket and scenario."""
    cells = [
        (base, si, bucket, tasksets_per_bucket)
        for si in range(len(SCENARIOS))
        for bucket in range(NUM_BUCKETS)
    ]
    results = _run_cells(_coverage_cell, cells, jobs)
    rows = []
    for (_, si, bucket, _), (feasible, cr_sum) in zip(cells, results):
        value = cr_sum / feasible if feasible else 0.0
        rows.append(
            SweepRow(
                bin=str(bucket),
                scenario=SCENARIOS[si],
                metric="coverage_ratio",
                value=value,
                samples=feasible,
                seed=base.seed,
            )
        )
    return SweepResult(rows=tuple(rows))


def sweep_acceptance(
    base: WorkloadSpec, tasksets_per_bucket: int = 50, jobs: int = 1
) -> SweepResult:
    """Acceptance ratio per bucket for the unsecured, fine-grain and scate schemes."""
    cells = [
        (base, si, bucket, tasksets_per_bucket)
        for si in range(len(SCENARIOS))
        for bucket in range(NUM_BUCKETS)
    ]
    results = _run_cells(_acceptance_cell, cells, jobs)
    rows = []
    for (_, si, bucket, _), ratios in zip(cells, results):
        for metric in ACCEPTANCE_METRICS:
            rows.append(
                SweepRow(
                    bin=str(bucket),
                    scenario=SCENARIOS[si],
                    metric=metric,
                    value=ratios[metric],
                    samples=tasksets_per_bucket,
                    seed=base.seed,
                )
            )
    return SweepResult(rows=tuple(rows))


def sweep_detection_tradeoff(
    base: WorkloadSpec,
    n_fixed: int = 5,
    tasksets_per_bucket: int = 50,
    trials: int = 1000,
    jobs: int = 1,
    big_m: float = game_mod.DEFAULT_BIG_M,
    epsilon: float = game_mod.DEFAULT_EPSILON,
) -> SweepResult:
    """Schedulability gain over fine-grain and mean detection delay, binned by
    achieved coverage ratio.  Only bins that received samples are reported."""
    cells = [
        (base, bucket, tasksets_per_bucket, trials, n_fixed, big_m, epsilon)
        for bucket in range(NUM_BUCKETS)
    ]
    results = _run_cells(_tradeoff_cell, cells, jobs)
    bins: dict[int, list[tuple[float, bool, float]]] = {}
    for records in results:
        for cr, fine_grain, mean_delay in records:
            b = min(int((cr - CR_BIN_EDGES[0]) / 0.1), len(CR_BIN_EDGES) - 2)
            b = max(b, 0)
            bins.setdefault(b, []).append((cr, fine_grain, mean_delay))
    scenario = f"n{n_fixed}"
    rows = []
    for b in sorted(bins):
        records = bins[b]
        gain = sum(1 for _, fg, _ in records if not fg) / len(records)
        delay = sum(d for _, _, d in records) / len(records)
        label = f"{CR_BIN_EDGES[b]:.1f}"
        rows.append(SweepRow(label, scenario, "sched_gain", gain, len(records), base.seed))
        rows.append(SweepRow(label, scenario, "mean_delay_jobs", delay, len(records), base.seed))
    return SweepResult(rows=tuple(rows))
