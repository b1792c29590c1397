import numpy as np
import pytest

from selcheck.model import Platform, Task, Taskset
from selcheck.workload import SCENARIO_COMMANDS, WorkloadSpec, draw_taskset, taskset_rngs


def make_task(tid="t0", wcet=2, period=10, deadline=None, n=3, n_min=1,
              weights=None, overhead=1):
    return Task(
        id=tid,
        wcet=wcet,
        period=period,
        deadline=period if deadline is None else deadline,
        num_commands=n,
        min_checks=n_min,
        weights=tuple(weights) if weights is not None else (1.0,) * n,
        check_overhead=overhead,
    )


def make_taskset(tasks, num_cores=1, cores=None, priorities=None):
    """Taskset with explicit or index-derived partition/priorities."""
    cores = cores or {t.id: 0 for t in tasks}
    priorities = priorities or {t.id: i for i, t in enumerate(tasks)}
    return Taskset(
        tasks=tuple(tasks),
        platform=Platform(num_cores=num_cores, partition=dict(cores), priority=dict(priorities)),
    )


def task_by_id(taskset, tid):
    """The task of `taskset` whose id is `tid`."""
    return next(t for t in taskset.tasks if t.id == tid)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# Both scenarios, 1 and 4 cores and every overhead source, over every bucket.
DRAW_SPECS = [
    WorkloadSpec(num_cores=cores, utilization_bucket=bucket, scenario=scenario,
                 overhead_preset=preset, seed=5)
    for scenario in SCENARIO_COMMANDS
    for cores in (1, 4)
    for preset in (None, "linux-optee", "freertos")
    for bucket in range(10)
]


def drawn_tasksets(per_spec=3):
    """per_spec draws for each of DRAW_SPECS; None marks an unplaceable draw."""
    specs = [spec for spec in DRAW_SPECS for _ in range(per_spec)]
    paths = [(spec.seed, spec_idx, index)
             for spec_idx, spec in enumerate(DRAW_SPECS) for index in range(per_spec)]
    return [draw_taskset(spec, rng) for spec, rng in zip(specs, taskset_rngs(paths))]
