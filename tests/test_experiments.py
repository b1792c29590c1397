import concurrent.futures

import pytest

from conftest import make_task, make_taskset

from selcheck import experiments
from selcheck.experiments import (
    sweep_acceptance,
    sweep_coverage,
    sweep_detection_tradeoff,
)
from selcheck.model import assignment_at
from selcheck.schedulability import is_schedulable
from selcheck.workload import WorkloadSpec

SMALL = 8  # tasksets per bucket for module-level sweeps


def _draws(*tasksets):
    """A stand-in for `experiments._cell_draws`: every cell draws these
    Tasksets, each with its verdict at full checks."""
    return lambda *args, **kwargs: [(ts, is_schedulable(ts, assignment_at(ts, "full")))
                                    for ts in tasksets]


@pytest.fixture(scope="module")
def coverage():
    return sweep_coverage(WorkloadSpec(seed=5), tasksets_per_bucket=SMALL)


@pytest.fixture(scope="module")
def acceptance():
    return sweep_acceptance(WorkloadSpec(seed=5), tasksets_per_bucket=SMALL)


@pytest.fixture(scope="module")
def tradeoff():
    return sweep_detection_tradeoff(WorkloadSpec(seed=5), tasksets_per_bucket=SMALL)


def test_coverage_row_grid(coverage):
    assert len(coverage.rows) == 10 * 2  # buckets x scenarios, one metric
    seen = {(r.bin, r.scenario) for r in coverage.rows}
    assert len(seen) == 20
    for r in coverage.rows:
        assert r.metric == "coverage_ratio"
        assert 0.0 <= r.value <= 1.0
        assert r.seed == 5


def test_coverage_decreases_with_utilization(coverage):
    for scenario in ("medium", "high"):
        values = [coverage.row(str(b), scenario, "coverage_ratio").value for b in range(10)]
        assert values[0] == 1.0
        populated = [v for v in values if v > 0.0]
        assert populated[-1] <= populated[0]


def test_acceptance_row_grid(acceptance):
    assert len(acceptance.rows) == 10 * 2 * 3
    for r in acceptance.rows:
        assert r.samples == SMALL
        assert 0.0 <= r.value <= 1.0


def test_acceptance_scheme_ordering_every_bucket(acceptance):
    for scenario in ("medium", "high"):
        for b in range(10):
            u = acceptance.row(str(b), scenario, "unsecured").value
            s = acceptance.row(str(b), scenario, "scate").value
            f = acceptance.row(str(b), scenario, "fine-grain").value
            assert u >= s >= f


def test_acceptance_boundary_buckets(acceptance):
    for scenario in ("medium", "high"):
        for metric in ("unsecured", "scate", "fine-grain"):
            assert acceptance.row("0", scenario, metric).value == 1.0
        assert acceptance.row("9", scenario, "fine-grain").value == 0.0


def test_tradeoff_rows_and_gain(tradeoff):
    assert tradeoff.rows
    bins = {r.bin for r in tradeoff.rows}
    for b in bins:
        gain = tradeoff.row(b, "n5", "sched_gain")
        delay = tradeoff.row(b, "n5", "mean_delay_jobs")
        assert gain.value >= 0.0
        assert delay.value >= 1.0
        assert gain.samples == delay.samples > 0


def test_tradeoff_delay_trend(tradeoff):
    rows = sorted(
        (float(r.bin), r.value) for r in tradeoff.rows if r.metric == "mean_delay_jobs"
    )
    # more coverage, faster detection: the top bin beats the bottom bin
    assert rows[-1][1] <= rows[0][1]


def test_sweeps_are_deterministic():
    spec = WorkloadSpec(seed=9)
    a = sweep_coverage(spec, tasksets_per_bucket=4).to_csv()
    b = sweep_coverage(spec, tasksets_per_bucket=4).to_csv()
    assert a == b
    c = sweep_acceptance(spec, tasksets_per_bucket=4).to_csv()
    d = sweep_acceptance(spec, tasksets_per_bucket=4).to_csv()
    assert c == d
    e = sweep_detection_tradeoff(spec, tasksets_per_bucket=3).to_csv()
    f = sweep_detection_tradeoff(spec, tasksets_per_bucket=3).to_csv()
    assert e == f


def test_parallel_jobs_match_sequential():
    spec = WorkloadSpec(seed=3)
    for sweep in (sweep_acceptance, sweep_detection_tradeoff):
        seq = sweep(spec, tasksets_per_bucket=4, jobs=1).to_csv()
        par = sweep(spec, tasksets_per_bucket=4, jobs=2).to_csv()
        assert seq == par


def _fig_bytes(tmp_path, fig, jobs):
    from selcheck.cli import main

    out = tmp_path / f"fig{fig}-jobs{jobs}"
    assert main(["sweep", "--fig", str(fig), "--seed", "4", "--tasksets-per-bucket", "3",
                 "--jobs", str(jobs), "--out", str(out)]) == 0
    return [path.read_bytes() for path in out.iterdir()]


def test_worker_groups_of_cells_give_the_sequential_bytes(tmp_path, monkeypatch):
    """Each worker takes one contiguous group of cells; any split gives the
    bytes of one group with every cell."""
    sequential = {fig: _fig_bytes(tmp_path, fig, 1) for fig in (6, 7, 8)}
    for fig in (6, 7, 8):  # real worker processes, groups of 6, 7 and 7 cells (3, 3, 4 for fig 7)
        assert _fig_bytes(tmp_path, fig, 3) == sequential[fig]

    workers, groups = [], []

    class InProcessPool:
        """Runs each group in this process and records the pool size and groups."""

        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, parts):
            parts = list(parts)
            # A cell's (scenario, bucket), or fig 7's (bucket, count): ascending in cell order.
            groups.append([[cell[1:3] for cell in part] for part in parts])
            return map(fn, parts)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    for jobs in (3, 10**6):
        for fig in (6, 7, 8):
            assert _fig_bytes(tmp_path, fig, jobs) == sequential[fig]
    sizes = [[len(part) for part in split] for split in groups]
    assert sizes == [[6, 7, 7], [3, 3, 4], [6, 7, 7], [1] * 20, [1] * 10, [1] * 20]
    assert workers == [len(split) for split in sizes]
    for split in groups:  # contiguous groups that cover every cell once, in order
        cells = [cell for part in split for cell in part]
        assert cells == sorted(set(cells))


def test_pool_gets_at_most_one_worker_per_cell(monkeypatch):
    sizes = []

    class RecordingPool:
        """Runs the cells in process and records the requested pool size."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, cells):
            return map(fn, cells)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    spec = WorkloadSpec(seed=3)
    assert sweep_acceptance(spec, tasksets_per_bucket=1, jobs=10**6) == sweep_acceptance(
        spec, tasksets_per_bucket=1
    )
    sweep_detection_tradeoff(spec, tasksets_per_bucket=1, jobs=3)
    assert sizes == [20, 3]  # 2 scenarios x 10 buckets, then 3 of fig 7's 10 cells


def test_tradeoff_leaves_out_victims_that_check_nothing():
    # min_checks = 0 lets K* reach 0 in the loaded buckets; such a victim
    # detects nothing, needs no game and adds no delay.
    result = sweep_detection_tradeoff(WorkloadSpec(seed=0, min_checks_fraction=0.0),
                                      tasksets_per_bucket=10)
    assert result.rows
    for r in result.rows:
        if r.metric == "mean_delay_jobs":
            assert r.value >= 1.0
            assert r.samples <= result.row(r.bin, r.scenario, "sched_gain").samples


def test_tradeoff_taskset_without_a_checking_victim_has_no_delay(monkeypatch):
    # One check already misses the deadline, so K* = 0 (coverage 0, bin 0.2);
    # the underloaded taskset checks everything (coverage 1, bin 0.9).
    blind = make_taskset([make_task(wcet=10, period=15, n=3, n_min=0, overhead=10)])
    full = make_taskset([make_task(wcet=1, period=1000, n=3, n_min=1, overhead=1)])
    monkeypatch.setattr(experiments, "_cell_draws", _draws(blind, full))
    result = sweep_detection_tradeoff(WorkloadSpec(seed=0), tasksets_per_bucket=1)
    assert [(r.bin, r.metric, r.value, r.samples) for r in result.rows] == [
        ("0.2", "sched_gain", 1.0, 10),
        ("0.9", "sched_gain", 0.0, 10),
        ("0.9", "mean_delay_jobs", 1.0, 10),
    ]


def test_tradeoff_bins_a_coverage_on_a_bin_edge_exactly(monkeypatch):
    # K* = 3 of 5 is a coverage of exactly 0.6, though (0.6 - 0.2) / 0.1
    # is 3.9999999999999996 in floats.
    edge = make_taskset([make_task(wcet=1, period=10, n=5, n_min=1, overhead=3)])
    monkeypatch.setattr(experiments, "_cell_draws", _draws(edge))
    result = sweep_detection_tradeoff(WorkloadSpec(seed=0), tasksets_per_bucket=1)
    assert [(r.bin, r.metric, r.samples) for r in result.rows] == [
        ("0.6", "sched_gain", 10),
        ("0.6", "mean_delay_jobs", 10),
    ]


def test_csv_header_and_shape(coverage):
    text = coverage.to_csv()
    lines = text.strip().splitlines()
    assert lines[0] == "bin,scenario,metric,value,samples,seed"
    assert len(lines) == 21


def test_tradeoff_cell_plans_through_one_memo_and_solves_each_game_once(monkeypatch):
    from selcheck import game
    from selcheck.game import DEFAULT_BIG_M, DEFAULT_EPSILON

    memos, game_keys, solves = [], [], []
    real_plan, real_solve = experiments.plan, game.solve_game

    def recording_plan(ts, big_m, epsilon, games):
        memos.append(games)
        result = real_plan(ts, big_m, epsilon, games)
        if not isinstance(result, experiments.Infeasible):
            game_keys.extend((t.weights, e.k_star) for t in ts.tasks
                             if 0 < (e := result.tasks[t.id]).k_star < t.num_commands)
        return result

    def counting_solve(instance, epsilon):
        solves.append((instance.weights, instance.budget))
        return real_solve(instance, epsilon)

    monkeypatch.setattr(experiments, "plan", recording_plan)
    monkeypatch.setattr(game, "solve_game", counting_solve)
    experiments._tradeoff_cell((WorkloadSpec(seed=0), 6, 10, 5, DEFAULT_BIG_M, DEFAULT_EPSILON))
    assert memos and all(m is memos[0] for m in memos)
    assert len(game_keys) > len(set(game_keys))  # the cell repeats games
    assert sorted(solves) == sorted(set(game_keys))
