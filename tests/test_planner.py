import hashlib
import json
import math

import pytest

from conftest import make_task, make_taskset, task_by_id
from oracles import (PartitionError, balanced_partition_by_response_bound,
                     response_bounds_by_rank, same_core_by_rank)

from selcheck.model import assignment_at
from selcheck.planner import (
    CheckPlan,
    Infeasible,
    assign_check_budgets,
    load_plan,
    max_feasible_k,
    plan,
    plan_from_dict,
    plan_to_dict,
    TaskPlan,
)
from selcheck.schedulability import TIME_TOL, is_schedulable
from selcheck.workload import NUM_BUCKETS, WorkloadSpec, draw_batch, gen_tasksets, taskset_rngs


def test_max_feasible_k_upper_boundary():
    ts = make_taskset([make_task(wcet=1, period=1000, n=4, n_min=1, overhead=1)])
    assert max_feasible_k(ts.tasks[0], ts, assignment_at(ts, "min")) == 4


def test_max_feasible_k_single_task_arithmetic():
    # R = 10 + 5k <= 40  =>  k = 6
    ts = make_taskset([make_task(wcet=10, period=40, n=7, n_min=1, overhead=5)])
    assert max_feasible_k(ts.tasks[0], ts, assignment_at(ts, "min")) == 6


def test_max_feasible_k_requires_feasible_floor():
    ts = make_taskset([make_task(wcet=30, period=40, n=7, n_min=7, overhead=5)])
    with pytest.raises(ValueError):
        max_feasible_k(ts.tasks[0], ts, assignment_at(ts, "min"))


def _linear_scan(task, taskset, fixed):
    """Brute-force reference for max_feasible_k: try every k in order."""
    best = None
    assignment = dict(fixed)
    affected = [task, *same_core_by_rank(taskset, task, higher=False)]
    for k in range(task.min_checks, task.num_commands + 1):
        assignment[task.id] = k
        bounds = response_bounds_by_rank(taskset, affected, assignment)
        if all(bounds[t.id] <= t.deadline + TIME_TOL for t in affected):
            best = k
    return best


def test_max_feasible_k_equals_linear_scan_on_generated_tasksets():
    checked = 0
    for idx, rng in enumerate(taskset_rngs((42, 5, idx) for idx in range(20))):
        spec = WorkloadSpec(utilization_bucket=idx % 7, scenario="medium", seed=42)
        ts, = gen_tasksets(spec, [rng])
        assignment = assignment_at(ts, "min")
        if isinstance(assign_check_budgets(ts), Infeasible):
            continue
        fixed = assignment_at(ts, "min")
        for task in ts.priority_ordered():
            got = max_feasible_k(task, ts, fixed)
            assert got == _linear_scan(task, ts, fixed)
            fixed[task.id] = got
            checked += 1
    assert checked > 50


def _two_task_core(hi_wcet, hi_period, hi_overhead, n, lo_wcet, lo_deadline):
    """hi (k to choose, D = T) above lo (no commands, D = T)."""
    hi = make_task(tid="hi", wcet=hi_wcet, period=hi_period, n=n, n_min=0, overhead=hi_overhead)
    lo = make_task(tid="lo", wcet=lo_wcet, period=lo_deadline, n=0, n_min=0, overhead=0)
    return make_taskset([hi, lo], cores={"hi": 0, "lo": 0}, priorities={"hi": 0, "lo": 1})


@pytest.mark.parametrize(
    "taskset, expected",
    [
        # Own slack exactly 6 * C^o: R = 10 + 5k = 40 at k = 6.
        (make_taskset([make_task(wcet=10, period=40, n=7, n_min=1, overhead=5)]), 6),
        # Own slack 1 us short of 6 * C^o.
        (make_taskset([make_task(wcet=10, period=40, deadline=39, n=7, n_min=1, overhead=5)]), 5),
        # Lower-priority slack exactly 6 * a * C^o with a = 1 + 100/50 = 3.
        (_two_task_core(2, 50, 1, 10, 76, 100), 6),
        (_two_task_core(2, 50, 1, 10, 77, 100), 5),
        # a = 1 + 100/30 is not a dyadic fraction; R_lo = 22 + 13 (1 + k) = 100 at k = 5.
        (_two_task_core(3, 30, 3, 8, 22, 100), 5),
        (_two_task_core(3, 30, 3, 8, 23, 100), 4),
        # No check overhead: every command is checked.
        (make_taskset([make_task(wcet=10, period=40, n=7, n_min=1, overhead=0)]), 7),
    ],
)
def test_max_feasible_k_closed_form_boundaries(taskset, expected):
    task = task_by_id(taskset, "hi") if len(taskset.tasks) > 1 else taskset.tasks[0]
    fixed = assignment_at(taskset, "min")
    assert max_feasible_k(task, taskset, fixed) == _linear_scan(task, taskset, fixed) == expected


@pytest.mark.parametrize(
    "taskset, expected",
    [
        # At time scales near 100 s the float bound is not linear in k to
        # within TIME_TOL; lo's deadline is met exactly at k = 8 (closed form
        # alone: 7) and missed by roundoff at k = 4 (closed form alone: 4).
        (_two_task_core(10467, 130482, 1410, 8, 56870548, 68270754), 8),
        (_two_task_core(175405, 359183, 29618, 5, 73379287, 405202402), 3),
    ],
)
def test_max_feasible_k_confirm_step_corrects_roundoff(taskset, expected):
    hi, lo = task_by_id(taskset, "hi"), task_by_id(taskset, "lo")
    fixed = assignment_at(taskset, "min")
    slack = lo.deadline + TIME_TOL - response_bounds_by_rank(taskset, [lo], fixed)[lo.id]
    closed_form = math.floor(slack / ((1.0 + lo.deadline / hi.period) * hi.check_overhead))
    assert closed_form != expected  # the case exercises the confirm step
    assert max_feasible_k(hi, taskset, fixed) == _linear_scan(hi, taskset, fixed) == expected


@pytest.mark.parametrize("scenario", ["medium", "high"])
def test_budgets_infeasible_exactly_when_min_checks_unschedulable(scenario):
    outcomes = set()
    rngs = taskset_rngs((17, 2, bucket, index) for bucket in range(NUM_BUCKETS) for index in range(6))
    for bucket in range(NUM_BUCKETS):
        spec = WorkloadSpec(num_cores=4, utilization_bucket=bucket, scenario=scenario, seed=17)
        for index in range(6):
            ts = draw_batch([spec], [next(rngs)]).taskset(0)
            if ts is None:
                continue
            at_min = is_schedulable(ts, assignment_at(ts, "min"))
            budgets = assign_check_budgets(ts)
            assert isinstance(budgets, Infeasible) == (not at_min), (bucket, index)
            outcomes.add(at_min)
            if not at_min:
                continue
            assert is_schedulable(ts, budgets)
            for t in ts.tasks:
                if budgets[t.id] < t.num_commands:
                    assert not is_schedulable(ts, {**budgets, t.id: budgets[t.id] + 1})
    assert outcomes == {True, False}


# sha256 of small sweep and plan outputs, so that any change to the bound's
# arithmetic, the K* decisions or the acceptance counts shows here.
GOLDEN_SHA256 = {
    "fig6_coverage.csv": "7203de4f9e018c902c15cd52800c39f5398c5ff03496c8a41bf0d3becca51822",
    "fig7_tradeoff.csv": "441dd685c8c3ff2cfea3c1b1d9aeadf61656c33a499b6ce62cb86aa3f554e9ae",
    "fig8_acceptance.csv": "f468c6753d1d10f559c1d69791e07c5a26b2df4601e6a4ea150792c733621090",
    # The same fig 8 run under the fixed-overhead preset.
    "freertos/fig8_acceptance.csv": "ff126c2404d5f2e8654e81d129c959d07206276c576a97bad5bebe9f7e810db8",
    # fig 8 at a seed of three 32-bit entropy words (2**64 + 1).
    "seed2**64+1/fig8_acceptance.csv":
        "21774c31a1af5155411f2e945eb8195c2f9c64d90758572f70dae3720291a062",
    "plan.json": "060074dccf0bb79ee661f871e429cf365c800bc46b45112539ab52a8014634d4",
    "report.csv": "2e47766b4676ac6db5fa89b394a8a0ea0ba31a4e6c8370222f65ff1e04be60fe",
}


def test_golden_sweep_and_plan_bytes(tmp_path):
    from selcheck.cli import main

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scenario": "medium", "num_cores": 4, "buckets": [5]}))
    for fig in ("6", "7", "8"):
        assert main(["sweep", "--fig", fig, "--seed", "3", "--tasksets-per-bucket", "4",
                     "--out", str(tmp_path)]) == 0
    assert main(["sweep", "--fig", "8", "--seed", "3", "--tasksets-per-bucket", "4",
                 "--preset", "freertos", "--out", str(tmp_path / "freertos")]) == 0
    assert main(["sweep", "--fig", "8", "--seed", str(2**64 + 1), "--tasksets-per-bucket", "4",
                 "--out", str(tmp_path / "seed2**64+1")]) == 0
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "batch"), "--seed", "11",
                 "--tasksets-per-bucket", "1"]) == 0
    assert main(["plan", "--taskset", str(tmp_path / "batch" / "taskset_medium_b5_0000.json"),
                 "--out", str(tmp_path / "plan.json"),
                 "--report-csv", str(tmp_path / "report.csv")]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256
    }
    assert digests == GOLDEN_SHA256


# sha256 and stderr summary of `simulate` on the golden plan.json above (its
# default victim, 1,000 trials, seed 0): a random command at low accuracy,
# a fixed set in one-shot mode, and a blind checker whose summary is empty.
GOLDEN_SIMULATE = {
    "random": (["--commands", "random", "--accuracy", "0.01"],
               "d235786a4a3c3af3f1ad133bd7b6c28b94f3ef8a12f493ea247fb43b3da572b2",
               "victim t07: 1000 of 1000 trials detected, mean delay 245.501 jobs, p99 1210\n"),
    "one-shot": (["--commands", "1,3", "--mode", "one-shot"],
                 "0eb0556fae5fc89aea87b62db5b259c30481a295b48a47d92fa86f1d440607f2",
                 "victim t07: 788 of 1000 trials detected, mean delay 1.000 jobs, p99 1\n"),
    "blind": (["--accuracy", "0"],
              "42c5888eaac0aef2f72f5eff8fe5e7f165c6164eb7e5bab1ccb4329cbe776c6a",
              "victim t07: 0 of 1000 trials detected\n"),
}


def test_golden_simulate_bytes(tmp_path, capsys):
    from selcheck.cli import main

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scenario": "medium", "num_cores": 4, "buckets": [5]}))
    assert main(["gen", "--spec", str(spec), "--out", str(tmp_path / "batch"), "--seed", "11",
                 "--tasksets-per-bucket", "1"]) == 0
    assert main(["plan", "--taskset", str(tmp_path / "batch" / "taskset_medium_b5_0000.json"),
                 "--out", str(tmp_path / "plan.json")]) == 0
    capsys.readouterr()
    for name, (options, digest, summary) in GOLDEN_SIMULATE.items():
        out = tmp_path / f"{name}.csv"
        assert main(["simulate", "--plan", str(tmp_path / "plan.json"), *options,
                     "--out", str(out)]) == 0
        assert (name, hashlib.sha256(out.read_bytes()).hexdigest()) == (name, digest)
        assert capsys.readouterr().err == summary


def test_plan_all_full_when_underloaded():
    a = make_task(tid="a", wcet=1, period=100, n=3, n_min=1, overhead=1)
    b = make_task(tid="b", wcet=1, period=200, n=4, n_min=1, overhead=1)
    ts = make_taskset([a, b], cores={"a": 0, "b": 0}, priorities={"a": 0, "b": 1})
    result = plan(ts)
    assert isinstance(result, CheckPlan)
    assert result.feasible
    assert all(e.k_star == e.num_commands for e in result.tasks.values())
    assert all(e.probabilities == () for e in result.tasks.values())


def test_plan_infeasible_when_min_checks_overload():
    ts = make_taskset([make_task(wcet=10, period=20, n=4, n_min=4, overhead=10)])
    result = plan(ts)
    assert isinstance(result, Infeasible)
    assert "minimum QoS requirements" in result.reason


def test_plan_feasible_output_is_schedulable():
    hi = make_task(tid="hi", wcet=10, period=50, n=4, n_min=1, overhead=2)
    lo = make_task(tid="lo", wcet=10, period=100, n=5, n_min=1, overhead=2)
    ts = make_taskset([hi, lo], cores={"hi": 0, "lo": 0}, priorities={"hi": 0, "lo": 1})
    result = plan(ts)
    assert isinstance(result, CheckPlan)
    assignment = {e.task_id: e.k_star for e in result.tasks.values()}
    assert is_schedulable(ts, assignment)


def test_plan_matches_exhaustive_lexicographic_search():
    """Two tasks on one core where the high-priority budget squeezes the low."""
    hi = make_task(tid="hi", wcet=10, period=60, n=6, n_min=1, overhead=4)
    lo = make_task(tid="lo", wcet=20, period=240, n=6, n_min=1, overhead=10)
    ts = make_taskset([hi, lo], cores={"hi": 0, "lo": 0}, priorities={"hi": 0, "lo": 1})
    budgets = assign_check_budgets(ts)
    assert not isinstance(budgets, Infeasible)

    feasible_pairs = [
        (k_hi, k_lo)
        for k_hi in range(hi.min_checks, hi.num_commands + 1)
        for k_lo in range(lo.min_checks, lo.num_commands + 1)
        if is_schedulable(ts, {"hi": k_hi, "lo": k_lo})
    ]
    expected = max(feasible_pairs)  # lexicographic by priority order
    assert (budgets["hi"], budgets["lo"]) == expected
    assert budgets["hi"] < hi.num_commands or budgets["lo"] < lo.num_commands


def test_tightening_min_checks_never_raises_budgets():
    hi = make_task(tid="hi", wcet=10, period=60, n=6, n_min=1, overhead=4)
    lo = make_task(tid="lo", wcet=20, period=240, n=6, n_min=1, overhead=10)
    ts = make_taskset([hi, lo], cores={"hi": 0, "lo": 0}, priorities={"hi": 0, "lo": 1})
    base = assign_check_budgets(ts)
    tight_lo = make_task(tid="lo", wcet=20, period=240, n=6, n_min=4, overhead=10)
    ts2 = make_taskset([hi, tight_lo], cores={"hi": 0, "lo": 0}, priorities={"hi": 0, "lo": 1})
    tighter = assign_check_budgets(ts2)
    if not isinstance(tighter, Infeasible):
        assert tighter["hi"] <= base["hi"]


def test_plan_zero_budget_task_gets_empty_strategy():
    # One check already misses the deadline, but min_checks = 0 keeps it legal.
    t = make_task(wcet=10, period=15, n=3, n_min=0, overhead=10)
    ts = make_taskset([t])
    result = plan(ts)
    assert isinstance(result, CheckPlan)
    entry = result.tasks["t0"]
    assert entry.k_star == 0
    assert entry.strategies == ((),)
    assert entry.probabilities == (1.0,)


def test_plan_solves_games_for_squeezed_tasks():
    # R = 10 + 5k <= 25 forces K* = 3 of 4
    ts = make_taskset([make_task(wcet=10, period=25, n=4, n_min=1, overhead=5)])
    result = plan(ts)
    entry = result.tasks["t0"]
    assert entry.k_star == 3
    assert len(entry.strategies) == 4  # C(4,3)
    assert sum(entry.probabilities) == pytest.approx(1.0, abs=1e-6)
    assert entry.attacker_strategy is not None



def test_plan_solves_a_game_shared_by_tasks_once(monkeypatch):
    from selcheck import game

    # One task per core, each with R = 2 + 3k <= 10: K* = 2 of 5 for all three.
    tasks = [make_task(tid=tid, wcet=2, period=10, n=5, n_min=1, overhead=3) for tid in "abc"]
    ts = make_taskset(tasks, num_cores=3, cores={"a": 0, "b": 1, "c": 2})
    solves = []
    real_solve = game.solve_game

    def counting_solve(instance, epsilon):
        solves.append((instance.weights, instance.budget))
        return real_solve(instance, epsilon)

    monkeypatch.setattr(game, "solve_game", counting_solve)
    memo = {}
    result = plan(ts, games=memo)
    assert solves == [((1.0,) * 5, 2)]
    assert list(memo) == [((1.0,) * 5, 2, game.DEFAULT_BIG_M, game.DEFAULT_EPSILON)]
    for t in tasks:
        instance = game.build_game_from_weights(t.weights, 2)
        alone = real_solve(instance, game.DEFAULT_EPSILON)
        assert result.tasks[t.id] == TaskPlan(
            task_id=t.id, num_commands=5, k_star=2, strategies=instance.designer_strategies,
            probabilities=alone.probabilities, attacker_strategy=alone.attacker_strategy,
            objective=alone.objective,
        )
    # A caller-owned memo carries the solved game to the next call.
    assert plan(ts, games=memo) == result
    assert len(solves) == 1


def test_plan_round_trip(tmp_path):
    ts = make_taskset([make_task(wcet=10, period=25, n=4, n_min=1, overhead=5)])
    result = plan(ts)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan_to_dict(result), indent=2) + "\n")
    again = load_plan(path)
    assert again == result
    assert plan_from_dict(plan_to_dict(result)) == result


def test_full_plan_on_generated_multicore_taskset(tmp_path):
    from math import comb

    spec = WorkloadSpec(utilization_bucket=5, scenario="medium", seed=21)
    ts, = gen_tasksets(spec, list(taskset_rngs([(21, 0, 5, 0)])))
    result = plan(ts)
    assert isinstance(result, CheckPlan)
    assert set(result.tasks) == {t.id for t in ts.tasks}
    for entry in result.tasks.values():
        task = task_by_id(ts, entry.task_id)
        assert task.min_checks <= entry.k_star <= task.num_commands
        if entry.deterministic:
            assert entry.strategies == ()
        else:
            assert len(entry.strategies) == comb(entry.num_commands, entry.k_star)
            assert len(entry.probabilities) == len(entry.strategies)
            assert sum(entry.probabilities) == pytest.approx(1.0, abs=1e-6)
            assert min(entry.probabilities) > 0.0
    assignment = {e.task_id: e.k_star for e in result.tasks.values()}
    assert is_schedulable(ts, assignment)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan_to_dict(result), indent=2) + "\n")
    assert load_plan(path) == result


def test_balanced_partition_rejects_oversized_task():
    with pytest.raises(PartitionError):
        # Columns in priority order: one task with period (= deadline) 10 and wcet 12.
        balanced_partition_by_response_bound([10], [12], 4)
