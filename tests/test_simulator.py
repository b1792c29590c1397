import math
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DRAW_SPECS, make_task, make_taskset
from oracles import (catch_probability_by_enumeration, draw_columns_by_slot,
                     marginal_check_probability)

from selcheck import workload
from selcheck.game import build_game_from_weights, solve_game
from selcheck.experiments import (SCENARIOS, SCHEME_LEVELS, _acceptance_cells, _cell_draws,
                                  sweep_acceptance)
from selcheck.model import OVERHEAD_PRESETS_US, Task, Taskset, assignment_at
from selcheck.planner import CheckPlan, TaskPlan
from selcheck.simulator import (
    DEFAULT_MAX_JOBS,
    AttackSpec,
    catch_mass,
    coverage_ratio,
    detection_probability,
    mean_detected_delay,
    result_csv,
    run_detection_experiment,
)
from selcheck.schedulability import is_schedulable
from selcheck.workload import (
    SCENARIO_COMMANDS,
    WorkloadSpec,
    _place,
    draw_batch,
    taskset_rng,
    taskset_rngs,
)


def randomized_plan(n=4, k=2, weights=None):
    """CheckPlan for one task with a solved k-of-n game distribution."""
    game = build_game_from_weights(weights or (1.0,) * n, k)
    sol = solve_game(game)
    entry = TaskPlan(
        task_id="victim",
        num_commands=n,
        k_star=k,
        strategies=game.designer_strategies,
        probabilities=sol.probabilities,
    )
    return CheckPlan(feasible=True, tasks={"victim": entry}), game, sol


def full_plan(n=3):
    entry = TaskPlan(task_id="victim", num_commands=n, k_star=n)
    return CheckPlan(feasible=True, tasks={"victim": entry})


def test_full_checking_always_detects_in_one_job():
    result = run_detection_experiment(
        full_plan(), AttackSpec(victim="victim", commands=(2,)), trials=50, seed=5
    )
    assert result.delays == (1,) * 50
    assert result.undetected == 0
    assert result.mean_delay == 1.0
    assert result.p99_delay == 1


def test_compromising_everything_detected_immediately():
    plan_, _, _ = randomized_plan(4, 2)
    result = run_detection_experiment(
        plan_, AttackSpec(victim="victim", commands=(1, 2, 3, 4)), trials=50, seed=5
    )
    assert result.delays == (1,) * 50


def test_detection_delay_matches_geometric_mean():
    plan_, _, _ = randomized_plan(4, 2)
    marginal = catch_mass(plan_.tasks["victim"])[0]
    result = run_detection_experiment(
        plan_, AttackSpec(victim="victim", commands=(1,)), trials=4000, seed=7
    )
    assert result.mean_delay == pytest.approx(1.0 / marginal, rel=0.15)


def test_seed_determinism():
    plan_, _, _ = randomized_plan(4, 2)
    attack = AttackSpec(victim="victim", commands="random")
    a = run_detection_experiment(plan_, attack, trials=200, seed=3)
    b = run_detection_experiment(plan_, attack, trials=200, seed=3)
    assert a == b
    c = run_detection_experiment(plan_, attack, trials=200, seed=4)
    assert a != c


def test_one_shot_mode_records_undetected():
    plan_, _, _ = randomized_plan(4, 2)
    result = run_detection_experiment(
        plan_,
        AttackSpec(victim="victim", commands=(1,), mode="one-shot"),
        trials=2000,
        seed=11,
    )
    assert 0 < result.undetected < 2000  # hit probability is 1/2 per job
    assert result.mean_delay == 1.0  # detected one-shot attacks are caught in the attacked job
    frac = result.undetected / 2000
    assert frac == pytest.approx(0.5, abs=0.05)


def test_zero_accuracy_never_detects_one_shot():
    plan_, _, _ = randomized_plan(4, 2)
    result = run_detection_experiment(
        plan_,
        AttackSpec(victim="victim", commands=(1,), mode="one-shot"),
        trials=100,
        seed=2,
        detection_accuracy=0.0,
    )
    assert result.undetected == 100


def test_imperfect_detection_stretches_delay():
    plan_, game, sol = randomized_plan(4, 2)
    attack = AttackSpec(victim="victim", commands=(1,))
    sharp = run_detection_experiment(plan_, attack, trials=3000, seed=9)
    fuzzy = run_detection_experiment(plan_, attack, trials=3000, seed=9, detection_accuracy=0.5)
    # per-job success halves: 0.25 instead of 0.5
    assert fuzzy.mean_delay == pytest.approx(4.0, rel=0.15)
    assert fuzzy.mean_delay > sharp.mean_delay


def test_attack_spec_validation():
    plan_, _, _ = randomized_plan(4, 2)
    with pytest.raises(ValueError):
        run_detection_experiment(plan_, AttackSpec(victim="victim", commands=()), trials=10)
    with pytest.raises(ValueError):
        run_detection_experiment(plan_, AttackSpec(victim="victim", commands=(9,)), trials=10)
    with pytest.raises(ValueError, match="not distinct"):
        run_detection_experiment(plan_, AttackSpec(victim="victim", commands=(1, 1)), trials=10)
    with pytest.raises(ValueError):
        run_detection_experiment(plan_, AttackSpec(victim="victim", commands=",,"), trials=10)
    with pytest.raises(ValueError):
        run_detection_experiment(plan_, AttackSpec(victim="victim", mode="sometimes"), trials=10)
    with pytest.raises(KeyError):
        run_detection_experiment(plan_, AttackSpec(victim="ghost"), trials=10)


@pytest.mark.parametrize("accuracy", [1.0, 0.5, 0.01, 0.0])
def test_single_command_catch_probability_is_accuracy_times_marginal(accuracy):
    plan_, _, _ = randomized_plan(4, 2)
    entry = plan_.tasks["victim"]
    marginals = catch_mass(entry)
    for c, marginal in enumerate(marginals, start=1):
        p = detection_probability(entry, (c,), accuracy)
        assert p == pytest.approx(accuracy * marginal, abs=1e-12)
    assert min(marginals) > 0  # positivity floor keeps every command reachable


@st.composite
def plan_entries(draw):
    """A plan entry on N <= 7 commands at any K: deterministic at K = N,
    else every K-subset with a normalised random probability."""
    n = draw(st.integers(1, 7))
    k = draw(st.integers(0, n))
    if k == n:
        return TaskPlan(task_id="victim", num_commands=n, k_star=n)
    strategies = tuple(combinations(range(1, n + 1), k))
    raw = draw(st.lists(st.floats(0.0, 1.0), min_size=len(strategies), max_size=len(strategies))
               .filter(lambda r: sum(r) > 0.0))
    return TaskPlan(task_id="victim", num_commands=n, k_star=k, strategies=strategies,
                    probabilities=tuple(r / sum(raw) for r in raw))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(entry=plan_entries(), accuracy=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0))
def test_catch_mass_is_the_per_command_detection_probability_bit_for_bit(entry, accuracy):
    total = sum(entry.distribution()[1])
    table = [m / total for m in catch_mass(entry, accuracy)]
    assert table == [detection_probability(entry, (c,), accuracy)
                     for c in range(1, entry.num_commands + 1)]
    assert catch_mass(entry, 1.0) == marginal_check_probability(entry)


@pytest.mark.parametrize(
    "weights, k, compromised",
    [
        ((1.0,) * 4, 2, (1, 3)),
        ((1.0,) * 5, 2, (2, 4, 5)),
        ((1.0, 2.0, 0.5, 1.5), 2, (1, 4)),  # weighted game: unequal marginals
        ((1.0, 2.0, 0.5, 1.5), 1, (2, 3, 4)),
    ],
)
@pytest.mark.parametrize("accuracy", [1.0, 0.7, 0.01])
def test_detection_probability_matches_enumeration(weights, k, compromised, accuracy):
    plan_, _, _ = randomized_plan(len(weights), k, weights)
    entry = plan_.tasks["victim"]
    exact = catch_probability_by_enumeration(
        entry.strategies, entry.probabilities, compromised, accuracy
    )
    assert detection_probability(entry, compromised, accuracy) == pytest.approx(
        float(exact), abs=1e-12
    )


@pytest.mark.parametrize("accuracy", [1.0, 0.3])
def test_deterministic_entry_catch_probability(accuracy):
    entry = full_plan(3).tasks["victim"]
    for compromised in [(2,), (1, 3), (1, 2, 3)]:
        exact = catch_probability_by_enumeration(((1, 2, 3),), (1.0,), compromised, accuracy)
        assert detection_probability(entry, compromised, accuracy) == pytest.approx(
            float(exact), abs=1e-12
        )
    assert detection_probability(entry, (1, 2), 1.0) == 1.0


@pytest.mark.parametrize(
    "strategies, probabilities",
    [
        (((1,), (2,)), (0.5, 0.4)),  # sums to 0.9
        (((1,), (2,)), (1.5, -0.5)),
        (((1,), (2,), (3,)), (0.5, 0.5)),  # one probability short
        (((1,), (2,)), (math.nan, 1.0)),  # NaN compares false with every bound
    ],
    ids=["sum-0.9", "negative", "length-mismatch", "nan"],
)
def test_malformed_plan_distribution_rejected(strategies, probabilities):
    entry = TaskPlan(task_id="victim", num_commands=3, k_star=1,
                     strategies=strategies, probabilities=probabilities)
    plan_ = CheckPlan(feasible=True, tasks={"victim": entry})
    with pytest.raises(ValueError):
        run_detection_experiment(
            plan_, AttackSpec(victim="victim", commands=(1,)), trials=10
        )


def test_never_checked_command_is_never_detected():
    entry = TaskPlan(task_id="victim", num_commands=3, k_star=1,
                     strategies=((2,), (3,)), probabilities=(0.5, 0.5))
    plan_ = CheckPlan(feasible=True, tasks={"victim": entry})
    result = run_detection_experiment(
        plan_, AttackSpec(victim="victim", commands=(1,)), trials=20, max_jobs=50
    )
    assert result.detected == (False,) * 20
    assert result.delays == (50,) * 20
    with pytest.raises(ValueError):
        result.mean_delay
    with pytest.raises(ValueError):
        run_detection_experiment(
            plan_, AttackSpec(victim="victim", commands=(2,)), trials=5, max_jobs=0
        )


def test_result_csv_layout():
    plan_, _, _ = randomized_plan(4, 2)
    result = run_detection_experiment(
        plan_, AttackSpec(victim="victim", commands=(1,)), trials=5, seed=1
    )
    lines = result_csv(result).strip().splitlines()
    assert lines[0] == "trial,delay_jobs,detected"
    assert len(lines) == 7
    assert lines[-1].startswith("summary,")


@pytest.mark.parametrize(
    "accuracy, max_jobs",
    [(1.0, DEFAULT_MAX_JOBS), (0.3, DEFAULT_MAX_JOBS), (0.3, 3)],
)
def test_mean_detected_delay_matches_simulation(accuracy, max_jobs):
    # Marginals 0.9, 0.7 and 0.4: the drawn command matters.
    entry = TaskPlan(task_id="victim", num_commands=3, k_star=2,
                     strategies=((1, 2), (1, 3), (2, 3)), probabilities=(0.6, 0.3, 0.1))
    plan_ = CheckPlan(feasible=True, tasks={"victim": entry})
    catch = [detection_probability(entry, (c,), accuracy) for c in range(1, 4)]
    attack = AttackSpec(victim="victim", commands="random", mode="persistent")
    result = run_detection_experiment(plan_, attack, trials=100_000, max_jobs=max_jobs, seed=17,
                                      detection_accuracy=accuracy)
    hits = np.array(result.delays)[np.array(result.detected)]
    stderr = hits.std(ddof=1) / math.sqrt(hits.size)
    assert abs(mean_detected_delay(catch, max_jobs) - result.mean_delay) <= 6 * stderr


@pytest.mark.parametrize("horizon", [1, 2, 3, 7])
def test_mean_detected_delay_equals_finite_sum(horizon):
    catch = (0.9, 0.35, 0.05, 0.0)
    expected = sum(d * p * (1 - p) ** (d - 1) for p in catch for d in range(1, horizon + 1))
    detected = sum(1 - (1 - p) ** horizon for p in catch)
    assert mean_detected_delay(catch, horizon) == pytest.approx(expected / detected, rel=1e-12)


def test_mean_detected_delay_edges():
    assert mean_detected_delay((1.0,) * 5, DEFAULT_MAX_JOBS) == 1.0
    assert mean_detected_delay((0.0, 1.0), 3) == 1.0
    assert mean_detected_delay((0.0, 0.5), 10) == mean_detected_delay((0.5,), 10)
    assert mean_detected_delay((0.5,), DEFAULT_MAX_JOBS) == pytest.approx(2.0, rel=1e-12)
    # Censored at one job the mean is exactly 1 (unclamped, 1 - 1 ulp).
    assert mean_detected_delay((0.5,), 1) == 1.0
    # A tiny p keeps its precision: uncensored, the mean is 1/p.
    assert mean_detected_delay((1e-9,), 10**12) == pytest.approx(1e9, rel=1e-6)
    with pytest.raises(ValueError):
        mean_detected_delay((0.0, 0.0), 10)
    with pytest.raises(ValueError):
        mean_detected_delay((), 10)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(p=st.floats(0.0, 1.0, exclude_min=True), horizon=st.integers(1, 10**5))
def test_mean_detected_delay_lies_in_one_to_horizon(p, horizon):
    assert 1.0 <= mean_detected_delay([p], horizon) <= horizon


def test_coverage_ratio_bounds_and_values():
    entries = {
        "a": TaskPlan(task_id="a", num_commands=4, k_star=4),
        "b": TaskPlan(task_id="b", num_commands=5, k_star=5),
    }
    assert coverage_ratio(CheckPlan(feasible=True, tasks=entries).coverage_pairs()) == 1.0

    table = [(2, 4), (2, 5), (2, 4), (3, 7)]
    entries = {
        str(i): TaskPlan(task_id=str(i), num_commands=n, k_star=k)
        for i, (k, n) in enumerate(table)
    }
    cr = coverage_ratio(CheckPlan(feasible=True, tasks=entries).coverage_pairs())
    assert cr == pytest.approx((0.5 + 0.4 + 0.5 + 3 / 7) / 4)
    assert cr == pytest.approx(0.4571, abs=1e-4)

    single = {"a": TaskPlan(task_id="a", num_commands=5, k_star=1)}
    assert coverage_ratio(CheckPlan(feasible=True, tasks=single).coverage_pairs()) == pytest.approx(0.2)


def test_coverage_ratio_ignores_commandless_tasks():
    entries = {
        "a": TaskPlan(task_id="a", num_commands=4, k_star=2),
        "quiet": TaskPlan(task_id="quiet", num_commands=0, k_star=0),
    }
    assert coverage_ratio(CheckPlan(feasible=True, tasks=entries).coverage_pairs()) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        coverage_ratio(CheckPlan(feasible=True, tasks={}).coverage_pairs())


def _walk(tasksets):
    """Each one-core taskset's verdict per scheme from the placement walk;
    the tasks are given in priority order with deadlines equal to their
    periods."""
    width = max(len(ts.tasks) for ts in tasksets)
    rows = np.ones((5, len(tasksets), width), dtype=np.int64)
    for row, ts in enumerate(tasksets):
        assert ts.platform.num_cores == 1 and ts.priority_ordered() == ts.tasks
        for rank, t in enumerate(ts.tasks):
            assert t.deadline == t.period
            rows[:, row, rank] = t.period, t.wcet, t.check_overhead, t.num_commands, t.min_checks
    _, fits = _place(*rows, np.array([len(ts.tasks) for ts in tasksets]), 1)
    return [{scheme: bool(fits[level][row]) for scheme, level in SCHEME_LEVELS.items()}
            for row in range(len(tasksets))]


def _ratios(verdicts):
    """Fraction of the verdicts that fit, per scheme."""
    return {scheme: sum(v[scheme] for v in verdicts) / len(verdicts) for scheme in SCHEME_LEVELS}


def _underloaded_batch():
    out = []
    for i in range(4):
        t = make_task(tid=f"t{i}", wcet=1, period=1000, n=3, n_min=1, overhead=1)
        out.append(make_taskset([t]))
    return out


def test_acceptance_ratio_underloaded_batch():
    assert _ratios(_walk(_underloaded_batch())) == dict.fromkeys(SCHEME_LEVELS, 1.0)


def test_acceptance_ratio_scheme_ordering():
    # checking all N commands alone busts the deadline, minimum load fits
    squeezed = make_taskset([make_task(wcet=10, period=25, n=4, n_min=1, overhead=5)])
    verdicts = _walk(_underloaded_batch() + [squeezed])
    for v in verdicts:
        assert v["unsecured"] >= v["scate"] >= v["fine-grain"]
    ratios = _ratios(verdicts)
    assert ratios["unsecured"] == ratios["scate"] == 1.0
    assert ratios["fine-grain"] == pytest.approx(0.8)


def test_acceptance_ratio_finegrain_collapse():
    # N * C^o alone exceeds all slack: fine-grain 0.0, unsecured 1.0
    batch = [make_taskset([make_task(wcet=10, period=30, n=4, n_min=0, overhead=10)])
             for _ in range(3)]
    assert _ratios(_walk(batch)) == {"unsecured": 1.0, "scate": 1.0, "fine-grain": 0.0}


def test_acceptance_ratio_counts_unplaceable_as_unschedulable():
    # "fails-at-zero" fits on no core, so it is unschedulable under every scheme.
    verdicts = _walk(_underloaded_batch() + [HAND_BUILT["fails-at-zero"]])
    assert verdicts[-1] == dict.fromkeys(SCHEME_LEVELS, False)
    assert _ratios(verdicts)["unsecured"] == pytest.approx(0.8)
    unplaced = 0
    for batch in _drawn_batches():
        for level in ("min", "full"):
            assert not (batch.fits[level] & ~batch.placed).any()
        unplaced += int((~batch.placed).sum())
    assert unplaced > 0


def _three_tests(ts):
    """One is_schedulable call per scheme, at its uniform check level; a
    None taskset (an unplaceable draw) fits under none."""
    if ts is None:
        return dict.fromkeys(SCHEME_LEVELS, False)
    return {scheme: is_schedulable(ts, assignment_at(ts, level))
            for scheme, level in SCHEME_LEVELS.items()}


def _drawn_batches():
    """The draws of `drawn_tasksets`, one batch per (cores, preset) shape."""
    shapes = {}
    for spec_idx, spec in enumerate(DRAW_SPECS):
        shape = shapes.setdefault((spec.num_cores, spec.overhead_preset), ([], []))
        for index in range(3):
            shape[0].append(spec)
            shape[1].append((spec.seed, spec_idx, index))
    return [draw_batch(specs, taskset_rngs(paths)) for specs, paths in shapes.values()]


def test_one_pass_judge_equals_three_tests_on_drawn_tasksets():
    seen = set()
    for batch in _drawn_batches():
        for slot in np.flatnonzero(batch.placed):
            verdict = {scheme: bool(batch.fits[level][slot])
                       for scheme, level in SCHEME_LEVELS.items()}
            assert verdict == _three_tests(batch.taskset(slot))
            seen.add((verdict["unsecured"], verdict["scate"], verdict["fine-grain"]))
    # Placed draws always fit unsecured; every other outcome the monotone order
    # allows shows up, including a taskset that fits unsecured but not at
    # min_checks.
    assert seen == {(True, True, True), (True, True, False), (True, False, False)}


HAND_BUILT = {
    "fails-at-zero": make_taskset([make_task(tid="a", wcet=10, period=25, overhead=1),
                                   make_task(tid="b", wcet=20, period=25, overhead=1)]),
    "fits-only-unchecked": make_taskset([make_task(wcet=20, period=25, n=4, n_min=2,
                                                   overhead=4)]),
    "free-checks-fit": make_taskset([make_task(wcet=10, period=25, n=4, n_min=2, overhead=0)]),
    "free-checks-miss": make_taskset([make_task(tid="a", wcet=10, period=25, overhead=0),
                                      make_task(tid="b", wcet=20, period=25, overhead=0)]),
    "no-commands": make_taskset([make_task(wcet=5, period=25, n=0, n_min=0, overhead=3)]),
}


@pytest.mark.parametrize("case", range(3))
def test_judge_answers_as_the_left_to_right_bound_on_rounding_edges(case):
    from test_workload import ROUNDING_EDGES

    wcet, deadline, periods, wcets, fits = ROUNDING_EDGES[case]
    above = [make_task(tid=f"h{i}", wcet=c, period=t, n=3, n_min=0, overhead=0)
             for i, (t, c) in enumerate(zip(periods, wcets))]
    ts = make_taskset([*above, make_task(tid="edge", wcet=wcet, period=deadline, n=3, n_min=0,
                                         overhead=0)])
    assert is_schedulable(ts, assignment_at(ts, "zero")) == fits
    assert _walk([ts]) == [_three_tests(ts)] == [dict.fromkeys(SCHEME_LEVELS, fits)]
    # The same edge at each scheme's level: every wcet less that level's k
    # checks of one unit each, so the levels below fit and those above miss.
    for edge_scheme, level in SCHEME_LEVELS.items():
        k = {"zero": 0, "min": 1, "full": 3}[level]
        shifted = make_taskset([replace(t, wcet=t.wcet - k, min_checks=1, check_overhead=1)
                                for t in ts.tasks])
        verdict = _walk([shifted])[0]
        assert verdict == _three_tests(shifted)
        assert verdict[edge_scheme] == fits
        assert list(verdict.values()) == sorted(verdict.values(), reverse=True)


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_one_pass_judge_equals_three_tests_on_hand_built_tasksets(name):
    ts = HAND_BUILT[name]
    assert _walk([ts]) == [_three_tests(ts)]


def test_acceptance_ratios_count_each_scheme_over_the_batch(monkeypatch):
    """Fig 8's count over a group of cells of unequal sizes, drawn in
    batches whose edges fall inside a cell, is the count of is_schedulable
    verdicts on each cell's Tasksets."""
    monkeypatch.setattr(workload, "MAX_BATCH", 4)
    base = WorkloadSpec(seed=3)
    cells = [(base, 0, 2, 3), (base, 1, 9, 5), (base, 0, 8, 2)]
    for cell, rows in zip(cells, _acceptance_cells(cells)):
        _, si, bucket, count = cell
        verdicts = [_three_tests(ts) for ts, _ in
                    _cell_draws(base, 8, si, bucket, count, SCENARIOS[si])]
        assert rows == [(scheme, fits, count) for scheme, fits in _ratios(verdicts).items()]


# DRAW_SPECS (both scenarios, 1 and 4 cores, the overhead fraction and each
# preset, every bucket), then a fixed command count and another overhead
# fraction on 4 cores, then one period for every task, so every priority is
# decided by the id tie-break.
SPLIT_SPECS = DRAW_SPECS + [
    replace(spec, n_fixed=7, overhead_fraction=0.25, seed=6) for spec in DRAW_SPECS
    if spec.num_cores == 4 and spec.overhead_preset is None
] + [
    replace(spec, period_min_us=50_000, period_max_us=50_000, seed=7) for spec in DRAW_SPECS
    if spec.num_cores == 4 and spec.overhead_preset is None and spec.utilization_bucket < 5
]


def _column_rows(columns):
    """task id -> (wcet, period, deadline, overhead, commands, min_checks, core, priority)."""
    rows = {}
    for core, col in enumerate(columns):
        assert list(col.priorities) == sorted(col.priorities)  # highest priority first
        for tid, rank, deadline, period, wcet, overhead, n, n_min in zip(*col):
            assert tid not in rows
            rows[tid] = (wcet, period, deadline, overhead, n, n_min, core, rank)
    return rows


def _follows_the_spec(ts, spec):
    """The drawn values follow the spec's rules: rate-monotonic ranks, the
    command count range, the min_checks share and the overhead source."""
    ids = [t.id for t in ts.tasks]
    assert ids == [f"t{i:0{len(str(len(ids) - 1))}d}" for i in range(len(ids))]
    by_rate = sorted(ts.tasks, key=lambda t: (t.period, t.id))
    assert [ts.platform.priority[t.id] for t in by_rate] == list(range(len(ids)))
    lo, hi = (spec.n_fixed,) * 2 if spec.n_fixed else SCENARIO_COMMANDS[spec.scenario]
    fixed = OVERHEAD_PRESETS_US.get(spec.overhead_preset)
    for t in ts.tasks:
        assert lo <= t.num_commands <= hi and t.deadline == t.period
        assert t.min_checks == math.ceil(spec.min_checks_fraction * t.num_commands)
        assert t.check_overhead == (max(1, round(spec.overhead_fraction * t.wcet))
                                    if fixed is None else fixed)


def test_drawn_columns_match_the_drawn_taskset_and_its_judge():
    from test_workload import core_columns_by_core

    seen = set()
    placed = unplaceable = 0
    for spec_idx, spec in enumerate(SPLIT_SPECS):
        for index in range(3):
            batch = draw_batch([spec], [taskset_rng(spec.seed, spec_idx, index)])
            columns = draw_columns_by_slot(spec, taskset_rng(spec.seed, spec_idx, index))
            ts = batch.taskset(0)
            assert core_columns_by_core(ts, spec.num_cores) == columns, (spec, index)
            if ts is None:
                unplaceable += 1
                continue
            placed += 1
            _follows_the_spec(ts, spec)
            part, prio = ts.platform.partition, ts.platform.priority
            assert _column_rows(columns) == {
                t.id: (t.wcet, t.period, t.deadline, t.check_overhead, t.num_commands,
                       t.min_checks, part[t.id], prio[t.id])
                for t in ts.tasks
            }
            verdict = {scheme: bool(batch.fits[level][0])
                       for scheme, level in SCHEME_LEVELS.items()}
            assert verdict == _three_tests(ts)
            seen.add((verdict["unsecured"], verdict["scate"], verdict["fine-grain"]))
    assert placed > len(SPLIT_SPECS) and unplaceable > 0
    assert seen == {(True, True, True), (True, True, False), (True, False, False)}


@pytest.mark.parametrize("preset", [None, "freertos"])
def test_sweep_acceptance_builds_no_task(monkeypatch, preset):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} built during the fig 8 sweep")

    monkeypatch.setattr(Task, "__init__", refuse)
    monkeypatch.setattr(Taskset, "__init__", refuse)
    result = sweep_acceptance(WorkloadSpec(seed=2, overhead_preset=preset), tasksets_per_bucket=2)
    assert len(result.rows) == 60
