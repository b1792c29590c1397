import pytest

from conftest import make_task, make_taskset, task_by_id

from selcheck.model import assignment_at
from selcheck.schedulability import analyze, is_schedulable, report_csv, tee_wcet


def entry(report, task_id):
    """The report's TaskTiming for task_id."""
    return next(e for e in report.entries if e.task_id == task_id)


def checked_bound(ts, task_id, assignment):
    return entry(analyze(ts, assignment), task_id).response_time_checked


def two_task_core():
    """High-priority (C=1, C^o=1, T=4) above low-priority (C=2, C^o=1, D=T=10)."""
    hi = make_task(tid="hi", wcet=1, period=4, n=2, n_min=0, overhead=1)
    lo = make_task(tid="lo", wcet=2, period=10, n=3, n_min=0, overhead=1)
    return make_taskset([hi, lo], cores={"hi": 0, "lo": 0}, priorities={"hi": 0, "lo": 1})


def test_tee_wcet_values():
    t = make_task(wcet=10, n=5, overhead=3)
    assert tee_wcet(t, 0) == 10
    assert tee_wcet(t, 4) == 22
    assert tee_wcet(make_task(wcet=1, n=5, overhead=0), 5) == 1


def test_tee_wcet_rejects_out_of_range_k():
    t = make_task(wcet=10, n=3)
    with pytest.raises(ValueError):
        tee_wcet(t, 4)
    with pytest.raises(ValueError):
        tee_wcet(t, -1)


def test_sole_task_bound_has_no_interference():
    ts = make_taskset([make_task(wcet=2, period=10, n=3, overhead=1)])
    assert checked_bound(ts, "t0", {"t0": 2}) == 4.0


def test_two_task_bound_matches_hand_evaluation():
    ts = two_task_core()
    # 4 + (1 + 10/4) * 2 = 11
    assert checked_bound(ts, "lo", {"hi": 1, "lo": 2}) == pytest.approx(11.0)


def test_zero_checks_reduce_to_vanilla():
    ts = two_task_core()
    zero = assignment_at(ts, "zero")
    assert zero == {"hi": 0, "lo": 0}
    assert checked_bound(ts, "lo", zero) == pytest.approx(5.5)
    assert checked_bound(ts, "hi", zero) == pytest.approx(1.0)


def test_overhead_identity_and_miss_condition():
    ts = two_task_core()
    lo = task_by_id(ts, "lo")
    assignment = {"hi": 1, "lo": 2}
    o = entry(analyze(ts, assignment), "lo").overhead
    assert o == pytest.approx(11.0 - 5.5)
    assert entry(analyze(ts, {"hi": 0, "lo": 0}), "lo").overhead == 0.0
    # deadline missed iff O > D - R
    vanilla = checked_bound(ts, "lo", assignment_at(ts, "zero"))
    assert (o > lo.deadline - vanilla) == (checked_bound(ts, "lo", assignment) > lo.deadline)


def test_overhead_identity_on_random_inputs(rng):
    for _ in range(100):
        n_tasks = int(rng.integers(1, 6))
        tasks = []
        for i in range(n_tasks):
            period = int(rng.integers(5, 1000))
            tasks.append(
                make_task(
                    tid=f"t{i}",
                    wcet=int(rng.integers(1, max(2, period // 2))),
                    period=period,
                    n=int(rng.integers(0, 6)),
                    n_min=0,
                    overhead=int(rng.integers(0, 5)),
                )
            )
        ts = make_taskset(tasks, cores={t.id: 0 for t in tasks},
                          priorities={t.id: i for i, t in enumerate(tasks)})
        assignment = {t.id: int(rng.integers(0, t.num_commands + 1)) for t in tasks}
        report = analyze(ts, assignment)
        for t in tasks:
            r_tee = entry(report, t.id).response_time_checked
            r = checked_bound(ts, t.id, assignment_at(ts, "zero"))
            assert entry(report, t.id).response_time == r
            o = entry(report, t.id).overhead
            assert abs(o - (r_tee - r)) < 1e-9
            assert r_tee >= r


def test_monotone_in_every_tasks_k(rng):
    ts = two_task_core()
    for _ in range(50):
        a = {"hi": int(rng.integers(0, 3)), "lo": int(rng.integers(0, 4))}
        bumped = dict(a)
        key = "hi" if rng.random() < 0.5 else "lo"
        if bumped[key] < task_by_id(ts, key).num_commands:
            bumped[key] += 1
        assert checked_bound(ts, "lo", bumped) >= checked_bound(ts, "lo", a)


def test_cross_core_independence():
    a = make_task(tid="a", wcet=2, period=10, n=2, overhead=1)
    b = make_task(tid="b", wcet=9, period=10, n=2, overhead=3)
    ts = make_taskset([a, b], num_cores=2, cores={"a": 0, "b": 1},
                      priorities={"a": 0, "b": 0})
    for kb in (0, 1, 2):
        assert checked_bound(ts, "a", {"a": 1, "b": kb}) == 3.0


def test_is_schedulable_cases():
    empty = make_taskset([], cores={}, priorities={})
    assert is_schedulable(empty, {})
    ts = two_task_core()
    assert not is_schedulable(ts, {"hi": 1, "lo": 2})  # R = 11 > D = 10
    assert is_schedulable(ts, {"hi": 0, "lo": 0})      # R = 5.5 <= 10


def test_incomplete_assignment_rejected():
    ts = two_task_core()
    # A missing task, then lo (N = 3) at k = N + 1 and at k = -1.
    for assignment in ({"hi": 0}, {"hi": 0, "lo": 4}, {"hi": 0, "lo": -1}):
        for check in (is_schedulable, analyze):
            with pytest.raises(ValueError):
                check(ts, assignment)


def test_report_csv_format():
    ts = two_task_core()
    report = analyze(ts, {"hi": 1, "lo": 2})
    text = report_csv(report)
    lines = text.strip().splitlines()
    assert lines[0] == "task,R,R_TEE,O,deadline,schedulable"
    assert len(lines) == 3
    assert not all(e.schedulable for e in report.entries)
    lo = entry(report, "lo")
    assert lo.response_time_checked == pytest.approx(11.0)
    assert lo.schedulable is False
