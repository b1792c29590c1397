import typing

import numpy as np
import pytest
from conftest import make_task, make_taskset
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import same_core_by_rank

from selcheck.model import (
    OVERHEAD_PRESETS_US,
    Platform,
    Task,
    TaskArrays,
    Taskset,
    assignment_at,
    load_taskset,
    save_taskset,
    taskset_from_dict,
    taskset_to_dict,
    validate,
)
from selcheck.workload import NUM_BUCKETS, SCENARIO_COMMANDS, WorkloadSpec, draw_batch, taskset_rngs


def test_valid_taskset_has_no_violations():
    ts = make_taskset([make_task(wcet=2, period=10, n=3, n_min=1)])
    assert validate(ts) == []


def test_deadline_after_period_flagged():
    ts = make_taskset([make_task(period=10, deadline=12)])
    violations = validate(ts)
    assert any(v.field == "deadline" and "deadline > period" in v.message for v in violations)


def test_weight_length_mismatch_flagged():
    bad = Task(id="t0", wcet=2, period=10, deadline=10,
               num_commands=3, min_checks=1, weights=(1.0, 1.0), check_overhead=1)
    violations = validate(make_taskset([bad]))
    assert any(v.field == "weights" and "length mismatch" in v.message for v in violations)


def test_violations_carry_task_id_and_field():
    bad = make_task(tid="weird", wcet=0, period=10)
    ts = make_taskset([bad])
    violations = validate(ts)
    assert violations
    assert all(v.task_id == "weird" for v in violations)
    assert {v.field for v in violations} == {"wcet"}


def test_non_integer_time_fields_flagged():
    bad = Task(id="t0", wcet=2.5, period=10, deadline=10,
               num_commands=0, min_checks=0, weights=(), check_overhead=0)
    violations = validate(make_taskset([bad]))
    assert any(v.field == "wcet" and "integer" in v.message for v in violations)


def test_duplicate_ids_and_bad_partition_flagged():
    a = make_task(tid="x")
    b = make_task(tid="x")
    ts = make_taskset([a, b], cores={"x": 0}, priorities={"x": 0})
    fields = {v.field for v in validate(ts)}
    assert "id" in fields


def test_duplicate_priority_on_core_flagged():
    a, b = make_task(tid="a"), make_task(tid="b")
    ts = make_taskset([a, b], cores={"a": 0, "b": 0}, priorities={"a": 0, "b": 0})
    assert any(v.field == "priority" for v in validate(ts))


def test_task_arrays_type_hints_resolve():
    assert typing.get_type_hints(TaskArrays) == dict.fromkeys(TaskArrays._fields, np.ndarray)


def test_commandless_task_satisfies_invariants():
    ts = make_taskset([make_task(n=0, n_min=0, weights=())])
    assert validate(ts) == []


def test_serialization_round_trip(tmp_path):
    tasks = [
        make_task(tid="a", wcet=3, period=20, n=4, n_min=2, weights=(1.0, 2.0, 0.5, 1.5), overhead=2),
        make_task(tid="b", wcet=5, period=40, n=0, n_min=0, weights=(), overhead=0),
    ]
    ts = make_taskset(tasks, num_cores=2, cores={"a": 0, "b": 1}, priorities={"a": 0, "b": 1})
    path = tmp_path / "ts.json"
    save_taskset(ts, path)
    assert load_taskset(path) == ts


def test_file_format_field_names(tmp_path):
    ts = make_taskset([make_task(tid="a")])
    doc = taskset_to_dict(ts)
    assert doc["time_unit"] == "us"
    assert doc["cores"] == 1
    entry = doc["tasks"][0]
    assert set(entry) == {
        "id", "wcet", "period", "deadline", "num_commands", "min_checks",
        "weights", "check_overhead", "core", "priority",
    }


def test_unknown_time_unit_rejected():
    ts = make_taskset([make_task()])
    doc = taskset_to_dict(ts)
    doc["time_unit"] = "ms"
    try:
        taskset_from_dict(doc)
    except ValueError as exc:
        assert "time_unit" in str(exc)
    else:
        raise AssertionError("expected ValueError")


def _entry(**changes):
    return {**taskset_to_dict(make_taskset([make_task(tid="a")]))["tasks"][0], **changes}


@pytest.mark.parametrize(
    "doc, message",
    [
        pytest.param([], "JSON object", id="list"),
        pytest.param(1, "JSON object", id="number"),
        pytest.param({"time_unit": "us", "cores": 1, "tasks": 5}, "'tasks' list", id="tasks-int"),
        pytest.param({"time_unit": "us", "cores": 1}, "'tasks' list", id="tasks-missing"),
        pytest.param({"time_unit": "us", "cores": 1, "tasks": [7]}, "not an object", id="entry-int"),
        pytest.param({"time_unit": "us", "cores": "x", "tasks": []}, "cores", id="cores-string"),
        pytest.param({"time_unit": "us", "cores": True, "tasks": []}, "cores", id="cores-bool"),
        pytest.param({"time_unit": "us", "cores": 1.0, "tasks": []}, "cores", id="cores-float"),
        pytest.param({"time_unit": "us", "cores": 0, "tasks": []}, "cores", id="cores-zero"),
        pytest.param({"time_unit": "us", "cores": 1, "tasks": [_entry(id=["a"])]}, "task id",
                     id="id-list"),
        pytest.param({"time_unit": "us", "cores": 1, "tasks": [_entry(id=None)]}, "task id",
                     id="id-null"),
        pytest.param({"time_unit": "us", "cores": 1, "tasks": [_entry(id=True)]}, "task id",
                     id="id-bool"),
        pytest.param({"time_unit": "us", "cores": 1, "tasks": [_entry(weights=3)]}, "weights",
                     id="weights-int"),
        pytest.param({"time_unit": "us", "cores": 1, "tasks": [_entry(core="0")]}, "core",
                     id="core-string"),
        pytest.param({"time_unit": "us", "cores": 1, "tasks": [_entry(priority=[0])]}, "priority",
                     id="priority-list"),
        pytest.param({"time_unit": "us", "cores": 1,
                      "tasks": [{k: v for k, v in _entry().items() if k != "wcet"}]}, "wcet",
                     id="field-missing"),
    ],
)
def test_malformed_taskset_document_raises_value_error(doc, message):
    with pytest.raises(ValueError, match=message):
        taskset_from_dict(doc)


def test_weight_too_large_for_a_float_is_a_violation():
    ts = make_taskset([make_task(n=2, weights=(1.0, 10**400))])
    assert [v.field for v in validate(ts)] == ["weights"]


def test_priority_order_skips_empty_cores_without_walking_them():
    a, b = make_task(tid="a"), make_task(tid="b")
    ts = make_taskset([a, b], num_cores=10**18, cores={"a": 3, "b": 0})
    assert ts.priority_ordered() == (b, a)


@st.composite
def ranked_drawn_tasksets(draw):
    """A drawn taskset on 1 or 4 cores, in either scenario, with its
    drawn priorities or a permutation of them."""
    spec = WorkloadSpec(num_cores=draw(st.sampled_from((1, 4))),
                        utilization_bucket=draw(st.integers(0, NUM_BUCKETS - 1)),
                        scenario=draw(st.sampled_from(sorted(SCENARIO_COMMANDS))), seed=0)
    ts = draw_batch([spec], taskset_rngs([(draw(st.integers(0, 2**32 - 1)),)])).taskset(0)
    assume(ts is not None)
    ids = [t.id for t in ts.tasks]
    ranks = draw(st.permutations([ts.platform.priority[i] for i in ids]))
    platform = Platform(ts.platform.num_cores, dict(ts.platform.partition), dict(zip(ids, ranks)))
    return Taskset(ts.tasks, platform)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(ts=ranked_drawn_tasksets())
def test_priority_neighbours_match_a_same_core_rank_filter(ts):
    # Each task sits in its core's columns between the tasks ranked above it
    # and those ranked below it, and every task sits in exactly one column.
    by_id = {t.id: t for t in ts.tasks}
    placed = []
    for columns in ts.core_columns.values():
        ids = list(columns.ids)
        for p, tid in enumerate(ids):
            task = by_id[tid]
            assert ids[:p] == [t.id for t in same_core_by_rank(ts, task, higher=True)]
            assert ids[p + 1:] == [t.id for t in same_core_by_rank(ts, task, higher=False)]
        placed += ids
    assert sorted(placed) == sorted(by_id)


def test_overhead_presets():
    assert OVERHEAD_PRESETS_US["linux-optee"] == 66_000
    assert OVERHEAD_PRESETS_US["freertos"] == 2_000


def test_assignment_levels():
    ts = make_taskset([make_task(n=3, n_min=2)])
    assert assignment_at(ts, "zero") == {"t0": 0}
    assert assignment_at(ts, "min") == {"t0": 2}
    assert assignment_at(ts, "full") == {"t0": 3}
