"""Property tests: `plan` on small random single-core tasksets.

Whatever the taskset and whatever --big-m / --epsilon (including NaN,
infinities, zero and negative values), `plan` exits 0, 1 or 2 without an
exception escaping, and every distribution it writes is a probability
vector that respects the epsilon floor.  On a taskset file holding any
JSON value, `plan` reports the problem and exits 1, and so does `gen` on
a spec file holding any JSON value but an object.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from selcheck import cli

PERIODS_US = (10_000, 20_000, 50_000, 100_000, 200_000)
# Half of the draws are out-of-range values, half usable ones.
BIG_M = st.sampled_from(["nan", "inf", "0", "-5"]) | st.sampled_from(["1e-30", "1", "100"])
EPSILON = st.sampled_from(["nan", "inf", "0", "-1e-6"]) | st.sampled_from(["1e-30", "1e-6", "0.01"])


@st.composite
def task_docs(draw, index):
    period = draw(st.sampled_from(PERIODS_US))
    n = draw(st.integers(2, 4))
    return {
        "id": f"t{index}",
        "wcet": period * draw(st.sampled_from([1, 10, 30])) // 100,
        "period": period,
        "deadline": period,
        "num_commands": n,
        "min_checks": draw(st.integers(0, n - 1)),
        "weights": draw(st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.5, 7.0]), min_size=n, max_size=n)),
        "check_overhead": period * draw(st.sampled_from([15, 25, 40, 60])) // 100,
        "core": 0,
        "priority": index,
    }


@st.composite
def taskset_docs(draw):
    count = draw(st.integers(1, 2))
    return {"time_unit": "us", "cores": 1, "tasks": [draw(task_docs(i)) for i in range(count)]}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(doc=taskset_docs(), big_m=BIG_M, epsilon=EPSILON)
def test_plan_exits_cleanly_with_valid_distributions(doc, big_m, epsilon):
    with tempfile.TemporaryDirectory() as tmp:
        taskset, out = Path(tmp) / "ts.json", Path(tmp) / "plan.json"
        taskset.write_text(json.dumps(doc))
        rc = cli.main(["plan", "--taskset", str(taskset), f"--big-m={big_m}",
                       f"--epsilon={epsilon}", "--out", str(out)])
        assert rc in (0, 1, 2)
        if rc != 0:
            assert not out.exists()
            return
        plan = json.loads(out.read_text())
    for entry in plan["tasks"]:
        if 0 < entry["k_star"] < entry["num_commands"]:  # a solved game's distribution
            probabilities = entry["probabilities"]
            assert abs(sum(probabilities) - 1.0) <= 1e-6
            assert all(p >= float(epsilon) for p in probabilities)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
USABLE_FIELDS = {
    "id": st.sampled_from(["a", "b", 0, 1]),
    "weights": st.lists(st.sampled_from([1.0, 2.5]), max_size=3),
    "core": st.just(0),
    "priority": st.integers(0, 2),
    **{name: st.sampled_from([0, 1, 3, 1_000, 10_000])
       for name in ("wcet", "period", "deadline", "num_commands", "min_checks", "check_overhead")},
}
# Every field present, mostly usable, otherwise any JSON value.
TASKSET_SHAPED = st.fixed_dictionaries({
    "time_unit": st.just("us"),
    "cores": st.one_of(st.just(1), st.just(2), JSON_VALUES),
    "tasks": st.lists(
        st.fixed_dictionaries({name: st.one_of(usable, usable, usable, JSON_VALUES)
                               for name, usable in USABLE_FIELDS.items()}) | JSON_VALUES,
        max_size=2,
    ),
})


def _plan_on_document(doc) -> tuple[int, str]:
    with tempfile.TemporaryDirectory() as tmp:
        taskset, out = Path(tmp) / "ts.json", Path(tmp) / "plan.json"
        taskset.write_text(json.dumps(doc))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = cli.main(["plan", "--taskset", str(taskset), "--out", str(out)])
        assert rc == 0 or not out.exists()
    return rc, stderr.getvalue()


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(doc=JSON_VALUES)
def test_plan_reports_any_json_value_as_an_error(doc):
    rc, stderr = _plan_on_document(doc)
    assert rc == 1
    assert stderr.startswith("error: ")


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(doc=TASKSET_SHAPED)
def test_plan_exits_cleanly_on_taskset_shaped_documents(doc):
    rc, stderr = _plan_on_document(doc)
    assert rc in (0, 1, 2)
    if rc == 1:
        assert stderr.startswith(("error: ", "invalid taskset: "))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(doc=JSON_VALUES.filter(lambda doc: not isinstance(doc, dict)))
def test_gen_reports_any_non_object_spec_as_an_error(doc):
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = Path(tmp) / "spec.json", Path(tmp) / "out"
        spec.write_text(json.dumps(doc))
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            rc = cli.main(["gen", "--spec", str(spec), "--out", str(out)])
        assert rc == 1
        assert stderr.getvalue().startswith("error: ")
        assert not out.exists()
