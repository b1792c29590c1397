"""Property tests: `plan` on small random single-core tasksets.

Whatever the taskset and whatever --big-m / --epsilon (including NaN,
infinities, zero and negative values), `plan` exits 0, 1 or 2 without an
exception escaping, and every distribution it writes is a probability
vector that respects the epsilon floor.
"""

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
