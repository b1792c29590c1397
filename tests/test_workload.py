import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from conftest import DRAW_SPECS, drawn_tasksets

from selcheck.model import assignment_at, validate
from selcheck.schedulability import is_schedulable
from selcheck.workload import (
    SCENARIO_COMMANDS,
    GenerationError,
    WorkloadSpec,
    _stafford,
    draw_taskset,
    gen_periods,
    gen_taskset,
    randfixedsum,
    taskset_rng,
)


def test_randfixedsum_single_value(rng):
    assert randfixedsum(1, 0.4, 0.0, 1.0, rng) == pytest.approx([0.4])


def test_randfixedsum_forced_corner(rng):
    assert randfixedsum(3, 3.0, 0.0, 1.0, rng) == pytest.approx([1.0, 1.0, 1.0])


def test_randfixedsum_infeasible_total(rng):
    with pytest.raises(ValueError):
        randfixedsum(3, 3.5, 0.0, 1.0, rng)
    with pytest.raises(ValueError):
        randfixedsum(3, -0.1, 0.0, 1.0, rng)


def test_randfixedsum_sums_and_bounds(rng):
    x = randfixedsum(8, 2.0, 0.0, 1.0, rng, size=5000)
    assert x.shape == (5000, 8)
    assert np.abs(x.sum(axis=1) - 2.0).max() < 1e-9
    assert x.min() >= 0.0 and x.max() <= 1.0


def test_randfixedsum_general_bounds(rng):
    x = randfixedsum(4, 2.0, 0.2, 0.8, rng, size=2000)
    assert np.abs(x.sum(axis=1) - 2.0).max() < 1e-9
    assert x.min() >= 0.2 - 1e-12 and x.max() <= 0.8 + 1e-12


def test_randfixedsum_coordinates_exchangeable(rng):
    """Any two coordinates should follow the same marginal distribution."""
    x = randfixedsum(5, 1.7, 0.0, 1.0, rng, size=20000)
    stat = ks_2samp(x[:, 0], x[:, 3])
    assert stat.pvalue > 0.01


def test_gen_periods_degenerate_range(rng):
    assert gen_periods(5, 10, 10, rng) == [10] * 5


def test_gen_periods_bounds_and_median(rng):
    periods = gen_periods(100_000, 10_000, 1_000_000, rng)
    assert min(periods) >= 10_000 and max(periods) <= 1_000_000
    median = float(np.median(periods))
    assert abs(median - 100_000) / 100_000 < 0.05  # geometric mean of the range


def test_workload_spec_validation():
    with pytest.raises(ValueError):
        WorkloadSpec(utilization_bucket=10).check()
    with pytest.raises(ValueError):
        WorkloadSpec(scenario="extreme").check()
    with pytest.raises(ValueError):
        WorkloadSpec(overhead_preset="bare-metal").check()
    WorkloadSpec(scenario="medium").check()


def test_bucket_utilization_range():
    spec = WorkloadSpec(num_cores=4, utilization_bucket=0)
    assert spec.utilization_range() == (pytest.approx(0.04), pytest.approx(0.4))
    spec = WorkloadSpec(num_cores=4, utilization_bucket=9)
    assert spec.utilization_range() == (pytest.approx(3.64), pytest.approx(4.0))


def test_gen_taskset_valid_and_in_scenario():
    spec = WorkloadSpec(utilization_bucket=3, scenario="medium", seed=7)
    ts = gen_taskset(spec, taskset_rng(7, 0, 3, 0))
    assert validate(ts) == []
    lo, hi = SCENARIO_COMMANDS["medium"]
    for t in ts.tasks:
        assert lo <= t.num_commands <= hi
        assert t.min_checks == math.ceil(0.2 * t.num_commands)
        assert t.check_overhead == max(1, round(0.1 * t.wcet))
        assert t.deadline == t.period
        assert t.weights == (1.0,) * t.num_commands
    m = len(ts.tasks)
    assert 12 <= m <= 40
    total_u = sum(t.utilization for t in ts.tasks)
    u_lo, u_hi = spec.utilization_range()
    # wcet rounding moves utilization a hair off the drawn total
    assert u_lo - 0.05 <= total_u <= u_hi + 0.05


def test_gen_taskset_vanilla_schedulable_by_construction():
    for bucket in (0, 2, 4, 6):
        spec = WorkloadSpec(utilization_bucket=bucket, scenario="high", seed=3)
        ts = gen_taskset(spec, taskset_rng(3, 1, bucket, 0))
        assert is_schedulable(ts, assignment_at(ts, "zero"))


def test_gen_taskset_reproducible():
    spec = WorkloadSpec(utilization_bucket=4, scenario="medium", seed=11)
    a = gen_taskset(spec, taskset_rng(11, 0, 4, 0))
    b = gen_taskset(spec, taskset_rng(11, 0, 4, 0))
    assert a == b


def test_gen_taskset_overhead_preset():
    spec = WorkloadSpec(utilization_bucket=0, scenario="medium", seed=5,
                        overhead_preset="freertos")
    ts = gen_taskset(spec, taskset_rng(5, 0, 0, 0))
    assert all(t.check_overhead == 2_000 for t in ts.tasks)


def test_gen_taskset_exhausts_retries_at_saturation():
    spec = WorkloadSpec(utilization_bucket=9, scenario="high", seed=1)
    with pytest.raises(GenerationError):
        gen_taskset(spec, taskset_rng(1, 1, 9, 0), retry_budget=5)


def test_draw_taskset_returns_none_when_unplaceable():
    spec = WorkloadSpec(utilization_bucket=9, scenario="high", seed=1)
    rng = taskset_rng(1, 1, 9, 0)
    outcomes = {draw_taskset(spec, rng) is None for _ in range(10)}
    assert True in outcomes  # bucket 9 draws mostly fit on no partition


def test_n_fixed_overrides_scenario():
    spec = WorkloadSpec(utilization_bucket=1, scenario="medium", n_fixed=5, seed=2)
    ts = gen_taskset(spec, taskset_rng(2, 2, 1, 0))
    assert all(t.num_commands == 5 for t in ts.tasks)


# sha256 over the (file name, bytes) of every file of a `gen` batch, seed 11,
# 4 tasksets per bucket: the single-core N = 6 spec is the benchmark's plan
# input, the "high" spec draws per-task command counts on 4 cores (bucket 9
# is left out: its draws almost never fit on 4 cores, so gen gives up there).
GOLDEN_GEN_SHA256 = {
    "plan-input": "71a972d29ad12117a9a392b239eb53092d687266cbf3b2da839d65bd0ce40749",
    "high": "8f211f25e2aede8b368a5a875df8262156d348a5fab13834c96ac8c46f182b60",
}
GEN_SPECS = {
    "plan-input": {"num_cores": 1, "n_fixed": 6, "buckets": [5]},
    "high": {"scenario": "high", "buckets": list(range(9))},
}


@pytest.mark.parametrize("name", sorted(GEN_SPECS))
def test_golden_gen_bytes(tmp_path, name):
    from selcheck.cli import main

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(GEN_SPECS[name]))
    out = tmp_path / "batch"
    assert main(["gen", "--spec", str(spec), "--out", str(out), "--seed", "11",
                 "--tasksets-per-bucket", "4"]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN_GEN_SHA256[name]


@st.composite
def stafford_cases(draw):
    n = draw(st.integers(2, 60))
    s = draw(st.one_of(
        st.floats(0.0, float(n)),
        st.integers(0, n).map(float),
        st.just(float(n)),
    ))
    return n, s, draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=stafford_cases())
def test_one_sample_draw_matches_batched_stafford(case):
    """The size=None path returns the bytes of _stafford's first sample and
    leaves the generator where _stafford leaves it."""
    n, s, seed = case
    one, many = np.random.default_rng(seed), np.random.default_rng(seed)
    x = randfixedsum(n, s, 0.0, 1.0, one)
    ref = _stafford(n, s, 1, many)[0]
    assert x.tobytes() == ref.tobytes()
    assert one.random() == many.random()


@st.composite
def root_cases(draw):
    n = draw(st.integers(2, 45))
    s = draw(st.one_of(st.floats(0.0, float(n)), st.integers(0, n).map(float)))
    return n, s, draw(st.integers(0, 2**32 - 1))


def _assert_one_draw_matches_batched(n, s, seed):
    one, many = np.random.default_rng(seed), np.random.default_rng(seed)
    x = randfixedsum(n, s, 0, 1, one)
    ref = _stafford(n, s, 1, many)[0]
    assert x.tobytes() == ref.tobytes()
    assert one.bit_generator.state == many.bit_generator.state


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=root_cases())
@example(case=(2, 0.5, 0))
@example(case=(2, 1.0, 1))
@example(case=(3, 1.5, 7))
@example(case=(3, 2.0, 8))
def test_one_root_power_per_draw_matches_batched_stafford(case):
    """One vector power for every level's root, with level 2 on numpy's sqrt
    path, gives _stafford's bytes and leaves the generator in its state."""
    _assert_one_draw_matches_batched(*case)


# Seeds whose level-2 root rounds differently under the vector power than
# under `x ** 0.5`; n = 2 has no level 2, so its one root must stay untouched.
@pytest.mark.parametrize("n, seeds", [(2, range(40)), (3, (7, 8, 18, 54, 70)), (4, (14, 41, 74))])
def test_level_two_root_takes_the_sqrt_path(n, seeds):
    for seed in seeds:
        for s in (0.3, 1.0, n - 0.6):
            _assert_one_draw_matches_batched(n, s, seed)


def test_every_draw_is_schedulable_with_checking_disabled():
    """Placement sums each admission bound with response_bound, so no
    draw it places is refused by the schedulability test at zero checks."""
    batch = [ts for ts in drawn_tasksets() if ts is not None]
    assert len(batch) > len(DRAW_SPECS)
    for ts in batch:
        assert is_schedulable(ts, assignment_at(ts, "zero"))
