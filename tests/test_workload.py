import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp

from conftest import DRAW_SPECS, drawn_tasksets
from oracles import (PartitionError, balanced_partition_by_response_bound, draw_columns_by_slot,
                     fits_at_level, stafford_one)
from oracles import stafford as _stafford

from selcheck import workload
from selcheck.model import CoreColumns, assignment_at, validate
from selcheck.schedulability import is_schedulable
from selcheck.workload import (
    SCENARIO_COMMANDS,
    WorkloadSpec,
    _place,
    _stafford_rows,
    draw_batch,
    gen_tasksets,
    randfixedsum,
    taskset_rngs,
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


def test_gen_periods_degenerate_range():
    spec = WorkloadSpec(num_cores=1, tasks_min=5, tasks_max=5, period_min_us=10,
                        period_max_us=10, n_fixed=1)
    batch = draw_batch([spec], taskset_rngs([(1234,)]))
    assert batch.tasks.period[0].tolist() == [10] * 5


def test_gen_periods_bounds_and_median():
    """Periods are log-uniform over the range: their median is its geometric mean."""
    spec = WorkloadSpec(num_cores=1, tasks_min=40, tasks_max=40, n_fixed=1)
    batch = draw_batch([spec] * 2500, taskset_rngs((1234, slot) for slot in range(2500)))
    periods = batch.tasks.period
    assert periods.min() >= 10_000 and periods.max() <= 1_000_000
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
    ts, = gen_tasksets(spec, list(taskset_rngs([(7, 0, 3, 0)])))
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
    rngs = list(taskset_rngs((3, 1, bucket, 0) for bucket in (0, 2, 4, 6)))
    for bucket, rng in zip((0, 2, 4, 6), rngs):
        spec = WorkloadSpec(utilization_bucket=bucket, scenario="high", seed=3)
        ts, = gen_tasksets(spec, [rng])
        assert is_schedulable(ts, assignment_at(ts, "zero"))


def test_gen_taskset_reproducible():
    spec = WorkloadSpec(utilization_bucket=4, scenario="medium", seed=11)
    a, b = gen_tasksets(spec, list(taskset_rngs([(11, 0, 4, 0)] * 2)))
    assert a is not None and a == b


def test_gen_taskset_overhead_preset():
    spec = WorkloadSpec(utilization_bucket=0, scenario="medium", seed=5,
                        overhead_preset="freertos")
    ts, = gen_tasksets(spec, list(taskset_rngs([(5, 0, 0, 0)])))
    assert all(t.check_overhead == 2_000 for t in ts.tasks)


def test_gen_taskset_exhausts_retries_at_saturation(monkeypatch):
    monkeypatch.setattr(workload, "RETRY_BUDGET", 5)
    spec = WorkloadSpec(utilization_bucket=9, scenario="high", seed=1)
    assert gen_tasksets(spec, list(taskset_rngs([(1, 1, 9, 0)]))) == [None]


def test_draw_taskset_returns_none_when_unplaceable():
    spec = WorkloadSpec(utilization_bucket=9, scenario="high", seed=1)
    rng, = taskset_rngs([(1, 1, 9, 0)])
    outcomes = {draw_batch([spec], [rng]).taskset(0) is None for _ in range(10)}
    assert True in outcomes  # bucket 9 draws mostly fit on no partition


def test_n_fixed_overrides_scenario():
    spec = WorkloadSpec(utilization_bucket=1, scenario="medium", n_fixed=5, seed=2)
    ts, = gen_tasksets(spec, list(taskset_rngs([(2, 2, 1, 0)])))
    assert all(t.num_commands == 5 for t in ts.tasks)


# sha256 over the (file name, bytes) of every file of a `gen` batch, seed 11,
# 4 tasksets per bucket: the single-core N = 6 spec is the benchmark's plan
# input, the "high" spec draws per-task command counts on 4 cores (bucket 9
# is left out: its draws almost never fit on 4 cores, so gen gives up there).
# The "edge" spec draws 1 to 4 tasks on one core: a single task takes no
# fixed-sum draw, and bucket 9 redraws most slots many times.
GOLDEN_GEN_SHA256 = {
    "plan-input": "71a972d29ad12117a9a392b239eb53092d687266cbf3b2da839d65bd0ce40749",
    "high": "8f211f25e2aede8b368a5a875df8262156d348a5fab13834c96ac8c46f182b60",
    "edge": "c99e3f927066d034015a2e6b8bfb595150cc28b1618f0ff9c3efad39674d9e61",
}
GEN_SPECS = {
    "plan-input": {"num_cores": 1, "n_fixed": 6, "buckets": [5]},
    "high": {"scenario": "high", "buckets": list(range(9))},
    "edge": {"num_cores": 1, "tasks_min": 1, "tasks_max": 4, "n_fixed": 3, "buckets": [0, 4, 9]},
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


@pytest.mark.parametrize("n, s, m", [(2, 0.7, 30), (5, 1.7, 200), (12, 3.2, 64), (40, 3.9, 16)])
def test_many_samples_match_the_numpy_sampler(n, s, m):
    """size=m gives the per-sample numpy sampler's bytes and generator state."""
    one, many = np.random.default_rng(n), np.random.default_rng(n)
    assert randfixedsum(n, s, 0.0, 1.0, one, size=m).tobytes() == _stafford(n, s, m, many).tobytes()
    assert one.random() == many.random()


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(rows=st.lists(root_cases(), min_size=1, max_size=24))
@example(rows=[(3, 1.5, 7), (2, 0.5, 0), (4, 2.3, 14), (3, 2.0, 8), (45, 3.7, 5), (3, 0.3, 18)])
def test_batched_stafford_rows_match_the_one_sample_draw(rows):
    """Rows of different lengths and totals, drawn as one batch, each give
    the one-sample draw's bytes from the same 3n - 2 uniforms."""
    n = np.array([r[0] for r in rows])
    draws = np.zeros((len(rows), 3 * n.max() - 2))
    for row, (m, _, seed) in enumerate(rows):
        draws[row, : 3 * m - 2] = np.random.default_rng(seed).random(3 * m - 2)
    batch = _stafford_rows(n, np.array([r[1] for r in rows]), draws)
    for row, (m, s, seed) in enumerate(rows):
        ref = stafford_one(m, s, np.random.default_rng(seed))
        assert batch[row, :m].tobytes() == ref.tobytes()
        assert not batch[row, m:].any()


# One core: tasks whose periods and wcets put the last task's exact bound
# within rounding of its deadline, where the bound's closed form and its
# left-to-right sum (the answer) disagree.  (wcet, deadline, periods above,
# wcets above, whether the left-to-right sum admits it.)
ROUNDING_EDGES = [
    (2869276112802, 2880181107199, [1614199068200, 641520498349, 1174998491364, 1870156389091],
     [826022951, 735707363, 863046666, 625099645], True),
    (3113548338708, 3121355315748, [722872125300, 772772277002, 2056834217620],
     [756688330, 730328846, 40780556], False),
    (2211734105688, 2219590645669,
     [1217880393156, 625295300183, 1825107749032, 834379008310, 1033682007325],
     [36516647, 381635901, 4982149, 1055993314, 680272259], True),
]


@pytest.mark.parametrize("wcet, deadline, periods, wcets, fits", ROUNDING_EDGES)
def test_placement_admits_by_the_left_to_right_bound(wcet, deadline, periods, wcets, fits):
    period = np.array([[*periods, deadline]], dtype=np.int64)
    cost = np.array([[*wcets, wcet]], dtype=np.int64)
    try:
        balanced_partition_by_response_bound(period[0].tolist(), cost[0].tolist(), 1)
        expected = True
    except PartitionError:
        expected = False
    assert expected == fits
    no_checks = np.zeros_like(period)
    _, verdicts = _place(period, cost, no_checks, no_checks, no_checks,
                         np.array([len(periods) + 1]), 1)
    assert verdicts["zero"].tolist() == [fits]


def core_columns_by_core(ts, num_cores):
    """A drawn Taskset's `core_columns` as the oracle draw lays them out: one
    CoreColumns of lists per core, None for no Taskset."""
    if ts is None:
        return None
    empty = CoreColumns(*[()] * len(CoreColumns._fields))
    return [CoreColumns(*map(list, ts.core_columns.get(core, empty))) for core in range(num_cores)]


@st.composite
def batch_cases(draw):
    """A batch of slots for one shape of spec: 1-4 cores, a task-count range
    that may start at 1 or 2, a period range, an overhead source and
    min_checks share, and per slot a bucket and a scenario or n_fixed."""
    cores = draw(st.integers(1, 4))
    tasks_max = draw(st.integers(1, 9 * cores))
    tasks_min = draw(st.integers(max(1, cores), max(cores, tasks_max)))
    period_min = draw(st.sampled_from([10, 10_000, 50_000]))
    shape = dict(num_cores=cores, tasks_min=tasks_min, tasks_max=max(tasks_min, tasks_max),
                 period_min_us=period_min,
                 period_max_us=draw(st.sampled_from([period_min, period_min + 1, 1_000_000])),
                 overhead_preset=draw(st.sampled_from([None, "linux-optee", "freertos"])),
                 overhead_fraction=draw(st.sampled_from([0.1, 0.25, 1])),
                 min_checks_fraction=draw(st.sampled_from([0.2, 0.0, 1])))
    slot = st.builds(lambda bucket, scenario, n_fixed: WorkloadSpec(
        utilization_bucket=bucket, scenario=scenario, n_fixed=n_fixed, **shape),
        st.integers(0, 9), st.sampled_from(sorted(SCENARIO_COMMANDS)),
        st.one_of(st.none(), st.integers(1, 12)))
    return draw(st.lists(slot, min_size=1, max_size=12)), draw(st.integers(0, 2**32 - 1))


@settings(derandomize=True, database=None, deadline=None, max_examples=120)
@given(case=batch_cases())
def test_batched_draw_matches_the_draw_of_each_slot(case):
    """Every slot of a batch gives the per-slot reference draw's columns, or
    its None when unplaceable, and its verdicts at min_checks and at full
    checks, and leaves its generator in the same state."""
    specs, seed = case
    rngs = list(taskset_rngs((seed, slot) for slot in range(len(specs))))
    refs = list(taskset_rngs((seed, slot) for slot in range(len(specs))))
    batch = draw_batch(specs, rngs)
    for slot, (spec, rng, ref) in enumerate(zip(specs, rngs, refs)):
        columns = draw_columns_by_slot(spec, ref)
        assert core_columns_by_core(batch.taskset(slot), spec.num_cores) == columns, (slot, spec)
        for level in ("min", "full"):
            expected = columns is not None and fits_at_level(columns, level)
            assert batch.fits[level][slot] == expected, (slot, spec, level)
        assert rng.random() == ref.random()


def test_every_placed_draw_fits_at_zero_checks():
    """Placement admits each task by its bound at zero checks, so every
    placed draw fits unsecured: fig 8's unsecured count is its placed count."""
    placed_count = unplaced = 0
    shapes = sorted({(spec.num_cores, str(spec.overhead_preset)) for spec in DRAW_SPECS})
    for shape_idx, shape in enumerate(shapes):
        specs = [spec for spec in DRAW_SPECS
                 if (spec.num_cores, str(spec.overhead_preset)) == shape for _ in range(3)]
        rngs = taskset_rngs((5, 9, shape_idx, slot) for slot in range(len(specs)))
        batch = draw_batch(specs, rngs)
        placed = batch.placed.tolist()
        for slot, ok in enumerate(placed):
            assert not ok or fits_at_level(batch.taskset(slot).core_columns.values(), "zero")
        placed_count += sum(placed)
        unplaced += len(placed) - sum(placed)
    assert placed_count > len(DRAW_SPECS) and unplaced > 0


def test_gen_tasksets_redraws_each_slot_from_its_own_generator(monkeypatch):
    """A batch of slots retried in rounds gives each slot what gen_tasksets
    gives it alone, and None where every draw of the budget failed."""
    monkeypatch.setattr(workload, "RETRY_BUDGET", 6)
    spec = WorkloadSpec(num_cores=1, tasks_min=1, tasks_max=4, n_fixed=3, utilization_bucket=9)
    rngs = list(taskset_rngs([(4, i) for i in range(8)] * 2))  # each path twice
    batch = gen_tasksets(spec, rngs[:8])
    alone = [gen_tasksets(spec, [rng])[0] for rng in rngs[8:]]
    assert batch == alone
    assert None in alone and any(alone)


def _cli_output_sha256(tmp_path, argv):
    """sha256 over the (file name, bytes) of every file a CLI call writes."""
    from selcheck.cli import main

    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_the_batch_cap_changes_no_output_byte(monkeypatch, tmp_path):
    """Fig 8's CSV and a gen batch whose slots are redrawn in many rounds
    come out the same at any batch cap: 260 slots per call are 65 batches
    at a cap of 4, two at 256 and one at the default."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"num_cores": 1, "tasks_min": 1, "tasks_max": 4, "n_fixed": 3,
                                "buckets": [9]}))
    calls = {
        "fig 8": ["sweep", "--fig", "8", "--seed", "4", "--tasksets-per-bucket", "13"],
        "gen": ["gen", "--spec", str(spec), "--seed", "11", "--tasksets-per-bucket", "260"],
    }
    digests = []
    for cap in (4, 256, workload.MAX_BATCH):
        monkeypatch.setattr(workload, "MAX_BATCH", cap)
        digests.append({name: _cli_output_sha256(tmp_path / f"{cap}_{name[0]}", argv)
                        for name, argv in calls.items()})
    assert workload.MAX_BATCH > 260
    assert digests[0] == digests[1] == digests[2]


# Path entries at the edges of SeedSequence's 32-bit entropy words: one
# word, two words, three words and more.
WORD_EDGES = [0, 1, 2**32 - 1, 2**32, 2**40 + 7, 2**64 - 1, 2**64, 2**64 + 1, 10**30]
SEED_PATHS = st.lists(st.one_of(st.sampled_from(WORD_EDGES), st.integers(0, 2**70)),
                      min_size=1, max_size=6).map(tuple)


def _seed_sequence_state(path):
    return np.random.PCG64(np.random.SeedSequence(path)).state


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(paths=st.lists(SEED_PATHS, min_size=1, max_size=8))
def test_taskset_rngs_start_in_the_seed_sequence_state(paths):
    # One call mixes paths of different word counts.
    rngs = list(taskset_rngs(paths))
    assert [rng.bit_generator.state for rng in rngs] == list(map(_seed_sequence_state, paths))


def test_taskset_rngs_hash_a_chunk_at_a_time_across_the_chunk_edge(monkeypatch):
    monkeypatch.setattr(workload, "MAX_BATCH", 256)  # two whole chunks and one path
    paths = [(2**64 + 1, 8, 1, bucket, index) for bucket in range(3) for index in range(171)]
    assert len(paths) > 2 * workload.MAX_BATCH
    taken = []

    def recorded():
        for path in paths:
            taken.append(path)
            yield path

    rngs = taskset_rngs(recorded())
    first = next(rngs)
    assert len(taken) == workload.MAX_BATCH  # the first chunk only
    states = [first.bit_generator.state] + [rng.bit_generator.state for rng in rngs]
    assert states == list(map(_seed_sequence_state, paths))


def test_taskset_rngs_of_no_path_is_empty():
    assert list(taskset_rngs([])) == []


@pytest.mark.parametrize("path", [(-1,), (3, 0, -2), (2**64, -(2**40))])
def test_a_negative_seed_path_entry_is_a_value_error(path):
    with pytest.raises(ValueError, match="non-negative"):
        list(taskset_rngs([(1, 2), path]))
    with pytest.raises(ValueError, match="non-negative"):
        next(taskset_rngs([path]))
