import hashlib
import json
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from selcheck import cli
from selcheck.cli import build_parser, main
from selcheck.game import MAX_COMMANDS

BASE = [sys.executable, "-m", "selcheck.cli"]


def run_cli(*args):
    return subprocess.run(BASE + list(args), capture_output=True, text=True)


def write_taskset(path, wcet=10_000, period=200_000, n=4, n_min=1, overhead=66_000):
    doc = {
        "time_unit": "us",
        "cores": 1,
        "tasks": [
            {
                "id": "ctrl", "wcet": wcet, "period": period, "deadline": period,
                "num_commands": n, "min_checks": n_min, "weights": [1.0] * n,
                "check_overhead": overhead, "core": 0, "priority": 0,
            }
        ],
    }
    Path(path).write_text(json.dumps(doc))


def test_gen_writes_files_and_manifest(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scenario": "medium", "buckets": [0, 1]}))
    out = tmp_path / "batch"
    res = run_cli("gen", "--spec", str(spec), "--out", str(out),
                  "--seed", "3", "--tasksets-per-bucket", "2")
    assert res.returncode == 0, res.stderr
    files = sorted(p.name for p in out.glob("taskset_*.json"))
    assert len(files) == 4
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 3
    assert len(manifest["tasksets"]) == 4
    assert all("seed_path" in entry for entry in manifest["tasksets"])


def test_gen_deterministic(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scenario": "high", "buckets": [2]}))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        res = run_cli("gen", "--spec", str(spec), "--out", str(out),
                      "--seed", "7", "--tasksets-per-bucket", "2")
        assert res.returncode == 0, res.stderr
    for name in ("taskset_high_b2_0000.json", "manifest.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_gen_default_spec_lists_unfilled_bucket_and_succeeds(tmp_path):
    """Bucket 9 (utilization near 4 on 4 cores) almost never fits the partitioner."""
    out = tmp_path / "batch"
    res = run_cli("gen", "--out", str(out), "--seed", "11", "--tasksets-per-bucket", "2")
    assert res.returncode == 0, res.stderr
    assert res.stderr.splitlines()[0].startswith("warning: bucket 9: 2 of 2 tasksets unfilled")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["unfilled"] == [{"bucket": 9, "index": 0}, {"bucket": 9, "index": 1}]
    assert [(e["bucket"], e["index"]) for e in manifest["tasksets"]] == [(b, i) for b in range(9) for i in range(2)]
    assert len(list(out.glob("taskset_*.json"))) == 18


def test_gen_without_any_taskset_exits_1_with_manifest(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"buckets": [9]}))
    out = tmp_path / "batch"
    res = run_cli("gen", "--spec", str(spec), "--out", str(out), "--seed", "11", "--tasksets-per-bucket", "1")
    assert res.returncode == 1
    assert res.stderr.splitlines()[-1].startswith("error: no taskset written")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tasksets"] == [] and manifest["unfilled"] == [{"bucket": 9, "index": 0}]


def test_gen_bad_bucket_errors(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"buckets": [12]}))
    res = run_cli("gen", "--spec", str(spec), "--out", str(tmp_path / "x"))
    assert res.returncode == 1
    assert "error" in res.stderr


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"num_cores": "4"},
        {"num_cores": 4.0},
        {"buckets": "5"},
        {"buckets": [1.5]},
        {"buckets": [True]},
        {"buckets": [5, 5]},
        {"min_checks_fraction": "x"},
        {"min_checks_fraction": 2},
        {"overhead_fraction": -0.1},
        {"scenario": ["medium"]},
        {"overhead_preset": ["freertos"]},
        {"n_fixed": 2.5},
        {"tasks_max": "40"},
        {"tasks_min": 9, "tasks_max": 3},
        {"tasks_min": 0},
        {"period_min_us": "10000"},
    ],
    ids=lambda doc: json.dumps(doc),
)
@pytest.mark.parametrize("verb", [["gen"], ["sweep", "--fig", "8"]])
def test_malformed_spec_is_an_error_line(tmp_path, capsys, doc, verb):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([*verb, "--spec", str(spec), "--out", str(out), "--tasksets-per-bucket", "1"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("verb, doc, bucket", [
    (["gen"], {"tasks_min": 3, "tasks_max": 3, "buckets": [5, 9]}, 9),
    (["sweep", "--fig", "8"], {"tasks_min": 3, "tasks_max": 3}, 7),
])
def test_a_task_count_range_below_a_bucket_utilization_is_an_error(tmp_path, capsys, verb, doc,
                                                                     bucket):
    # Each task carries a utilization of at most 1, so 3 tasks cannot carry
    # bucket 7's (0.1 + 0.7) * 4 or bucket 9's 4.0; nothing is written.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([*verb, "--spec", str(spec), "--out", str(out), "--tasksets-per-bucket", "2"]) == 1
    top = (0.1 + 0.1 * bucket) * 4
    err = capsys.readouterr().err
    assert err.startswith("error: tasks_min 3 ") and f"bucket {bucket}" in err and repr(top) in err
    assert not out.exists()


@pytest.mark.parametrize("fig", ["6", "7", "8"])
def test_sweep_rejects_n_fixed_in_the_spec(tmp_path, capsys, fig):
    # Every figure sets these keys itself, so they would be ignored.
    for key, value in (("n_fixed", 8), ("buckets", [5]), ("scenario", "high")):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert main(["sweep", "--fig", fig, "--spec", str(spec), "--out", str(out),
                     "--tasksets-per-bucket", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not out.exists()


@pytest.mark.parametrize("verb, doc, key", [
    (["gen"], {"num_core": 1, "scenarios": "high", "buckets": [5]}, "num_core"),
    (["sweep", "--fig", "8"], {"seed": 5}, "seed"),
    (["sweep", "--fig", "6"], {"num_cores": 2, "utilization_bucket": 3}, "utilization_bucket"),
])
def test_an_unknown_spec_key_is_an_error_naming_it(tmp_path, capsys, verb, doc, key):
    # A misspelt or unsupported key would otherwise fall back to its default.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert main([*verb, "--spec", str(spec), "--out", str(out), "--tasksets-per-bucket", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: unknown spec key {key!r}")
    assert not out.exists()


def test_importing_the_cli_leaves_the_process_pool_unloaded():
    # Only a sweep with more than one worker needs it.
    code = "import sys, selcheck.cli; print('concurrent.futures.process' in sys.modules)"
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == "False\n"


def test_gen_honours_n_fixed(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"n_fixed": 8, "buckets": [2]}))
    out = tmp_path / "batch"
    assert main(["gen", "--spec", str(spec), "--out", str(out), "--tasksets-per-bucket", "2"]) == 0
    tasks = [t for f in out.glob("taskset_*.json") for t in json.loads(f.read_text())["tasks"]]
    assert tasks and {t["num_commands"] for t in tasks} == {8}


def test_plan_refuses_a_game_above_the_command_cap(tmp_path, capsys):
    path = tmp_path / "ts.json"
    write_taskset(path, n=MAX_COMMANDS + 1)  # K* = 2 needs a game
    started = time.monotonic()
    assert main(["plan", "--taskset", str(path)]) == 1
    assert time.monotonic() - started < 0.5
    assert capsys.readouterr().err.startswith(f"error: n={MAX_COMMANDS + 1} exceeds")


def test_readme_command_lines_parse():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.startswith("selcheck ")]
    assert len(lines) >= 4
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])


def test_plan_rover_shape(tmp_path):
    """5 Hz controller with the heavyweight overhead preset: K is forced to 2 of 4."""
    ts = tmp_path / "rover.json"
    write_taskset(ts)
    out = tmp_path / "plan.json"
    res = run_cli("plan", "--taskset", str(ts), "--out", str(out))
    assert res.returncode == 0, res.stderr
    doc = json.loads(out.read_text())
    entry = doc["tasks"][0]
    assert entry["k_star"] == 2
    assert len(entry["strategies"]) == 6
    assert sum(entry["probabilities"]) == pytest.approx(1.0, abs=1e-6)


def test_plan_on_the_committed_nine_command_taskset(tmp_path):
    """The CI timing input: a 1-core `gen` taskset whose plan solves N = 9 games."""
    out = tmp_path / "plan.json"
    taskset = Path(__file__).parent / "data" / "taskset_n9_1core.json"
    started = time.monotonic()
    assert main(["plan", "--taskset", str(taskset), "--out", str(out)]) == 0
    assert time.monotonic() - started < 60
    games = [t for t in json.loads(out.read_text())["tasks"] if 0 < t["k_star"] < t["num_commands"]]
    assert sorted(t["k_star"] for t in games) == [2, 5]
    for t in games:
        assert sum(t["probabilities"]) == pytest.approx(1.0, abs=1e-6)
        assert min(t["probabilities"]) >= 1e-6


def test_plan_underloaded_checks_everything(tmp_path):
    ts = tmp_path / "ts.json"
    write_taskset(ts, overhead=1_000)
    res = run_cli("plan", "--taskset", str(ts))
    assert res.returncode == 0
    doc = json.loads(res.stdout)
    assert doc["tasks"][0]["k_star"] == 4
    assert doc["tasks"][0]["strategies"] == []


def test_plan_infeasible_exit_code(tmp_path):
    ts = tmp_path / "ts.json"
    write_taskset(ts, wcet=10_000, period=20_000, n=4, n_min=4, overhead=10_000)
    res = run_cli("plan", "--taskset", str(ts), "--out", str(tmp_path / "p.json"))
    assert res.returncode == 2
    assert "minimum QoS requirements" in res.stderr
    assert not (tmp_path / "p.json").exists()


def test_plan_report_csv(tmp_path):
    ts = tmp_path / "ts.json"
    write_taskset(ts)
    report = tmp_path / "report.csv"
    res = run_cli("plan", "--taskset", str(ts), "--out", str(tmp_path / "p.json"),
                  "--report-csv", str(report))
    assert res.returncode == 0
    lines = report.read_text().strip().splitlines()
    assert lines[0] == "task,R,R_TEE,O,deadline,schedulable"


def test_plan_invalid_taskset(tmp_path):
    ts = tmp_path / "bad.json"
    doc = json.loads('{"time_unit": "us", "cores": 1, "tasks": []}')
    doc["tasks"] = [{"id": "x", "wcet": 5, "period": 4, "deadline": 4,
                     "num_commands": 0, "min_checks": 0, "weights": [],
                     "check_overhead": 0, "core": 0, "priority": 0}]
    ts.write_text(json.dumps(doc))
    res = run_cli("plan", "--taskset", str(ts))
    assert res.returncode == 1
    assert "invalid taskset" in res.stderr


def test_simulate_full_plan_all_ones(tmp_path):
    ts = tmp_path / "ts.json"
    write_taskset(ts, overhead=1_000)  # plan checks everything
    plan_file = tmp_path / "plan.json"
    assert run_cli("plan", "--taskset", str(ts), "--out", str(plan_file)).returncode == 0
    out = tmp_path / "sim.csv"
    res = run_cli("simulate", "--plan", str(plan_file), "--victim", "ctrl",
                  "--commands", "2", "--trials", "50", "--seed", "1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().strip().splitlines()
    body = [line for line in lines[1:] if not line.startswith("summary")]
    assert all(line.split(",")[1] == "1" for line in body)
    assert lines[-1] == "summary,1.0,1"


def test_simulate_randomized_plan_geometric_mean(tmp_path):
    ts = tmp_path / "ts.json"
    write_taskset(ts)  # K* = 2 of 4
    plan_file = tmp_path / "plan.json"
    run_cli("plan", "--taskset", str(ts), "--out", str(plan_file))
    res = run_cli("simulate", "--plan", str(plan_file), "--commands", "1",
                  "--trials", "4000", "--seed", "5", "--out", str(tmp_path / "s.csv"))
    assert res.returncode == 0
    summary = (tmp_path / "s.csv").read_text().strip().splitlines()[-1]
    mean = float(summary.split(",")[1])
    assert mean == pytest.approx(2.0, rel=0.15)


def test_simulate_deterministic(tmp_path):
    ts = tmp_path / "ts.json"
    write_taskset(ts)
    plan_file = tmp_path / "plan.json"
    run_cli("plan", "--taskset", str(ts), "--out", str(plan_file))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        res = run_cli("simulate", "--plan", str(plan_file), "--trials", "100",
                      "--seed", "9", "--out", str(out))
        assert res.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_defaults_to_first_randomized_task(tmp_path):
    ts = tmp_path / "ts.json"
    write_taskset(ts)  # K* = 2 of 4: the controller is randomized
    plan_file = tmp_path / "plan.json"
    run_cli("plan", "--taskset", str(ts), "--out", str(plan_file))
    res = run_cli("simulate", "--plan", str(plan_file), "--trials", "20",
                  "--seed", "2", "--out", str(tmp_path / "s.csv"))
    assert res.returncode == 0, res.stderr
    assert "victim ctrl" in res.stderr


def test_simulate_nothing_detected_writes_empty_summary(tmp_path):
    ts = tmp_path / "ts.json"
    write_taskset(ts)
    plan_file = tmp_path / "plan.json"
    run_cli("plan", "--taskset", str(ts), "--out", str(plan_file))
    out = tmp_path / "s.csv"
    res = run_cli("simulate", "--plan", str(plan_file), "--accuracy", "0",
                  "--trials", "5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert "0 of 5 trials detected" in res.stderr
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 7
    assert lines[1:-1] == [f"{i},100000,0" for i in range(5)]
    assert lines[-1] == "summary,,"


@pytest.mark.parametrize(
    "argv, out_name",
    [
        (["sweep", "--fig", "6", "--tasksets-per-bucket", "0"], "fig6_coverage.csv"),
        (["sweep", "--fig", "7", "--jobs", "0"], "fig7_tradeoff.csv"),
        (["gen", "--tasksets-per-bucket", "0"], "manifest.json"),
    ],
)
def test_non_positive_counts_are_usage_errors(tmp_path, argv, out_name):
    res = run_cli(*argv, "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert "expected a positive integer" in res.stderr
    assert not (tmp_path / "out" / out_name).exists()


@pytest.mark.parametrize("argv", [["gen"], ["sweep", "--fig", "8"],
                                  ["simulate", "--plan", "plan.json"]])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1", "--out", str(out)])
    assert exc.value.code == 1
    assert "argument --seed: expected a non-negative integer, got '-1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("commands, message", [
    ("1,1", "error: compromised commands (1, 1) are not distinct"),
    (",,", "argument --commands: expected 'random' or comma-separated command numbers, got ',,'"),
])
def test_simulate_rejects_repeated_or_missing_commands(tmp_path, capsys, commands, message):
    ts = tmp_path / "ts.json"
    write_taskset(ts)
    plan_file = tmp_path / "plan.json"
    assert main(["plan", "--taskset", str(ts), "--out", str(plan_file)]) == 0
    out = tmp_path / "s.csv"
    try:
        code = main(["simulate", "--plan", str(plan_file), "--commands", commands,
                     "--out", str(out)])
    except SystemExit as exc:
        code = exc.code
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_zero_max_jobs(tmp_path):
    ts = tmp_path / "ts.json"
    write_taskset(ts)
    plan_file = tmp_path / "plan.json"
    run_cli("plan", "--taskset", str(ts), "--out", str(plan_file))
    out = tmp_path / "s.csv"
    res = run_cli("simulate", "--plan", str(plan_file), "--max-jobs", "0", "--out", str(out))
    assert res.returncode == 1
    assert "expected a positive integer" in res.stderr
    assert not out.exists()


def test_gen_with_platform_overhead_preset(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"scenario": "medium", "buckets": [0]}))
    out = tmp_path / "batch"
    res = run_cli("gen", "--spec", str(spec), "--out", str(out), "--seed", "1",
                  "--tasksets-per-bucket", "1", "--preset", "linux-optee")
    assert res.returncode == 0, res.stderr
    doc = json.loads(next(out.glob("taskset_*.json")).read_text())
    assert all(t["check_overhead"] == 66_000 for t in doc["tasks"])


def test_simulate_trigger_is_a_usage_error(tmp_path):
    # Jobs are i.i.d., so the first attacked job never affected a delay;
    # simulate no longer takes the option.
    ts, plan_file, out = tmp_path / "ts.json", tmp_path / "plan.json", tmp_path / "s.csv"
    write_taskset(ts)
    assert run_cli("plan", "--taskset", str(ts), "--out", str(plan_file)).returncode == 0
    res = run_cli("simulate", "--plan", str(plan_file), "--trigger", "3", "--out", str(out))
    assert res.returncode == 1
    assert "unrecognized arguments: --trigger 3" in res.stderr
    assert not out.exists()


def test_simulate_bad_plan_file(tmp_path):
    bad = tmp_path / "plan.json"
    bad.write_text("{not json")
    res = run_cli("simulate", "--plan", str(bad))
    assert res.returncode == 1


def test_sweep_unknown_fig_usage_error():
    res = run_cli("sweep", "--fig", "9")
    assert res.returncode == 1
    assert "invalid choice" in res.stderr


def test_sweep_fig6_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        res = run_cli("sweep", "--fig", "6", "--seed", "4",
                      "--tasksets-per-bucket", "3", "--out", str(out))
        assert res.returncode == 0, res.stderr
    assert (out_a / "fig6_coverage.csv").read_bytes() == (out_b / "fig6_coverage.csv").read_bytes()


def test_sweep_fig8_preserves_scheme_ordering(tmp_path):
    res = run_cli("sweep", "--fig", "8", "--seed", "4",
                  "--tasksets-per-bucket", "3", "--out", str(tmp_path))
    assert res.returncode == 0, res.stderr
    rows = (tmp_path / "fig8_acceptance.csv").read_text().strip().splitlines()[1:]
    table = {}
    for line in rows:
        b, scenario, metric, value, _, _ = line.split(",")
        table[(b, scenario, metric)] = float(value)
    for (b, scenario, _metric) in list(table):
        u = table[(b, scenario, "unsecured")]
        s = table[(b, scenario, "scate")]
        f = table[(b, scenario, "fine-grain")]
        assert u >= s >= f


def test_golden_fig8_bytes_on_two_cores_with_a_fixed_overhead(tmp_path):
    # 2 to 9 tasks on 2 cores: a two-task draw has a single fixed-sum level,
    # and the freertos preset fixes every task's check overhead.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"num_cores": 2, "tasks_min": 2, "tasks_max": 9}))
    assert main(["sweep", "--fig", "8", "--tasksets-per-bucket", "6", "--spec", str(spec),
                 "--preset", "freertos", "--out", str(tmp_path)]) == 0
    digest = hashlib.sha256((tmp_path / "fig8_acceptance.csv").read_bytes()).hexdigest()
    assert digest == "ddb3292ff1a30f39098c2a90bca9c62e3cb5714b239c4c3735c1c8a2095d9d01"


@pytest.mark.parametrize(
    "field, value",
    [
        ("weights", [1.0, float("nan"), 1.0, 1.0]),
        ("weights", [1.0, float("inf"), 1.0, 1.0]),
        ("weights", [1.0, "heavy", 1.0, 1.0]),
        ("min_checks", True),
        ("num_commands", True),
    ],
)
def test_plan_rejects_malformed_counts_and_weights(tmp_path, field, value):
    ts = tmp_path / "ts.json"
    write_taskset(ts)
    doc = json.loads(ts.read_text())
    doc["tasks"][0][field] = value
    ts.write_text(json.dumps(doc))
    res = run_cli("plan", "--taskset", str(ts), "--out", str(tmp_path / "p.json"))
    assert res.returncode == 1
    assert f"invalid taskset: task ctrl: {field}:" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "p.json").exists()


def test_plan_rejects_weights_whose_sum_overflows(tmp_path):
    """Each weight is finite and positive, but their float sum is not: the
    game's payoffs would be NaN, so validate names the task instead."""
    ts = tmp_path / "ts.json"
    write_taskset(ts)
    doc = json.loads(ts.read_text())
    doc["tasks"][0]["weights"] = [1e308, 1e308, 1.0, 1.0]
    ts.write_text(json.dumps(doc))
    res = run_cli("plan", "--taskset", str(ts), "--out", str(tmp_path / "p.json"))
    assert res.returncode == 1
    assert "invalid taskset: task ctrl: weights: the sum of the weights must be finite" in res.stderr
    assert "objective must be finite" not in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize("big_m", ["nan", "inf"])
def test_plan_rejects_non_finite_big_m(tmp_path, big_m):
    ts = tmp_path / "ts.json"
    write_taskset(ts)  # K* = 2 of 4, so a game is built
    res = run_cli("plan", "--taskset", str(ts), "--big-m", big_m, "--out", str(tmp_path / "p.json"))
    assert res.returncode == 1
    assert "error: big_m must be finite and positive" in res.stderr
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "p.json").exists()


@pytest.mark.parametrize(
    "option, value",
    [("--epsilon", "nan"), ("--epsilon", "inf"), ("--epsilon", "0"), ("--epsilon", "-1"),
     ("--big-m", "nan")],
)
def test_plan_rejects_unusable_game_options_without_a_game(tmp_path, option, value):
    ts = tmp_path / "ts.json"
    write_taskset(ts, overhead=1_000)  # K* = N: no game is built
    out = tmp_path / "p.json"
    assert run_cli("plan", "--taskset", str(ts), "--out", str(out)).returncode == 0
    out.unlink()
    res = run_cli("plan", "--taskset", str(ts), f"{option}={value}", "--out", str(out))
    assert res.returncode == 1
    assert f"error: {option[2:].replace('-', '_')} must be finite and positive" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


@pytest.mark.parametrize("fig", ["6", "8"])
def test_sweep_rejects_unusable_epsilon(tmp_path, fig):
    res = run_cli("sweep", "--fig", fig, "--epsilon=-1", "--tasksets-per-bucket", "1",
                  "--out", str(tmp_path / "out"))
    assert res.returncode == 1
    assert "error: epsilon must be finite and positive" in res.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param([], id="list"),
        pytest.param(1, id="number"),
        pytest.param({"time_unit": "us", "cores": 1, "tasks": 5}, id="tasks-int"),
        pytest.param({"time_unit": "us", "cores": 1, "tasks": [7]}, id="entry-int"),
        pytest.param({"time_unit": "us", "cores": "x", "tasks": []}, id="cores-string"),
        pytest.param({"time_unit": "us", "cores": 1, "tasks": [{
            "id": "a", "wcet": 10**400, "period": 10**401, "deadline": 10**401,
            "num_commands": 2, "min_checks": 1, "weights": [1.0, 1.0],
            "check_overhead": 10**399, "core": 0, "priority": 0}]}, id="times-beyond-float"),
    ],
)
def test_plan_rejects_malformed_taskset_file(tmp_path, doc):
    ts = tmp_path / "ts.json"
    ts.write_text(json.dumps(doc))
    out = tmp_path / "p.json"
    res = run_cli("plan", "--taskset", str(ts), "--out", str(out))
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_sweep_fig7_rejects_non_finite_big_m(tmp_path):
    res = run_cli("sweep", "--fig", "7", "--big-m", "nan", "--tasksets-per-bucket", "1",
                  "--out", str(tmp_path))
    assert res.returncode == 1
    assert "error: big_m must be finite and positive" in res.stderr
    assert not (tmp_path / "fig7_tradeoff.csv").exists()


def _plan_doc():
    return {
        "feasible": True,
        "tasks": [{
            "id": "ctrl", "num_commands": 6, "k_star": 2,
            "strategies": [[1, 2], [3, 4], [5, 6]],
            "probabilities": [0.5, 0.25, 0.25],
            "attacker_strategy": 1, "objective": -1.0,
        }],
    }


def _with_task(**changes):
    doc = _plan_doc()
    doc["tasks"][0].update(changes)
    return doc


@pytest.mark.parametrize(
    "doc",
    [
        pytest.param({"feasible": True, "tasks": 5}, id="tasks-int"),
        pytest.param({"feasible": True, "tasks": {"ctrl": {}}}, id="tasks-object"),
        pytest.param({"feasible": True, "tasks": _plan_doc()["tasks"] * 2}, id="duplicate-id"),
        pytest.param({"tasks": _plan_doc()["tasks"]}, id="feasible-missing"),
        pytest.param({"feasible": False, "tasks": _plan_doc()["tasks"]}, id="feasible-false"),
        pytest.param(_with_task(id=["ctrl"]), id="id-list"),
        pytest.param(_with_task(probabilities=[0.5, "0.25", 0.25]), id="probability-string"),
        pytest.param(_with_task(probabilities=[0.5, float("nan"), 0.25]), id="probability-nan"),
        pytest.param(_with_task(probabilities=[0.5, True, 0.25]), id="probability-bool"),
        pytest.param(_with_task(probabilities=[0.5, 0.5]), id="length-mismatch"),
        pytest.param(_with_task(probabilities="0.5"), id="probabilities-string"),
        pytest.param(_with_task(strategies=[[1, 2], [3, 4], [1, 99]]), id="command-out-of-range"),
        pytest.param(_with_task(strategies=[[1, 2], [3, 3], [5, 6]]), id="command-repeated"),
        pytest.param(_with_task(strategies=[[1, 2], [3, 4], [5]]), id="strategy-size"),
        pytest.param(_with_task(strategies=[[1, 2], [3, 4], [5, True]]), id="command-bool"),
        pytest.param(_with_task(strategies=[[1, 2], [3, 4], [5, 6.0]]), id="command-float"),
        pytest.param(_with_task(strategies=[[1, 2], [3, 4], 5]), id="strategy-int"),
        pytest.param(_with_task(k_star=True), id="k-star-bool"),
        pytest.param(_with_task(k_star=7), id="k-star-above-n"),
        pytest.param(_with_task(k_star=-1), id="k-star-negative"),
        pytest.param(_with_task(k_star=2.0), id="k-star-float"),
        pytest.param(_with_task(num_commands="6"), id="n-string"),
        pytest.param(_with_task(num_commands=False), id="n-bool"),
    ],
)
def test_simulate_rejects_malformed_plan(tmp_path, doc):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(doc))
    out = tmp_path / "sim.csv"
    res = run_cli("simulate", "--plan", str(plan_file), "--trials", "5", "--out", str(out))
    assert res.returncode == 1
    assert "error:" in res.stderr
    assert "Traceback" not in res.stderr
    assert not out.exists()


def test_simulate_accepts_well_formed_hand_written_plan(tmp_path):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(_plan_doc()))
    out = tmp_path / "sim.csv"
    res = run_cli("simulate", "--plan", str(plan_file), "--trials", "5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_text().splitlines()[-1].startswith("summary,")


def test_simulate_victim_matches_an_integer_task_id(tmp_path):
    ts = tmp_path / "ts.json"
    write_taskset(ts)
    doc = json.loads(ts.read_text())
    doc["tasks"][0]["id"] = 7
    ts.write_text(json.dumps(doc))
    plan_file = tmp_path / "plan.json"
    assert run_cli("plan", "--taskset", str(ts), "--out", str(plan_file)).returncode == 0
    assert json.loads(plan_file.read_text())["tasks"][0]["id"] == 7
    out = tmp_path / "sim.csv"
    res = run_cli("simulate", "--plan", str(plan_file), "--victim", "7", "--trials", "5",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert "victim 7:" in res.stderr
    assert out.read_text().splitlines()[-1].startswith("summary,")


def test_simulate_victim_matching_two_task_ids_is_an_error(tmp_path):
    doc = _plan_doc()
    doc["tasks"] = [dict(doc["tasks"][0], id=7), dict(doc["tasks"][0], id="7")]
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(doc))
    out = tmp_path / "sim.csv"
    res = run_cli("simulate", "--plan", str(plan_file), "--victim", "7", "--trials", "5",
                  "--out", str(out))
    assert res.returncode == 1
    assert "error: victim '7' matches task ids [7, '7']" in res.stderr
    assert not out.exists()


def in_process(*argv):
    """main(argv) in this process; a usage error's SystemExit gives its code."""
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def test_main_builds_one_parser_per_process(tmp_path, monkeypatch):
    built = []

    def counting_build_parser():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    cli._parser.cache_clear()
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"num_cores": 1, "n_fixed": 4, "buckets": [3]}))
    gen_dir, plan_file = tmp_path / "gen", tmp_path / "plan.json"
    assert in_process("gen", "--spec", spec, "--tasksets-per-bucket", 1, "--out", gen_dir) == 0
    taskset = gen_dir / json.loads((gen_dir / "manifest.json").read_text())["tasksets"][0]["file"]
    assert in_process("plan", "--taskset", taskset, "--out", plan_file) == 0
    assert in_process("simulate", "--plan", plan_file, "--trials", 20, "--out", tmp_path / "s.csv") == 0
    assert in_process("sweep", "--fig", 8, "--tasksets-per-bucket", 1, "--out", tmp_path) == 0
    assert len(built) == 1


def test_an_option_given_in_one_call_does_not_reach_the_next(tmp_path):
    ts, plan_file = tmp_path / "ts.json", tmp_path / "plan.json"
    write_taskset(ts)  # K* = 2 of 4: epsilon and the attacked commands show in the bytes
    assert in_process("plan", "--taskset", ts, "--out", plan_file) == 0

    def output(*argv):
        assert in_process(*argv, "--out", tmp_path / "out") == 0
        return (tmp_path / "out").read_bytes()

    for plain, option in [
        (("plan", "--taskset", ts), ("--epsilon", "1e-3")),
        (("simulate", "--plan", plan_file, "--trials", 20, "--seed", 4), ("--commands", 1)),
    ]:
        cli._parser.cache_clear()
        fresh = output(*plain)
        assert output(*plain, *option) != fresh
        assert output(*plain) == fresh


def test_a_usage_error_between_calls_leaves_the_next_output_unchanged(tmp_path, capsys):
    ts, plan_file = tmp_path / "ts.json", tmp_path / "plan.json"
    write_taskset(ts)
    assert in_process("plan", "--taskset", ts, "--out", plan_file) == 0
    simulate = ("simulate", "--plan", plan_file, "--trials", 20, "--seed", 6)
    assert in_process(*simulate, "--out", tmp_path / "before.csv") == 0
    for bad, message in [(("simulate", "--plan", plan_file, "--trials", 0), "expected a positive integer"),
                         (("sweep", "--fig", 9), "invalid choice")]:
        capsys.readouterr()
        assert in_process(*bad) == 1
        assert message in capsys.readouterr().err
        assert in_process(*simulate, "--out", tmp_path / "after.csv") == 0
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "before.csv").read_bytes()
