"""Quick checks of the benchmark itself: tiny runs of every workload, the
traced comparison, the refusal to run without the program, and the output
checkers rejecting wrong outputs.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from oracle import TasksetDoc, check_plan, random_command_delay  # noqa: E402
from workloads import SIM_TRIALS, SWEEP_PER_BUCKET, WORKLOADS, AttackSim, SweepAccept  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_file_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(workload):
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "0.3", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = last_json(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["plan-equal", "plan-weighted"])
def test_traced_run_matches_untraced_bytes(workload):
    # Long enough for the untraced half to reach the cycle's two-game call,
    # whose games repeat earlier ones.
    proc = run_bench("--workload", workload, "--seed", "0", "--seconds", "4", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "outputs byte-identical traced vs untraced: yes" in proc.stdout
    result = last_json(proc)
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    repeat = result["metrics"]["game.solve.repeat_frac"]["value"]
    assert (repeat == 0) if workload == "plan-weighted" else (repeat > 0)


def test_runs_at_the_same_time_keep_their_files_apart():
    procs = [subprocess.Popen([sys.executable, str(HERE / "run.py"), "--workload", "plan-weighted",
                               "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for seed, trace in ((1, 0), (2, 0), (3, 1))]
    for proc in procs:
        out, err = proc.communicate(timeout=170)
        assert proc.returncode == 0, out + err
        assert json.loads(out.strip().splitlines()[-1])["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "plan-equal", "--seed", "0", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _single_task_taskset(overhead):
    return TasksetDoc({"time_unit": "us", "cores": 1, "tasks": [{
        "id": "t0", "wcet": 100, "period": 1000, "deadline": 1000, "num_commands": 3,
        "min_checks": 1, "weights": [1.0, 1.0, 1.0], "check_overhead": overhead,
        "core": 0, "priority": 0}]})


def test_plan_checker_rejects_wrong_budget_and_distribution():
    ts = _single_task_taskset(overhead=400)  # 100 + 2*400 fits, 100 + 3*400 does not
    assert ts.budgets() == {"t0": 2}
    good = {"feasible": True, "tasks": [{
        "id": "t0", "num_commands": 3, "k_star": 2, "strategies": [[1, 2], [1, 3], [2, 3]],
        "probabilities": [0.4, 0.3, 0.3], "attacker_strategy": 1, "objective": 0.0}]}
    assert check_plan(ts, good, 1e-6) == []
    low_k = json.loads(json.dumps(good))
    low_k["tasks"][0].update(k_star=1, strategies=[[1], [2], [3]])
    assert any("K*+1" in p for p in check_plan(ts, low_k, 1e-6))
    bad_sum = json.loads(json.dumps(good))
    bad_sum["tasks"][0]["probabilities"] = [0.5, 0.3, 0.3]
    assert any("sum" in p for p in check_plan(ts, bad_sum, 1e-6))


def test_sweep_checker_rejects_misordered_schemes():
    rows = ["bin,scenario,metric,value,samples,seed"]
    for b in range(10):
        for s in ("medium", "high"):
            for m, v in (("unsecured", 1.0), ("scate", 0.5), ("fine-grain", 0.25)):
                rows.append(f"{b},{s},{m},{v!r},{SWEEP_PER_BUCKET},7")
    text = "\n".join(rows) + "\n"
    assert SweepAccept.check_csv(text, 7) == []
    assert SweepAccept.check_csv(text.replace("0,medium,scate,0.5", "0,medium,scate,0.1"), 7)


def _sim_csv(delays, mean_text=None):
    rows = ["trial,delay_jobs,detected"] + [f"{i},{d},1" for i, d in enumerate(delays)]
    mean = sum(delays) / len(delays)
    return "\n".join(rows + [f"summary,{mean_text or repr(mean)},{max(delays)}"]) + "\n"


def test_simulate_checker_uses_exact_mean():
    # Each command is checked in half the jobs: p_c = accuracy / 2 for both.
    entry = {"num_commands": 2, "strategies": [[1], [2]], "probabilities": [0.5, 0.5]}
    mean, _ = random_command_delay(entry, 0.01)
    assert mean == pytest.approx(200.0)
    assert AttackSim.check_csv(_sim_csv([200] * SIM_TRIALS), entry) == []
    assert AttackSim.check_csv(_sim_csv([400] * SIM_TRIALS), entry)
    assert AttackSim.check_csv(_sim_csv([200] * SIM_TRIALS, mean_text="201.0"), entry)
