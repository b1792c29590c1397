"""Independent reference computations the benchmark checks outputs against.

These re-derive, from the taskset and plan files alone, what the program's
answers must satisfy.  They import nothing from the program, so a change to
the program cannot also change what it is checked against.

The response bound is the closed linear form the program documents,
evaluated with the same operation order (float start, then one product per
higher-priority task in priority order) so that results agree bit for bit
at the deadline tolerance.
"""

from __future__ import annotations

import json
import math
from itertools import combinations
from pathlib import Path

TIME_TOL = 1e-9
PROB_SUM_TOL = 1e-6


class TasksetDoc:
    """A taskset file, indexed for repeated bound evaluation."""

    def __init__(self, doc: dict):
        self.tasks = {t["id"]: t for t in doc["tasks"]}
        cores: dict[int, list[dict]] = {}
        for t in doc["tasks"]:
            cores.setdefault(t["core"], []).append(t)
        # Per core, highest priority (smallest rank) first.
        self.order = [
            t["id"]
            for core in sorted(cores)
            for t in sorted(cores[core], key=lambda t: t["priority"])
        ]
        self.hp = {}
        self.lp = {}
        for core_tasks in cores.values():
            ranked = sorted(core_tasks, key=lambda t: t["priority"])
            for pos, t in enumerate(ranked):
                self.hp[t["id"]] = [h["id"] for h in ranked[:pos]]
                self.lp[t["id"]] = [l["id"] for l in ranked[pos + 1:]]

    @classmethod
    def load(cls, path: str | Path) -> "TasksetDoc":
        return cls(json.loads(Path(path).read_text()))

    def bound(self, tid, ks: dict) -> float:
        t = self.tasks[tid]
        r = float(t["wcet"] + ks[tid] * t["check_overhead"])
        for hid in self.hp[tid]:
            h = self.tasks[hid]
            r += (1.0 + t["deadline"] / h["period"]) * (h["wcet"] + ks[hid] * h["check_overhead"])
        return r

    def meets(self, tid, ks: dict) -> bool:
        return self.bound(tid, ks) <= self.tasks[tid]["deadline"] + TIME_TOL

    def schedulable(self, ks: dict) -> bool:
        return all(self.meets(tid, ks) for tid in self.order)

    def budgets(self) -> dict | None:
        """Greedy K* in priority order; None when min_checks already overloads."""
        ks = {tid: t["min_checks"] for tid, t in self.tasks.items()}
        if not self.schedulable(ks):
            return None
        for tid in self.order:
            t = self.tasks[tid]
            for k in range(t["num_commands"], t["min_checks"] - 1, -1):
                ks[tid] = k
                if all(self.meets(x, ks) for x in [tid, *self.lp[tid]]):
                    break
        return ks

    def profile(self):
        """'infeasible', or the sorted K* of the tasks that need a game."""
        ks = self.budgets()
        if ks is None:
            return "infeasible"
        return tuple(sorted(k for tid, k in ks.items() if 0 < k < self.tasks[tid]["num_commands"]))


def check_plan(ts: TasksetDoc, plan: dict, epsilon: float) -> list[str]:
    """Problems with a plan document, judged by meaning; empty means correct."""
    problems = []
    entries = {e["id"]: e for e in plan.get("tasks", [])}
    if plan.get("feasible") is not True:
        problems.append("plan not marked feasible")
    if set(entries) != set(ts.tasks):
        return problems + ["plan task ids differ from the taskset"]
    ks = {}
    for tid, e in entries.items():
        t = ts.tasks[tid]
        n, k = t["num_commands"], e["k_star"]
        ks[tid] = k
        if e["num_commands"] != n or not t["min_checks"] <= k <= n:
            problems.append(f"{tid}: k_star {k} outside [{t['min_checks']}, {n}]")
            continue
        strategies = [tuple(s) for s in e["strategies"]]
        probs = e["probabilities"]
        if k == n:
            if strategies or probs:
                problems.append(f"{tid}: full checking carries a distribution")
            continue
        if sorted(strategies) != list(combinations(range(1, n + 1), k)):
            problems.append(f"{tid}: strategies are not the {k}-subsets of 1..{n}")
        if len(probs) != len(strategies):
            problems.append(f"{tid}: {len(probs)} probabilities for {len(strategies)} strategies")
        elif abs(math.fsum(probs) - 1.0) > PROB_SUM_TOL:
            problems.append(f"{tid}: probabilities sum to {math.fsum(probs)!r}")
        elif min(probs) < epsilon * (1.0 - 1e-9):
            problems.append(f"{tid}: probability {min(probs)!r} below epsilon {epsilon!r}")
    if problems:
        return problems
    if not ts.schedulable(ks):
        problems.append("taskset not schedulable at K*")
    for tid, k in ks.items():
        if k < ts.tasks[tid]["num_commands"] and ts.schedulable({**ks, tid: k + 1}):
            problems.append(f"{tid}: still schedulable at K*+1 = {k + 1}")
    return problems


def marginals(entry: dict) -> list[float]:
    """Per-command probability of being checked in one job."""
    n = entry["num_commands"]
    if not entry["strategies"]:
        return [1.0] * n
    m = [0.0] * n
    for strategy, p in zip(entry["strategies"], entry["probabilities"]):
        for c in strategy:
            m[c - 1] += p
    return m


def random_command_delay(entry: dict, accuracy: float) -> tuple[float, float]:
    """Exact mean and standard deviation of the persistent-attack delay.

    One compromised command c, drawn uniformly per trial, is caught in a job
    with probability p_c = accuracy * marginal_c, independently per job, so
    the delay given c is Geometric(p_c).  The mean is the average over c of
    1 / p_c; the variance is that of the equal-weight mixture.
    """
    ps = [accuracy * m for m in marginals(entry)]
    mean = sum(1.0 / p for p in ps) / len(ps)
    second = sum((2.0 - p) / (p * p) for p in ps) / len(ps)
    return mean, math.sqrt(max(second - mean * mean, 0.0))
