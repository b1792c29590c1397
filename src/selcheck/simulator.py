"""Per-job Monte-Carlo execution of a check plan under attack injection.

Each job of the victim task draws one checked subset by roulette-wheel
selection over the plan's distribution; an attack is caught at the first
job whose checked subset hits a compromised command.  Detection delay
counts jobs inclusively from the first attacked job, so a plan that
checks everything reads a delay of one job.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import TaskId, Taskset, assignment_at
from .planner import CheckPlan, TaskPlan
from .schedulability import is_schedulable

PROBABILITY_TOL = 1e-6

# The uniform check level each scheme must fit at.  scate needs only
# min_checks: the planner finds a K* for every taskset schedulable there.
SCHEME_LEVELS = {"unsecured": "zero", "fine-grain": "full", "scate": "min"}


@dataclass(frozen=True)
class AttackSpec:
    """What the adversary tampers with and when.

    commands is a fixed non-empty subset of the victim's command indices,
    or "random" for one uniformly drawn command per trial.  trigger is the
    0-based job index of the first attacked job, or "random".  persistent
    mode re-injects on every job from the trigger; one-shot touches only
    the trigger job.
    """

    victim: TaskId
    commands: tuple[int, ...] | str = "random"
    trigger: int | str = "random"
    mode: str = "persistent"

    def check(self, num_commands: int) -> None:
        if isinstance(self.commands, str):
            if self.commands != "random":
                raise ValueError(f"bad commands spec {self.commands!r}")
        else:
            if not self.commands:
                raise ValueError("compromised command set must be non-empty")
            if any(not 1 <= c <= num_commands for c in self.commands):
                raise ValueError("compromised command outside 1..N")
        if isinstance(self.trigger, str) and self.trigger != "random":
            raise ValueError(f"bad trigger spec {self.trigger!r}")
        if not isinstance(self.trigger, str) and self.trigger < 0:
            raise ValueError("trigger job index must be >= 0")
        if self.mode not in ("persistent", "one-shot"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class SimResult:
    """Per-trial delays in job counts; undetected trials are censored at the
    last simulated job and excluded from the summary statistics."""

    delays: tuple[int, ...]
    detected: tuple[bool, ...]

    @property
    def undetected(self) -> int:
        return sum(1 for d in self.detected if not d)

    def _detected_delays(self) -> list[int]:
        return [d for d, ok in zip(self.delays, self.detected) if ok]

    @property
    def mean_delay(self) -> float:
        hits = self._detected_delays()
        if not hits:
            raise ValueError("no detected trials")
        return sum(hits) / len(hits)

    @property
    def p99_delay(self) -> int:
        hits = sorted(self._detected_delays())
        if not hits:
            raise ValueError("no detected trials")
        rank = max(int(np.ceil(0.99 * len(hits))) - 1, 0)
        return hits[rank]


def roulette_select(x: Sequence[float], rng: np.random.Generator) -> int:
    """Index j with probability x[j], by cumulative-sum inversion of one draw."""
    if len(x) == 0:
        raise ValueError("empty probability vector")
    total = 0.0
    for v in x:
        if v < 0.0:
            raise ValueError("negative probability")
        total += v
    if abs(total - 1.0) > PROBABILITY_TOL:
        raise ValueError(f"probabilities sum to {total}, not 1")
    u = rng.random()
    acc = 0.0
    for j, v in enumerate(x):
        acc += v
        if u < acc:
            return j
    return len(x) - 1


def _checked_subset(entry: TaskPlan, rng: np.random.Generator) -> tuple[int, ...]:
    if entry.deterministic:
        return tuple(range(1, entry.num_commands + 1))
    return entry.strategies[roulette_select(entry.probabilities, rng)]


def run_detection_experiment(
    plan: CheckPlan,
    attack: AttackSpec,
    trials: int,
    max_jobs: int = 100_000,
    seed: int = 0,
    detection_accuracy: float = 1.0,
) -> SimResult:
    """Inject the attack `trials` times and measure per-trial detection delay.

    detection_accuracy < 1 turns each checked compromised command into an
    independent Bernoulli detection.  Per-trial generators derive from
    (seed, trial), so results do not depend on execution order.
    """
    if attack.victim not in plan.tasks:
        raise KeyError(f"victim {attack.victim!r} not in plan")
    entry = plan.tasks[attack.victim]
    if entry.num_commands < 1:
        raise ValueError(f"victim {attack.victim!r} issues no commands")
    attack.check(entry.num_commands)
    if not 0.0 <= detection_accuracy <= 1.0:
        raise ValueError("detection accuracy must be within [0, 1]")
    if trials < 1:
        raise ValueError("need at least one trial")

    delays: list[int] = []
    detected: list[bool] = []
    for trial in range(trials):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, trial))))
        if attack.trigger == "random":
            rng.integers(0, max_jobs)  # position in the job stream; delay is unaffected
        if attack.commands == "random":
            compromised = frozenset([int(rng.integers(1, entry.num_commands + 1))])
        else:
            compromised = frozenset(attack.commands)

        horizon = 1 if attack.mode == "one-shot" else max_jobs
        hit_at = 0
        for job in range(1, horizon + 1):
            checked = compromised & frozenset(_checked_subset(entry, rng))
            if detection_accuracy >= 1.0:
                caught = bool(checked)
            else:
                flips = [rng.random() < detection_accuracy for _ in sorted(checked)]
                caught = any(flips)
            if caught:
                hit_at = job
                break
        if hit_at:
            delays.append(hit_at)
            detected.append(True)
        else:
            delays.append(horizon)
            detected.append(False)
    return SimResult(delays=tuple(delays), detected=tuple(detected))


def result_csv(result: SimResult) -> str:
    """Trial rows plus one trailing summary row carrying mean and p99."""
    out = io.StringIO()
    out.write("trial,delay_jobs,detected\n")
    for i, (delay, ok) in enumerate(zip(result.delays, result.detected)):
        out.write(f"{i},{delay},{int(ok)}\n")
    out.write(f"summary,{result.mean_delay!r},{result.p99_delay}\n")
    return out.getvalue()


def coverage_ratio(plan: CheckPlan) -> float:
    """Mean of K/N over the plan's command-issuing tasks; 1 means full checking."""
    pairs = plan.coverage_pairs()
    if not pairs:
        raise ValueError("no tasks issue commands")
    return sum(k / n for k, n in pairs) / len(pairs)


def acceptance_ratio(tasksets: Sequence[Taskset | None], scheme: str) -> float:
    """Fraction of the batch schedulable under the scheme.

    None entries stand for generated workloads that fit on no partition;
    they count as unschedulable under every scheme.
    """
    if scheme not in SCHEME_LEVELS:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {tuple(SCHEME_LEVELS)}")
    if not tasksets:
        raise ValueError("empty batch")
    level = SCHEME_LEVELS[scheme]
    ok = sum(is_schedulable(ts, assignment_at(ts, level)) for ts in tasksets if ts is not None)
    return ok / len(tasksets)
