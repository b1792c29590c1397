"""Attack-injection trials against a check plan, drawn from the exact delay law.

Each job of the victim task checks a subset drawn independently from the
plan's distribution, so an attack on a compromised set S is caught in
every job with one fixed probability p_S and the first catching job is
Geometric(p_S).  Detection delay counts jobs inclusively from the first
attacked job, so a plan that checks everything reads a delay of one job.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Sequence

import numpy as np

from .model import TaskId
from .planner import CheckPlan, TaskPlan

PROBABILITY_TOL = 1e-6

# Jobs a persistent attack runs before it counts as undetected.
DEFAULT_MAX_JOBS = 100_000


@dataclass(frozen=True)
class AttackSpec:
    """What the adversary tampers with.

    commands is a fixed non-empty set of distinct command indices of the victim,
    or "random" for one uniformly drawn command per trial.  persistent mode
    re-injects on every job from the first attacked one; one-shot touches
    only that job.  Jobs are i.i.d., so the job the attack starts at does
    not affect the delay.
    """

    victim: TaskId
    commands: tuple[int, ...] | str = "random"
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
            if len(set(self.commands)) != len(self.commands):
                raise ValueError(f"compromised commands {self.commands!r} are not distinct")
        if self.mode not in ("persistent", "one-shot"):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass(frozen=True)
class SimResult:
    """Per-trial delays in job counts; undetected trials are censored at the
    attack's horizon and excluded from the summary statistics."""

    delays: tuple[int, ...]
    detected: tuple[bool, ...]

    @functools.cached_property
    def detected_delays(self) -> list[int]:
        """The detected trials' delays in ascending order, filtered once per result."""
        return sorted(compress(self.delays, self.detected))

    @property
    def undetected(self) -> int:
        return len(self.delays) - len(self.detected_delays)

    @property
    def mean_delay(self) -> float:
        hits = self.detected_delays
        if not hits:
            raise ValueError("no detected trials")
        return sum(hits) / len(hits)

    @property
    def p99_delay(self) -> int:
        hits = self.detected_delays
        if not hits:
            raise ValueError("no detected trials")
        return hits[max(math.ceil(0.99 * len(hits)) - 1, 0)]


def _checked_distribution(entry: TaskPlan) -> tuple[tuple[tuple[int, ...], ...], tuple[float, ...]]:
    """The entry's (strategies, probabilities).  Plan files come from
    outside, so ValueError unless the probabilities are non-negative, sum
    to 1 and match the strategies in length."""
    strategies, x = entry.distribution()
    if len(x) != len(strategies):
        raise ValueError(f"{len(x)} probabilities for {len(strategies)} strategies")
    if any(v < 0.0 for v in x):
        raise ValueError("negative probability")
    if not abs(sum(x) - 1.0) <= PROBABILITY_TOL:  # also true of a NaN sum
        raise ValueError(f"probabilities sum to {sum(x)}, not 1")
    return strategies, x


def detection_probability(entry: TaskPlan, compromised: Iterable[int], accuracy: float) -> float:
    """Chance that one job of the task catches an attack on `compromised`.

    p_S = sum_j x_j (1 - (1 - a)^|X_j & S|) / sum_j x_j over the checked
    subsets X_j and their probabilities x_j (a deterministic entry checks
    every command with x = 1); a is the detection accuracy.  Dividing by
    sum_j x_j keeps p_S exactly 1.0 when every subset catches the attack.
    ValueError on a malformed distribution (see `_checked_distribution`).
    """
    strategies, x = _checked_distribution(entry)
    attacked = frozenset(compromised)
    miss = 1.0 - accuracy
    caught = 0.0  # added left to right as in catch_mass: sum() compensates from 3.12 on
    for s, v in zip(strategies, x):
        caught += v * (1.0 - miss ** len(attacked.intersection(s)))
    return caught / sum(x)


def catch_mass(entry: TaskPlan, accuracy: float = 1.0) -> tuple[float, ...]:
    """Per command c, the plan's mass that catches an attack on c alone in one job.

    Entry c - 1 sums x_j (1 - (1 - a)) over the checked subsets X_j that
    hold c, in strategy order, in one pass over the strategies; 1 - (1 - a)
    rounds as `detection_probability` does.  At a = 1 it is c's marginal
    check probability.  Divided by sum_j x_j it is
    `detection_probability(entry, (c,), a)` bit for bit: there a subset
    without c adds exactly 0.0.  ValueError on a malformed distribution.
    """
    strategies, x = _checked_distribution(entry)
    catch = 1.0 - (1.0 - accuracy)
    mass = [0.0] * entry.num_commands
    for s, v in zip(strategies, x):
        for c in s:
            mass[c - 1] += v * catch
    return tuple(mass)


def run_detection_experiment(
    plan: CheckPlan,
    attack: AttackSpec,
    trials: int,
    max_jobs: int = DEFAULT_MAX_JOBS,
    seed: int = 0,
    detection_accuracy: float = 1.0,
) -> SimResult:
    """Inject the attack `trials` times; each trial's delay is one exact draw.

    Jobs draw their checked subsets i.i.d., so an attack on a compromised
    set S is caught in each job with probability p_S
    (`detection_probability`) and its delay is Geometric(p_S), censored at
    the horizon: `max_jobs` when persistent, 1 when one-shot.  A censored
    trial (every trial when p_S = 0) is undetected and records the horizon.
    commands="random" first draws each trial's command uniformly; all
    draws come from one generator seeded by `seed`.
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
    if max_jobs < 1:
        raise ValueError("need a horizon of at least one job")

    rng = np.random.default_rng(seed)
    if attack.commands == "random":
        table = np.array(catch_mass(entry, detection_accuracy)) / sum(entry.distribution()[1])
        p = table[rng.integers(0, entry.num_commands, size=trials)]
    else:
        p = np.full(trials, detection_probability(entry, attack.commands, detection_accuracy))
    horizon = 1 if attack.mode == "one-shot" else max_jobs
    # numpy's geometric rejects p = 0; such trials are undetected whatever the draw.
    first = rng.geometric(np.where(p > 0.0, p, 1.0))
    detected = (p > 0.0) & (first <= horizon)
    delays = np.where(detected, first, horizon)
    return SimResult(delays=tuple(delays.tolist()), detected=tuple(detected.tolist()))


@functools.lru_cache(maxsize=4)
def _rows_template(trials: int) -> str:
    """The CSV header and `trials` numbered rows, each with two %d fields."""
    return "trial,delay_jobs,detected\n" + "".join(f"{i},%d,%d\n" for i in range(trials))


def result_csv(result: SimResult) -> str:
    """Trial rows plus one trailing summary row carrying mean and p99 of the
    detected trials; both fields are empty when no trial was detected."""
    fields = [0] * (2 * len(result.delays))
    fields[0::2] = result.delays
    fields[1::2] = result.detected
    rows = _rows_template(len(result.delays)) % tuple(fields)
    if result.detected_delays:
        return rows + f"summary,{result.mean_delay!r},{result.p99_delay}\n"
    return rows + "summary,,\n"


def mean_detected_delay(catch: Sequence[float], horizon: int) -> float:
    """Exact mean delay of a detected attack on one uniformly drawn command.

    Command c is caught in each job with probability p_c, so its delay D_c
    is Geometric(p_c) censored at `horizon` H; the mean that
    `run_detection_experiment` converges to (commands="random", persistent)
    is sum_c E[D_c; D_c <= H] / sum_c P(D_c <= H), where P(D <= H) =
    1 - (1-p)^H and E[D; D <= H] = (1 - (1-p)^H (1 + H p)) / p, both via
    expm1/log1p.  A p_c = 0 term adds nothing; ValueError if all are 0.
    The quotient is clamped into [1, H], the exact range of a censored
    delay's mean, which roundoff can leave by an ulp.
    """
    expected = detected = 0.0
    for p in catch:
        if p > 0.0:
            log_miss_all = horizon * math.log1p(-p) if p < 1.0 else -math.inf
            detected -= math.expm1(log_miss_all)
            expected -= math.expm1(log_miss_all + math.log1p(horizon * p)) / p
    if detected == 0.0:
        raise ValueError("no command can be caught")
    return min(max(expected / detected, 1.0), float(horizon))


def coverage_ratio(pairs: Sequence[tuple[int, int]]) -> float:
    """Mean of K/N over (k_star, num_commands) pairs; 1 means full checking."""
    if not pairs:
        raise ValueError("no tasks issue commands")
    return sum(k / n for k, n in pairs) / len(pairs)
