"""Attack-injection trials against a check plan, drawn from the exact delay law.

Each job of the victim task checks a subset drawn independently from the
plan's distribution, so an attack on a compromised set S is caught in
every job with one fixed probability p_S and the first catching job is
Geometric(p_S).  Detection delay counts jobs inclusively from the first
attacked job, so a plan that checks everything reads a delay of one job.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import CoreColumns, TaskId, Taskset
from .planner import CheckPlan, TaskPlan
from .schedulability import checked_wcets, meets_deadlines

PROBABILITY_TOL = 1e-6

# Jobs a persistent attack runs before it counts as undetected.
DEFAULT_MAX_JOBS = 100_000

# The uniform check level each scheme must fit at.  scate needs only
# min_checks: the planner finds a K* for every taskset schedulable there.
SCHEME_LEVELS = {"unsecured": "zero", "fine-grain": "full", "scate": "min"}


@dataclass(frozen=True)
class AttackSpec:
    """What the adversary tampers with and when.

    commands is a fixed non-empty subset of the victim's command indices,
    or "random" for one uniformly drawn command per trial.  trigger is the
    0-based job index of the first attacked job, or "random"; jobs are
    i.i.d., so it does not affect the delay.  persistent mode re-injects on
    every job from the trigger; one-shot touches only the trigger job.
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
    attack's horizon and excluded from the summary statistics."""

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


def detection_probability(entry: TaskPlan, compromised: Iterable[int], accuracy: float) -> float:
    """Chance that one job of the task catches an attack on `compromised`.

    p_S = sum_j x_j (1 - (1 - a)^|X_j & S|) / sum_j x_j over the checked
    subsets X_j and their probabilities x_j (a deterministic entry checks
    every command with x = 1); a is the detection accuracy.  Dividing by
    sum_j x_j keeps p_S exactly 1.0 when every subset catches the attack.
    Plan files come from outside, so the vector is checked first:
    ValueError unless it is non-negative, sums to 1 and matches the
    strategies in length.
    """
    strategies, x = entry.distribution()
    if len(x) != len(strategies):
        raise ValueError(f"{len(x)} probabilities for {len(strategies)} strategies")
    if any(v < 0.0 for v in x):
        raise ValueError("negative probability")
    if abs(sum(x) - 1.0) > PROBABILITY_TOL:
        raise ValueError(f"probabilities sum to {sum(x)}, not 1")
    attacked = frozenset(compromised)
    miss = 1.0 - accuracy
    caught = sum(v * (1.0 - miss ** len(attacked.intersection(s))) for s, v in zip(strategies, x))
    return caught / sum(x)


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
        table = np.array(
            [detection_probability(entry, (c,), detection_accuracy)
             for c in range(1, entry.num_commands + 1)]
        )
        p = table[rng.integers(0, entry.num_commands, size=trials)]
    else:
        p = np.full(trials, detection_probability(entry, attack.commands, detection_accuracy))
    horizon = 1 if attack.mode == "one-shot" else max_jobs
    # numpy's geometric rejects p = 0; such trials are undetected whatever the draw.
    first = rng.geometric(np.where(p > 0.0, p, 1.0))
    detected = (p > 0.0) & (first <= horizon)
    delays = np.where(detected, first, horizon)
    return SimResult(delays=tuple(delays.tolist()), detected=tuple(detected.tolist()))


def result_csv(result: SimResult) -> str:
    """Trial rows plus one trailing summary row carrying mean and p99 of the
    detected trials; both fields are empty when no trial was detected."""
    out = io.StringIO()
    out.write("trial,delay_jobs,detected\n")
    for i, (delay, ok) in enumerate(zip(result.delays, result.detected)):
        out.write(f"{i},{delay},{int(ok)}\n")
    if any(result.detected):
        out.write(f"summary,{result.mean_delay!r},{result.p99_delay}\n")
    else:
        out.write("summary,,\n")
    return out.getvalue()


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


def _fits(cores: Iterable[CoreColumns], level: str) -> bool:
    """True iff every core meets its deadlines with each task at the uniform check level."""
    for c in cores:
        if level == "zero":
            wcets = c.wcets
        else:
            wcets = checked_wcets(c, c.min_checks if level == "min" else c.num_commands)
        if not meets_deadlines(c, wcets):
            return False
    return True


def schedulable_schemes(placed: Taskset | Sequence[CoreColumns]) -> dict[str, bool]:
    """Whether a valid taskset (or a drawn one's per-core columns) is
    schedulable under each scheme, in two bound tests.

    The bound is monotone in every k and 0 <= min_checks <= num_commands, so
    a taskset that fits at min_checks fits unsecured, and one that does not
    fits under neither scate nor fine-grain.
    """
    cores = placed.core_columns.values() if isinstance(placed, Taskset) else placed
    if _fits(cores, "min"):
        return {"unsecured": True, "fine-grain": _fits(cores, "full"), "scate": True}
    return {"unsecured": _fits(cores, "zero"), "fine-grain": False, "scate": False}


def acceptance_ratios(
    tasksets: Sequence[Taskset | Sequence[CoreColumns] | None],
) -> dict[str, float]:
    """Fraction of the batch schedulable under each scheme, judging each taskset once.

    Entries are Tasksets or drawn per-core columns; None entries stand for
    generated workloads that fit on no partition, and count as
    unschedulable under every scheme.
    """
    if not tasksets:
        raise ValueError("empty batch")
    ok = dict.fromkeys(SCHEME_LEVELS, 0)
    for ts in tasksets:
        if ts is not None:
            for scheme, fits in schedulable_schemes(ts).items():
                ok[scheme] += fits
    return {scheme: count / len(tasksets) for scheme, count in ok.items()}


def acceptance_ratio(
    tasksets: Sequence[Taskset | Sequence[CoreColumns] | None], scheme: str
) -> float:
    """Fraction of the batch schedulable under one scheme (see `acceptance_ratios`)."""
    if scheme not in SCHEME_LEVELS:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {tuple(SCHEME_LEVELS)}")
    return acceptance_ratios(tasksets)[scheme]
