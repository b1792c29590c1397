"""Design-time toolkit for randomized actuation-command checking in
partitioned fixed-priority real-time systems: feasibility analysis,
check-budget selection via a leader-follower game, attack-injection
simulation and utilization sweeps."""

from .model import (
    OVERHEAD_PRESETS_US,
    Platform,
    Task,
    Taskset,
    Violation,
    assignment_at,
    load_taskset,
    save_taskset,
    validate,
)
from .schedulability import (
    ResponseTimeReport,
    analyze,
    is_schedulable,
    tee_wcet,
)
from .lp import LinearProgram, LpSolution, solve_lp
from .game import (
    GameInstance,
    GameSolution,
    enumerate_attacker_strategies,
    enumerate_designer_strategies,
    lp_for_attacker_strategy,
    solve_game,
)
from .planner import (
    CheckPlan,
    Infeasible,
    TaskPlan,
    assign_check_budgets,
    load_plan,
    max_feasible_k,
    plan,
)
from .workload import WorkloadSpec, gen_tasksets, randfixedsum, taskset_rngs
from .simulator import (
    AttackSpec,
    SimResult,
    catch_mass,
    coverage_ratio,
    detection_probability,
    mean_detected_delay,
    run_detection_experiment,
)
from .experiments import SweepResult, sweep_acceptance, sweep_coverage, sweep_detection_tradeoff

__version__ = "0.1.0"
