"""Command-line front end: gen, plan, simulate and sweep subcommands.

Machine-readable outputs (JSON documents, CSV) go to files or stdout;
human-oriented summaries go to stderr.  Exit codes: 0 on success, 2 when a
taskset cannot meet its minimum QoS requirements, 1 for any other failure
including usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

from . import experiments, game, planner, simulator, workload
from .model import _is_int, load_taskset, save_taskset, validate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INFEASIBLE = 2

# WorkloadSpec fields a --spec document may set; the rest come from options.
SPEC_FIELDS = ("num_cores", "n_fixed", "tasks_min", "tasks_max", "period_min_us", "period_max_us",
               "min_checks_fraction", "overhead_fraction", "overhead_preset")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; remap to the generic failure code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _non_negative_int(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


def _commands(text: str) -> tuple[int, ...] | str:
    """'random', or a comma-separated list of command numbers."""
    if text == "random":
        return text
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'random' or comma-separated command numbers, got {text!r}") from None


def _check_game_options(args) -> None:
    """--big-m and --epsilon must be usable even when no task needs a game."""
    for name in ("big_m", "epsilon"):
        value = getattr(args, name)
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _info(msg: str) -> None:
    print(msg, file=sys.stderr)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _read_spec(args) -> dict:
    """The --spec document ({} without one): an object with keys from
    SPEC_FIELDS, `scenario` and `buckets` only, whose `scenario` is a string
    and `buckets` a list of distinct integers; WorkloadSpec.check checks the
    rest."""
    doc = json.loads(Path(args.spec).read_text()) if args.spec else {}
    if not isinstance(doc, dict):
        raise ValueError(f"a workload spec must be a JSON object, got {type(doc).__name__}")
    unknown = [key for key in doc if key not in (*SPEC_FIELDS, "scenario", "buckets")]
    if unknown:
        raise ValueError(f"unknown spec key {unknown[0]!r}; a spec may set "
                         f"{', '.join(SPEC_FIELDS)}, scenario and buckets")
    if not isinstance(doc.get("scenario", ""), str):
        raise ValueError(f"spec scenario must be a string, got {doc['scenario']!r}")
    buckets = doc.get("buckets", [])
    if not (isinstance(buckets, list) and all(_is_int(b) for b in buckets)):
        raise ValueError(f"spec buckets must be a list of integers, got {buckets!r}")
    if len(set(buckets)) != len(buckets):
        raise ValueError(f"spec buckets must not repeat, got {buckets!r}")
    return doc


def _workload_spec(args, doc: dict, scenario: str, bucket: int) -> workload.WorkloadSpec:
    """The spec for one bucket: `doc`'s fields over the defaults, checked."""
    fields = {name: doc[name] for name in SPEC_FIELDS if name in doc}
    fields.setdefault("overhead_preset", None if args.preset == "custom" else args.preset)
    spec = workload.WorkloadSpec(
        utilization_bucket=bucket, scenario=scenario, seed=args.seed, **fields
    )
    spec.check()
    return spec


def cmd_gen(args) -> int:
    doc = _read_spec(args)
    scenario = doc.get("scenario", "medium")
    buckets = doc.get("buckets", list(range(workload.NUM_BUCKETS)))
    specs = [_workload_spec(args, doc, scenario, bucket) for bucket in buckets]
    scenario_idx = {"medium": 0, "high": 1}.get(scenario, 2)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = {"seed": args.seed, "scenario": scenario, "tasksets": []}
    unfilled = []
    for bucket, spec in zip(buckets, specs):
        paths = [(args.seed, 0, scenario_idx, bucket, index)
                 for index in range(args.tasksets_per_bucket)]
        tasksets = workload.gen_tasksets(spec, list(workload.taskset_rngs(paths)))
        missed = []
        for index, (path, taskset) in enumerate(zip(paths, tasksets)):
            if taskset is None:
                # A bucket near full utilization may never fit the partitioner.
                missed.append(index)
                continue
            name = f"taskset_{scenario}_b{bucket}_{index:04d}.json"
            save_taskset(taskset, out_dir / name)
            manifest["tasksets"].append(
                {"file": name, "bucket": bucket, "index": index, "seed_path": list(path)}
            )
        if missed:
            unfilled += [{"bucket": bucket, "index": index} for index in missed]
            reason = workload.GenerationError(spec, workload.RETRY_BUDGET)
            _info(f"warning: bucket {bucket}: {len(missed)} of {args.tasksets_per_bucket} "
                  f"tasksets unfilled: {reason}")
    if unfilled:
        manifest["unfilled"] = unfilled
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    if not manifest["tasksets"]:
        _info(f"error: no taskset written to {out_dir}")
        return EXIT_ERROR
    _info(f"wrote {len(manifest['tasksets'])} tasksets to {out_dir}")
    return EXIT_OK


def cmd_plan(args) -> int:
    _check_game_options(args)
    taskset = load_taskset(args.taskset)
    violations = validate(taskset)
    if violations:
        for v in violations:
            _info(f"invalid taskset: {v}")
        return EXIT_ERROR
    result = planner.plan(taskset, big_m=args.big_m, epsilon=args.epsilon)
    if isinstance(result, planner.Infeasible):
        _info(f"infeasible: {result.reason}")
        return EXIT_INFEASIBLE
    _emit(json.dumps(planner.plan_to_dict(result), indent=2) + "\n", args.out)
    if args.report_csv:
        from .schedulability import analyze, report_csv

        assignment = {e.task_id: e.k_star for e in result.tasks.values()}
        Path(args.report_csv).write_text(report_csv(analyze(taskset, assignment)))
    pairs = result.coverage_pairs()
    covered = simulator.coverage_ratio(pairs) if pairs else 1.0
    _info(f"feasible plan for {len(result.tasks)} tasks; coverage ratio {covered:.4f}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    plan = planner.load_plan(args.plan)
    victim = args.victim
    if victim is None:
        nondet = [e.task_id for e in plan.tasks.values() if not e.deterministic]
        pool = nondet or [e.task_id for e in plan.tasks.values() if e.num_commands > 0]
        if not pool:
            _info("plan contains no attackable task")
            return EXIT_ERROR
        victim = pool[0]
    else:
        # Task ids may be integers; --victim names one by its str().
        matches = [tid for tid in plan.tasks if str(tid) == victim]
        if not matches:
            _info(f"victim {victim!r} not in plan")
            return EXIT_ERROR
        if len(matches) > 1:
            raise ValueError(f"victim {victim!r} matches task ids {matches!r}")
        victim = matches[0]
    attack = simulator.AttackSpec(
        victim=victim,
        commands=args.commands,
        mode=args.mode,
    )
    result = simulator.run_detection_experiment(
        plan,
        attack,
        trials=args.trials,
        max_jobs=args.max_jobs,
        seed=args.seed,
        detection_accuracy=args.accuracy,
    )
    _emit(simulator.result_csv(result), args.out)
    detected = args.trials - result.undetected
    summary = f"victim {victim}: {detected} of {args.trials} trials detected"
    if detected:
        summary += f", mean delay {result.mean_delay:.3f} jobs, p99 {result.p99_delay}"
    _info(summary)
    return EXIT_OK


def cmd_sweep(args) -> int:
    _check_game_options(args)
    doc = _read_spec(args)
    # Each figure sets these: figs 6 and 8 run all buckets of both scenarios, fig 7 medium at N = 5.
    for key in ("n_fixed", "buckets", "scenario"):
        if key in doc:
            raise ValueError(f"sweep sets {key} per figure; remove it from the spec")
    base = _workload_spec(args, doc, "medium", 0)
    for bucket in range(1, workload.NUM_BUCKETS):  # a task-count range must carry every bucket
        _workload_spec(args, doc, "medium", bucket)
    out_dir = Path(args.out) if args.out else Path(".")
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.fig == 6:
        result = experiments.sweep_coverage(base, args.tasksets_per_bucket, jobs=args.jobs)
        path = out_dir / "fig6_coverage.csv"
    elif args.fig == 7:
        result = experiments.sweep_detection_tradeoff(
            base,
            tasksets_per_bucket=args.tasksets_per_bucket,
            jobs=args.jobs,
            big_m=args.big_m,
            epsilon=args.epsilon,
        )
        path = out_dir / "fig7_tradeoff.csv"
    else:
        result = experiments.sweep_acceptance(base, args.tasksets_per_bucket, jobs=args.jobs)
        path = out_dir / "fig8_acceptance.csv"
    path.write_text(result.to_csv())
    _info(f"wrote {path} ({len(result.rows)} rows)")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="selcheck", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("gen", help="generate random taskset files")
    p_gen.add_argument("--spec", help="workload spec JSON (cores, scenario, buckets, ...)")
    p_gen.add_argument("--out", required=True, help="output directory")
    p_gen.add_argument("--seed", type=_non_negative_int, default=0)
    p_gen.add_argument("--tasksets-per-bucket", type=_positive_int, default=50)
    p_gen.add_argument("--preset", choices=["linux-optee", "freertos", "custom"], default="custom",
                       help="per-command overhead: platform constant, or 'custom' for 10%% of wcet")
    p_gen.set_defaults(func=cmd_gen)

    p_plan = sub.add_parser("plan", help="compute check budgets and distributions for a taskset")
    p_plan.add_argument("--taskset", required=True, help="taskset JSON file")
    p_plan.add_argument("--out", help="plan JSON output (default stdout)")
    p_plan.add_argument("--big-m", type=float, default=game.DEFAULT_BIG_M)
    p_plan.add_argument("--epsilon", type=float, default=game.DEFAULT_EPSILON)
    p_plan.add_argument("--report-csv", help="also write the response-time report CSV here")
    p_plan.set_defaults(func=cmd_plan)

    p_sim = sub.add_parser("simulate", help="run attack-injection trials against a plan")
    p_sim.add_argument("--plan", required=True, help="plan JSON file")
    p_sim.add_argument("--victim", help="victim task id (default: first randomized task)")
    p_sim.add_argument("--commands", type=_commands, default="random",
                       help="compromised commands, e.g. '1,3', or 'random' (default)")
    p_sim.add_argument("--mode", choices=["persistent", "one-shot"], default="persistent")
    p_sim.add_argument("--trials", type=_positive_int, default=1000)
    p_sim.add_argument("--max-jobs", type=_positive_int, default=simulator.DEFAULT_MAX_JOBS)
    p_sim.add_argument("--accuracy", type=float, default=1.0,
                       help="per-command detection probability (default 1.0)")
    p_sim.add_argument("--seed", type=_non_negative_int, default=0)
    p_sim.add_argument("--out", help="result CSV output (default stdout)")
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run a utilization sweep and write its CSV")
    p_sweep.add_argument("--fig", type=int, choices=[6, 7, 8], required=True,
                         help="6 coverage, 7 delay tradeoff, 8 acceptance ratio")
    p_sweep.add_argument("--spec", help="workload spec JSON overriding defaults")
    p_sweep.add_argument("--out", help="output directory (default .)")
    p_sweep.add_argument("--seed", type=_non_negative_int, default=0)
    p_sweep.add_argument("--jobs", type=_positive_int, default=1,
                         help="worker processes; the bucket cells are split into one contiguous "
                              "group per worker")
    p_sweep.add_argument("--tasksets-per-bucket", type=_positive_int, default=50)
    p_sweep.add_argument("--big-m", type=float, default=game.DEFAULT_BIG_M)
    p_sweep.add_argument("--epsilon", type=float, default=game.DEFAULT_EPSILON)
    p_sweep.add_argument("--preset", choices=["linux-optee", "freertos", "custom"], default="custom")
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser `main` uses, built on first use and kept for the process:
    parse_args returns a fresh Namespace per call and keeps no state."""
    return build_parser()


def main(argv=None) -> int:
    """Run one verb; may be called repeatedly in one process."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, OverflowError, ValueError, KeyError, json.JSONDecodeError,
            workload.GenerationError, game.GameInfeasibleError) as exc:
        _info(f"error: {exc}")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
