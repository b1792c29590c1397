#!/usr/bin/env python3
"""selcheck benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a source checkout; the program is imported from its `src`
directory and every verb call goes in process through `selcheck.cli.main`,
one call at a time (closed loop, one client, no think time).

--trace 0 sets the workload up several times (reporting the median set-up
time), then issues calls until S seconds of call time have been measured,
and checks every output.  It prints the end-to-end metrics.  Times are
scaled to a nominal host speed measured by a reference kernel run between
calls and set-up steps (see HostSpeed); raw figures are printed beside them.

--trace 1 runs two child processes on the same seeded inputs: one untraced
for S/2 seconds of calls, then one that replays exactly those calls with
spans recorded around the program's public functions.  It prints the
per-layer metrics, the tracing overhead, and fails the run unless both
children wrote byte-identical outputs.  Should the replay run out of the
run's time budget, it stops early and the calls it made are compared.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Lines before it repeat every metric with
its unit, the run environment and the output digests.  Each run works in
a directory of its own under `.perfbench_out/` in the checkout, so runs at
the same time do not touch each other's files; it deletes its inputs and
outputs at the end and keeps only its record, `result.json`.
"""

import os

# Pin native thread pools before numpy can be imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_REPEATS = 7
# Share of each call's duration spent, right after it, on the reference
# kernel that measures how fast the host is running at that moment.
CALIBRATION_SHARE = 0.1
# The same share for each set-up step.  Set-up steps are short, and kernels
# run for only a tenth of them scattered scaled set-up times by more than
# the host drift they corrected.
SETUP_CALIBRATION_SHARE = 0.5
# Reference kernel duration on the nominal host every time is scaled to.
REF_NOMINAL_S = 2.0e-3
# Calls stop once this much wall time has passed even if the measured call
# time is short of --seconds (input generation is not call time).
WALL_FACTOR = 3.0
# Every run ends within this much wall time, set-up included: calls stop,
# and a traced replay stops early, once it is spent.
RUN_BUDGET_S = 165.0
# Wall time kept back from the budget for what follows the calls.
BUDGET_MARGIN_S = 8.0
STARTED = time.perf_counter()

# Metric names and units come from here, so the printed result and the
# declaration cannot drift apart.
BENCHMARK_FILE = ROOT / "BENCHMARK.json"


def _environment() -> dict:
    versions = {}
    for dist in ("numpy", "scipy"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "absent"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": versions["numpy"],
        "scipy": versions["scipy"],
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "machine": platform.machine(),
    }


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _run_dir(args) -> Path:
    """A directory no other run uses, named after this run."""
    return _fresh(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}")


def _budget_left() -> float:
    return STARTED + RUN_BUDGET_S - time.perf_counter()


def _import_cli():
    sys.path.insert(0, str(SRC))
    import selcheck.cli as cli  # loads every program module

    return cli


def _invoker(cli):
    def invoke(argv):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        return rc, sink.getvalue()
    return invoke


def _interpreter_start_s() -> float:
    """Wall time of a fresh interpreter that imports the CLI module."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import selcheck.cli"], env=_child_env(),
                   check=True, timeout=60, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class HostSpeed:
    """How slow the host ran around each call, relative to nominal.

    On a shared cloud machine the speed one process gets drifts by 20% and
    more within seconds to minutes, with whatever else runs there, and that
    drift swamps any bound a time metric could use.  After every call the
    runner times a fixed reference kernel for about CALIBRATION_SHARE of the
    call's duration; the kernels just before and just after a call give its
    slowdown factor, and dividing the call's time by that factor reports it
    at the nominal host speed.  Raw times are printed next to scaled ones.
    """

    def __init__(self):
        self.samples: list[tuple[float, int]] = []  # (kernel seconds, kernels)
        self._matrix = np.random.default_rng(12345).random((32, 32))

    def _kernel(self) -> float:
        """Fixed work shaped like the program's: interpreted loops, small
        dicts and lists, and small numpy products.  It uses nothing from the
        program, so program changes cannot change it."""
        v = self._matrix[0].copy()
        total = 0.0
        for i in range(100):
            v = self._matrix @ v
            v /= abs(v).max()
            total += sum(x * 0.5 for x in range(48)) + float(v[i % 32])
            table = {j: j * j for j in range(24)}
            total += table[i % 24]
        return total

    def sample(self, busy_s: float, share: float = CALIBRATION_SHARE) -> None:
        """Run the kernel for about `share` of busy_s."""
        count = max(1, round(share * busy_s / REF_NOMINAL_S))
        start = time.perf_counter()
        for _ in range(count):
            self._kernel()
        self.samples.append((time.perf_counter() - start, count))

    @staticmethod
    def _slowdown(samples) -> float:
        return sum(s for s, _ in samples) / sum(c for _, c in samples) / REF_NOMINAL_S

    def factor_around(self, index: int) -> float:
        """Slowdown around step `index` (a call or a set-up step), from the
        samples taken just before and just after it."""
        return self._slowdown(self.samples[max(index - 1, 0):index + 1])


class CallLog:
    def __init__(self):
        self.latencies: list[float] = []
        self.call_units: list[int] = []  # 0 for a failed call
        self.failed = 0
        self.hashes: list[str] = []
        self.problems: list[str] = []
        self.host = HostSpeed()

    def run(self, workload, index: int, invoke, tracer=None) -> None:
        if tracer is not None:
            tracer.set_phase("setup")
        call = workload.call(index)
        if tracer is not None:
            tracer.set_phase("call")
        start = time.perf_counter()
        try:
            rc, err = invoke(call.argv)
        except Exception:
            rc, err = None, traceback.format_exc()
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.set_phase("setup")
        self.latencies.append(elapsed)
        self.host.sample(elapsed)
        if rc is None:
            problems, data = [f"traceback: {err.strip().splitlines()[-1]}"], b""
        else:
            try:
                problems, data = call.check(rc)
            except Exception:
                problems, data = [f"output check raised: {traceback.format_exc().splitlines()[-1]}"], b""
        self.hashes.append(hashlib.sha256(f"{rc}:".encode() + data).hexdigest())
        if problems:
            self.failed += 1
            self.problems.extend(f"call {index}: {p}" for p in problems[:3])
        self.call_units.append(0 if problems else call.units)

    @property
    def call_s(self) -> float:
        return sum(self.latencies)

    @property
    def units(self) -> int:
        return sum(self.call_units)

    def scaled_latencies(self) -> list[float]:
        """Each call's time at nominal host speed."""
        return [t / self.host.factor_around(i) for i, t in enumerate(self.latencies)]

    @property
    def host_factor(self) -> float:
        """Overall slowdown: raw call time over scaled call time."""
        return self.call_s / sum(self.scaled_latencies())

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.hashes).encode()).hexdigest()


def _loop(workload, invoke, deadline, seconds=None, calls=None, tracer=None) -> CallLog:
    """Calls until `seconds` of call time (or exactly `calls` calls) are done,
    or the wall clock passes `deadline`; always at least one call."""
    log = CallLog()
    wall_start = time.perf_counter()
    index = 0
    while True:
        if calls is not None and index >= calls:
            break
        if index > 0 and time.perf_counter() >= deadline:
            break
        if calls is None and index > 0 and (
            log.call_s >= seconds or time.perf_counter() - wall_start >= WALL_FACTOR * seconds
        ):
            break
        log.run(workload, index, invoke, tracer)
        index += 1
    return log


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _print_metric(name, value, unit, note=""):
    print(f"metric {name} = {value:.6g} {unit}{note}")


def _finish(correct, attempted, failed, metrics, units) -> int:
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def measured_run(args, cls, units) -> int:
    env = _environment()
    invoke = _invoker(_import_cli())
    base = _run_dir(args)
    try:
        return _measure(args, cls, units, env, invoke, base)
    finally:
        shutil.rmtree(base / "work", ignore_errors=True)


def _measure(args, cls, units, env, invoke, base) -> int:
    setup_host = HostSpeed()
    start_times, input_times = [], []
    for r in range(SETUP_REPEATS):
        start_times.append(_interpreter_start_s())
        setup_host.sample(start_times[-1], SETUP_CALIBRATION_SHARE)
        workload = cls(invoke, args.seed)
        start = time.perf_counter()
        workload.setup(_fresh(base / "work" / f"setup{r}"))
        input_times.append(time.perf_counter() - start)
        setup_host.sample(input_times[-1], SETUP_CALIBRATION_SHARE)
    # Steps alternate, start then inputs; each is scaled like a call.
    start_s = statistics.median(start_times)
    raw_setup_s = start_s + statistics.median(input_times)
    setup_s = (statistics.median(t / setup_host.factor_around(2 * r) for r, t in enumerate(start_times))
               + statistics.median(t / setup_host.factor_around(2 * r + 1) for r, t in enumerate(input_times)))
    setup_factor = raw_setup_s / setup_s

    log = _loop(workload, invoke, STARTED + RUN_BUDGET_S - BUDGET_MARGIN_S, seconds=args.seconds)
    attempted = len(log.latencies)
    speed = log.host_factor
    scaled = log.scaled_latencies()
    raw_throughput = log.units / log.call_s
    raw_p50_ms = statistics.median(log.latencies) * 1e3
    throughput = log.units / sum(scaled)
    p50_ms = statistics.median(scaled) * 1e3
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace 0")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"host speed factor {speed:.4f} (reference kernel against a nominal {REF_NOMINAL_S * 1e3:g} ms); "
          "call times below are scaled to nominal, raw in brackets")
    _print_metric(f"{cls.unit}_per_s", throughput, f"{cls.unit}/s",
                  f" [raw {raw_throughput:.6g}; {log.units} {cls.unit} in {log.call_s:.3f} s of calls]")
    _print_metric("call_p50_ms", p50_ms, "ms", f" [raw {raw_p50_ms:.6g}] (n={attempted})")
    if attempted >= 100:
        _print_metric("call_p90_ms", _percentile(scaled, 0.9) * 1e3, "ms",
                      f" [raw {_percentile(log.latencies, 0.9) * 1e3:.6g}] (n={attempted})")
    _print_metric("peak_rss_mb", peak_rss_mb, "MB")
    _print_metric("setup_s", setup_s, "s",
                  f" [raw {raw_setup_s:.6g}: median interpreter start {start_s:.3f} s + median input set-up,"
                  f" of {SETUP_REPEATS}; set-up host factor {setup_factor:.4f}]")
    _print_metric("failed_frac", log.failed / attempted, "1", f" ({log.failed} of {attempted} calls)")
    print(f"output sha256 {log.digest()} over {attempted} calls")
    for problem in log.problems[:20]:
        print(f"problem {problem}")

    record = {"workload": args.workload, "seed": args.seed, "environment": env,
              "calls": attempted, "failed": log.failed, "units": log.units,
              "call_s": log.call_s, "setup_s": setup_s, "raw_setup_s": raw_setup_s,
              "setup_host_speed_factor": setup_factor, "host_speed_factor": speed,
              "hashes": log.hashes, "latencies": log.latencies, "scaled_latencies": scaled,
              "call_units": log.call_units}
    (base / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    metrics = {"throughput_per_s": throughput, "call_p50_ms": p50_ms,
               "peak_rss_mb": peak_rss_mb, "setup_s": setup_s}
    return _finish(log.failed == 0, attempted, log.failed, metrics, units)


def child_run(args, cls) -> int:
    """One side of a traced comparison: works in --dir, writes its record
    there and stops calling once --budget seconds of wall time are spent."""
    invoke = _invoker(_import_cli())
    tracer = None
    if args.phase == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    base = Path(args.dir)
    workload = cls(invoke, args.seed)
    workload.setup(base / "work")
    log = _loop(workload, invoke, STARTED + args.budget, seconds=args.seconds, calls=args.calls,
                tracer=tracer)
    record = {"calls": len(log.latencies), "call_s": log.call_s, "failed": log.failed,
              "host_speed_factor": log.host_factor, "problems": log.problems[:20],
              "hashes": log.hashes, "scaled_latencies": log.scaled_latencies()}
    if tracer is not None:
        tracer.uninstall()
        tracer.write(base / "trace")
        record["spans"] = tracer.span_totals()
        record["counters"] = tracer.counters
        record["distinct_solve_keys"] = len(tracer.solve_keys)
        record["absent"] = tracer.absent
        record["shares"] = tracer.layer_shares("call")
    (base / "record.json").write_text(json.dumps(record) + "\n")
    return 0


def _layer_metrics(names, traced: dict, overhead: float) -> dict:
    """Per-layer values; a name whose span never ran or is absent reads 0.
    Times are scaled to the nominal host speed like the end-to-end ones."""
    spans = traced["spans"]
    counters = traced["counters"]
    metrics = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if field in ("calls", "s") and span in spans:
            metrics[name] = spans[span][0] if field == "calls" else spans[span][1] / traced["host_speed_factor"]
        else:
            metrics[name] = counters.get(name, 0)
    solves = metrics["game.solve.calls"]
    metrics["game.solve.distinct_keys"] = traced["distinct_solve_keys"]
    metrics["game.solve.repeat_frac"] = counters.get("game.solve.repeats", 0) / solves if solves else 0.0
    lps = metrics["lp.solve.calls"]
    metrics["lp.solve.optimal_frac"] = metrics["lp.solve.optimal"] / lps if lps else 0.0
    jobs = metrics["simulator.jobs"]
    metrics["simulator.us_per_job"] = metrics["simulator.run.s"] / jobs * 1e6 if jobs else 0.0
    metrics["trace.overhead_frac"] = overhead
    return metrics


def traced_run(args, units) -> int:
    env = _environment()
    base = _run_dir(args)
    try:
        records = {}
        for phase in ("plain", "traced"):
            child_dir = base / phase
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", str(args.seconds / 2),
                    "--phase", phase, "--dir", str(child_dir),
                    "--budget", f"{_budget_left() - BUDGET_MARGIN_S:.3f}"]
            if phase == "traced":
                argv += ["--calls", str(records["plain"]["calls"])]
            proc = subprocess.run(argv, env=_child_env(), timeout=max(_budget_left(), 1.0),
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{phase} child exited {proc.returncode}")
            records[phase] = json.loads((child_dir / "record.json").read_text())
    finally:
        for phase in ("plain", "traced"):
            shutil.rmtree(base / phase / "work", ignore_errors=True)
    return _report_traced(args, units, env, records)


def _report_traced(args, units, env, records) -> int:
    plain, traced = records["plain"], records["traced"]
    # The replay may have stopped early on the time budget: compare the
    # calls both sides made.  Each side's call times are scaled to nominal
    # host speed, since they ran one after the other.
    replayed = traced["calls"]
    identical = plain["hashes"][:replayed] == traced["hashes"]
    overhead = sum(traced["scaled_latencies"]) / sum(plain["scaled_latencies"][:replayed]) - 1.0
    metrics = _layer_metrics(units, traced, overhead)
    attempted = plain["calls"] + traced["calls"]
    failed = plain["failed"] + traced["failed"]

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace 1")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"calls {plain['calls']} untraced in {plain['call_s']:.3f} s (host speed factor "
          f"{plain['host_speed_factor']:.4f}), {replayed} of them replayed traced in "
          f"{traced['call_s']:.3f} s (factor {traced['host_speed_factor']:.4f}); "
          "layer times below are scaled to nominal")
    for name, unit in units.items():
        _print_metric(name, metrics[name], unit)
    print("layer shares of traced call time: " + ", ".join(
        f"{module} {share:.1%}" for module, share in traced["shares"].items()))
    for name in traced["absent"]:
        print(f"absent {name} (not defined by this program version)")
    for name, count in traced["counters"].items():
        if name.startswith("hook_errors."):
            print(f"warning: {count:g} counter reads failed on {name[len('hook_errors.'):]} spans")
    print(f"outputs byte-identical traced vs untraced: {'yes' if identical else 'NO'}")
    for problem in plain["problems"] + traced["problems"]:
        print(f"problem {problem}")
    return _finish(identical and failed == 0, attempted, failed + (not identical), metrics, units)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the two sides of a --trace 1 run.
    parser.add_argument("--phase", choices=("plain", "traced"), help=argparse.SUPPRESS)
    parser.add_argument("--calls", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    parser.add_argument("--budget", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "selcheck" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from a selcheck checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    cls = workloads.WORKLOADS[args.workload]
    if args.phase:
        return child_run(args, cls)
    declared = json.loads(BENCHMARK_FILE.read_text())
    if args.trace:
        return traced_run(args, {m["name"]: m["unit"] for m in declared["per_layer"]})
    return measured_run(args, cls, {m["name"]: m["unit"] for m in declared["end_to_end"]})


if __name__ == "__main__":
    sys.exit(main())
