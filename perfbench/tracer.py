"""Span recorder wrapped around the program's public functions from outside.

Each target function is replaced, in every loaded program module that holds
a reference to it, by a wrapper that records one span (name, start, end,
parent) in memory.  A span's self time is its duration minus the time its
direct child spans cover.  Targets a program version no longer defines are
reported as absent instead of failing the run.

Spans are tagged with the runner's current phase ("setup" for input
generation, "call" for the measured verb calls), so layer shares can be
taken over the measured work alone.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "selcheck"


def _solve_key(fn):
    """(weights, k, big_m, epsilon) of one solve_game call."""
    signature = inspect.signature(fn)

    def key(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        game = next(iter(bound.arguments.values()))
        return (tuple(game.weights), game.budget, game.big_m, bound.arguments.get("epsilon"))

    return key


class Tracer:
    # (module, function, span name).  A span name of None counts outcomes
    # without recording a span, so the caller's self time keeps that work.
    TARGETS = (
        ("cli", "main", "cli.main"),
        ("model", "load_taskset", "model.load"),
        ("workload", "draw_taskset", "workload.draw"),
        ("workload", "gen_taskset", "workload.draw"),
        ("planner", "balanced_partition_by_response_bound", None),
        ("schedulability", "response_time_bound", "schedulability.bound"),
        ("schedulability", "is_schedulable", "schedulability.is_schedulable"),
        ("planner", "assign_check_budgets", "planner.budgets"),
        ("planner", "max_feasible_k", "planner.max_k"),
        ("planner", "plan", "planner.plan"),
        ("planner", "plan_to_dict", "planner.plan_to_dict"),
        ("game", "build_game_from_weights", "game.build"),
        ("game", "solve_game", "game.solve"),
        ("lp", "solve_lp", "lp.solve"),
        ("simulator", "run_detection_experiment", "simulator.run"),
    )

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_phase = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        self.phases = ["setup", "call"]
        self.phase = 0
        self._stack: list[int] = []
        self._child: list[float] = []
        # (phase, name id) -> [calls, self seconds]
        self.totals: dict[tuple[int, int], list] = {}
        self.counters: dict[str, float] = {}
        self.solve_keys: set = set()
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def set_phase(self, phase: str) -> None:
        self.phase = self.phases.index(phase)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- outcome hooks, keyed by function name ---------------------------

    def _hooks(self, fn_name: str, fn):
        if fn_name == "balanced_partition_by_response_bound":
            def on_error(exc):
                if type(exc).__name__ == "PartitionError":
                    self.count("workload.draw.unplaceable")
            return None, on_error
        if fn_name == "assign_check_budgets":
            return lambda a, k, r: type(r).__name__ == "Infeasible" and self.count("planner.budgets.infeasible"), None
        if fn_name == "build_game_from_weights":
            return lambda a, k, r: self.count("game.build.cells", int(r.reward.size)), None
        if fn_name == "solve_game":
            key_of = _solve_key(fn)

            def after_solve(args, kwargs, result):
                key = key_of(args, kwargs)
                if key in self.solve_keys:
                    self.count("game.solve.repeats")
                self.solve_keys.add(key)
            return after_solve, None
        if fn_name == "solve_lp":
            def after_lp(args, kwargs, result):
                problem = args[0] if args else kwargs["problem"]
                self.count("lp.size", len(problem.constraints) * problem.num_vars)
                self.count(f"lp.solve.{result.status}")
            return after_lp, None
        if fn_name == "run_detection_experiment":
            return lambda a, k, r: self.count("simulator.jobs", sum(r.delays)), None
        return None, None

    def _wrap(self, fn, name: str | None, after, on_error):
        if name is None:
            def counting(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except Exception as exc:
                    on_error(exc)
                    raise
            return counting

        name_id = self._name_id(name)
        clock = time.perf_counter
        stack, child = self._stack, self._child
        span_start, span_end = self.span_start, self.span_end

        def traced(*args, **kwargs):
            idx = len(span_start)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_phase.append(self.phase)
            span_end.append(0.0)
            stack.append(idx)
            child.append(0.0)
            start = clock()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                end = clock()
                span_end[idx] = end
                stack.pop()
                duration = end - start
                covered = child.pop()
                if child:
                    child[-1] += duration
                entry = self.totals.setdefault((self.phase, name_id), [0, 0.0])
                entry[0] += 1
                entry[1] += duration - covered
            if after is not None:
                try:
                    after(args, kwargs, result)
                except Exception:
                    # A program version whose results no longer carry what
                    # a counter reads keeps running; the report names it.
                    self.count(f"hook_errors.{name}")
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every target at each place a program module imported it."""
        modules = {
            name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        for module_name, fn_name, span in self.TARGETS:
            home = modules.get(f"{PACKAGE}.{module_name}")
            fn = getattr(home, fn_name, None) if home is not None else None
            if fn is None:
                self.absent.append(f"{module_name}.{fn_name}")
                continue
            after, on_error = self._hooks(fn_name, fn)
            wrapper = self._wrap(fn, span, after, on_error)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._patches.append((mod, attr, fn))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def span_totals(self, phase: str | None = None) -> dict[str, list]:
        """name -> [calls, self seconds], over one phase or all of them."""
        out: dict[str, list] = {}
        for (ph, name_id), (calls, self_s) in self.totals.items():
            if phase is None or self.phases[ph] == phase:
                entry = out.setdefault(self.names[name_id], [0, 0.0])
                entry[0] += calls
                entry[1] += self_s
        return out

    def layer_shares(self, phase: str) -> dict[str, float]:
        """Share of a phase's traced self time spent in each module."""
        per_module: dict[str, float] = {}
        for name, (_, self_s) in self.span_totals(phase).items():
            module = name.split(".")[0]
            per_module[module] = per_module.get(module, 0.0) + self_s
        total = sum(per_module.values()) or 1.0
        return {m: s / total for m, s in sorted(per_module.items(), key=lambda kv: -kv[1])}

    def write(self, out_dir: Path) -> None:
        """Spans as packed little-endian columns plus a JSON index."""
        out_dir.mkdir(parents=True, exist_ok=True)
        columns = [
            ("name", self.span_name), ("parent", self.span_parent), ("phase", self.span_phase),
            ("start", self.span_start), ("end", self.span_end),
        ]
        with open(out_dir / "spans.bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        index = {
            "count": len(self.span_start),
            "columns": [[name, col.typecode, col.itemsize] for name, col in columns],
            "names": self.names,
            "phases": self.phases,
            "byteorder": sys.byteorder,
        }
        (out_dir / "spans.json").write_text(json.dumps(index, indent=1) + "\n")
