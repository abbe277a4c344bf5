"""Child-process helper for perfbench/run.py; it imports the threepoint
package found on PYTHONPATH and prints or writes JSON.

    python3 perfbench/inproc.py probe
        Print where `threepoint` was imported from and the Python, numpy and
        scipy versions.
    python3 perfbench/inproc.py cli <report.json> <trace 0|1> <cli args...>
        Run `threepoint.cli.main(<cli args>)` in this process and write its
        exit code and wall time to <report.json>.  With trace 1 each layer's
        public call site is wrapped in a perf_counter_ns span first; spans are
        folded into per-layer totals in memory and written when the run ends.
    python3 perfbench/inproc.py replay <config>...
        Run `harness.compare_methods` on the configs once per seed, each
        config narrowed to that seed, and print per config and seed the
        evaluations to the epsilon gap that compare reports and the
        iterations that `harness.run_once` ran.

No source file of the package is changed: wrapping rebinds module and class
attributes in this process only.
"""

from __future__ import annotations

import json
import sys
import time

# (layer, module or class, attribute).  The direction, stepsize and optimizer
# names are the ones bound in threepoint.optimizers, which is where the loop
# looks them up.
CALL_SITES = (
    ("directions.sample", "optimizers", "sample"),
    ("directions.categorical_index", "optimizers", "categorical_index"),
    ("objectives.value", "Objective", "value"),
    ("objectives.value", "Objective", "__call__"),
    ("schedules.stepsize", "optimizers", "stepsize"),
    ("optimizers.run", "optimizers", "smtp_run"),
    ("optimizers.run", "optimizers", "stp_run"),
    ("optimizers.run", "optimizers", "smtp_is_run"),
    ("harness.parse", "harness", "load_config"),
    ("harness.build", "harness", "build_objective"),
    ("harness.build", "harness", "build_x0"),
    ("harness.build", "harness", "build_distribution"),
    ("harness.build", "harness", "build_is_vectors"),
    ("harness.build", "harness", "build_schedule"),
    ("diagnostics.fit_linear_rate", "diagnostics", "fit_linear_rate"),
    ("diagnostics.bound_envelope", "diagnostics", "bound_envelope"),
    ("harness.run", "harness", "run_experiment"),
    ("harness.compare", "harness", "compare_methods"),
)
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in CALL_SITES))
RUN_LAYER = "optimizers.run"
VALUE_LAYER = "objectives.value"


class Tracer:
    """Per-layer call counts and self time (span minus its child spans)."""

    def __init__(self):
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_ns = dict.fromkeys(LAYERS, 0)
        self.open_runs = 0
        self.setup_value_calls = 0  # objective calls made outside any optimizer span
        self.iters = 0
        self.moves = 0  # plus + minus branches
        self.missing: list[str] = []
        self._stack: list[list[int]] = []  # one [child_ns] cell per open span

    def install(self, owners: dict) -> None:
        for layer, owner_name, attr in CALL_SITES:
            owner = owners[owner_name]
            fn = getattr(owner, attr, None)
            if fn is None:
                # a bypassed or removed call site reports 0 calls
                self.missing.append(f"{owner_name}.{attr}")
                continue
            setattr(owner, attr, self._span(layer, fn))

    def _span(self, layer: str, fn):
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        is_run = layer == RUN_LAYER
        is_value = layer == VALUE_LAYER

        def span(*args, **kwargs):
            if is_value and not self.open_runs:
                self.setup_value_calls += 1
            if is_run:
                self.open_runs += 1
            cell = [0]
            stack.append(cell)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                self_ns[layer] += duration - cell[0]
                calls[layer] += 1
                if is_run:
                    self.open_runs -= 1
            if is_run and not self.open_runs:
                self._count_trace(result)
            return result

        return span

    def _count_trace(self, trace) -> None:
        records = trace.records
        self.iters += len(records)
        self.moves += sum(1 for r in records if r.branch != "stay")

    def report(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": {layer: ns / 1e9 for layer, ns in self.self_ns.items()},
            "setup_value_calls": self.setup_value_calls,
            "iters": self.iters,
            "moves": self.moves,
            "missing_call_sites": self.missing,
        }


def _probe() -> None:
    import numpy
    import scipy

    import threepoint

    print(json.dumps({
        "threepoint_file": threepoint.__file__,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }))


def _cli(report_path: str, trace: bool, argv: list[str]) -> None:
    from threepoint import cli, diagnostics, harness, objectives, optimizers

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install({"optimizers": optimizers, "harness": harness,
                        "diagnostics": diagnostics, "Objective": objectives.Objective})
    start = time.perf_counter_ns()
    rc = cli.main(argv)
    wall_s = (time.perf_counter_ns() - start) / 1e9
    sys.stdout.flush()
    report = {"rc": rc, "wall_s": wall_s}
    if tracer is not None:
        report.update(tracer.report())
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def _replay(config_paths: list[str]) -> None:
    import dataclasses
    import math

    from threepoint import harness

    run_once = harness.run_once
    iterations = []

    def counting_run_once(cfg, seed):
        trace, obj = run_once(cfg, seed)
        iterations.append(len(trace.records))
        return trace, obj

    harness.run_once = counting_run_once
    configs = [harness.load_config(path) for path in config_paths]
    rows = {cfg.label: [] for cfg in configs}
    for seed in configs[0].seeds:
        iterations.clear()
        table = harness.compare_methods([dataclasses.replace(cfg, seeds=(seed,))
                                         for cfg in configs])
        for row, its in zip(table, iterations):
            hit = row["median_evals"]
            rows[row["label"]].append({"seed": seed, "iterations": its,
                                       "evals_to_target": hit if math.isfinite(hit) else None})
    print(json.dumps([{"label": label, "seeds": seeds} for label, seeds in rows.items()]))


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "probe":
        _probe()
    elif mode == "cli":
        _cli(rest[0], rest[1] == "1", rest[2:])
    elif mode == "replay":
        _replay(rest)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
