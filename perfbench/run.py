"""Benchmark of the threepoint CLI, measured from outside the package.

    python3 perfbench/run.py --workload quad_run --seed 1 --seconds 50 --trace 0

Run it from anywhere; it measures the checkout it sits in.  Every child
process gets `<checkout>/src` first on PYTHONPATH, and a probe child checks
that `threepoint` really is imported from there.  Children run one at a time
with jobs = 1 and single-threaded BLAS.  Their outputs go to
`.perfbench_out/` in the checkout, which also keeps one results file per
benchmark run with every sample, diagnostic and artifact digest.  The last
line on stdout is the JSON result.

Workloads (the config seed lists are drawn from --seed):
  quad_run    `threepoint run`: smtp, beta 0.5, quadratic d=10 with
              coord_L = logspace:1,10, sphere directions, solution_dependent,
              SC-DEP envelope, 8 seeds x 2e4 iterations, trace CSVs written.
              Cheap objective: loop overhead, direction draws and CSV output
              dominate.
  is_compare  `threepoint compare` of the smtp_is prop_L and uniform configs
              of acceptance test 08, 5 seeds each, stopping at gap 1e-3.  The
              IS step, categorical draw and constant IS rule; no trace CSVs.

--trace 0: end-to-end metrics over the invocations made in --seconds, from
fresh `python -m threepoint.cli` children; times are medians:
  run_s            wall time of the CLI command, launch to exit
  setup_s          wall time of `threepoint validate` on the workload's
                   config(s); one sample before each run, at least SETUP_REPS
  iters_per_s      iterations the command ran / run_s (quad_run reads them
                   from summary.txt; is_compare replays each of its seeds
                   through harness.compare_methods once, and the replay must
                   match compare.csv)
  peak_rss_mb      the largest ru_maxrss (from os.wait4) of the CLI children;
                   not the median, because one command's ru_maxrss falls in
                   two modes about 1 MB apart from child to child, and a
                   median flips between them
  evals_to_target  mean evaluations a seed-run spent to reach its target:
                   gap <= 1e-9 on quad_run, gap <= 1e-3 on is_compare (over
                   both configs; the per-config means are recorded beside it)
  CPU time and involuntary context switches of every child are recorded
  beside run_s as diagnostics.

--trace 1: per-layer metrics.  Untraced and traced in-process runs of the
same command alternate in fresh children (perfbench/inproc.py); the traced
one wraps each layer's public call site in perf_counter_ns spans.  Self
times are medians over the traced runs; trace.coverage is the sum of self
times over the traced wall time, and trace.overhead the traced over the
untraced wall time of the same in-process call (both exclude interpreter
start).

Correctness: every seed-run's artifacts are checked (exit code, row counts,
monotone f_z, envelope, reached targets, IS beating uniform, compare.csv
matching a replay) and every rerun must reproduce the first run's artifacts
byte for byte.  A seed-run that fails counts as missing every timing of its
invocation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
INPROC = HERE / "inproc.py"
OUT = ROOT / ".perfbench_out"

SETUP_REPS = 7
CHILD_TIMEOUT_S = 150.0
COVERAGE_RANGE = (0.9, 1.1)

sys.path.insert(0, str(HERE))
from inproc import LAYERS  # noqa: E402

QUAD_CFG = """\
method = smtp
beta = 0.5
objective = quadratic
dimension = 10
coord_L = logspace:1,10
distribution = sphere
schedule.kind = solution_dependent
theorem = SC-DEP
max_iters = 20000
seeds = {seeds}
"""

IS_CFG = """\
method = smtp_is
beta = 0.5
objective = quadratic
dimension = 10
coord_L = logspace:1,1000
x0 = ones
x0_scale = 0.1
is.p = {p}
is.w = coord_L
schedule.kind = constant
schedule.gamma = 0.01
epsilon = 0.001
max_iters = 80000
seeds = {seeds}
"""


@dataclass(frozen=True)
class Workload:
    command: str  # "run" or "compare"
    configs: dict  # label -> config text with a {seeds} field
    n_seeds: int
    max_iters: int = 0  # run: rows every trace CSV must have
    target_gap: float = 0.0  # run: evals_to_target is the first row within this gap


PROP_LABEL, UNIFORM_LABEL = "is_prop_L", "is_uniform"
WORKLOADS = {
    "quad_run": Workload("run", {"quad": QUAD_CFG}, 8, max_iters=20000, target_gap=1e-9),
    "is_compare": Workload("compare", {PROP_LABEL: IS_CFG.replace("{p}", "prop_L"),
                                       UNIFORM_LABEL: IS_CFG.replace("{p}", "uniform")}, 5),
}


class BenchError(RuntimeError):
    """The benchmark itself cannot run here (no source, wrong import path)."""


def config_seeds(seed: int, n: int) -> list[int]:
    return sorted(random.Random(seed).sample(range(1_000_000), n))


# ---------------------------------------------------------------- children

@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    nivcsw: int
    maxrss_mb: float
    log: Path


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("THREEPOINT_OUT", None)
    # one BLAS/OpenMP thread: starting the pools otherwise costs a varying
    # share of set-up time that depends on whether the other core is busy
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def launch(args: list[str], log: Path, cwd: Path) -> Child:
    """Run sys.executable with args to completion; time it and read its rusage."""
    with open(log, "wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=child_env(),
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_nivcsw,
                 usage.ru_maxrss / 1024.0, log)


def probe(work: Path) -> dict:
    child = launch([str(INPROC), "probe"], work / "probe.log", work)
    text = child.log.read_text(errors="replace")
    if child.rc != 0:
        raise BenchError(f"cannot import threepoint from {SRC}:\n{text}")
    facts = json.loads(text.strip().splitlines()[-1])
    imported = Path(facts["threepoint_file"]).resolve()
    if SRC.resolve() not in imported.parents:
        raise BenchError(f"threepoint was imported from {imported}, not from {SRC}")
    facts["nproc"] = len(os.sched_getaffinity(0))
    facts["git_commit"] = git_commit()
    return facts


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout; asking git would find an enclosing repository
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None  # git missing or the metadata unreadable
    return done.stdout.strip()


# ------------------------------------------------------------------ checks

@dataclass
class Outcome:
    """What one invocation's artifacts say, seed-run by seed-run."""

    problems: dict  # "<label>/seed<n>" -> list of reasons; empty means passed
    iterations: int = 0
    evals_to_target: dict = field(default_factory=dict)  # label -> per-seed evaluations
    digests: dict = field(default_factory=dict)  # artifact name -> sha256
    csv_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not any(self.problems.values())

    def fail_all(self, reason: str, keys=None) -> None:
        for key in (self.problems if keys is None else keys):
            self.problems[key].append(reason)


def read_summary(path: Path) -> dict:
    if not path.is_file():
        return {}
    return dict(line.split("=", 1) for line in path.read_text().splitlines() if "=" in line)


def to_float(text: str | None) -> float:
    try:
        return float(text)
    except (TypeError, ValueError):
        return math.nan


def scan_trace(text: str, max_iters: int):
    """Problems of one trace CSV, and its f_z and evals columns."""
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    if "f_z" not in header or "evals" not in header:
        return [f"trace CSV header {header!r} lacks f_z or evals"], [], []
    i_f, i_e = header.index("f_z"), header.index("evals")
    try:
        cells = [line.split(",") for line in lines[1:]]
        f_z = [float(c[i_f]) for c in cells]
        evals = [int(c[i_e]) for c in cells]
    except (IndexError, ValueError) as exc:
        return [f"unreadable trace row: {exc}"], [], []
    problems = []
    if len(f_z) != max_iters:
        problems.append(f"trace has {len(f_z)} rows, expected {max_iters}")
    if not all(math.isfinite(v) for v in f_z):
        problems.append("trace has a non-finite f_z")
    rises = [k for k in range(1, len(f_z)) if f_z[k] > f_z[k - 1]]
    if rises:
        problems.append(f"f_z increases at row {rises[0]}")
    return problems, f_z, evals


def check_run(wl: Workload, out: Path, seeds: list[int], rc: int) -> Outcome:
    (label,) = wl.configs
    run_dir = out / label
    outcome = Outcome({f"{label}/seed{s}": [] for s in seeds})
    if rc != 0:
        outcome.fail_all(f"exit code {rc}")
    summary = read_summary(run_dir / "summary.txt")
    if not summary:
        outcome.fail_all("no summary.txt")
    if summary.get("envelope") != "pass":
        outcome.fail_all(f"envelope={summary.get('envelope')}")
    for seed in seeds:
        problems = outcome.problems[f"{label}/seed{seed}"]
        path = run_dir / f"trace_seed{seed}.csv"
        if not path.is_file():
            problems.append("no trace CSV")
            continue
        data = path.read_bytes()
        outcome.digests[f"{label}/{path.name}"] = hashlib.sha256(data).hexdigest()
        outcome.csv_bytes += len(data)
        issues, f_z, evals = scan_trace(data.decode("utf-8", errors="replace"), wl.max_iters)
        problems.extend(issues)
        iterations = to_float(summary.get(f"seed{seed}.iterations"))
        if math.isfinite(iterations):
            outcome.iterations += int(iterations)
        else:
            problems.append("no iteration count in summary.txt")
        if summary.get(f"seed{seed}.envelope") != "pass":
            problems.append(f"seed envelope={summary.get(f'seed{seed}.envelope')}")
        gap = to_float(summary.get(f"seed{seed}.final_gap"))
        if f_z and math.isfinite(gap):
            f_star = f_z[-1] - gap
            hit = next((e for f, e in zip(f_z, evals) if f - f_star <= wl.target_gap), None)
            if hit is None:
                problems.append(f"gap {wl.target_gap:g} never reached")
            else:
                outcome.evals_to_target.setdefault(label, []).append(hit)
        else:
            problems.append("no final_gap to locate the target")
    return outcome


def read_compare(path: Path) -> dict:
    if not path.is_file():
        return {}
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return {row[0]: dict(zip(header, row)) for row in (line.split(",") for line in lines[1:])}


def check_compare(out: Path, seeds: list[int], replay: dict | None, rc: int) -> Outcome:
    """Check compare.csv; `replay` maps label -> per-seed results of a replay
    that runs each seed alone through harness.compare_methods."""
    keys = {label: [f"{label}/seed{s}" for s in seeds] for label in (PROP_LABEL, UNIFORM_LABEL)}
    outcome = Outcome({key: [] for row in keys.values() for key in row})
    if rc != 0:
        outcome.fail_all(f"exit code {rc}")
    path = out / "compare.csv"
    if path.is_file():
        data = path.read_bytes()
        outcome.digests["compare.csv"] = hashlib.sha256(data).hexdigest()
        outcome.csv_bytes += len(data)
    table = read_compare(path)
    if replay is None:
        outcome.fail_all("replay of the compare configs failed")
    for label, row_keys in keys.items():
        row = table.get(label)
        if row is None:
            outcome.fail_all(f"compare.csv has no {label} row", row_keys)
            continue
        if to_float(row.get("n_reached")) != len(seeds):
            outcome.fail_all(f"n_reached={row.get('n_reached')} of {len(seeds)}", row_keys)
        if replay is None:
            continue
        hits = []
        for key, result in zip(row_keys, replay[label]):
            hit = result["evals_to_target"]
            if hit is None:
                outcome.problems[key].append("target never reached in replay")
            hits.append(math.inf if hit is None else hit)
            outcome.iterations += result["iterations"]
        outcome.evals_to_target[label] = hits
        got = tuple(to_float(row.get(k)) for k in ("median_evals", "min_evals", "max_evals"))
        if got != (statistics.median(hits), min(hits), max(hits)):
            outcome.fail_all(f"compare.csv row {got} disagrees with the replay", row_keys)
    prop = to_float(table.get(PROP_LABEL, {}).get("median_evals"))
    uniform = to_float(table.get(UNIFORM_LABEL, {}).get("median_evals"))
    if not prop < uniform:
        outcome.fail_all(f"prop_L median evals {prop} not below uniform {uniform}")
    return outcome


def replay_compare(work: Path, cfg_paths: list[Path]) -> dict | None:
    child = launch([str(INPROC), "replay", *map(str, cfg_paths)], work / "replay.log", work)
    if child.rc != 0:
        return None
    rows = json.loads(child.log.read_text().strip().splitlines()[-1])
    return {row["label"]: row["seeds"] for row in rows}


# ------------------------------------------------------------- measuring

def stats(values: list[float]) -> dict:
    values = sorted(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def finite_or_none(x: float):
    return x if math.isfinite(x) else None


class Bench:
    def __init__(self, name: str, seed: int, seconds: int, work: Path):
        self.wl = WORKLOADS[name]
        self.seconds = seconds
        self.work = work
        self.seeds = config_seeds(seed, self.wl.n_seeds)
        seed_list = ",".join(map(str, self.seeds))
        self.config_texts = {label: text.format(seeds=seed_list)
                             for label, text in self.wl.configs.items()}
        self.cfg_paths = []
        for label, text in self.config_texts.items():
            path = work / f"{label}.cfg"
            path.write_text(text)
            self.cfg_paths.append(path)
        self.replay = None
        self.reference_digests = None
        self.records = []  # one entry per invocation, for the results file

    def cli_args(self, out: Path) -> list[str]:
        if self.wl.command == "run":
            return ["run", "--config", str(self.cfg_paths[0]), "--out", str(out), "--jobs", "1"]
        return ["compare", "--configs", *map(str, self.cfg_paths), "--out", str(out)]

    def prepare(self) -> None:
        if self.wl.command == "compare":
            self.replay = replay_compare(self.work, self.cfg_paths)

    def check(self, out: Path, rc: int) -> Outcome:
        if self.wl.command == "run":
            outcome = check_run(self.wl, out, self.seeds, rc)
        else:
            outcome = check_compare(out, self.seeds, self.replay, rc)
        if self.reference_digests is None and outcome.ok:
            self.reference_digests = outcome.digests
        elif self.reference_digests is not None and outcome.digests != self.reference_digests:
            outcome.fail_all("artifacts differ from the first passing invocation")
        shutil.rmtree(out, ignore_errors=True)
        return outcome

    def record(self, kind: str, child: Child, outcome: Outcome, **extra) -> None:
        self.records.append({
            "kind": kind, "rc": child.rc, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
            "nivcsw": child.nivcsw, "maxrss_mb": child.maxrss_mb,
            "failed_seed_runs": {k: v for k, v in outcome.problems.items() if v}, **extra})

    def setup_sample(self) -> float:
        """Wall time of `validate` on each of the workload's configs, summed."""
        total = 0.0
        for path in self.cfg_paths:
            child = launch(["-m", "threepoint.cli", "validate", "--config", str(path)],
                           self.work / "validate.log", self.work)
            total += child.wall_s if child.rc == 0 else math.inf
        return total

    def end_to_end(self) -> tuple[dict, list[Outcome], dict]:
        self.prepare()
        setup, runs, outcomes = [], [], []
        start = time.perf_counter()
        # set-up samples are interleaved with the runs so that both see the
        # same stretch of machine speed
        while not runs or time.perf_counter() - start < self.seconds:
            setup.append(self.setup_sample())
            out = self.work / f"run{len(runs)}"
            child = launch(["-m", "threepoint.cli", *self.cli_args(out)],
                           self.work / f"run{len(runs)}.log", self.work)
            outcome = self.check(out, child.rc)
            if math.isinf(setup[-1]):
                outcome.fail_all("validate exited non-zero")
            self.record("cli", child, outcome)
            runs.append(child)
            outcomes.append(outcome)
        while len(setup) < SETUP_REPS:
            setup.append(self.setup_sample())
        ok = [o.ok for o in outcomes]
        passing = [o for o in outcomes if o.ok]
        by_config = passing[0].evals_to_target if passing else {}
        evals = [hit for hits in by_config.values() for hit in hits] or [math.inf]
        samples = {
            "run_s": [c.wall_s if good else math.inf for c, good in zip(runs, ok)],
            "setup_s": setup,
            "iters_per_s": [o.iterations / c.wall_s if good else 0.0
                            for c, o, good in zip(runs, outcomes, ok)],
            "maxrss_mb": [c.maxrss_mb if good else math.inf for c, good in zip(runs, ok)],
            "cpu_s": [c.cpu_s for c in runs],
            "nivcsw": [c.nivcsw for c in runs],
            "evals_to_target_by_config": {label: statistics.fmean(hits)
                                          for label, hits in by_config.items()},
        }
        metrics = {
            "run_s": (stats(samples["run_s"])["median"], "s"),
            "setup_s": (stats(setup)["median"], "s"),
            "iters_per_s": (stats(samples["iters_per_s"])["median"], "1/s"),
            "peak_rss_mb": (max(samples["maxrss_mb"]), "MB"),
            "evals_to_target": (statistics.fmean(evals), "evals"),
        }
        return metrics, outcomes, samples

    def per_layer(self) -> tuple[dict, list[Outcome], dict]:
        self.prepare()
        reports = {False: [], True: []}
        outcomes = []
        start = time.perf_counter()
        # every pair counts, passing or not, so a broken program still ends the loop
        while not outcomes or time.perf_counter() - start < self.seconds:
            for traced in (False, True):
                i = len(outcomes)
                out, report_path = self.work / f"inproc{i}", self.work / f"report{i}.json"
                child = launch([str(INPROC), "cli", str(report_path), str(int(traced)),
                                *self.cli_args(out)], self.work / f"inproc{i}.log", self.work)
                report = json.loads(report_path.read_text()) if report_path.is_file() else {}
                rc = report.get("rc", child.rc or 1)
                outcome = self.check(out, rc)
                self.record("traced" if traced else "untraced", child, outcome,
                            inproc_wall_s=report.get("wall_s"))
                outcomes.append(outcome)
                if outcome.ok:
                    reports[traced].append(report)
        traced = reports[True]
        if not traced or not reports[False]:
            return {}, outcomes, {}
        first = traced[0]
        calls = first["calls"]
        metrics, samples = {}, {}
        for layer in LAYERS:
            self_s = stats([r["self_s"][layer] for r in traced])["median"]
            metrics[f"{layer}.calls"] = (calls[layer], "count")
            metrics[f"{layer}.self_s"] = (self_s, "s")
            metrics[f"{layer}.us_per_call"] = (1e6 * self_s / calls[layer] if calls[layer] else 0.0,
                                               "us")
        iters = first["iters"]
        run_evals = calls["objectives.value"] - first["setup_value_calls"]
        coverage = [sum(r["self_s"].values()) / r["wall_s"] for r in traced]
        traced_wall = [r["wall_s"] for r in traced]
        untraced_wall = [r["wall_s"] for r in reports[False]]
        metrics.update({
            "objectives.value.setup_calls": (first["setup_value_calls"], "count"),
            "optimizers.iters": (iters, "count"),
            "optimizers.evals_per_iter": (run_evals / iters if iters else 0.0, "evals/iter"),
            "optimizers.move_frac": (first["moves"] / iters if iters else 0.0, "ratio"),
            "harness.csv_bytes": (outcomes[0].csv_bytes, "B"),
            "trace.coverage": (stats(coverage)["median"], "ratio"),
            "trace.overhead": (stats(traced_wall)["median"] / stats(untraced_wall)["median"],
                               "ratio"),
        })
        samples.update(coverage=coverage, traced_wall_s=traced_wall, untraced_wall_s=untraced_wall,
                       missing_call_sites=first["missing_call_sites"])
        return metrics, outcomes, samples


def run(name: str, seed: int, seconds: int, trace: bool) -> dict:
    work = OUT / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        facts = probe(work)
        bench = Bench(name, seed, seconds, work)
        if trace:
            metrics, outcomes, samples = bench.per_layer()
        else:
            metrics, outcomes, samples = bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted = sum(len(o.problems) for o in outcomes)
    failed = sum(1 for o in outcomes for reasons in o.problems.values() if reasons)
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": facts, "config_seeds": bench.seeds,
        "configs": bench.config_texts,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "metrics": metrics, "samples": samples,
        "digests": bench.reference_digests, "invocations": bench.records,
    }


def print_report(res: dict) -> None:
    m = res["machine"]
    print(f"# {res['workload']} seed={res['seed']} trace={res['trace']} "
          f"config_seeds={res['config_seeds']}")
    print(f"# threepoint={m['threepoint_file']} commit={m['git_commit']} nproc={m['nproc']} "
          f"python={m['python']} numpy={m['numpy']} scipy={m['scipy']}")
    for name, (value, unit) in res["metrics"].items():
        line = f"{name} = {value:.6g} {unit}"
        if name in res["samples"]:
            s = stats(res["samples"][name])
            line += f"  (median of {s['n']}; q1 {s['q1']:.6g}, q3 {s['q3']:.6g})"
        print(line)
    samples = res["samples"]
    if "cpu_s" in samples:
        print(f"diag cpu_s per run = {[round(v, 4) for v in samples['cpu_s']]}")
        print(f"diag nivcsw per run = {samples['nivcsw']}")
        print(f"diag maxrss_mb per run = {[round(v, 3) for v in samples['maxrss_mb']]}")
        print(f"diag evals_to_target per config = {samples['evals_to_target_by_config']}")
    if samples.get("missing_call_sites"):
        print(f"WARNING: call sites not found: {samples['missing_call_sites']}")
    coverage = res["metrics"].get("trace.coverage", (None,))[0]
    if coverage is not None and not COVERAGE_RANGE[0] <= coverage <= COVERAGE_RANGE[1]:
        print(f"WARNING: trace.coverage {coverage:.3f} outside {COVERAGE_RANGE}")
    print(f"failed_frac = {res['failed_frac']:.6g} "
          f"({res['failed']} of {res['attempted']} seed-runs)")
    for rec in res["invocations"]:
        for key, reasons in rec["failed_seed_runs"].items():
            print(f"FAILED {rec['kind']} {key}: {'; '.join(reasons)}")
    print(f"digests: {len(res['digests'] or {})} artifacts")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "threepoint" / "__init__.py").is_file():
        print(f"error: no threepoint package under {SRC}", file=sys.stderr)
        return 1
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(res, indent=1, default=str))
    print_report(res)
    print(f"results: {path}")
    metrics = {name: {"value": finite_or_none(value), "unit": unit}
               for name, (value, unit) in res["metrics"].items()}
    print(json.dumps({"correct": res["failed"] == 0 and bool(metrics),
                      "attempted": max(res["attempted"], 1), "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
