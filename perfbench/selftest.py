"""Self-test of the benchmark's output checks: each check must catch a
deliberately corrupted artifact.  Needs no threepoint install.

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import shutil
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SEEDS = [3, 7]
MAX_ITERS = 4
RUN_WL = bench.Workload("run", {"w": ""}, len(SEEDS), max_iters=MAX_ITERS, target_gap=1e-3)


def write_run(out: Path, **summary_overrides) -> None:
    run_dir = out / "w"
    run_dir.mkdir(parents=True)
    summary = {"label": "w", "envelope": "pass"}
    for seed in SEEDS:
        rows = ["k,f_z,gamma,branch,evals,grad_norm_D"]
        f_z = [1.0, 0.5, 0.5, 1e-4]
        for k, f in enumerate(f_z):
            rows.append(f"{k},{f!r},0.1,plus,{2 * k + 3},")
        (run_dir / f"trace_seed{seed}.csv").write_text("\n".join(rows) + "\n")
        summary.update({f"seed{seed}.iterations": "4", f"seed{seed}.evals": "9",
                        f"seed{seed}.final_gap": "0.0001", f"seed{seed}.envelope": "pass"})
    summary.update(summary_overrides)
    (run_dir / "summary.txt").write_text("".join(f"{k}={v}\n" for k, v in summary.items()))


def replay(prop_hits=(100, 120), uniform_hits=(400, 500)) -> dict:
    return {label: [{"seed": s, "iterations": (h or 1) // 2, "evals_to_target": h}
                    for s, h in zip(SEEDS, hits)]
            for label, hits in ((bench.PROP_LABEL, prop_hits), (bench.UNIFORM_LABEL, uniform_hits))}


def write_compare(out: Path, rows=None) -> None:
    rows = rows or [f"{bench.PROP_LABEL},2,2,110,100,120",
                    f"{bench.UNIFORM_LABEL},2,2,450,400,500"]
    out.mkdir(parents=True, exist_ok=True)
    lines = ["label,n_seeds,n_reached,median_evals,min_evals,max_evals", *rows]
    (out / "compare.csv").write_text("\n".join(lines) + "\n")


class ChecksCatchCorruption(unittest.TestCase):
    def setUp(self):
        bench.OUT.mkdir(parents=True, exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=bench.OUT))

    def tearDown(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def failures(self, outcome) -> list[str]:
        return [reason for reasons in outcome.problems.values() for reason in reasons]

    def run_check(self, corrupt=None, rc=0, wl=RUN_WL, **summary):
        out = self.tmp / "out"
        shutil.rmtree(out, ignore_errors=True)
        write_run(out, **summary)
        if corrupt is not None:
            corrupt(out / "w" / f"trace_seed{SEEDS[0]}.csv")
        return bench.check_run(wl, out, SEEDS, rc)

    def test_clean_run_passes(self):
        outcome = self.run_check()
        self.assertEqual(self.failures(outcome), [])
        self.assertEqual(outcome.evals_to_target, {"w": [9, 9]})
        self.assertEqual(outcome.iterations, 8)
        self.assertEqual(len(outcome.digests), 2)

    def test_nonzero_exit(self):
        self.assertIn("exit code 2", self.failures(self.run_check(rc=2)))

    def test_envelope_fail(self):
        self.assertTrue(self.failures(self.run_check(envelope="fail")))
        self.assertTrue(self.failures(self.run_check(**{f"seed{SEEDS[1]}.envelope": "fail"})))

    def test_missing_row(self):
        def drop_last(path):
            path.write_text("".join(path.read_text().splitlines(True)[:-1]))
        self.assertIn(f"trace has {MAX_ITERS - 1} rows, expected {MAX_ITERS}",
                      self.failures(self.run_check(drop_last)))

    def test_increasing_f_z(self):
        def bump(path):
            path.write_text(path.read_text().replace("0.5,0.1,plus,7", "0.75,0.1,plus,7"))
        self.assertIn("f_z increases at row 2", self.failures(self.run_check(bump)))

    def test_missing_trace(self):
        self.assertIn("no trace CSV", self.failures(self.run_check(Path.unlink)))

    def test_missing_final_gap(self):
        self.assertIn("no final_gap to locate the target",
                      self.failures(self.run_check(**{f"seed{SEEDS[0]}.final_gap": "nan"})))

    def test_target_not_reached(self):
        wl = bench.Workload("run", {"w": ""}, 2, max_iters=MAX_ITERS, target_gap=1e-9)
        self.assertIn("gap 1e-09 never reached", self.failures(self.run_check(wl=wl)))

    def test_clean_compare_passes(self):
        write_compare(self.tmp)
        outcome = bench.check_compare(self.tmp, SEEDS, replay(), 0)
        self.assertEqual(self.failures(outcome), [])
        self.assertEqual(outcome.evals_to_target,
                         {bench.PROP_LABEL: [100, 120], bench.UNIFORM_LABEL: [400, 500]})
        self.assertIn("compare.csv", outcome.digests)

    def test_compare_nonzero_exit(self):
        write_compare(self.tmp)
        outcome = bench.check_compare(self.tmp, SEEDS, replay(), 1)
        self.assertIn("exit code 1", self.failures(outcome))

    def test_compare_unreached(self):
        write_compare(self.tmp, [f"{bench.PROP_LABEL},2,1,inf,100,inf",
                                 f"{bench.UNIFORM_LABEL},2,2,450,400,500"])
        failures = self.failures(bench.check_compare(self.tmp, SEEDS, replay((100, None)), 0))
        self.assertIn("n_reached=1 of 2", failures)
        self.assertIn("target never reached in replay", failures)

    def test_compare_prop_not_better(self):
        write_compare(self.tmp, [f"{bench.PROP_LABEL},2,2,450,400,500",
                                 f"{bench.UNIFORM_LABEL},2,2,450,400,500"])
        outcome = bench.check_compare(self.tmp, SEEDS, replay((400, 500)), 0)
        self.assertTrue(any("not below uniform" in f for f in self.failures(outcome)))

    def test_compare_disagrees_with_replay(self):
        write_compare(self.tmp)
        outcome = bench.check_compare(self.tmp, SEEDS, replay((100, 130)), 0)
        self.assertTrue(any("disagrees with the replay" in f for f in self.failures(outcome)))

    def test_compare_missing(self):
        failures = self.failures(bench.check_compare(self.tmp, SEEDS, replay(), 0))
        self.assertIn(f"compare.csv has no {bench.PROP_LABEL} row", failures)
        self.assertIn("replay of the compare configs failed",
                      self.failures(bench.check_compare(self.tmp, SEEDS, None, 0)))

    def test_rerun_must_reproduce_artifacts(self):
        runner = bench.Bench("quad_run", 0, 1, self.tmp)
        runner.wl = RUN_WL
        runner.seeds = SEEDS
        write_run(self.tmp / "a")
        self.assertTrue(runner.check(self.tmp / "a", 0).ok)
        write_run(self.tmp / "b")
        trace = self.tmp / "b" / "w" / f"trace_seed{SEEDS[1]}.csv"
        trace.write_text(trace.read_text().replace("0,1.0,0.1,", "0,1.0,0.2,"))
        self.assertIn("artifacts differ from the first passing invocation",
                      self.failures(runner.check(self.tmp / "b", 0)))

    def test_traced_loop_ends_when_every_run_fails(self):
        runner = bench.Bench("quad_run", 0, 0, self.tmp)
        failed = bench.Child(1, 0.1, 0.1, 0, 1.0, self.tmp / "child.log")
        real_launch, bench.launch = bench.launch, lambda *args, **kwargs: failed
        try:
            metrics, outcomes, _ = runner.per_layer()
        finally:
            bench.launch = real_launch
        self.assertEqual(metrics, {})
        self.assertEqual(len(outcomes), 2)
        self.assertFalse(any(o.ok for o in outcomes))


if __name__ == "__main__":
    unittest.main()
