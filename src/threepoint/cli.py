"""Command line entry points: run, validate, compare.

Exit codes: 0 on success, 2 when a configured rate envelope is violated,
1 on any other error.
"""

from __future__ import annotations

import argparse
import sys

from . import harness


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="threepoint",
        description="Direct-search optimization runs driven by key=value configs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a config across its seeds")
    p_run.add_argument("--config", required=True, help="path to a key=value config file")
    p_run.add_argument("--out", default=None, help="output directory (default: config, "
                       f"then ${harness.ENV_OUT}, then ./{harness.DEFAULT_OUT})")
    p_run.add_argument("--seed", type=int, default=None,
                       help="run only this seed instead of the configured list")
    p_run.add_argument("--jobs", type=int, default=None, help="parallel seed workers")

    p_val = sub.add_parser("validate", help="parse and build a config without running it")
    p_val.add_argument("--config", required=True, help="path to a key=value config file")

    p_cmp = sub.add_parser("compare", help="evaluations-to-target across configs")
    p_cmp.add_argument("--configs", required=True, nargs="+",
                       help="two or more config paths sharing an objective and epsilon")
    p_cmp.add_argument("--out", default=None, help="directory for compare.csv")
    return parser


def _cmd_run(args) -> int:
    cfg = harness.load_config(args.config)
    if args.seed is not None:
        cfg.seeds = (args.seed,)
    summary = harness.run_experiment(cfg, out_dir=args.out, jobs=args.jobs)
    print(f"label={summary.label} fingerprint={summary.fingerprint} "
          f"seeds={len(summary.seed_results)} out={summary.out_dir}")
    for r in summary.seed_results:
        print(f"seed {r.seed}: iterations={r.iterations} evals={r.evals} "
              f"stop={r.stop_reason} final_gap={r.final_gap:.6g}")
    if summary.envelope_ok is not None:
        print(f"envelope: {'pass' if summary.envelope_ok else 'fail'}")
        if not summary.envelope_ok:
            return 2
    return 0


def _cmd_validate(args) -> int:
    cfg = harness.load_config(args.config)  # parsing prepares the run
    print(f"ok label={cfg.label} fingerprint={cfg.fingerprint()}")
    return 0


def _cmd_compare(args) -> int:
    configs = [harness.load_config(path) for path in args.configs]
    rows = harness.compare_methods(configs, out_dir=args.out)
    print("\n".join(harness.compare_table(rows)))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; fold those into the error code
        return 0 if exc.code in (0, None) else 1
    handlers = {"run": _cmd_run, "validate": _cmd_validate, "compare": _cmd_compare}
    try:
        return handlers[args.command](args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps errors to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
