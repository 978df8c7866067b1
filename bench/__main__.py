"""``python -m bench``: the one benchmark command.

Two ways in:

* ``python -m bench --workload NAME --seed N --seconds S --trace 0|1``
  runs one workload in this process and prints, as the last line of
  standard output, one JSON object ``{"correct", "attempted", "failed",
  "metrics"}`` — the end-to-end metrics with ``--trace 0``, the
  per-layer metrics with ``--trace 1``.  (The line before it is the
  run's detail record.)  Exit status is non-zero when the run is not
  correct.
* ``python -m bench`` (no ``--workload``) runs all four workloads, each
  in its own fresh subprocess — one untraced run, then one traced run —
  prints every metric by name with its unit and the layer report, and
  writes ``bench/results/<date>-<shortsha>.json``.  ``--quick`` shrinks
  everything to a smoke run and writes nothing; ``--agree`` runs the
  end-to-end set twice and checks the two against the declared bounds;
  ``python -m bench trend`` prints the committed trajectory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if (ROOT / "src" / "repro").is_dir() and str(ROOT / "src") not in sys.path:
    # So the declared command works without PYTHONPATH=src.
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench",
                                     description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=("run", "trend"),
                        default="run")
    parser.add_argument("--workload", help="run just this workload, in-process")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload-generator seed (default 11)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per untraced run "
                             "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke sizes, one cycle, shortened drivers")
    parser.add_argument("--agree", action="store_true",
                        help="run the end-to-end set twice and compare")
    args = parser.parse_args(argv)

    try:
        from . import report, runner
    except ModuleNotFoundError as missing:
        if missing.name != "repro":
            raise
        print("bench: the program under test (src/repro) is not here",
              file=sys.stderr)
        return 2

    seed = runner.DEFAULT_SEED if args.seed is None else args.seed
    seconds = (args.seconds if args.seconds is not None
               else float(runner.load_declaration()["run_seconds"]))
    if args.command == "trend":
        return report.trend()
    if args.workload is None:
        if args.agree:
            return report.agree(seed, seconds, args.quick)
        return report.full_run(seed, seconds, args.quick)
    if args.workload not in runner.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(runner.WORKLOADS)}")
    detail, result = runner.run_workload(args.workload, seed, seconds,
                                         bool(args.trace), args.quick)
    for problem in detail["problems"]:
        print(f"bench: {args.workload}: {problem}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
