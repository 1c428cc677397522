"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the program under test is imported from
``src/``.  Untraced runs (``--trace 0``) report the end-to-end metrics;
traced runs (``--trace 1``) report the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import os
import sys

ROOT = os.getcwd()
WORKLOADS = ("paper_table3", "serve_sessions", "serve_fleet")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    # Pin BLAS to one thread before numpy loads: the fleet workload forks one
    # worker per core, and OpenBLAS defaults to one thread per core in each.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"no program under test: {source}/repro is missing; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path[:0] = [source, ROOT]
    import importlib
    import json
    import logging

    logging.disable(logging.INFO)
    from perfbench.metrics import END_TO_END, PER_LAYER, complete
    from perfbench.report import cpu_ticks, emit, machine_stamp
    from perfbench.tracing import SELF_TIME_TOLERANCE

    module = importlib.import_module(f"perfbench.workloads.{args.workload}")
    ticks_before = cpu_ticks()
    result = module.run(args.seed, args.seconds, bool(args.trace))
    ticks_after = cpu_ticks()
    if ticks_before is not None and ticks_after is not None:
        total = ticks_after[1] - ticks_before[1]
        result.notes["cpu_steal_share"] = round((ticks_after[0] - ticks_before[0]) / max(total, 1), 4)
    if args.trace and result.values["trace.self_sum_error"] > SELF_TIME_TOLERANCE:
        result.problems.append("traced self times do not add up to the traced wall")
    catalogue = PER_LAYER if args.trace else END_TO_END
    metrics = complete(catalogue, result.values)
    print(json.dumps({"machine": machine_stamp(ROOT), "phases": result.phases, **result.notes}),
          file=sys.stderr)
    for problem in result.problems:
        print(f"problem: {problem}", file=sys.stderr)
    emit(metrics, result.attempted, result.failed, result.correct)
    return 0


if __name__ == "__main__":
    sys.exit(main())
