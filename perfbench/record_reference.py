"""Record the ``paper_table3`` output reference.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  It evaluates every Table III framework on
each instance of the 80-instance pool, one instance at a time, and writes
each record's path and SR / IoI / IoR / log-PPL terms, plus the evaluator
selection, to ``perfbench/reference/paper_table3.json``.  Regenerate it only
when a change is meant to alter what the reproduction computes.
"""

from __future__ import annotations

import json
import os
import sys

def main() -> int:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    root = os.getcwd()
    sys.path[:0] = [os.path.join(root, "src"), root]
    import logging

    logging.disable(logging.INFO)
    from perfbench.workloads import paper_table3

    reference = paper_table3.record_reference()
    with open(paper_table3.REFERENCE_PATH, "w") as handle:
        json.dump(reference, handle, separators=(",", ":"))
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
