"""dehash benchmark: one closed-loop client against the server side, per workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload scan-5k --seed 1 --seconds 10 --trace 0

``--trace 0`` times set-up and queries untraced, checks every ranking, and
prints the end-to-end metrics; ``--trace 1`` records spans around every call
into the package and prints the per-layer metrics.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the exit code is 1 when any output check failed.
Machine facts, the full result and (traced) the spans are written under
``.bench_build/perfbench/``.  See ``perfbench/README.md`` for the workloads
and which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import os
import sys

# Pinned before numpy loads: one BLAS/OpenMP thread, so a run measures one
# core's work and two runs on a 2-CPU host do not fight over threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dehash" / "__init__.py").is_file():
        print(f"perfbench: no dehash sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    if args.workload not in measure.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(sorted(measure.WORKLOADS))}")
    return measure.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
