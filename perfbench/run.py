"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload skew-load --seed 0 --seconds 20 --trace 0

The program under test is imported from ``src/`` beside this directory, so
the benchmark always measures the checkout it sits in; without that source
tree it exits with status 2 before printing a result.  The last line of
standard output is the result: one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it stamps the
result with what it may be compared under (seed, nproc, Python and numpy
versions); only results of the same seed are comparable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SOURCE}", file=sys.stderr)
        return 2
    # One thread: numpy starts a BLAS thread pool on import unless capped.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.path.insert(0, str(SOURCE))
    import skewbench  # found beside this file, on sys.path from the start

    workload = skewbench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(skewbench.WORKLOADS)}", file=sys.stderr)
        return 2
    print(json.dumps({"stamp": skewbench.stamp(
        workload, args.seed, bool(args.trace), args.seconds)}), flush=True)
    report = skewbench.run(
        workload, args.seed, args.seconds, bool(args.trace),
        log=lambda line: print(line, file=sys.stderr, flush=True))
    for name, (value, unit) in report.metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps(report.to_json()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
