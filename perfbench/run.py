"""The repository benchmark's command line.

    python3 perfbench/run.py --workload sym-n256 --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/``
next to this directory, so no install step is needed.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (every end-to-end metric with ``--trace 0``,
every per-layer metric with ``--trace 1``); the lines before it repeat
the metrics with their sample counts.  The exit code is 0 only when
every output check passed.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("sym-n256", "real-dh2048", "churn-storm")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: the program's sources are missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # imports the program

    imported = time.perf_counter()
    report = workloads.run(
        args.workload, args.seed, args.seconds, bool(args.trace),
        started=STARTED, imported=imported,
        out_dir=os.path.join(ROOT, ".perfbench"),
    )
    for line in report.lines:
        print(line)
    print(report.json_line(), flush=True)
    return 0 if report.correct else 1


if __name__ == "__main__":
    sys.exit(main())
