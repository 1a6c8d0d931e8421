"""perfbench: the repository's end-to-end and per-layer benchmark.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload build-anti --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads in turn with the same seed.

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``build-anti``  -- repeated in-process Stellar builds of an anti-correlated
  3,000 x 4 dataset;
* ``serve-read``  -- closed-loop HTTP reads against ``repro serve`` over an
  anti-correlated 10,000 x 4 snapshot;
* ``serve-write`` -- closed-loop HTTP steps over an independent 20,000 x 4
  snapshot, each a scripted WAL-logged fast-path insert or delete with a
  skyline read sent beside it.

Every process of a run is pinned to one CPU and every time is reported at
reference speed (see ``refkernel.py``).  Human-readable lines come first;
the last line of stdout is the JSON result.  ``--trace 1`` runs the
per-layer traced variant instead and prints the per-layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))


WORKLOADS = ("build-anti", "serve-read", "serve-write")


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=[*WORKLOADS, "all"],
        help="one workload, or all three in turn",
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def pin_to_one_cpu() -> int:
    """Pin this process (and so every child it starts) to one CPU."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def run_workload(name: str, args: argparse.Namespace):
    import workloads
    from host import stderr_tail

    work = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return workloads.RUNNERS[name](args, work)
    except Exception:
        print(stderr_tail(work), file=sys.stderr)
        raise
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: the program's source (src/repro) is missing under {ROOT}",
            file=sys.stderr,
        )
        return 2
    cpu = pin_to_one_cpu()
    # On SIGTERM unwind normally, so every child is stopped and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        outcome = run_workload(name, args)
        outcome.diagnostics["pinned_cpu"] = cpu
        outcome.print_report(args)
        results[name] = outcome.result(args.trace)
    if len(results) == 1:
        print(json.dumps(results[args.workload]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(r["correct"] for r in results.values()),
                    "attempted": sum(r["attempted"] for r in results.values()),
                    "failed": sum(r["failed"] for r in results.values()),
                    "metrics": {
                        f"{name}/{metric}": value
                        for name, r in results.items()
                        for metric, value in r["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
