"""The repository benchmark: one command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It drives the program's public library
and service APIs, checks every output (``checks.py``), and prints, as the
last line of standard output, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it is a JSON object with the run's stamp (CPU count, affinity, Python,
commit, seed), sample counts, the end-to-end timings in plain wall-clock
and CPU time (``wall``; the metrics themselves are in reference time, see
``hostspeed.py``), digests and any problems found.

Exit status: 0 for a correct run, 1 for a wrong output, 2 when the
program's sources are missing.  Everything it writes goes to
``.perfbench_run/`` in the checkout and is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("recall_duckdb", "jobs2_duckdb", "metamorphic_duckdb", "service_mix")


def git_commit(root: str) -> str:
    """HEAD of the checkout, or ``unknown`` where it is not a git
    repository (git does not look above the checkout) or git is missing."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def stamp(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_commit": git_commit(ROOT),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child (shard
    workers, service process), in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC}/repro)", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, ROOT]

    scratch = os.path.join(ROOT, ".perfbench_run", str(os.getpid()))
    os.makedirs(scratch)
    # keep every temporary file (shard transport, service data) in the checkout
    tempfile.tempdir = scratch
    os.environ["TMPDIR"] = scratch
    try:
        if args.workload == "service_mix":
            from perfbench import service as workload
        else:
            from perfbench import campaigns as workload
        record = workload.run(
            args.workload, args.seed, args.seconds, bool(args.trace), scratch
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(scratch))
        except OSError:
            pass

    from perfbench.report import E2E_UNITS, unit_of

    metrics = record["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = peak_rss_mb()
    units = unit_of if args.trace else E2E_UNITS.__getitem__
    out = {name: {"value": value, "unit": units(name)} for name, value in metrics.items()}
    details = {
        "stamp": stamp(args),
        "units": record.get("units"),
        "samples": record.get("samples"),
        "wall": record.get("wall"),
        "failed_ops_ratio": record["failed"] / record["attempted"],
        "digests": record.get("digests"),
        "problems": record["problems"],
    }
    print(json.dumps(details))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": out,
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
