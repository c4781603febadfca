#!/usr/bin/env python3
"""Split the CPU time of one fresh ``orbitpoly`` CLI call into its layers:
the bare interpreter, the numpy import, the click import, the package's own
modules, the command itself and the interpreter's teardown.

Probes are fresh subprocesses that stop at successive points of a call and
then leave with ``os._exit`` after flushing; the last probe runs the command
and exits the normal way.  A layer's time is a probe's CPU time (user +
system) minus the one before it in the same round, and each figure is the
median over --runs rounds.  The probes run in rotation under the benchmark's
pinned environment (``bench/run.py``'s ``child_env``: one BLAS thread, a
fixed hash seed, ``PYTHONPATH=src``), pinned to one CPU, after one untimed
round that leaves the bytecode caches behind.  ``total`` is the median of
the whole call with a normal exit.  The last row times ``python -m
orbitpoly.cli`` itself, which skips teardown, so it should read about
``total`` minus ``teardown``.  A layer of a few ms, as the command of a
small input is, sits within the run-to-run noise of a fresh process.

The CLI arguments follow the options; ``orbit -l 1,1,1`` when none is given.

Example:
    python scripts/startup_scan.py --runs 25 eval -k C -l 1,1 -x 0.1,0.2
"""
import argparse
import importlib.util
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_COMMAND = ["orbit", "-l", "1,1,1"]
_RUN = ("try:\n    orbitpoly.cli.main(sys.argv[1:], 'orbitpoly')\n"
        "except SystemExit:\n    pass\n")
_FLUSH_EXIT = "sys.stdout.flush()\nsys.stderr.flush()\nos._exit(0)\n"
#: (layer, probe source); a layer's time is its probe's minus the previous one's.
PROBES = (
    ("interpreter", "import os, sys\n" + _FLUSH_EXIT),
    ("numpy", "import os, sys, numpy\n" + _FLUSH_EXIT),
    ("click", "import os, sys, numpy, click\n" + _FLUSH_EXIT),
    ("package", "import os, sys, orbitpoly.cli\n" + _FLUSH_EXIT),
    ("command", "import os, sys, orbitpoly.cli\n" + _RUN + _FLUSH_EXIT),
    ("teardown", "import os, sys, orbitpoly.cli\n" + _RUN),
)


def pinned_env() -> dict:
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_run)
    return bench_run.child_env()


def cpu_ms(argv: list, env: dict) -> float:
    """CPU milliseconds of one subprocess, which must exit 0."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return 1e3 * (after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--runs", type=int, default=25, help="rounds; each figure is a median")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="orbitpoly CLI arguments (default: orbit -l 1,1,1)")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    command = args.command or DEFAULT_COMMAND

    env = pinned_env()
    probes = [[sys.executable, "-c", source, *command] for _, source in PROBES]
    probes.append([sys.executable, "-m", "orbitpoly.cli", *command])
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})  # the probes inherit the one CPU
    try:
        for probe in probes:
            cpu_ms(probe, env)
        samples = [[] for _ in probes]
        for _ in range(args.runs):
            for probe, times in zip(probes, samples):
                times.append(cpu_ms(probe, env))
    finally:
        os.sched_setaffinity(0, cpus)

    print(f"orbitpoly {' '.join(command)}: CPU ms, median of {args.runs}")
    print(f"{'layer':<22} {'ms':>7}")
    for i, (layer, _) in enumerate(PROBES):
        steps = [b - a for a, b in zip(samples[i - 1], samples[i])] if i else samples[0]
        print(f"{layer:<22} {statistics.median(steps):>7.1f}")
    print(f"{'total':<22} {statistics.median(samples[-2]):>7.1f}")
    print(f"{'python -m orbitpoly.cli':<22} {statistics.median(samples[-1]):>7.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
