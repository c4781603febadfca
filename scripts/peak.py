#!/usr/bin/env python3
"""Run a command and print its peak RSS and CPU time on stderr.

The figures are the command's own, read after it exits from
``resource.getrusage(RUSAGE_CHILDREN)``: the largest ``ru_maxrss`` of the
process tree it waited for and its user plus system CPU time, printed as one
line, ``peak RSS N MiB, CPU T s``.  The exit status is the command's (128 plus
the signal number when a signal ended it, as a shell reports it).

Example:
    python scripts/peak.py python -m orbitpoly.cli verify -s detforms -n 8
"""
import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: peak.py CMD [ARG ...]", file=sys.stderr)
        return 2
    status = subprocess.run(argv).returncode
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    print(f"peak RSS {usage.ru_maxrss / 1024:.0f} MiB, CPU {usage.ru_utime + usage.ru_stime:.1f} s",
          file=sys.stderr)
    return status if status >= 0 else 128 - status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
