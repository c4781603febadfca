"""Traced stand-in for ``python -m orbitpoly.cli``: same arguments, same
stdout and exit code, plus one JSON line on stderr with the start stamp,
the import split and the raw span totals of the command.

Usage: python bench/cli_entry.py <orbitpoly CLI arguments>
"""
import time

T_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    t1 = time.perf_counter()
    import orbitpoly.cli
    t2 = time.perf_counter()
    import spans
    from orbitpoly import chebyshev

    tracer = spans.Tracer()
    spans.install(tracer)
    code = 0
    try:
        orbitpoly.cli.main.main(args=sys.argv[1:], prog_name="orbitpoly")
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        report = {"start": T_START, "numpy_import_s": t1 - t0, "import_s": t2 - t0,
                  "memo_size": len(chebyshev._T_MEMO),
                  "raw": spans.raw_totals(tracer.spans)}
        print(json.dumps(report), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
