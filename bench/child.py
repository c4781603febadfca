"""One benchmark round in a fresh interpreter: import the package, send the
round's requests one at a time, check every output, report as JSON.

Reads a job from stdin, for example
``{"workload": "products", "requests": [...], "trace": false}``, and prints
one JSON line: the start stamp, set-up time, per-request CPU times (raw
and rescaled to the reference speed of ``speed.py``) and wall times,
failures, peak RSS and, when traced, the raw span totals.  A fresh
process per round means every cache (the orbit cache, ``_orbit_arrays``,
``_T_MEMO``) starts cold, as it does for every CLI call and script run.

The timed region of a request is the one user-level call; checks that only
read the output run between requests with pure integer oracles, and checks
that touch package caches run after the last request.
"""
import time

T_START = time.perf_counter()

import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 60
#: Kernel calls (median) of each calibration before and after the import.
SETUP_CAL_REPS = 5


def _product(req):
    from orbitpoly import exp_ring
    a, b = tuple(req[1]), tuple(req[2])
    dec = exp_ring.decompose_into_c(exp_ring.exp_sum(a, "C") * exp_ring.exp_sum(b, "C"))
    return dec, lambda: workloads.check_product(a, b, dec.terms)


def _recursion(req):
    from orbitpoly import chebyshev
    j, a = req[1], tuple(req[2])
    rel = chebyshev.recursion_relation(j, a)
    return rel, lambda: workloads.check_recursion(j, a, rel.rhs.terms)


def _table(req):
    from orbitpoly import chebyshev
    kind, lam = req[0], tuple(req[1])
    if kind == "T":
        poly = chebyshev.poly_t(lam)
    elif kind == "U":
        poly = chebyshev.poly_u(lam)
    else:
        poly = chebyshev.substitute_p(lam, kind[1])
    return poly, lambda: workloads.check_table_entry(kind, lam, poly.terms)


def _suite(req):
    from orbitpoly import analysis
    reports = analysis.run_suite(req[1])

    def check():
        bad = [r.suite for r in reports if not r.passed]
        return f"suite {req[1]} failed: {bad}" if bad or not reports else None
    return reports, check


def _eval(req):
    from orbitpoly import orbit_functions
    kind, lam = req[1], tuple(req[2])
    f = getattr(orbit_functions, "eval_" + kind.lower())
    values = [f(lam, tuple(x)) for x in req[3]]

    def check():
        if all(math.isfinite(v.real) and math.isfinite(v.imag) for v in values):
            return None
        return f"non-finite {kind}{lam} value"
    return values, check


def _cli(req, traced):
    entry = [os.path.join(BENCH_DIR, "cli_entry.py")] if traced else ["-m", "orbitpoly.cli"]
    spawn = time.perf_counter()
    proc = subprocess.run([sys.executable, *entry, *req[1]], capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    latency = time.perf_counter() - spawn

    def check():
        from click.testing import CliRunner
        from orbitpoly import cli
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
        local = CliRunner().invoke(cli.main, req[1])
        if local.exit_code != 0 or local.stdout != proc.stdout:
            return "subprocess stdout differs from the in-process rendering"
        return None
    return (proc, spawn, latency), check


RUNNERS = {"decompose": _product, "recursion": _recursion, "T": _table, "U": _table,
           "PC": _table, "PS": _table, "suite": _suite, "eval": _eval}


def cpu_now() -> float:
    """CPU seconds (user + system) of this process and its reaped children.

    Requests are timed in CPU time: one client runs one request at a time
    and the package never waits, so it equals the request's service time,
    while wall time on a shared host also counts the time other tenants hold
    the CPU.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def run_requests(reqs, tracer=None) -> dict:
    """Send each request, time it, check it.

    Returns per-request CPU times rescaled to the reference speed (see
    ``speed``), the raw CPU and wall times, failures, the eval outputs (kept
    for the late subsample check) and, for traced CLI requests, each
    subprocess's spawn stamp, wall latency and stderr.
    """
    out = {"cpu_raw": [], "wall": [], "failures": [], "outputs": [], "cli_reports": []}
    # Calibrations and requests are placed on one axis: request CPU time
    # done so far.
    cals, cal_at, done_s = [speed.sample()], [0.0], 0.0
    for i, req in enumerate(reqs):
        if done_s - cal_at[-1] >= speed.CAL_EVERY_S:
            cals.append(speed.sample())
            cal_at.append(done_s)
        if tracer is not None:
            tracer.request = i
        cpu0, wall0 = cpu_now(), time.perf_counter()
        try:
            if req[0] == "cli":
                (proc, spawn, latency), check = _cli(req, tracer is not None)
                if tracer is not None:
                    out["cli_reports"].append((spawn, latency, proc.stderr))
            else:
                value, check = RUNNERS[req[0]](req)
                if req[0] == "eval":
                    out["outputs"].append((i, value))
            err = None
        except Exception as exc:  # a failing request is counted, not fatal
            err, check = f"{type(exc).__name__}: {exc}", None
        out["cpu_raw"].append(cpu_now() - cpu0)
        out["wall"].append(time.perf_counter() - wall0)
        done_s += out["cpu_raw"][-1]
        if check is not None:
            try:
                err = check()
            except Exception as exc:
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            out["failures"].append([i, err])
    cals.append(speed.sample())
    cal_at.append(done_s)
    starts = itertools.accumulate(out["cpu_raw"], initial=0.0)
    scales = speed.scales(cals, cal_at, zip(starts, out["cpu_raw"]))
    out["cpu"] = [t * f for t, f in zip(out["cpu_raw"], scales)]
    out["kernel_s"] = statistics.median(cals)
    return out


def check_numeric_sample(reqs, outputs, indices):
    """Re-evaluate a seeded subsample through exp_sum(lam, kind).evaluate."""
    from orbitpoly import exp_ring
    values = dict(outputs)
    failures = []
    for i in indices:
        if i not in values:
            continue
        _, kind, lam, points = reqs[i]
        ref_sum = exp_ring.exp_sum(tuple(lam), kind)
        tol = 1e-9 * workloads.orbit_size(lam)
        for x, v in list(zip(points, values[i]))[:5]:
            if abs(v - ref_sum.evaluate(x)) > tol:
                failures.append([i, f"eval_{kind.lower()}{tuple(lam)} at {x} differs "
                                    "from exp_sum(...).evaluate"])
                break
    return failures


def cli_layers(cli_reports, raw):
    """Fold traced CLI subprocess reports into raw totals; start-up split."""
    interp, imports, numpy_imports, command, memo = [], [], [], [], [0]
    for spawn, latency, stderr in cli_reports:
        rep = json.loads(stderr.strip().splitlines()[-1])
        spans.merge_raw(raw, rep["raw"])
        interp.append(rep["start"] - spawn)
        imports.append(rep["import_s"])
        numpy_imports.append(rep["numpy_import_s"])
        command.append(latency - interp[-1] - rep["import_s"])
        memo.append(rep["memo_size"])
    return {"cli.interp_s": statistics.median(interp),
            "cli.import_s": statistics.median(imports),
            "cli.numpy_import_s": statistics.median(numpy_imports),
            "cli.command_s": statistics.median(command),
            "memo_size": max(memo)}


def self_test():
    """Span-coverage checks on a small fixed request list; returns failures."""
    from orbitpoly import chebyshev, weyl
    tracer = spans.Tracer()
    spans.install(tracer)
    errors = [f"still untraced: {name}" for name in spans.unwrapped_bindings(tracer)]

    lru = weyl.orbit.__wrapped__
    before = lru.cache_info()
    fixed = [["decompose", [1, 0, 1], [0, 1, 1]], ["recursion", 2, [1, 1]],
             ["T", [2, 1]], ["U", [1, 1]], ["PS", [1, 2]],
             ["eval", "E", [2, 1], [[0.1, 0.2], [0.3, 0.4]]],
             ["eval", "C", [1, 1, 1], [[0.3, 0.1, 0.2]]], ["suite", "chebyshev"]]
    failures = run_requests(fixed, tracer)["failures"]
    after = lru.cache_info()
    errors += [f"fixed request {i} failed: {msg}" for i, msg in failures]
    calls = (after.hits + after.misses) - (before.hits + before.misses)
    if tracer.count("weyl.orbit") != calls:
        errors.append(f"{tracer.count('weyl.orbit')} weyl.orbit spans but "
                      f"cache_info() counted {calls} calls")
    missed = spans.raw_totals(tracer.spans).get("weyl.orbit", {}).get("misses", 0)
    if missed != after.misses - before.misses:
        errors.append(f"{missed} traced orbit misses, cache_info() counted "
                      f"{after.misses - before.misses}")
    if not chebyshev._T_MEMO:
        errors.append("poly_t memo untouched by the fixed requests")

    start = len(tracer.spans)
    run_requests([["decompose", [2, 1], [1, 2]]], tracer)
    got = {name: tracer.count(name, start)
           for name in ("exp_ring.exp_sum", "exp_ring.mul", "exp_ring.decompose")}
    if got != {"exp_ring.exp_sum": 2, "exp_ring.mul": 1, "exp_ring.decompose": 1}:
        errors.append(f"one decompose request recorded {got}")
    return errors


def peak_rss_kib(workload: str) -> int:
    """Peak RSS of this process or, for CLI rounds, of the largest command."""
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def main() -> int:
    job = json.load(sys.stdin)
    workload, traced = job["workload"], job["trace"]
    result = {"start": T_START}
    # One CPU for the round and its subprocesses, so the calibration kernel
    # and the requests run on the same (virtual) core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if traced:
        t0 = time.perf_counter()
        import numpy  # noqa: F401  (timed apart from the package in traced rounds)
        result["numpy_import_s"] = time.perf_counter() - t0
    speed.sample(SETUP_CAL_REPS)  # warm the kernel
    before = speed.sample(SETUP_CAL_REPS)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if workload == "cli":
        import orbitpoly.cli  # noqa: F401
    else:
        import orbitpoly  # noqa: F401
    setup_cpu = time.process_time() - cpu0
    result["setup_wall_s"] = time.perf_counter() - wall0
    after = speed.sample(SETUP_CAL_REPS)
    result["setup_raw_s"] = setup_cpu
    result["setup_s"] = setup_cpu * 2 * speed.REF_KERNEL_S / (before + after)
    result["numpy_version"] = sys.modules["numpy"].__version__
    if traced:
        result["import_s"] = result["setup_wall_s"] + result["numpy_import_s"]

    if job.get("selftest"):
        result["selftest_errors"] = self_test()
        print(json.dumps(result))
        return 0

    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
    reqs = job["requests"]
    done = run_requests(reqs, tracer)
    result["rss_kib"] = peak_rss_kib(workload)
    if traced:
        from orbitpoly import chebyshev
        raw = spans.raw_totals(tracer.spans)
        result["extras"] = cli_layers(done["cli_reports"], raw) if done["cli_reports"] \
            else {"memo_size": len(chebyshev._T_MEMO)}
        result["raw"] = raw
    failures = done["failures"]
    if workload == "numeric":
        failures += check_numeric_sample(reqs, done["outputs"], job.get("checks", []))
    result.update(cpu=done["cpu"], cpu_raw=done["cpu_raw"], wall=done["wall"],
                  kernel_s=done["kernel_s"], failures=failures)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
