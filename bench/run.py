#!/usr/bin/env python3
"""orbitpoly benchmark: seeded closed-loop workloads, end-to-end metrics,
and an outside-in per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload products --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 1

One client sends one request at a time.  Each round is a fresh child
process (``child.py``) that imports the package, sends one seeded request
list and checks every output; rounds repeat until ``--seconds`` have passed
and at least MIN_REQUESTS requests and MIN_ROUNDS rounds are in, so the 90th
percentile has ten samples beyond it and set-up is measured several times.
Times are CPU seconds (see ``child.cpu_now``) rescaled to a reference host
speed by a calibration kernel timed between requests (see ``speed.py``).
busy_s, setup_s and peak_rss_mib are medians over rounds; job_p50_ms and
job_p90_ms are taken over all requests of the run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` sends every list twice, untraced then traced, reports the
per-layer metrics of BENCHMARK.json from the traced rounds, and
``trace.overhead_s``, the traced minus the untraced median busy_s.  A
span-coverage self-test runs first.

The last stdout line is one JSON object with keys correct, attempted,
failed and metrics; a result file with the machine and source details goes
to bench/results/.  Exit code 2 means the benchmark could not run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

T_BEGIN = time.perf_counter()

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_REQUESTS = 100
MIN_ROUNDS = 3
#: No round starts after this many seconds, so a run ends well inside 180 s.
LAST_ROUND_START_S = 120
RUN_LIMIT_S = 170

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
    "PYTHONPATH": "src",
}


class RoundError(RuntimeError):
    """A round's child process crashed, timed out or printed no result."""


def child_env() -> dict:
    """The caller's environment with the pinned values; bytecode caching on,
    so the warm-up leaves compiled modules behind as an installed package has."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PINNED_ENV)
    return env


def run_child(job: dict) -> dict:
    """Run child.py on one job in its own session; kill the session on timeout."""
    timeout = RUN_LIMIT_S - (time.perf_counter() - T_BEGIN)
    spawn = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py")], cwd=ROOT, env=child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(job), timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        raise RoundError(f"round did not finish within {timeout:.0f} s")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundError(f"child exited {proc.returncode}: {err.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["interp_s"] = result["start"] - spawn
    return result


def warm_up() -> None:
    """Import once so bytecode caches exist before anything is timed."""
    subprocess.run([sys.executable, "-c", "import orbitpoly.cli"], cwd=ROOT,
                   env=child_env(), check=True, capture_output=True, timeout=60)


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> list:
    """Fresh-process rounds until the time, request and round minimums are met.

    Round k sends the list drawn from (seed, k).  A traced run sends each
    list twice, untraced then traced, so the pair gives the tracing overhead.
    """
    rounds: list[dict] = []
    start = time.perf_counter()
    while True:
        k, traced = (len(rounds) // 2, len(rounds) % 2 == 1) if trace else (len(rounds), False)
        reqs = workloads.requests(workload, seed, k)
        checks = workloads.numeric_check_indices(reqs, seed, k) if workload == "numeric" else []
        job = {"workload": workload, "requests": reqs, "trace": traced, "checks": checks}
        result = run_child(job)
        result["traced"] = traced
        rounds.append(result)
        elapsed = time.perf_counter() - start
        plain = [r for r in rounds if not r["traced"]]
        if trace:
            enough = len(plain) >= 1 and len(rounds) - len(plain) >= 1
        else:
            enough = (len(plain) >= MIN_ROUNDS
                      and sum(len(r["cpu"]) for r in plain) >= MIN_REQUESTS)
        if (elapsed >= seconds and enough) or time.perf_counter() - T_BEGIN > LAST_ROUND_START_S:
            return rounds


def timings(rounds: list[dict], clock: str) -> tuple[float, float, float]:
    """Round median of the list total, and request p50 and p90, on one clock."""
    times = [x for r in rounds for x in r[clock]]
    return (statistics.median(sum(r[clock]) for r in rounds),
            1e3 * statistics.median(times), 1e3 * statistics.quantiles(times, n=10)[8])


def end_to_end(plain: list[dict]) -> dict[str, float]:
    busy, p50, p90 = timings(plain, "cpu")
    return {
        "busy_s": busy,
        "job_p50_ms": p50,
        "job_p90_ms": p90,
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "peak_rss_mib": statistics.median(r["rss_kib"] for r in plain) / 1024,
    }


def per_layer(workload: str, rounds: list[dict]) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    per_round = []
    for r in traced:
        extras = dict(r["extras"])
        if workload != "cli":
            # Outside the CLI workload the start-up layer is the round's own
            # fresh interpreter, which imports orbitpoly instead.
            extras.update({"cli.interp_s": r["interp_s"], "cli.import_s": r["import_s"],
                           "cli.numpy_import_s": r["numpy_import_s"]})
        per_round.append(spans.layer_metrics(r["raw"], extras))
    metrics = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    busy = {flag: timings([r for r in rounds if r["traced"] is flag], "cpu")[0]
            for flag in (False, True)}
    metrics["trace.overhead_s"] = busy[True] - busy[False]
    return metrics


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool, declared: dict) -> dict:
    errors = []
    if trace:
        selftest = run_child({"workload": name, "trace": True, "selftest": True})
        errors += [f"self-test: {e}" for e in selftest["selftest_errors"]]
    rounds = run_rounds(name, seed, seconds, trace)
    plain = [r for r in rounds if not r["traced"]]
    failures = [f"round {k}, request {i}: {msg}"
                for k, r in enumerate(rounds) for i, msg in r["failures"]]
    measured = per_layer(name, rounds) if trace else end_to_end(plain)
    missing = [m for m in declared if m not in measured]
    if missing:
        raise RoundError(f"declared metrics not measured: {missing}")
    return {
        "workload": name,
        "correct": not failures and not errors,
        "attempted": sum(len(r["cpu"]) for r in rounds),
        "failed": len(failures),
        "metrics": {m: {"value": measured[m], "unit": unit} for m, unit in declared.items()},
        "wall_clock": dict(zip(("round_s", "job_p50_ms", "job_p90_ms"), timings(plain, "wall")),
                           setup_s=statistics.median(r["setup_wall_s"] for r in plain)),
        "errors": errors + failures[:50],
        "rounds": len(rounds),
        "measured_rounds": len(rounds) - len(plain) if trace else len(plain),
        "timed_requests": sum(len(r["cpu"]) for r in plain),
        "numpy_version": rounds[0]["numpy_version"],
        "round_data": [{"traced": r["traced"], "requests": len(r["cpu"]),
                        "busy_s": sum(r["cpu"]), "busy_raw_s": sum(r["cpu_raw"]),
                        "wall_s": sum(r["wall"]), "kernel_s": r["kernel_s"],
                        "setup_s": r["setup_s"], "setup_raw_s": r["setup_raw_s"],
                        "rss_kib": r["rss_kib"],
                        "interp_s": r["interp_s"]} for r in rounds],
    }


def print_summary(res: dict, trace: bool) -> None:
    name = res["workload"]
    for metric, mv in res["metrics"].items():
        if metric.startswith("job_"):
            note = f"  ({res['timed_requests']} requests)"
        else:
            note = f"  (median of {res['measured_rounds']} rounds)"
        print(f"{name:9s} {metric:42s} {mv['value']:14.6f} {mv['unit']}{note}")
    ratio = res["failed"] / res["attempted"]
    print(f"{name:9s} {'fail_ratio':42s} {ratio:14.6f} ratio  "
          f"({res['failed']} of {res['attempted']} requests)")
    if not trace:
        wall = "  ".join(f"{k} {v:.6g}" for k, v in res["wall_clock"].items())
        print(f"{name:9s} wall clock (for reference): {wall}")
    for err in res["errors"][:10]:
        print(f"{name:9s} ERROR {err}")


def write_result(res: dict, seed: int, seconds: float, trace: bool) -> None:
    record = {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": res.pop("numpy_version"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "src_lines": src_lines(),
        "env": PINNED_ENV,
        **res,
    }
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{res['workload']}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    # Turn SIGTERM into SystemExit so run_child's cleanup kills the round's
    # process group instead of leaving it running.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "orbitpoly" / "__init__.py").is_file():
        print(f"error: no orbitpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        warm_up()
        results = [run_workload(name, args.seed, args.seconds, trace, declared)
                   for name in names]
    except (RoundError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for res in results:
        print_summary(res, trace)
        write_result(dict(res), args.seed, args.seconds, trace)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in results for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
