"""linkcoh benchmark: one seeded workload per run, closed loop, one process.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload W --seed N --steadiness K
    python3 perfbench/run.py --workload W --write-expected

Load is a closed loop: one client runs one operation at a time, in-process,
in a fresh worker process per run, and no operation repeats within a run.
With `--trace 0` the last stdout line is a JSON object with the end-to-end
metrics; with `--trace 1` it holds the per-layer metrics of a traced run
plus the tracing overhead (traced wall minus untraced wall, same seed).
Every operation's output digest is checked against `expected/W.json`; the
digests of the run are also written to `out/digests-W-N.json` so that two
commits can be compared on any seed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
EXPECTED = HERE / "expected"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

# set-up time is the median over this many fresh processes per run, after
# one untimed start that fills the bytecode cache as an installed package has
SETUP_SAMPLES = 9
# every process of one run must end within this many seconds
RUN_DEADLINE_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not produce a result; no metrics are printed."""


def _worker(args, mode: str) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
    ]
    spawned = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned)],
        capture_output=True, text=True, cwd=HERE.parent,
        timeout=max(1.0, args.deadline - spawned),
    )
    if proc.returncode != 0:
        raise BenchError(f"worker ({mode}) exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _expected(workload: str) -> dict[str, str]:
    path = EXPECTED / f"{workload}.json"
    if not path.is_file():
        raise BenchError(f"missing {path}; run with --write-expected first")
    return json.loads(path.read_text(encoding="utf-8"))


def _check(result: dict, expected: dict[str, str]) -> list[dict]:
    """Failures of one worker run: its own plus every digest mismatch."""
    failures = list(result["failures"])
    failed = {f["op"] for f in failures}
    for key, got in result["digests"].items():
        want = expected.get(key)
        if key in failed:
            continue
        if want is None:
            failures.append({"op": key, "why": "no expected digest for this operation"})
        elif want != got:
            failures.append({"op": key, "why": f"output digest {got} != expected {want}"})
    return failures


def _write_digests(args, result: dict) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"digests-{args.workload}-{args.seed}.json"
    path.write_text(json.dumps(result["digests"], indent=1, sort_keys=True) + "\n", encoding="utf-8")


def end_to_end(args) -> tuple[dict, int, int, list[dict]]:
    expected = _expected(args.workload)
    _worker(args, "setup")  # untimed: fills the bytecode cache
    # set-up starts before and after the measured run, so that they see more
    # than one of the host's speed phases
    half = (SETUP_SAMPLES - 1) // 2
    setups = [_worker(args, "setup")["setup_s"] for _ in range(half)]
    result = _worker(args, "run")
    setups += [result["setup_s"]] + [
        _worker(args, "setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1 - half)
    ]
    _write_digests(args, result)
    failures = _check(result, expected)
    lat = result["latencies"]
    attempted = len(lat)
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    values = {
        "setup_s": statistics.median(setups),
        "ops_per_s": attempted / sum(lat),
        "op_p50_s": deciles[4],
        "op_p90_s": deciles[8],
        "ok_ratio": (attempted - len(failures)) / attempted,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }
    metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    print(f"host slowdown {result['host_factor']:.3f}x (median of {result['probes']} probes); "
          f"uncorrected: wall {result['wall_s']:.3f} s, "
          f"p50 {statistics.median(result['raw_latencies']):.6g} s", file=sys.stderr)
    return metrics, attempted, len(failures), failures


def _layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    return "s" if name.endswith("_s") else "count"


def traced(args) -> tuple[dict, int, int, list[dict]]:
    expected = _expected(args.workload)
    plain = _worker(args, "run")
    result = _worker(args, "trace")
    failures = _check(plain, expected) + _check(result, expected)
    layers = dict(result["layers"])
    # the untraced run spends some time in the host-speed probe; the traced one does not
    untraced = plain["wall_s"] - plain["probe_s"]
    layers["trace.untraced_wall_s"] = untraced
    layers["trace.traced_wall_s"] = result["wall_s"]
    layers["trace.overhead_s"] = result["wall_s"] - untraced
    metrics = {}
    for name, value in layers.items():
        # an absent hook is reported as -1, which no real count or ratio takes
        metrics[name] = {"value": -1 if value is None else value, "unit": _layer_unit(name)}
    attempted = len(plain["latencies"]) + len(result["latencies"])
    return metrics, attempted, len(failures), failures


def _print_report(args, metrics: dict, attempted: int, failures: list[dict]) -> None:
    err = sys.stderr
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} operation(s), {len(failures)} failed "
          f"(fail_ratio {len(failures) / attempted:.4f})", file=err)
    for f in failures:
        print(f"  FAILED {f['op']}: {f['why']}", file=err)
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}", file=err)
    if args.trace:
        print("  no layer queues work, so no wait time is reported; absent hooks read -1", file=err)


def steadiness(args) -> dict:
    """Run the workload k times in fresh processes on seeds seed..seed+k-1
    and summarise each end-to-end metric by median and quartiles."""
    per_metric: dict[str, list[float]] = {}
    runs = []
    for k in range(args.steadiness):
        seed = args.seed + k
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=RUN_DEADLINE_S + 10, cwd=HERE.parent,
        )
        if proc.returncode != 0:
            raise BenchError(f"seed {seed}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **out})
        for name, m in out["metrics"].items():
            per_metric.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{n}={m['value']:.6g}" for n, m in out["metrics"].items()),
              file=sys.stderr)
    summary = {}
    for name, values in per_metric.items():
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {
            "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "unit": END_TO_END_UNITS[name],
        }
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             cwd=HERE.parent, timeout=10).stdout.strip() or "unknown"
    except OSError:
        rev = "unknown"
    report = {
        "workload": args.workload,
        "seeds": [r["seed"] for r in runs],
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": rev,
        "summary": summary,
        "runs": runs,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"steadiness-{args.workload}-{args.seed}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for name, s in summary.items():
        print(f"  {name:<14} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  spread {s['spread']:.4f}", file=sys.stderr)
    return report


def write_expected(args) -> None:
    """Run every pool operation once and commit its output digest."""
    args.deadline = time.monotonic() + 3600
    result = _worker(args, "pool")
    if result["failures"]:
        for f in result["failures"]:
            print(f"  FAILED {f['op']}: {f['why']}", file=sys.stderr)
        raise BenchError("pool operations failed; no digests written")
    EXPECTED.mkdir(exist_ok=True)
    path = EXPECTED / f"{args.workload}.json"
    path.write_text(json.dumps(result["digests"], indent=0, sort_keys=True) + "\n", encoding="utf-8")
    lat = result["latencies"]
    print(f"{path.name}: {len(lat)} digests, {sum(lat):.1f} s of operations", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=workloads.CALIBRATED_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, default=0, metavar="K",
                    help="run K fresh runs on seeds seed..seed+K-1 and summarise")
    ap.add_argument("--write-expected", action="store_true",
                    help="recompute expected/WORKLOAD.json from the whole pool")
    args = ap.parse_args(argv)
    args.deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        if args.write_expected:
            write_expected(args)
            return 0
        if args.steadiness:
            steadiness(args)
            return 0
        metrics, attempted, failed, failures = (traced if args.trace else end_to_end)(args)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    _print_report(args, metrics, attempted, failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
