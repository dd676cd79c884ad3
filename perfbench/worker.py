"""One measured process: set up, run a workload's operation list once, and
print one JSON line of raw results on stdout.

    python3 perfbench/worker.py --workload W --seed N --seconds S \
        --mode {setup,run,trace,pool} --spawned-at T

`--spawned-at` is the parent's `time.monotonic()` just before it started
this process (the clock is system-wide on Linux), so set-up time covers
interpreter start, `import linkcoh`, and drawing and parsing the inputs.
Mode `setup` stops there.  Mode `run` measures with tracing off and the
host-speed probe (`probe.py`) on, and reports each operation's latency both
raw and corrected for the host's speed; mode `trace` installs the tracer
before the inputs are drawn and parsed and reports per-layer totals; mode `pool` runs every operation any seed can
draw, for `run.py --write-expected`.

linkcoh is imported from `src/` of the checkout this file sits in, and
nowhere else: without that tree the worker exits with an error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
import probe  # noqa: E402
import workloads  # noqa: E402


def _import_linkcoh() -> SimpleNamespace:
    """The linkcoh submodules the operations call, looked up by module so
    that the tracer's rebinding is seen (the package's own `ring` attribute
    is the function, not the submodule)."""
    src = ROOT / "src"
    if not (src / "linkcoh" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no linkcoh package under {src}")
    sys.path.insert(0, str(src))
    import linkcoh

    if Path(linkcoh.__file__).resolve().parent != (src / "linkcoh").resolve():
        raise SystemExit(f"perfbench: linkcoh was imported from {linkcoh.__file__}")
    names = ("cli", "groebner", "modules", "ring", "theorems")
    return SimpleNamespace(**{n: importlib.import_module(f"linkcoh.{n}") for n in names})


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _prepare(linkcoh, op: workloads.Op):
    """Parse library-only inputs now, so parsing counts as set-up."""
    if op.kind == "ext_ass":
        ring, a, J = op.payload
        ctx = linkcoh.ring.RingCtx.parse(ring)
        return ctx, linkcoh.groebner.Ideal.parse(ctx, a), linkcoh.groebner.Ideal.parse(ctx, J)
    return op.payload


def _run(linkcoh, op: workloads.Op, prepared) -> tuple[str, str | None]:
    """Run one operation; returns (canonical output, failure or None)."""
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = linkcoh.cli.run(list(prepared))
        text = out.getvalue()
        if code != 0:
            return text, f"exit code {code}: {err.getvalue().strip()[:200]}"
        return text, None
    if op.kind == "ext_ass":
        ctx, a, J = prepared
        E = linkcoh.modules.ext1_selfdual(a, J)
        primes = linkcoh.modules.module_ass(E)
        return json.dumps({"rank": E.rank, "ass": primes.render(ctx)}, sort_keys=True), None
    claim, n_vars, maxdeg, seed = prepared
    params = linkcoh.theorems.InstanceParams(n_vars=n_vars, count=1, maxdeg=maxdeg, seed=seed)
    report = linkcoh.theorems.run_claim(claim, params, jobs=1)
    (verdict,) = report["verdicts"]
    text = json.dumps(report, sort_keys=True)
    if verdict["status"] == "fail":
        return text, f"claim verdict fail: {verdict['counterexample']}"
    notes = verdict["notes"]
    if verdict["status"] == "skip" and notes and notes[0].startswith("budget exhausted"):
        return text, f"budget tripped: {notes[0]}"
    return text, None


def layer_metrics(tracer, verdicts: list[dict]) -> dict[str, float | None]:
    """Per-layer totals; None marks a counter whose hook is absent."""
    from tracer import DETAIL, LAYERS

    m: dict[str, float | None] = {}
    for layer, names in LAYERS.items():
        labels = [f"{layer}.{q.rsplit('.', 1)[-1]}" for q in names]
        self_s = sum(tracer.self_s[x] for x in labels)
        calls = sum(tracer.calls[x] for x in labels)
        if layer == "ring":
            m["ring.parse_s"], m["ring.parse_calls"] = self_s, calls
        else:
            m[f"{layer}.self_s"], m[f"{layer}.calls"] = self_s, calls
    for label in DETAIL:
        gone = label in tracer.absent
        m[f"{label}.calls"] = None if gone else tracer.calls[label]
        m[f"{label}.self_s"] = None if gone else tracer.self_s[label]
    for key in ("groebner.spairs", "modules.spairs"):
        m[key] = None if key in tracer.absent else tracer.counts[key]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    gb_calls = tracer.calls["groebner.reduced_gb"]
    m["groebner.gb_cache_hit_ratio"] = (
        None if "groebner.gb_cache_hit_ratio" in tracer.absent
        else ratio(tracer.counts["groebner.gb_cache_hits"], gb_calls)
    )
    m["linkage.check_ok_ratio"] = (
        None if "linkage.check_linked" in tracer.absent
        else ratio(tracer.counts["linkage.check_ok"], tracer.calls["linkage.check_linked"])
    )
    tally = {c: {"pass": 0, "skip": 0} for c in workloads.CLAIM_COUNTS}
    totals = {"pass": 0, "fail": 0, "skip": 0, "inconclusive": 0}
    for v in verdicts:
        totals[v["status"]] += 1
        if v["status"] in ("pass", "skip"):
            tally[v["claim"]][v["status"]] += 1
    for claim, counts in tally.items():
        for status, n in counts.items():
            m[f"theorems.{claim}.{status}"] = n
    m["theorems.instances"] = len(verdicts)
    m["theorems.fail"] = totals["fail"]
    m["theorems.inconclusive"] = totals["inconclusive"]
    m["theorems.skip_ratio"] = ratio(totals["skip"], len(verdicts))
    m["trace.spans"] = len(tracer.spans)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=workloads.CALIBRATED_SECONDS)
    ap.add_argument("--mode", choices=("setup", "run", "trace", "pool"), default="run")
    ap.add_argument("--spawned-at", type=float, default=None)
    args = ap.parse_args(argv)
    started = args.spawned_at if args.spawned_at is not None else time.monotonic()
    host = probe.Probe() if args.mode in ("setup", "run") else None
    try:
        return measure(args, started, host)
    finally:
        if host is not None:
            host.remove()


def measure(args, started: float, host: probe.Probe | None) -> int:
    """Set up and, unless in mode `setup`, run the operations; `host`, if
    given, probes the host's speed from here on."""
    if host is not None:
        host.install(probe.SETUP_INTERVAL_S)
    probed_from = time.perf_counter()

    linkcoh = _import_linkcoh()
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        tracer.install()
    if args.mode == "pool":
        ops = workloads.pool(args.workload)
    else:
        ops = workloads.draw(args.workload, args.seed, args.seconds)
    prepared = [_prepare(linkcoh, op) for op in ops]
    setup_s = time.monotonic() - started
    raw_setup_s = setup_s
    if host is not None:
        # the warm-up is the probe's own cost; the interpreter start before
        # `probed_from` is corrected by the slowdown measured after it
        setup_s = host.correct_span(setup_s - host.warmup_s, probed_from, time.perf_counter())
        if args.mode == "setup":
            print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
            return 0
        host.install(probe.INTERVAL_S)
    elif args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spans: list[tuple[float, float]] = []
    latencies: list[float] = []
    digests: dict[str, str] = {}
    failures: list[dict] = []
    verdicts: list[dict] = []
    t0 = time.perf_counter()
    for index, (op, inp) in enumerate(zip(ops, prepared)):
        if tracer is not None:
            tracer.op = index
        start = time.perf_counter()
        try:
            text, failure = _run(linkcoh, op, inp)
        except Exception as exc:  # every failure is counted, never fatal
            text, failure = "", f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        spans.append((start, end))
        latencies.append(end - start)
        digests[op.key] = digest(text)
        if failure is not None:
            failures.append({"op": op.key, "why": failure})
        if op.kind == "claim" and text:
            verdicts.extend(json.loads(text)["verdicts"])
    wall = time.perf_counter() - t0
    if host is not None:
        host.remove()

    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": wall,
        "latencies": latencies,
        "digests": digests,
        "failures": failures,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if host is not None:
        result["raw_latencies"] = latencies
        result["latencies"] = [host.correct(a, b) for a, b in spans]
        result["host_factor"] = statistics.median(host.times) / probe.REF_S
        result["probes"] = len(host.times)
        result["probe_s"] = host.spent(t0, t0 + wall)
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, verdicts)
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-{args.seed}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
