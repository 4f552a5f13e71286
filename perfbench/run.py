#!/usr/bin/env python3
"""The repository benchmark: Table 1 synthesis and single-verdict checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the repository root.  It builds nothing: every timed step runs
``perfbench/child.py`` in a fresh interpreter with the checkout's
``src`` on ``PYTHONPATH``.  Workloads (``BENCHMARK.json`` says why each
was chosen):

* ``synth-armv8-b3`` -- ``repro.api.synthesize("armv8", 3, workers=1)``,
  no cache: derived relations and IR plan evaluation do the work;
* ``synth-x86-b4-warm`` -- ``synthesize("x86", 4, workers=2, cache=D)``
  against a cache an untimed cold run filled during set-up: every
  verdict is a cache hit, so completion, canonical digests, cache
  lookups, minimality and the scheduler do the work;
* ``check-fresh`` -- seeded random executions of 2 to 7 events across
  the x86, Power, ARMv8 and C++ configs, each judged by ``api.check``
  under its TM model and the model's baseline and by
  ``violated_axioms``.  ``--seconds`` sets its size
  (:data:`FRESH_PER_SECOND` executions per second); the synthesis
  workloads do a fixed amount of work and ignore it.

``check-fresh`` also times each of those calls: its p50 and p99 are
printed with the end-to-end metrics and reported among the per-layer
ones.  They are not gated end-to-end metrics: sub-millisecond
latencies on a shared two-vCPU host spread more between runs than any
allowed regression bound.

The end-to-end times are in reference seconds.  On a shared host the
same step takes up to twice as long from one minute to the next, so
while each untraced step is timed ``child.py``'s ``HostSpeed`` samples a
fixed probe loop every 50 ms and the step's wall and CPU seconds (less
the probes' own time) are scaled to a host where the probe takes 0.5
ms (see ``HostSpeed`` for how).  The factor and the unscaled times are
printed with the result.
``setup_s`` is the median ready time over :data:`SETUP_REPEATS`
interpreters, made just before and after the timed call, scaled by that
call's factor (a few tenths of a second of imports is too short to
sample on its own), plus, on ``synth-x86-b4-warm``, the scaled cold
fill.  Per-layer times are unscaled.

With ``--trace 0`` the last line of output is the end-to-end result;
with ``--trace 1`` the run is made untraced and then again with layer
spans (``spans.py``), and the last line carries the per-layer metrics.
Every run checks its outputs -- pinned candidate and Forbid/Allow
counts, a cold-versus-warm suite digest, a Relation-level reference for
every fresh verdict -- and exits 1 if any check fails.  Each result is
stamped with a host fingerprint and appended to
``.perfbench/results.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
OUT = ROOT / ".perfbench"

WORKLOADS = ("synth-armv8-b3", "synth-x86-b4-warm", "check-fresh")
WARM = "synth-x86-b4-warm"
WORKERS = {"synth-armv8-b3": 1, WARM: 2, "check-fresh": 1}

#: check-fresh executions judged per ``--seconds``.
FRESH_PER_SECOND = 2400

#: Fresh interpreters set up per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: The whole run, every child included, ends within this many seconds.
BUDGET_S = 170.0

#: Registry names of the models whose IR latency the traced run reports.
MODELS = ("x86tm", "x86", "powertm", "power", "armv8tm", "armv8", "cpptm", "cpp")


class BenchError(Exception):
    """A step of the benchmark could not run to completion."""


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------


def _stop_group(pgid: int) -> None:
    """Kill what is left of a child's process group and wait for it."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    for _ in range(200):
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(spec: dict, deadline: float) -> dict:
    """Run one ``child.py`` step in a fresh interpreter; its JSON result
    plus ``elapsed_s``, the time from spawn to exit."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    spawned = time.time()
    spec = dict(spec, spawned_at=spawned)
    proc = subprocess.Popen(
        [sys.executable, "-s", str(CHILD), json.dumps(spec)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _stop_group(proc.pid)
        proc.communicate()
        raise BenchError(f"step {spec['step']} ran past the time budget")
    finally:
        _stop_group(proc.pid)
    elapsed = time.time() - spawned
    if proc.returncode != 0:
        raise BenchError(f"step {spec['step']} exited {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"step {spec['step']} printed no result")
    result = json.loads(lines[-1])
    result["elapsed_s"] = elapsed
    return result


# ---------------------------------------------------------------------------
# Host fingerprint
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def calibrate_ms() -> float:
    """Median time of a short fixed pure-Python loop, in ms."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        times.append(time.perf_counter() - start)
    return 1000 * statistics.median(times)


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "calibration_ms": calibrate_ms(),
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------


class Run:
    """One invocation: its children, gates and metrics."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.workload = args.workload
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.cache = OUT / f"cache-{os.getpid()}"
        self.fill: dict | None = None

    def spec(self, step: str, **extra) -> dict:
        spec = {
            "step": step,
            "workload": self.workload,
            "seed": self.args.seed,
            "count": FRESH_PER_SECOND * self.args.seconds,
            "workers": WORKERS[self.workload],
            "trace": 0,
        }
        if self.workload == WARM:
            spec["cache"] = str(self.cache)
        spec.update(extra)
        return spec

    def child(self, step: str, **extra) -> dict:
        return spawn(self.spec(step, **extra), self.deadline)

    def gate(self, result: dict) -> None:
        """Fold one child's correctness checks into the totals: its
        judged calls and, for a synthesis run, the synthesis itself."""
        self.attempted += result["calls"]
        self.failed += result["failed_calls"]
        errors = list(result["errors"])
        if "counts" in result:
            self.attempted += 1
            cold = self.fill and self.fill["counts"]["suite_sha256"]
            if cold and result["counts"]["suite_sha256"] != cold:
                errors.append("warm suites differ from the cold run's")
        if errors:
            self.failed += 1
            self.errors += errors

    def start(self) -> None:
        """The warm workload's set-up: fill the cache from empty."""
        if self.workload != WARM:
            return
        shutil.rmtree(self.cache, ignore_errors=True)
        self.fill = self.child("fill")
        self.attempted += 1
        if self.fill["errors"]:
            self.failed += 1
            self.errors += [f"cold run: {e}" for e in self.fill["errors"]]

    def close(self) -> None:
        shutil.rmtree(self.cache, ignore_errors=True)

    # -- trace 0 ------------------------------------------------------------

    def end_to_end(self) -> tuple[dict, dict]:
        run = self.child("run")
        self.gate(run)
        ready = [run["ready_s"]]
        while len(ready) < SETUP_REPEATS:
            ready.append(self.child("setup")["ready_s"])
        setup_s = statistics.median(ready) * run["scale"]
        fill_s = None
        if self.fill is not None:
            fill_s = self.fill["fill_s"] * self.fill["scale"]
            setup_s += fill_s
        cpu = run["cpu_self_s"] + run["cpu_children_s"]
        metrics = {
            "wall_s": (run["wall_s"] * run["scale"], "s"),
            "cpu_s": (cpu * run["scale"], "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (max(run["rss_kib"]) / 1024, "MB"),
        }
        notes = {
            "failed_frac": f"{self.failed}/{self.attempted}",
            "host speed factor (reference s / s)": round(run["scale"], 4),
            "host probe ms, quartiles": run["probe_ms"],
            "unscaled wall_s, cpu_s": [round(run["wall_s"], 4), round(cpu, 4)],
            "setup ready_s (unscaled)": [round(r, 4) for r in ready],
            "cold fill s (scaled, unscaled)": self.fill
            and [round(fill_s, 3), round(self.fill["fill_s"], 3)],
            "rss_kib self/largest worker": run["rss_kib"],
            "check_p50_ms, check_p99_ms": run.get("check_ms"),
            "counts": run.get("counts"),
            "inputs": run.get("inputs_sha256")
            and f"{run['executions']} executions, sha256 {run['inputs_sha256']}",
        }
        return metrics, notes

    # -- trace 1 ------------------------------------------------------------

    def per_layer(self) -> tuple[dict, dict]:
        untraced = self.child("run")
        self.gate(untraced)
        same_workers = untraced
        if WORKERS[self.workload] != 1:
            same_workers = self.child("run", workers=1)
            self.gate(same_workers)
        trace_out = OUT / f"trace-{self.workload}"
        traced = self.child(
            "run", workers=1, trace=1, trace_out=str(trace_out)
        )
        self.gate(traced)
        m = layer_metrics(self.workload, untraced, traced, self.fill)
        m["trace.untraced_wall_s"] = (same_workers["wall_s"], "s")
        m["trace.overhead_s"] = (traced["wall_s"] - same_workers["wall_s"], "s")
        worker_cpu = m["pipeline.worker_util"][0] * m["pipeline.workers_wall_s"][0]
        layers = traced["trace"]["layers"]
        notes = {
            "failed_frac": f"{self.failed}/{self.attempted}",
            "ratio bases": {
                "verdict_cache.hit_ratio": "{} hits / {} lookups".format(
                    m["verdict_cache.hits"][0], m["verdict_cache.lookups"][0]
                ),
                "synthesis.yield": "{} forbidden / {} candidates".format(
                    m["synthesis.forbidden"][0], m["complete.candidates"][0]
                ),
                "pipeline.worker_util": "{:.3f} worker cpu_s / {:.3f} s "
                "(untraced wall_s x {} workers)".format(
                    worker_cpu,
                    m["pipeline.workers_wall_s"][0],
                    WORKERS[self.workload],
                ),
            },
            "spans written": f"{traced['trace']['spans']} to "
            f"{trace_out.relative_to(ROOT)}.bin/.json",
            "uninstrumented": traced["trace"]["missing"],
            "self time by span [s, calls, share of traced wall_s]": {
                name: [
                    round(v["self_s"], 4),
                    v["calls"],
                    round(v["self_s"] / traced["wall_s"], 4),
                ]
                for name, v in sorted(
                    layers.items(), key=lambda kv: -kv[1]["self_s"]
                )
                if v["calls"]
            },
            "registry of the untraced run": _flat(untraced.get("registry")),
        }
        return m, notes


def _flat(registry: dict | None) -> dict:
    if not registry:
        return {}
    out = dict(registry["counters"])
    for name, t in registry["timers"].items():
        out[name] = f"{t['count']} observations, {t['total']:.4f} s"
    return dict(sorted(out.items()))


def layer_metrics(workload: str, untraced: dict, traced: dict, fill) -> dict:
    """The per-layer metrics, 0 where the workload has no such layer.

    Times are self times of the traced run's spans; counts, the
    scheduler and the pool come from the untraced run's registry, in
    the workload's own worker configuration.  ``BENCHMARK.json`` says
    which end-to-end metric each should move.
    """
    layers = traced["trace"]["layers"]
    reg = untraced.get("registry") or {"counters": {}, "timers": {}}
    counters, timers = reg["counters"], reg["timers"]

    def self_s(*names):
        return sum(layers.get(n, {}).get("self_s", 0.0) for n in names)

    def calls(*names):
        return sum(layers.get(n, {}).get("calls", 0) for n in names)

    def enumeration(suffix: str, field: str | None = None):
        """Sum of the ``enumeration.<target>.bound<n>.<suffix>``
        counters (or the ``field`` of the timers so named)."""
        source = counters if field is None else timers
        return sum(
            v if field is None else v[field]
            for k, v in source.items()
            if k.startswith("enumeration.") and k.endswith("." + suffix)
        )

    def timer(name: str, field: str):
        return timers.get(name, {}).get(field, 0)

    workers = WORKERS[workload]
    wall = untraced["wall_s"]
    pooled = bool(counters)
    worker_cpu = untraced["cpu_children_s" if workers > 1 else "cpu_self_s"]
    candidates = enumeration("candidates")
    forbidden = enumeration("forbidden")
    lookups = counters.get("verdict_cache.lookups", 0)
    hits = counters.get("verdict_cache.hits", 0)
    appends = counters.get("verdict_cache.appends", 0)
    m = {
        "shapes.skeletons": (enumeration("skeletons"), "count"),
        "shapes.s": (self_s("shapes"), "s"),
        "complete.candidates": (candidates, "count"),
        "complete.s": (self_s("complete", "complete.count"), "s"),
        "execution.relations_s": (self_s("execution.relations"), "s"),
        "ir.consistent_calls": (calls("ir.consistent", "ir.baseline"), "count"),
        "ir.consistent_s": (self_s("ir.consistent"), "s"),
        "ir.baseline_s": (self_s("ir.baseline"), "s"),
        "ir.violated_s": (self_s("ir.violated"), "s"),
    }
    latency = traced["trace"]["latency_ms"]
    for model in MODELS:
        p50, p99 = latency.get(model, (0.0, 0.0))
        m[f"ir.check_ms.{model}.p50"] = (p50, "ms")
        m[f"ir.check_ms.{model}.p99"] = (p99, "ms")
    m.update(
        {
            "minimality.calls": (calls("minimality"), "count"),
            "minimality.weakenings": (traced["trace"]["weakenings"], "count"),
            "minimality.s": (self_s("minimality"), "s"),
            "canonical.calls": (calls("canonical"), "count"),
            "canonical.s": (self_s("canonical"), "s"),
            "verdict_cache.lookups": (lookups, "count"),
            "verdict_cache.hits": (hits, "count"),
            "verdict_cache.hit_ratio": (hits / lookups if lookups else 0.0, "ratio"),
            "verdict_cache.digest_s": (self_s("verdict_cache.digest"), "s"),
            "verdict_cache.lookup_s": (self_s("verdict_cache.lookup"), "s"),
            "verdict_cache.load_s": (self_s("verdict_cache.load"), "s"),
            # The warm workload writes its cache in set-up, the cold fill.
            "verdict_cache.appends": (fill["appends"] if fill else appends, "count"),
            "verdict_cache.bytes": (fill["bytes"] if fill else 0, "bytes"),
            "scheduler.chunks": (counters.get("scheduler.chunks", 0), "count"),
            "scheduler.steals": (counters.get("scheduler.steals", 0), "count"),
            "scheduler.fold_s": (self_s("scheduler.fold"), "s"),
            "scheduler.dispatch_s": (
                self_s("scheduler.dispatch", "scheduler.job", "pipeline.map"),
                "s",
            ),
            "pipeline.job.count": (timer("pipeline.job.seconds", "count"), "count"),
            "pipeline.job.s": (timer("pipeline.job.seconds", "total"), "s"),
            "pipeline.queue_wait_s": (
                timer("pipeline.job.queue_wait_seconds", "total"),
                "s",
            ),
            "pipeline.workers_wall_s": (wall * workers if pooled else 0.0, "s"),
            "pipeline.worker_util": (
                worker_cpu / (wall * workers) if pooled else 0.0,
                "ratio",
            ),
        }
    )
    for outcome in ("consistent", "baseline", "nonminimal", "duplicate"):
        m[f"synthesis.pruned_{outcome}"] = (
            enumeration(f"pruned_{outcome}"),
            "count",
        )
    m["synthesis.forbidden"] = (forbidden, "count")
    m["synthesis.yield"] = (forbidden / candidates if candidates else 0.0, "ratio")
    for bound in (2, 3, 4):
        m[f"enumeration.bound{bound}.candidates"] = (
            enumeration(f"bound{bound}.candidates"),
            "count",
        )
        m[f"enumeration.bound{bound}.s"] = (
            enumeration(f"bound{bound}.seconds", "total"),
            "s",
        )
    p50, p99 = untraced.get("check_ms") or (0.0, 0.0)
    m["check_p50_ms"] = (p50, "ms")
    m["check_p99_ms"] = (p99, "ms")
    m["trace.wall_s"] = (traced["wall_s"], "s")
    m["other_s"] = (self_s("other"), "s")
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = _args(argv)
    # Turn a termination request into an exception, so that the child
    # running now is stopped and the cache directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"no package source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    host = fingerprint()
    run = Run(args)
    try:
        run.start()
        metrics, notes = run.per_layer() if args.trace else run.end_to_end()
    except BenchError as error:
        print(f"benchmark failed: {error}", file=sys.stderr)
        return 1
    finally:
        run.close()

    print(f"host: {json.dumps(host)}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:>14.6g} {unit}")
    for key, value in notes.items():
        if value in (None, [], {}):
            continue
        if isinstance(value, dict):
            print(f"  {key}:")
            for name, item in value.items():
                print(f"    {name}: {json.dumps(item)}")
        else:
            print(f"  {key}: {json.dumps(value)}")
    for error in run.errors:
        print(f"GATE FAILED: {error}", file=sys.stderr)
    correct = run.failed == 0
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    record = {"host": host, **vars(args), "notes": notes, **result}
    with (OUT / "results.jsonl").open("a", encoding="utf-8") as ledger:
        ledger.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
