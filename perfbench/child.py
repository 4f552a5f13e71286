"""One benchmark step, run in a fresh interpreter by ``run.py``.

    python3 -s perfbench/child.py '<json spec>'

with ``src`` on ``PYTHONPATH``.  Each timed run gets its own
interpreter, as a ``repro-harness`` user has, so in-process interning
left over from an earlier call cannot speed up a repeat.  The spec's
``step`` selects what to do:

* ``setup`` -- import the package, load the workload's models and
  compile their plans on a first check, then exit;
* ``fill`` -- the cold, cache-filling x86 bound-4 synthesis of
  ``synth-x86-b4-warm``'s set-up;
* ``run`` -- set up, then the workload's timed call, optionally traced
  (``spans.py``), followed by its correctness gates outside the timing.

The fill and an untraced timed call run under :class:`HostSpeed`, and
report their host-speed factor next to their unscaled times.

The last line of standard output is one JSON object with the results.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

_now = time.perf_counter

#: Workload → (enumeration target, event bound).
SYNTH = {"synth-armv8-b3": ("armv8", 3), "synth-x86-b4-warm": ("x86", 4)}

#: Enumeration target → (transactional model, its baseline), by
#: registry name.
MODELS = {
    "x86": ("x86tm", "x86"),
    "power": ("powertm", "power"),
    "armv8": ("armv8tm", "armv8"),
    "cpp": ("cpptm", "cpp"),
}

#: The counts the paper's enumeration must reproduce, per synthesis
#: workload: candidates examined, and Forbid / Allow tests per size.
EXPECTED = {
    "armv8": {
        "candidates": 190376,
        "forbidden": {2: 2, 3: 4},
        "allowed": {1: 4, 2: 12, 3: 8},
    },
    "x86": {
        "candidates": 150823,
        "forbidden": {3: 4, 4: 22},
        "allowed": {2: 9, 3: 55, 4: 45},
    },
}

#: The executions of ``check-fresh`` have 2 to 7 events.
FRESH_SIZES = (2, 7)

#: ``check-fresh`` generates (untimed) and then judges its executions
#: this many at a time, so that each is judged while it is still in the
#: caches, as a caller's freshly built execution is, and the heap holds
#: one chunk of inputs rather than all of them.
FRESH_CHUNK = 50


def _usage() -> tuple[float, float, int, int]:
    """(self CPU s, children CPU s, self max RSS KiB, children max RSS KiB)."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        me.ru_utime + me.ru_stime,
        kids.ru_utime + kids.ru_stime,
        me.ru_maxrss,
        kids.ru_maxrss,
    )


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------


def _probe_loop() -> float:
    """Seconds for one fixed slice of dict, tuple and big-integer work,
    the operations the checker itself spends its time on, but none of
    its code: a change to the program cannot move it."""
    start = _now()
    table: dict = {}
    acc = 0
    for i in range(1500):
        key = (i % 409, i & 7)
        row = table.get(key, 0) | (1 << (i % 61))
        table[key] = row
        acc ^= row >> 3
    return _now() - start


class HostSpeed:
    """Samples how fast the host runs Python while a step is timed.

    On a shared host the same work takes up to twice as long from one
    minute to the next, as other tenants load the machine.  While
    active, a timer interrupts the step every :attr:`INTERVAL` seconds
    and runs :func:`_probe_loop` three times in the step's own thread;
    the fastest of the three is one sample.  :meth:`scale` turns the
    samples into the factor that converts the step's seconds into
    seconds on a host where the probe takes :data:`REFERENCE_S`, and
    :attr:`spent` is the time the probes themselves took, which the
    step's timings leave out.

    The tight probe loop slows more than the program does when the host
    is busy: over about 90 runs of the three workloads on a 2-vCPU Xeon
    VM, whose probe time ranged over 0.38-0.87 ms, the synthesis
    workloads' seconds grew as the 0.92-0.94th power of the probe's and
    check-fresh's as the 0.66-0.74th.  :data:`SENSITIVITY` is one
    exponent for all three, the one that left the largest spread between
    runs smallest.
    """

    INTERVAL = 0.05
    MIN_SAMPLES = 20
    #: Probe time on an unloaded 2.1 GHz Xeon VM, Python 3.11.
    REFERENCE_S = 5e-4
    SENSITIVITY = 0.8

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, *_) -> None:
        start = _now()
        self.samples.append(min(_probe_loop() for _ in range(3)))
        self.spent += _now() - start

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *_) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self) -> float:
        """Mean of (reference / sample) ** SENSITIVITY: the step's
        seconds times this are seconds at the reference speed, each
        sample standing for the same share of the step's time.  A step
        too short for :attr:`MIN_SAMPLES` samples is topped up right
        after it ended (the host's speed holds for a second or more)."""
        while len(self.samples) < self.MIN_SAMPLES:
            self.samples.append(min(_probe_loop() for _ in range(3)))
        return statistics.fmean(
            (self.REFERENCE_S / s) ** self.SENSITIVITY for s in self.samples
        )

    def quartiles_ms(self) -> list[float]:
        self.scale()  # at least MIN_SAMPLES samples
        ms = [1000 * s for s in self.samples]
        return [round(q, 4) for q in statistics.quantiles(ms, n=4)]




def _targets(workload: str) -> tuple[str, ...]:
    if workload in SYNTH:
        return (SYNTH[workload][0],)
    return tuple(MODELS)


def setup(spec: dict) -> tuple[float, dict]:
    """Import, load the workload's models and compile their plans on a
    first check; returns (seconds since the interpreter was spawned,
    registry name → model).  Not sampled by :class:`HostSpeed`: a few
    tenths of a second of imports gives too few samples, so ``run.py``
    scales it by the timed call's factor instead."""
    from repro import api
    from repro.enumeration.config import get_config
    from repro.fuzz.generator import sample_execution

    src = Path(os.environ["PYTHONPATH"].split(os.pathsep)[0]).resolve()
    if src not in Path(api.__file__).resolve().parents:
        raise SystemExit(f"imported {api.__file__}, not the package in {src}")
    models = {}
    for target in _targets(spec["workload"]):
        probe = sample_execution(random.Random(0), get_config(target), 3)
        for name in MODELS[target]:
            models[name] = api.load_model(name)
            api.check(probe, models[name])
    return time.time() - spec["spawned_at"], models


def _suite_digest(result) -> str:
    """sha256 over the ordered canonical keys of both suites."""
    from repro.enumeration.canonical import canonical_key

    digest = hashlib.sha256()
    for suite in (result.forbidden, result.allowed):
        for x in suite:
            digest.update(repr(canonical_key(x)).encode())
            digest.update(b"\n")
        digest.update(b"|")
    return digest.hexdigest()


def _counts(result) -> dict:
    return {
        "candidates": result.candidates_examined,
        "forbidden": {n: len(v) for n, v in result.forbidden_by_size().items()},
        "allowed": {n: len(v) for n, v in result.allowed_by_size().items()},
        "suite_sha256": _suite_digest(result),
    }


def _count_errors(target: str, counts: dict) -> list[str]:
    return [
        f"{field}: {counts[field]} != {want}"
        for field, want in EXPECTED[target].items()
        if counts[field] != want
    ]


def _registry() -> dict:
    from repro.obs import REGISTRY

    snap = REGISTRY.snapshot()
    keep = ("verdict_cache.", "scheduler.", "pipeline.", "enumeration.")
    return {
        "counters": {
            k: v for k, v in snap["counters"].items() if k.startswith(keep)
        },
        "timers": {
            k: v for k, v in snap["timers"].items() if k.startswith(keep)
        },
    }


def latency_ms(samples) -> list[float]:
    """Nearest-rank [p50, p99] of per-call seconds, in ms."""
    ordered = sorted(samples)
    return [
        1000 * ordered[max(0, math.ceil(round(q * len(ordered), 9)) - 1)]
        for q in (0.5, 0.99)
    ]


def _recheck(result, models: dict, target: str) -> tuple[int, int]:
    """Judge every synthesized test once more, on fresh copies: a Forbid
    test is inconsistent under the TM model with violated axioms and
    consistent under the baseline; an Allow test is consistent under
    both.  Returns (calls, failed calls)."""
    from repro import api
    from repro.fuzz.corpus import execution_from_json, execution_to_json

    tm, base = (models[name] for name in MODELS[target])
    suite = [(x, False) for x in result.forbidden]
    suite += [(x, True) for x in result.allowed]
    failed = 0
    for original, allowed in suite:
        x = execution_from_json(execution_to_json(original))
        failed += api.check(x, tm) != allowed
        failed += not api.check(x, base)
        failed += bool(tm.violated_axioms(x)) == allowed
    return 3 * len(suite), failed


def _cache_bytes(root: str | None) -> int:
    if not root or not Path(root).is_dir():
        return 0
    return sum(p.stat().st_size for p in Path(root).iterdir() if p.is_file())


def step_fill(spec: dict) -> dict:
    from repro import api
    from repro.obs import REGISTRY

    target, bound = SYNTH[spec["workload"]]
    with HostSpeed() as speed:
        result = api.synthesize(target, bound, workers=2, cache=spec["cache"])
        fill = time.time() - spec["spawned_at"] - speed.spent
    counts = _counts(result)
    return {
        "fill_s": fill,
        "scale": speed.scale(),
        "counts": counts,
        "errors": _count_errors(target, counts),
        "appends": REGISTRY.counter("verdict_cache.appends").value,
        "bytes": _cache_bytes(spec["cache"]),
    }


def step_run(spec: dict) -> dict:
    ready_s, models = setup(spec)
    if spec["workload"] in SYNTH:
        out = _run_synth(spec, models)
    else:
        out = _run_fresh(spec, models)
    out["ready_s"] = ready_s
    return out


def _timed(spec: dict):
    """The host-speed sampler for an untraced timed call; a traced call
    is not sampled, so that probes land in no layer's span."""
    return contextlib.nullcontext() if spec["trace"] else HostSpeed()


def _speed(speed) -> dict:
    """The host-speed factor of a timed call (1.0 when the call was not
    sampled) and the quartiles of its probe samples."""
    if speed is None:
        return {"scale": 1.0, "probe_ms": None}
    return {"scale": speed.scale(), "probe_ms": speed.quartiles_ms()}


def _costs(speed, before, after, wall: float) -> dict:
    """Wall and CPU seconds of a timed call, less the probes' time."""
    spent = speed.spent if speed else 0.0
    return {
        "wall_s": wall - spent,
        "cpu_self_s": after[0] - before[0] - spent,
        "cpu_children_s": after[1] - before[1],
        "rss_kib": [after[2], after[3]],
        **_speed(speed),
    }


def _start_trace(spec: dict, models: dict):
    if not spec["trace"]:
        return None, None
    from spans import Instrumentation, SpanLog

    log = SpanLog()
    return log, Instrumentation(log, models).install()


def _finish_trace(spec: dict, log, inst) -> dict | None:
    if log is None:
        return None
    log.write(Path(spec["trace_out"]))
    layers = {
        name: {"self_s": s, "calls": c}
        for name, s, c in zip(log.names, log.self_s, log.calls)
    }
    return {
        "layers": layers,
        "weakenings": inst.weakenings,
        "missing": inst.missing,
        "latency_ms": {
            name: latency_ms(samples)
            for name, samples in inst.latency.items()
            if samples
        },
        "spans": len(log.start),
    }


def _run_synth(spec: dict, models: dict) -> dict:
    from repro import api

    target, bound = SYNTH[spec["workload"]]
    log, inst = _start_trace(spec, models)
    root = log.begin(log.name_id("other")) if log else 0
    with _timed(spec) as speed:
        before = _usage()
        start = _now()
        result = api.synthesize(
            target, bound, workers=spec["workers"], cache=spec.get("cache")
        )
        wall = _now() - start
        after = _usage()
    if log:
        log.finish(root)
    trace = _finish_trace(spec, log, inst)
    counts = _counts(result)
    out = {
        **_costs(speed, before, after, wall),
        "counts": counts,
        "errors": _count_errors(target, counts),
        "registry": _registry(),
        "trace": trace,
    }
    out["calls"], out["failed_calls"] = _recheck(result, models, target)
    return out


# ---------------------------------------------------------------------------
# check-fresh
# ---------------------------------------------------------------------------


def generate(seed: int, count: int):
    """``count`` seeded, well-formed random executions, cycling through
    the x86, Power, ARMv8 and C++ configs, no two sharing a skeleton (so
    skeleton-static interning has nothing to reuse).  Yields them in
    lists of :data:`FRESH_CHUNK`."""
    from repro.enumeration.config import get_config
    from repro.fuzz.corpus import execution_to_json
    from repro.fuzz.generator import sample_execution

    rng = random.Random(seed)
    targets = tuple(MODELS)
    seen: set[str] = set()
    made = 0
    chunk = []
    while made < count:
        target = targets[made % len(targets)]
        x = sample_execution(rng, get_config(target), rng.randint(*FRESH_SIZES))
        encoded = execution_to_json(x)
        del encoded["rf"], encoded["co"]
        skeleton = target + json.dumps(encoded, sort_keys=True)
        if skeleton in seen:
            continue
        seen.add(skeleton)
        chunk.append((target, x))
        made += 1
        if len(chunk) == FRESH_CHUNK or made == count:
            yield chunk
            chunk = []


def _digest_update(digest, executions) -> None:
    from repro.fuzz.corpus import execution_digest

    for target, x in executions:
        digest.update(f"{target}:{execution_digest(x)}\n".encode())


def _holds(kind: str, value) -> bool:
    if kind == "acyclic":
        return value.is_acyclic()
    if kind == "irreflexive":
        return value.is_irreflexive()
    return value.is_empty()


def reference(executions, models: dict) -> list[tuple[bool, bool, list[str]]]:
    """Relation-level verdicts: ``repro.ir.fallback_value`` for each
    plan constraint, independent of the compiled row path."""
    from repro.ir import fallback_value

    out = []
    for target, x in executions:
        tm, base = (models[name] for name in MODELS[target])
        violated = [
            c.name
            for c in tm.plan().constraints
            if not _holds(c.kind, fallback_value(c.term, x))
        ]
        base_ok = all(
            _holds(c.kind, fallback_value(c.term, x))
            for c in base.plan().constraints
        )
        out.append((not violated, base_ok, violated))
    return out


def _run_fresh(spec: dict, models: dict) -> dict:
    from repro import api

    pairs = {
        target: (models[tm], models[tm].baseline())
        for target, (tm, _) in MODELS.items()
    }
    log, inst = _start_trace(spec, models)
    other = log.name_id("other") if log else 0
    latency: list[float] = []
    verdicts: list = []
    raised = 0
    digest = hashlib.sha256()
    # Only the judging of each chunk is timed: its wall and CPU seconds,
    # less the probes that fell inside it, are summed.
    wall = cpu = 0.0
    with _timed(spec) as speed:
        for executions in generate(spec["seed"], spec["count"]):
            spent = speed.spent if speed else 0.0
            root = log.begin(other) if log else 0
            before = _usage()
            start = _now()
            for target, x in executions:
                tm, base = pairs[target]
                try:
                    a = _now()
                    ok_tm = api.check(x, tm)
                    b = _now()
                    ok_base = api.check(x, base)
                    c = _now()
                    violated = tm.violated_axioms(x)
                    d = _now()
                except Exception as error:  # counted as failed, the run goes on
                    print(f"check raised: {error!r}", file=sys.stderr)
                    raised += 1
                    verdicts.append(None)
                    continue
                latency += (b - a, c - b, d - c)
                verdicts.append((ok_tm, ok_base, violated))
            end = _now()
            after = _usage()
            if log:
                log.finish(root)
            probes = (speed.spent if speed else 0.0) - spent
            wall += end - start - probes
            cpu += after[0] - before[0] - probes
            _digest_update(digest, executions)
    usage = _usage()
    trace = _finish_trace(spec, log, inst)

    # Gates, outside the timed loop, on a second generation of the same
    # inputs (fresh objects: no memo shared with the judged ones).
    again = hashlib.sha256()
    failed = 3 * raised
    errors = []
    judged = iter(verdicts)
    for executions in generate(spec["seed"], spec["count"]):
        _digest_update(again, executions)
        for want, got in zip(reference(executions, models), judged):
            if got is not None:
                failed += sum(g != w for g, w in zip(got, want))
    if again.hexdigest() != digest.hexdigest():
        errors.append("regenerated inputs differ")
    return {
        "wall_s": wall,
        "cpu_self_s": cpu,
        "cpu_children_s": 0.0,
        "rss_kib": [usage[2], usage[3]],
        **_speed(speed),
        "check_ms": latency_ms(latency) if latency else None,
        "calls": 3 * len(verdicts),
        "failed_calls": failed,
        "errors": errors,
        "inputs_sha256": digest.hexdigest(),
        "executions": len(verdicts),
        "trace": trace,
    }


def main() -> None:
    spec = json.loads(sys.argv[1])
    step = spec["step"]
    if step == "setup":
        out = {"ready_s": setup(spec)[0]}
    elif step == "fill":
        out = step_fill(spec)
    elif step == "run":
        out = step_run(spec)
    else:
        raise SystemExit(f"unknown step {step!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main()
