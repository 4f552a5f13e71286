"""Layer spans for the traced benchmark run.

The traced run times each layer from outside the program: it replaces
public entry points of the layer modules with wrappers that record a
span -- name, start, end, parent -- around every call, then reads the
layer's time off the spans.  Nothing in ``src/`` is edited; the
wrappers are installed in the benchmark's own interpreter only, never
in an untraced run.

Spans are kept in flat arrays (about 26 bytes each) so that a synthesis
run with a million candidate-level spans stays small, and are written
out once, when the run ends (:meth:`SpanLog.write`).  Self time -- a
span's duration minus the part its child spans cover -- is accumulated
per span name as each span closes.
"""

from __future__ import annotations

import json
import time
from array import array
from functools import cached_property
from pathlib import Path

_now = time.perf_counter


class SpanLog:
    """Every span of one traced run, plus per-name self time and calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self._open: list[int] = []
        self._covered: list[float] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.calls.append(0)
        return nid

    def begin(self, nid: int) -> int:
        index = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self._covered.append(0.0)
        self.start.append(_now())
        return index

    def finish(self, index: int) -> float:
        """Close span ``index`` (the innermost open one); its duration."""
        now = _now()
        self.end[index] = now
        self._open.pop()
        covered = self._covered.pop()
        duration = now - self.start[index]
        if self._covered:
            self._covered[-1] += duration
        nid = self.name_of[index]
        self.self_s[nid] += duration - covered
        self.calls[nid] += 1
        return duration

    def write(self, path: Path) -> None:
        """``<path>.json`` (names, count, per-name totals) and
        ``<path>.bin``: the name-id, start, end and parent arrays, in
        that order, each ``count`` machine-native items long."""
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "count": len(self.start),
            "arrays": ["name_of:H", "start:d", "end:d", "parent:q"],
            "names": self.names,
            "self_s": dict(zip(self.names, self.self_s)),
            "calls": dict(zip(self.names, self.calls)),
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1))
        with path.with_suffix(".bin").open("wb") as out:
            for column in (self.name_of, self.start, self.end, self.parent):
                column.tofile(out)


class Instrumentation:
    """Installs the layer wrappers; see the module docstring.

    ``models`` maps registry names to model objects, so each IR call
    can be attributed to the model whose plan it runs.  Per-model IR
    ``consistent`` latencies land in :attr:`latency` (seconds).
    """

    def __init__(self, log: SpanLog, models: dict) -> None:
        self.log = log
        self.missing: list[str] = []
        self.weakenings = 0
        self.latency: dict[str, array] = {}
        self._plans: dict[int, tuple[str, bool]] = {}
        for name, model in models.items():
            self._plans[id(model.plan())] = (name, model.is_transactional)
            self.latency[name] = array("d")

    # -- generic wrappers -------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        setattr(owner, attr, make(original))

    def call(self, owner, attr: str, span: str) -> None:
        """Record one ``span`` around every call of ``owner.attr``."""
        log = self.log
        nid = log.name_id(span)

        def make(original):
            def wrapper(*args, **kwargs):
                index = log.begin(nid)
                try:
                    return original(*args, **kwargs)
                finally:
                    log.finish(index)

            return wrapper

        self._patch(owner, attr, make)

    def iterate(self, owner, attr: str, span: str) -> None:
        """Record one ``span`` around each item a generator function
        produces (the consumer's work between items is not covered)."""
        log = self.log
        nid = log.name_id(span)

        def make(original):
            def wrapper(*args, **kwargs):
                items = iter(original(*args, **kwargs))
                while True:
                    index = log.begin(nid)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        log.finish(index)
                    yield item

            return wrapper

        self._patch(owner, attr, make)

    # -- the layers ---------------------------------------------------------

    def install(self) -> "Instrumentation":
        import repro.ir as ir_pkg
        from repro.enumeration import minimality, sharding, synthesis
        from repro.harness import pipeline, scheduler, verdict_cache

        # enumeration.shapes / .complete / .sharding
        self.call(scheduler, "shard_signatures", "shapes")
        self.call(scheduler, "shard_skeletons", "shapes")
        self.call(sharding, "shard_skeletons", "shapes")
        self.call(scheduler, "shard_completion_counts", "complete.count")
        self.iterate(scheduler, "complete_shard_range", "complete")
        # enumeration.minimality / .canonical
        self.call(scheduler, "is_minimal_inconsistent", "minimality")
        self._count_weakenings(minimality)
        for module in (scheduler, verdict_cache, synthesis):
            self.call(module, "canonical_key", "canonical")
        # harness.verdict_cache
        self.call(verdict_cache, "execution_digest", "verdict_cache.digest")
        self.call(verdict_cache.VerdictCache, "lookup", "verdict_cache.lookup")
        self.call(verdict_cache, "configure", "verdict_cache.load")
        # harness.scheduler / .pipeline
        self.call(scheduler, "synthesise_sharded", "scheduler.fold")
        self.call(scheduler, "_sharded_bound", "scheduler.fold")
        self.call(scheduler.WorkStealingScheduler, "run", "scheduler.dispatch")
        self.call(scheduler, "run_shard_job", "scheduler.job")
        self.call(pipeline.CheckPipeline, "map_checkpointed", "pipeline.map")
        # events.execution's derived relations, then ir + models
        self._wrap_relations()
        self._wrap_ir(ir_pkg)
        return self

    def _count_weakenings(self, minimality) -> None:
        def make(original):
            def wrapper(*args, **kwargs):
                for child in original(*args, **kwargs):
                    self.weakenings += 1
                    yield child

            return wrapper

        self._patch(minimality, "weakenings", make)

    def _wrap_relations(self) -> None:
        """One span around each derived relation an execution computes.

        The relations are cached properties, computed lazily when a plan
        first reads them (or copied from a skeleton sibling, which costs
        nothing and records nothing).  A relation computed while another
        is being computed (``com`` reading ``fr``) is covered by the
        outer span rather than given its own.
        """
        from repro.events import Execution
        from repro.ir import BASE_RELATIONS

        log = self.log
        nid = log.name_id("execution.relations")
        depth = [0]
        names = {"po_imm" if n == "poimm" else n for n in BASE_RELATIONS}
        names |= {"same_thread", "_fr_static"}
        for name in sorted(names):
            prop = vars(Execution).get(name)
            if not isinstance(prop, cached_property):
                continue

            def timed(x, _compute=prop.func):
                if depth[0]:
                    return _compute(x)
                depth[0] = 1
                index = log.begin(nid)
                try:
                    return _compute(x)
                finally:
                    log.finish(index)
                    depth[0] = 0

            wrapped = cached_property(timed)
            wrapped.__set_name__(Execution, name)
            setattr(Execution, name, wrapped)

    def _wrap_ir(self, ir_pkg) -> None:
        log = self.log
        plans = self._plans
        latency = self.latency
        tm_id = log.name_id("ir.consistent")
        base_id = log.name_id("ir.baseline")

        def make_consistent(original):
            def consistent(plan, x):
                name, transactional = plans.get(id(plan), ("other", True))
                index = log.begin(tm_id if transactional else base_id)
                try:
                    return original(plan, x)
                finally:
                    seconds = log.finish(index)
                    samples = latency.get(name)
                    if samples is not None:
                        samples.append(seconds)

            return consistent

        self.call(ir_pkg, "violated_axioms", "ir.violated")
        self._patch(ir_pkg, "consistent", make_consistent)
