"""Compiling C++ transactions to hardware (§8.2).

The mapping extends the standard (Wickerson et al.) non-transactional
compiler mappings with transaction preservation::

    stxn_Y = π⁻¹ ; stxn_X ; π

Event-level mappings (leading-fence convention for Power SC accesses):

=============  ==============  ============================  ==========
C++ access     x86             Power                         ARMv8
=============  ==============  ============================  ==========
na/rlx load    MOV             ld                            LDR
acq load       MOV             ld; ctrl-isync                LDAR
sc load        MOV             sync; ld; ctrl-isync          LDAR
na/rlx store   MOV             st                            STR
rel store      MOV             lwsync; st                    STLR
sc store       MOV; MFENCE     sync; st                      STLR
=============  ==============  ============================  ==========

Soundness is checked as in the paper: search for an execution pair
(X, Y) with X inconsistent in C++, Y = π(X) consistent on the target.
Because the mapping only inserts fences and annotations, Y is determined
by X (rf/co/transactions transported along π), so the search is a scan
over C++ executions.

A racy X gives the program undefined behaviour, so witnesses must be
race-free; this is the reproduction's simplification of Wickerson et
al.'s "deadness" side-condition (recorded in DESIGN.md).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..enumeration import enumerate_executions, get_config
from ..events import (
    ACQ,
    ISYNC,
    LWSYNC,
    MFENCE,
    NA,
    REL,
    RLX,
    SC,
    SYNC,
    Event,
    Execution,
)
from ..models import get_model
from ..models.base import MemoryModel

TARGETS = ("x86", "power", "armv8")


@dataclass(frozen=True)
class CompiledExecution:
    """The target execution plus the π relation (src eid → tgt eids)."""

    target: Execution
    pi: dict[int, tuple[int, ...]]


def compile_execution(x: Execution, target: str) -> CompiledExecution:
    """Apply the §8.2 mapping to a C++ execution."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; choose from {TARGETS}")

    events: list[Event] = []
    threads: list[list[int]] = []
    pi: dict[int, tuple[int, ...]] = {}
    access_image: dict[int, int] = {}  # src access → its target access
    txn_of: dict[int, int] = {}
    ctrl_pairs: set[tuple[int, int]] = set()
    eid = 0

    def emit(tid: int, kind: str, loc, tags, txn) -> int:
        nonlocal eid
        events.append(Event(eid=eid, tid=tid, kind=kind, loc=loc, tags=tags))
        threads[tid].append(eid)
        if txn is not None:
            txn_of[eid] = txn
        eid += 1
        return eid - 1

    for tid, seq in enumerate(x.threads):
        threads.append([])
        acquire_sources: list[int] = []  # loads needing ctrl-isync to later events
        for src in seq:
            event = x.event(src)
            txn = x.txn_of.get(src)
            mode = _mode_of(event)
            image: list[int] = []

            if target == "power":
                if event.is_read and mode == SC:
                    image.append(emit(tid, "F", None, frozenset({SYNC}), txn))
                if event.is_write and mode == SC:
                    image.append(emit(tid, "F", None, frozenset({SYNC}), txn))
                if event.is_write and mode == REL:
                    image.append(emit(tid, "F", None, frozenset({LWSYNC}), txn))

            core_tags = _target_tags(event, mode, target)
            core = emit(tid, event.kind, event.loc, core_tags, txn)
            image.append(core)
            access_image[src] = core
            for acq_src in acquire_sources:
                ctrl_pairs.add((acq_src, core))

            if target == "power":
                if event.is_read and mode in (ACQ, SC):
                    isync_eid = emit(tid, "F", None, frozenset({ISYNC}), txn)
                    image.append(isync_eid)
                    acquire_sources.append(core)
            if target == "x86":
                if event.is_write and mode == SC:
                    image.append(emit(tid, "F", None, frozenset({MFENCE}), txn))

            pi[src] = tuple(image)

    remap = lambda pairs: frozenset(
        (access_image[a], access_image[b]) for a, b in pairs
    )
    target_execution = Execution(
        events=events,
        threads=threads,
        rf=remap(x.rf.pairs),
        co=remap(x.co.pairs),
        addr=remap(x.addr.pairs),
        ctrl=frozenset(ctrl_pairs) | remap(x.ctrl.pairs),
        data=remap(x.data.pairs),
        rmw=remap(x.rmw.pairs),
        txn_of=txn_of,
        atomic_txns=frozenset(),  # hardware has one flavour of transaction
    )
    return CompiledExecution(target=target_execution, pi=pi)


def _mode_of(event: Event) -> str:
    mode = event.cpp_mode
    if mode is None:
        return NA
    return mode


def _target_tags(event: Event, mode: str, target: str) -> frozenset[str]:
    if target == "armv8":
        if event.is_read and mode in (ACQ, SC):
            return frozenset({ACQ})
        if event.is_write and mode in (REL, SC):
            return frozenset({REL})
    return frozenset()


# ---------------------------------------------------------------------------
# Soundness checking
# ---------------------------------------------------------------------------


@dataclass
class CompilationResult:
    """Outcome of a bounded compilation-soundness check (Table 2)."""

    target: str
    max_events: int
    executions_checked: int
    elapsed: float
    counterexample: tuple[Execution, CompiledExecution] | None

    @property
    def sound(self) -> bool:
        return self.counterexample is None


def check_compilation(
    target: str,
    max_events: int,
    target_model: MemoryModel | None = None,
) -> CompilationResult:
    """Search for (X inconsistent-C++, race-free) with π(X) consistent
    on the target, up to a source-event bound."""
    cpp_config = get_config("cpp")
    cpp_model = get_model("cpptm")
    target_model = target_model or get_model(f"{target}tm")
    start = time.monotonic()
    checked = 0

    for n_events in range(1, max_events + 1):
        for x in enumerate_executions(cpp_config, n_events):
            checked += 1
            if cpp_model.consistent(x):
                continue
            if not cpp_model.relation("races", x).is_empty():
                continue  # racy source: target behaviour unconstrained
            compiled = compile_execution(x, target)
            if target_model.consistent(compiled.target):
                return CompilationResult(
                    target=target,
                    max_events=max_events,
                    executions_checked=checked,
                    elapsed=time.monotonic() - start,
                    counterexample=(x, compiled),
                )

    return CompilationResult(
        target=target,
        max_events=max_events,
        executions_checked=checked,
        elapsed=time.monotonic() - start,
        counterexample=None,
    )
