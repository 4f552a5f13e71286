"""Lock-elision soundness checking (§8.3, Table 3, Example 1.1, §B).

Lock elision replaces a critical region's lock()/unlock() with a
transaction that starts by reading the lock variable (self-aborting if
taken).  Soundness means mutual exclusion still holds between elided and
non-elided critical regions.

The check here is the program-level rendering of the paper's π-relation
technique:

1.  Pick two critical-region *bodies* from a menu (stores, loads,
    read-modify-update sequences -- the shapes of Example 1.1 and §B).
2.  Compute the *specification*: the outcomes reachable when the two
    regions are serialised (run in either order) -- mutual exclusion
    allows nothing else.
3.  Build the *concrete program*: thread 0 takes the lock with the
    architecture's recommended spinlock (Table 3) and runs its body;
    thread 1 elides the lock (transaction + lock-free check).
4.  For every outcome expressible in the postcondition but absent from
    the specification, ask the herd-style pipeline whether the
    architecture's TM model allows it.  Any "yes" witnesses unsound
    elision.

Table 3's per-architecture lock implementations:

* **x86**: test-and-test-and-set -- a plain load of the lock (must see
  it free), then a LOCK'd RMW (implied fence semantics).  Unlock is a
  plain store of 0.
* **Power**: larx/stcx RMW followed by a control dependency and an
  ``isync`` (ctrl-isync); unlock is ``sync`` then a store of 0.
* **ARMv8**: acquire-RMW (LDAXR/STXR); unlock is a release store
  (STLR) -- the ARM-recommended spinlock of §K9.3.
* **ARMv8 (fixed)**: as ARMv8 plus a trailing DMB in lock() -- the
  §1.1 repair.

The expected reproduction of Table 2: a counterexample for ARMv8
(Example 1.1's outcome, found quickly), none for x86, Power, or the
fixed ARMv8 at these sizes.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from ..events import ACQ, DMB, ISYNC, REL, SYNC
from ..litmus import (
    AbortUnless,
    Fence,
    Load,
    MemEquals,
    Postcondition,
    Program,
    RegEquals,
    Rmw,
    Store,
    TxBegin,
    TxEnd,
    TxnsSucceeded,
    find_witness,
)
from ..models import get_model
from ..models.base import MemoryModel

ARCHES = ("x86", "power", "armv8", "armv8-fixed")

# ---------------------------------------------------------------------------
# Critical-region bodies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BodyOp:
    """One operation of a critical-region body."""

    kind: str  # "read" | "write" | "update"
    loc: str


def body(*ops: tuple[str, str]) -> tuple[BodyOp, ...]:
    return tuple(BodyOp(kind, loc) for kind, loc in ops)


#: The menu of §8.3-style critical regions.  ``update`` is the
#: load;add;store idiom of Example 1.1 (store data-depends on the load);
#: the double-write body is the §B shape.
DEFAULT_BODIES: tuple[tuple[BodyOp, ...], ...] = (
    body(("write", "x")),
    body(("read", "x")),
    body(("update", "x")),
    body(("write", "x"), ("write", "x")),
)


# ---------------------------------------------------------------------------
# Outcome specification by serialisation
# ---------------------------------------------------------------------------


def _body_instructions(
    ops: tuple[BodyOp, ...],
    reg_prefix: str,
    values: "_ValueAllocator",
    ctrl_regs: tuple[str, ...] = (),
) -> tuple[list, list[str], list[tuple[str, int]]]:
    """Lower a body to instructions.

    Returns (instructions, read registers, write (loc, value) list).
    """
    instructions: list = []
    regs: list[str] = []
    writes: list[tuple[str, int]] = []
    for index, op in enumerate(ops):
        reg = f"{reg_prefix}{index}"
        if op.kind == "read":
            instructions.append(Load(reg, op.loc, ctrl_regs=ctrl_regs))
            regs.append(reg)
        elif op.kind == "write":
            value = values.fresh(op.loc)
            instructions.append(Store(op.loc, value, ctrl_regs=ctrl_regs))
            writes.append((op.loc, value))
        elif op.kind == "update":
            value = values.fresh(op.loc)
            instructions.append(Load(reg, op.loc, ctrl_regs=ctrl_regs))
            instructions.append(
                Store(op.loc, value, data_regs=(reg,), ctrl_regs=ctrl_regs)
            )
            regs.append(reg)
            writes.append((op.loc, value))
        else:  # pragma: no cover - exhaustive
            raise ValueError(f"unknown body op {op.kind!r}")
    return instructions, regs, writes


class _ValueAllocator:
    """Distinct non-zero store values per location (§2.2)."""

    def __init__(self) -> None:
        self._next: dict[str, int] = {}

    def fresh(self, loc: str) -> int:
        value = self._next.get(loc, 0) + 1
        self._next[loc] = value
        return value


def serialised_outcomes(
    body0: tuple[BodyOp, ...], body1: tuple[BodyOp, ...]
) -> set[tuple]:
    """Outcomes of running the bodies in either order, atomically --
    exactly what mutual exclusion permits.

    An outcome is ``(sorted body-register values, sorted final
    locations)``, with registers named as in the concrete program
    (thread 0: a0, a1...; thread 1: b0, b1...).
    """
    all_locs = sorted({op.loc for op in body0 + body1})
    outcomes = set()
    for first_tid, first_body, second_tid, second_body in (
        (0, body0, 1, body1),
        (1, body1, 0, body0),
    ):
        memory: dict[str, int] = {loc: 0 for loc in all_locs}
        registers: dict[tuple[int, str], int] = {}
        # Allocate store values in *program* order (thread 0 first),
        # matching _body_instructions in the concrete program.
        values = _ValueAllocator()
        _, _, writes0 = _body_instructions(body0, "a", values)
        _, _, writes1 = _body_instructions(body1, "b", values)
        writes = {0: iter(writes0), 1: iter(writes1)}
        for tid, ops in ((first_tid, first_body), (second_tid, second_body)):
            prefix = "a" if tid == 0 else "b"
            write_iter = writes[tid]
            for index, op in enumerate(ops):
                reg = f"{prefix}{index}"
                if op.kind in ("read", "update"):
                    registers[(tid, reg)] = memory.get(op.loc, 0)
                if op.kind in ("write", "update"):
                    loc, value = next(write_iter)
                    memory[loc] = value
        outcomes.add(_outcome_key(registers, memory))
    return outcomes


def _outcome_key(
    registers: dict[tuple[int, str], int], memory: dict[str, int]
) -> tuple:
    return (
        tuple(sorted(registers.items())),
        tuple(sorted(memory.items())),
    )


def candidate_outcomes(
    body0: tuple[BodyOp, ...], body1: tuple[BodyOp, ...]
) -> list[tuple[dict[tuple[int, str], int], dict[str, int]]]:
    """Every conceivable final state of the two bodies: each register
    takes 0 or any store's value to its location; each location ends at
    0 or any written value."""
    values = _ValueAllocator()
    _, regs0, writes0 = _body_instructions(body0, "a", values)
    _, regs1, writes1 = _body_instructions(body1, "b", values)
    all_writes = writes0 + writes1
    locs = sorted(
        {loc for loc, _ in all_writes}
        | {op.loc for op in body0 + body1}
    )
    values_of = {
        loc: [0] + [v for l, v in all_writes if l == loc] for loc in locs
    }

    reg_slots: list[tuple[int, str, str]] = []
    for tid, (ops, regs) in ((0, (body0, regs0)), (1, (body1, regs1))):
        reg_iter = iter(regs)
        for op in ops:
            if op.kind in ("read", "update"):
                reg_slots.append((tid, next(reg_iter), op.loc))

    reg_options = [values_of[loc] for _, _, loc in reg_slots]
    loc_options = [values_of[loc] for loc in locs]
    out = []
    for reg_vals in itertools.product(*reg_options):
        registers = {
            (tid, reg): val
            for (tid, reg, _), val in zip(reg_slots, reg_vals)
        }
        for loc_vals in itertools.product(*loc_options):
            memory = dict(zip(locs, loc_vals))
            out.append((registers, memory))
    return out


# ---------------------------------------------------------------------------
# Concrete program construction (Table 3)
# ---------------------------------------------------------------------------

LOCK_VAR = "m"


def build_concrete_program(
    arch: str,
    body0: tuple[BodyOp, ...],
    body1: tuple[BodyOp, ...],
    registers: dict[tuple[int, str], int],
    memory: dict[str, int],
    name: str = "elision",
) -> Program:
    """Thread 0: spinlock + body0 + unlock; thread 1: elided body1.
    The postcondition pins the given body outcome plus the lock
    protocol (lock reads see it free; transaction commits; lock ends
    free)."""
    if arch not in ARCHES:
        raise ValueError(f"unknown arch {arch!r}; choose from {ARCHES}")
    values = _ValueAllocator()

    protocol_atoms: list = []
    thread0: list = []
    lock_reg = "lk"
    if arch == "x86":
        # test-and-test-and-set: plain read, then LOCK'd RMW.
        thread0.append(Load("lt", LOCK_VAR))
        thread0.append(Rmw(lock_reg, LOCK_VAR, 1))
        protocol_atoms.append(RegEquals(0, "lt", 0))
    elif arch == "power":
        # lwarx; cmpwi; bne; stwcx.; bne; isync -- control dependencies
        # flow from both the loaded value and the stwcx. success flag
        # (footnote 3), through the isync.
        thread0.append(Rmw(lock_reg, LOCK_VAR, 1, status_ctrl=True))
        thread0.append(Fence(ISYNC, ctrl_regs=(lock_reg,)))
    elif arch in ("armv8", "armv8-fixed"):
        # LDAXR; CBNZ; STXR; CBNZ -- the STXR status branch exists in
        # the code, but the ARMv8 model recognises no dependency through
        # a store-exclusive's success flag, which is the crux of §8.3.
        thread0.append(
            Rmw(lock_reg, LOCK_VAR, 1, read_tags={ACQ}, status_ctrl=True)
        )
        if arch == "armv8-fixed":
            thread0.append(Fence(DMB))
    protocol_atoms.append(RegEquals(0, lock_reg, 0))

    body_ctrl = (lock_reg,) if arch == "power" else ()
    instr0, _, _ = _body_instructions(body0, "a", values, ctrl_regs=body_ctrl)
    thread0.extend(instr0)

    if arch == "power":
        thread0.append(Fence(SYNC))
        thread0.append(Store(LOCK_VAR, 0))
    elif arch == "x86":
        thread0.append(Store(LOCK_VAR, 0))
    else:
        thread0.append(Store(LOCK_VAR, 0, tags={REL}))

    thread1: list = [TxBegin(), Load("tm", LOCK_VAR), AbortUnless("tm", 0)]
    instr1, _, _ = _body_instructions(body1, "b", values)
    thread1.extend(instr1)
    thread1.append(TxEnd())

    atoms = [RegEquals(tid, reg, val) for (tid, reg), val in sorted(registers.items())]
    atoms.extend(MemEquals(loc, val) for loc, val in sorted(memory.items()))
    atoms.extend(protocol_atoms)
    atoms.append(MemEquals(LOCK_VAR, 0))
    atoms.append(TxnsSucceeded())

    return Program(
        name=name,
        threads=(tuple(thread0), tuple(thread1)),
        postcondition=Postcondition(tuple(atoms)),
    )


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ElisionCounterexample:
    """A mutual-exclusion violation reachable with lock elision."""

    arch: str
    body0: tuple[BodyOp, ...]
    body1: tuple[BodyOp, ...]
    program: Program
    registers: dict[tuple[int, str], int]
    memory: dict[str, int]


@dataclass
class ElisionResult:
    """Outcome of a lock-elision soundness check (a Table 2 row)."""

    arch: str
    outcomes_checked: int
    elapsed: float
    counterexample: ElisionCounterexample | None

    @property
    def sound(self) -> bool:
        return self.counterexample is None


def check_lock_elision(
    arch: str,
    bodies: tuple[tuple[BodyOp, ...], ...] = DEFAULT_BODIES,
    model: MemoryModel | None = None,
) -> ElisionResult:
    """Search the body menu for a reachable non-serialisable outcome."""
    model = model or get_model(
        {"armv8-fixed": "armv8tm"}.get(arch, f"{arch}tm")
    )
    start = time.monotonic()
    checked = 0

    for body0, body1 in itertools.product(bodies, repeat=2):
        spec = serialised_outcomes(body0, body1)
        for registers, memory in candidate_outcomes(body0, body1):
            if _outcome_key(registers, memory) in spec:
                continue
            checked += 1
            program = build_concrete_program(
                arch, body0, body1, registers, memory,
                name=f"elision-{arch}-{_body_name(body0)}-{_body_name(body1)}",
            )
            if find_witness(program, model) is not None:
                return ElisionResult(
                    arch=arch,
                    outcomes_checked=checked,
                    elapsed=time.monotonic() - start,
                    counterexample=ElisionCounterexample(
                        arch=arch,
                        body0=body0,
                        body1=body1,
                        program=program,
                        registers=registers,
                        memory=memory,
                    ),
                )

    return ElisionResult(
        arch=arch,
        outcomes_checked=checked,
        elapsed=time.monotonic() - start,
        counterexample=None,
    )


def _body_name(ops: tuple[BodyOp, ...]) -> str:
    return "+".join(f"{op.kind[0].upper()}{op.loc}" for op in ops)
