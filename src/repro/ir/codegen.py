"""Plan → specialised Python runner (the executor's codegen backend).

The interpretive executor pays per-node dispatch, memo-dict traffic, and
counter increments on every candidate execution -- measurable against
the hand-fused kernels it replaced.  Since a plan's term DAG is fixed at
compile time, we instead emit one straight-line Python function per plan
and ``exec`` it once: every composite node becomes a local variable,
computed at its first *executed* demand site behind an ``is _M`` guard
(so shared subterms are CSE'd into a single computation per call), and
the algebraic short-circuits become real branches:

* ``seq``/``diff`` skip their right operand when the left is empty, and
  an empty ``seq`` factor under ``opt`` reduces to the other operand
  (``opt(stxn) ; r ; opt(stxn)`` collapses to ``r`` on transaction-free
  executions -- the case the old fused kernels special-cased by hand,
  which also turns ``TxnOrder`` into a verdict-cache hit on ``Order``);
* ``inter`` stops folding once the accumulator is empty.

Runners implement only the fresh-execution fast path: they assume no
prior per-execution state and record each constraint verdict in the
state's memo as they go, so later ``axiom_thunks``/``violated_axioms``
calls (and repeat ``consistent`` calls) read the same verdicts through
the interpretive engine.  Static nodes still resolve through the
static store and intern fetch the interpreter uses (a hit in the
per-skeleton store is read inline), so sharing and the cache counters
behave identically.  Anything off the fast path -- prior state,
profiling builds, mixed-universe executions -- stays on the
interpreter, which remains the reference semantics.

The emitted code grows with the *tree* expansion of the plan (guarded
blocks are re-emitted at every demand site), which stays small because
fixpoint groups and interned static subtrees emit as single helper
calls, and so do the derived communication relations (``fr``, ``com``,
``rfe``, ...) and any node whose inline code would be large
(:func:`_outlined`).  Each of those is compiled once, into an evaluator
that stores its value in the execution's node memo, so a TM model and
its baseline compute ``fr`` once per execution between them.  Emitted
code is compiled in every fresh interpreter, so its size is set-up
time.
"""

from __future__ import annotations

from .plan import Plan
from .terms import Term, derived_name

#: Per-call locals a compiled function may read, in binding order.
_LOCALS = (
    ("_Z", "st.zero"),
    ("_N", "st.n"),
    ("_U", "st.uni"),
    ("_F", "st.uni.full_mask"),
    ("_L", "st.skel.rows"),
    ("_SC", "st.static._cache"),
)

#: Term uid → its compiled evaluator (see :func:`_node_function`);
#: built once per process.
_NODES: dict[int, object] = {}

#: Term uid → :func:`_inline_size`.
_SIZES: dict[int, int] = {}

#: Ops emitted as one line (helper calls and leaves).
_INLINE_OPS = frozenset({"base", "set", "fix", "empty", "var"})

#: Nodes whose inline code would span at least this many nodes get
#: their own evaluator.
_OUTLINE_MIN = 12


class _Emitter:
    """Accumulates the source of one runner function."""

    def __init__(self, ns: dict, inline: Term | None = None):
        self.ns = ns
        self.lines: list[str] = []
        self.uids: set[int] = set()
        #: The one derived-relation term emitted inline rather than
        #: called (the body of its own evaluator).
        self.inline = inline

    def w(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def name(self, t: Term) -> str:
        return f"v{t.uid}"

    def ensure(self, t: Term, ind: int) -> None:
        """Emit a guarded block assigning ``v{uid}`` at this indent."""
        name = self.name(t)
        self.uids.add(t.uid)
        self.w(ind, f"if {name} is _M:")
        self.node(t, ind + 1)

    def node(self, t: Term, ind: int) -> None:
        name = self.name(t)
        op = t.op
        if t.intern_root:
            # Per-skeleton store first; a miss (or a falsy empty-set
            # mask) takes the counted path.  Values are otherwise
            # truthy: row tuples are never empty.
            self.ns[f"_t{t.uid}"] = t
            self.w(ind, f"{name} = _SC.get({t.skey!r}) or _s(st, _t{t.uid})")
        elif t is not self.inline and _outlined(t):
            # One shared evaluator per term, memoised in the execution's
            # node memo: every plan checking the execution computes the
            # node once, and its code is emitted once, not at every
            # demand site.
            self.ns[f"_d{t.uid}"] = _node_function(t, self.ns)
            self.w(ind, f"{name} = vals.get({t.uid}) or _d{t.uid}(st)")
        elif op == "base":
            # Leaf rows are read in place; ``None`` (not built yet, or
            # misaligned) takes the executor's path, which builds or
            # raises.
            leaf = t.args[0]
            if leaf == "id":
                fast = "st.id_rows"
            elif leaf in ("rf", "co"):
                fast = f"st.{leaf}"
            else:
                fast = f"_L.get({leaf!r})"
            self.w(ind, f"{name} = {fast} or _b(st, {leaf!r})")
        elif op == "set":
            self.w(ind, f"{name} = _m(st, {t.args[0]!r})")
        elif op == "fix":
            self.ns[f"_t{t.uid}"] = t
            self.w(ind, f"{name} = _fx(st, _t{t.uid})")
        elif op == "empty":
            self.w(ind, f"{name} = _Z" if t.kind == "rel" else f"{name} = 0")
        elif op == "union":
            self.union(t, ind)
        elif op == "inter":
            self.inter(t, ind)
        elif op == "diff":
            self.diff(t, ind)
        elif op == "seq":
            self.seq(t, ind)
        elif op == "plus":
            self.ensure(t.args[0], ind)
            self.w(ind, f"{name} = _clo(_U, {self.name(t.args[0])})")
        elif op == "star":
            self.ensure(t.args[0], ind)
            self.w(ind, f"{name} = _rtc(_U, {self.name(t.args[0])})")
        elif op == "opt":
            self.ensure(t.args[0], ind)
            arg = self.name(t.args[0])
            self.w(
                ind,
                f"{name} = tuple(r | (1 << i) for i, r in enumerate({arg}))",
            )
        elif op == "inv":
            self.ensure(t.args[0], ind)
            self.w(ind, f"{name} = tuple(_tr({self.name(t.args[0])}))")
        elif op == "comp":
            self.ensure(t.args[0], ind)
            self.w(
                ind, f"{name} = tuple(~r & _F for r in {self.name(t.args[0])})"
            )
        elif op == "setrel":
            self.ensure(t.args[0], ind)
            arg = self.name(t.args[0])
            self.w(
                ind,
                f"{name} = tuple((1 << i) if ({arg} >> i) & 1 else 0"
                " for i in range(_N))",
            )
        elif op == "cross":
            self.ensure(t.args[0], ind)
            self.ensure(t.args[1], ind)
            a, b = self.name(t.args[0]), self.name(t.args[1])
            self.w(
                ind,
                f"{name} = tuple(({b} if ({a} >> i) & 1 else 0)"
                f" for i in range(_N)) if ({a} and {b}) else _Z",
            )
        elif op == "domain":
            self.ensure(t.args[0], ind)
            self.w(ind, f"{name} = _dom({self.name(t.args[0])})")
        elif op == "range":
            self.ensure(t.args[0], ind)
            self.w(ind, f"{name} = _rng({self.name(t.args[0])})")
        else:  # pragma: no cover - "var" never escapes fix bodies
            raise AssertionError(f"cannot emit op {op!r}")

    def union(self, t: Term, ind: int) -> None:
        name = self.name(t)
        for child in t.args:
            self.ensure(child, ind)
        parts = [self.name(c) for c in t.args]
        if t.kind == "set":
            self.w(ind, f"{name} = " + " | ".join(parts))
            return
        self.w(ind, f"{name} = tuple(map(_or, {parts[0]}, {parts[1]}))")
        for extra in parts[2:]:
            self.w(ind, f"{name} = tuple(map(_or, {name}, {extra}))")

    def inter(self, t: Term, ind: int) -> None:
        # Children are cost-sorted at construction; each further factor
        # only runs while the accumulator is non-empty.
        name = self.name(t)
        self.ensure(t.args[0], ind)
        self.w(ind, f"{name} = {self.name(t.args[0])}")
        test = "any" if t.kind == "rel" else ""
        for child in t.args[1:]:
            self.w(ind, f"if {test}({name}):")
            self.ensure(child, ind + 1)
            if t.kind == "rel":
                self.w(
                    ind + 1,
                    f"{name} = tuple(map(_and, {name}, {self.name(child)}))",
                )
            else:
                self.w(ind + 1, f"{name} = {name} & {self.name(child)}")

    def diff(self, t: Term, ind: int) -> None:
        name = self.name(t)
        left, right = t.args
        self.ensure(left, ind)
        lname = self.name(left)
        if t.kind == "set":
            self.ensure(right, ind)
            self.w(ind, f"{name} = {lname} & ~{self.name(right)}")
            return
        self.w(ind, f"if any({lname}):")
        self.ensure(right, ind + 1)
        rname = self.name(right)
        self.w(
            ind + 1,
            f"{name} = tuple(map(_dif, {lname}, {rname}))"
            f" if any({rname}) else {lname}",
        )
        self.w(ind, "else:")
        self.w(ind + 1, f"{name} = _Z")

    def seq(self, t: Term, ind: int) -> None:
        name = self.name(t)
        left, right = t.args
        if left.op == "opt":
            # opt(t) = id ∪ t: when t is empty the factor is the
            # identity and the composition is just the right operand.
            inner = left.args[0]
            self.ensure(inner, ind)
            self.w(ind, f"if any({self.name(inner)}):")
            self.ensure(left, ind + 1)
            self._seq_right(name, self.name(left), right, ind + 1)
            self.w(ind, "else:")
            self.ensure(right, ind + 1)
            self.w(ind + 1, f"{name} = {self.name(right)}")
            return
        self.ensure(left, ind)
        lname = self.name(left)
        self.w(ind, f"if any({lname}):")
        self._seq_right(name, lname, right, ind + 1)
        self.w(ind, "else:")
        self.w(ind + 1, f"{name} = _Z")

    def _seq_right(self, name: str, lname: str, right: Term, ind: int) -> None:
        if right.op == "opt":
            inner = right.args[0]
            self.ensure(inner, ind)
            self.w(ind, f"if any({self.name(inner)}):")
            self.ensure(right, ind + 1)
            # opt values contain the diagonal, so never empty.
            self.w(ind + 1, f"{name} = tuple(_cr({lname}, {self.name(right)}))")
            self.w(ind, "else:")
            self.w(ind + 1, f"{name} = {lname}")
            return
        self.ensure(right, ind)
        rname = self.name(right)
        self.w(ind, f"if any({rname}):")
        self.w(ind + 1, f"{name} = tuple(_cr({lname}, {rname}))")
        self.w(ind, "else:")
        self.w(ind + 1, f"{name} = _Z")


def build(plan: Plan, helpers: dict):
    """Compile ``plan`` into ``runner(st) -> bool``.

    ``helpers`` supplies the executor's primitives (leaf fetchers, row
    kernels, counters); the emitted function stores each constraint
    verdict in ``st.vals`` exactly as the interpretive loop would.
    """
    ns = dict(helpers)
    em = _Emitter(ns)
    scheduled = plan.scheduled
    for position, constraint in enumerate(scheduled):
        em.w(1, f"# {constraint.kind} {constraint.name}")
        em.ensure(constraint.term, 1)
        root = em.name(constraint.term)
        if constraint.kind == "acyclic":
            em.w(1, f"ok = _acy(_U, {root})")
        elif constraint.kind == "irreflexive":
            em.w(1, f"ok = not _refl({root})")
        else:
            em.w(1, f"ok = not any({root})")
        ns[f"_vk{position}"] = constraint.vkey
        em.w(1, f"vals[_vk{position}] = ok")
        em.w(1, "if not ok:")
        if position + 1 < len(scheduled):
            em.w(2, "_sc.inc()")
        em.w(2, "return False")

    return _function(em, ["    return True"], f"<ir-runner {plan.name}>")


def _outlined(t: Term) -> bool:
    """Whether ``t`` is emitted as a call to its own evaluator: the
    derived communication relations, and any node whose inline code
    would be large (it would be repeated at every demand site)."""
    if derived_name(t) is not None:
        return True
    return t.op not in _INLINE_OPS and _inline_size(t) >= _OUTLINE_MIN


def _inline_size(t: Term) -> int:
    """Nodes emitted inline for ``t`` (calls count as one)."""
    size = _SIZES.get(t.uid)
    if size is None:
        size = 1
        if not (t.intern_root or t.op in _INLINE_OPS):
            for child in t.args:
                if isinstance(child, Term):
                    size += 1 if _outlined(child) else _inline_size(child)
        _SIZES[t.uid] = size
    return size


def _node_function(t: Term, helpers: dict):
    """Compile ``t`` into ``evaluate(st) -> value``, which stores its
    value in ``st.vals`` under the term's uid (the interpretive
    evaluator's memo key)."""
    fn = _NODES.get(t.uid)
    if fn is None:
        em = _Emitter(dict(helpers), inline=t)
        em.ensure(t, 1)
        tail = [f"    vals[{t.uid}] = v{t.uid}", f"    return v{t.uid}"]
        fn = _NODES[t.uid] = _function(em, tail, f"<ir-node {t.uid}>")
    return fn


def _function(em: _Emitter, tail: list[str], filename: str):
    body = "\n".join(em.lines + tail)
    preamble = ["def _runner(st):", "    vals = st.vals"]
    # Bind only the locals the body reads (the calls are per candidate;
    # a substring hit on a longer name merely binds an unused local).
    for local, value in _LOCALS:
        if local in body:
            preamble.append(f"    {local} = {value}")
    for uid in sorted(em.uids):
        preamble.append(f"    v{uid} = _M")
    source = "\n".join(preamble + [body])
    exec(compile(source, filename, "exec"), em.ns)
    runner = em.ns["_runner"]
    runner.__ir_source__ = source  # introspection for tests/debugging
    return runner
