"""IR terms → specialised Python functions: the row-level semantics.

Every row-level evaluation of an IR term runs code emitted here; the
only other implementation of the operators is the Relation-level
reference (:func:`repro.ir.fallback_value`).  Since a plan's term DAG is
fixed at compile time, it is emitted as straight-line Python and
``exec``'d once: every composite node becomes a local variable, computed
at its first *executed* demand site behind an ``is _M`` guard (so shared
subterms are CSE'd into a single computation per call), and the
algebraic short-circuits become real branches:

* ``seq``/``diff`` skip their right operand when the left is empty, and
  an empty ``seq`` factor under ``opt`` reduces to the other operand
  (``opt(stxn) ; r ; opt(stxn)`` collapses to ``r`` on transaction-free
  executions -- the case the old fused kernels special-cased by hand,
  which also turns ``TxnOrder`` into a verdict-cache hit on ``Order``);
* ``inter`` stops folding once the accumulator is empty.

Three kinds of function are emitted:

* **plan runners** (:func:`build`) decide a plan's constraints in
  scheduled order.  Each constraint's verdict is read from the
  execution's verdict memo first and recorded there once decided; the
  runner returns at the first failure, or with ``full`` decides every
  constraint (``violated_axioms``);
* **node evaluators** (:func:`_node_function`) compute one term and
  store it in the execution's node memo under its uid.  Runners call
  them for the derived communication relations (``fr``, ``com``,
  ``rfe``, ...) and any node whose inline code would be large
  (:func:`_outlined`), so a TM model and its baseline compute ``fr``
  once per execution between them.  The free part that transaction
  hoisting split off a transactional union (:func:`_free_part`) is
  called too, however small, so every transaction layout of one rf/co
  choice reads its one shared value; the choice reads only the union
  and its child, so a runner's source does not depend on which model
  compiled first.  ``ir.evaluate`` and interned static nodes run
  evaluators directly;
* **fix-group functions** (:func:`_group_function`) solve a ``let rec``
  group by Kleene iteration from the kind-appropriate bottoms, interned
  across executions on ``("irfix", group, n, *input values)``.

Every memo access is routed by the term's :attr:`~repro.ir.terms.Term.txn`
flag: node values, verdicts and fix-group results of transaction-free
terms go to the memo half all transaction layouts of one rf/co choice
share (``shared``), the others to the execution's own (``vals``);
static leaves and static nodes likewise come from the group's stores
(``_L``, ``_SC``) or the layout's (``_TR``, ``_TS``).

Static nodes resolve through the per-skeleton store and the global
intern table (a hit in the store is read inline).  The emitted code
grows with the *tree* expansion of a plan (guarded blocks are re-emitted
at every demand site), which outlining keeps small; it is compiled in
every fresh interpreter, so its size is set-up time.

The **profiling build** (``profile=True``, selected while
:data:`~repro.obs.profile.PROFILER` is enabled) is the same emitter
with ``PROFILER.begin``/``end``/``abort`` around each guarded node
block, ``PROFILER.hit`` on node-memo reads, and each constraint run
inside ``PROFILER.constraint`` and its ``ir.constraint.*`` timer.
"""

from __future__ import annotations

from .plan import Plan
from .terms import FixGroup, Term, derived_name

#: Per-call locals a compiled function may read, in binding order.
_LOCALS = (
    ("vals", "st.vals"),
    ("shared", "st.shared"),
    ("_Z", "st.zero"),
    ("_N", "st.n"),
    ("_F", "st.uni.full_mask"),
    ("_L", "st.skel.rows"),
    ("_TR", "st.skel.txn_rows"),
    ("_SC", "st.static"),
    ("_TS", "st.txn_static"),
)

#: (term uid, profile) → its compiled evaluator (see
#: :func:`_node_function`); built once per process.
_NODES: dict[tuple[int, bool], object] = {}

#: (group uid, profile) → its compiled fix-group function.
_GROUPS: dict[tuple[int, bool], object] = {}

#: Term uid → :func:`_inline_size`.
_SIZES: dict[int, int] = {}

#: Ops emitted as one line (helper calls and leaves).
_INLINE_OPS = frozenset({"base", "set", "fix", "empty", "var"})

#: Nodes whose inline code would span at least this many nodes get
#: their own evaluator.
_OUTLINE_MIN = 12


class _Emitter:
    """Accumulates the source of one compiled function."""

    def __init__(
        self,
        ns: dict,
        inline: Term | None = None,
        profile: bool = False,
        bound: frozenset[int] = frozenset(),
    ):
        self.ns = ns
        self.lines: list[str] = []
        #: uid → term of every node given a guarded local.
        self.terms: dict[int, Term] = {}
        #: The one term emitted as its own body rather than fetched or
        #: called (the body of its own evaluator).
        self.inline = inline
        self.profile = profile
        #: uids whose locals are already bound: a fix iteration's
        #: inputs (parameters) and variables (the current iterate).
        self.bound = bound

    def w(self, indent: int, text: str) -> None:
        self.lines.append("    " * indent + text)

    def name(self, t: Term) -> str:
        return f"v{t.uid}"

    @staticmethod
    def memo(t: Term) -> str:
        """The local naming the memo half that holds ``t``'s entries:
        the execution's own for transactional terms, else the one its
        transaction layouts share."""
        return "vals" if t.txn else "shared"

    def calls(self, t: Term, part: bool = False) -> bool:
        """Whether ``t`` is emitted as a call to its own evaluator
        (``part``: ``t`` is a transactional union's free part)."""
        return (
            t is not self.inline
            and not t.intern_root
            and (part or _outlined(t))
        )

    def ensure(self, t: Term, ind: int, part: bool = False) -> None:
        """Emit a guarded block assigning ``v{uid}`` at this indent."""
        if t.uid in self.bound:
            return
        name = self.name(t)
        self.terms[t.uid] = t
        self.w(ind, f"if {name} is _M:")
        if not self.profile or self.calls(t, part):
            # A called evaluator times itself.
            self.node(t, ind + 1, part)
            return
        self.ns[f"_t{t.uid}"] = t
        clock = f"_c{t.uid}"
        self.w(ind + 1, "_pb()")
        self.w(ind + 1, f"{clock} = _pc()")
        self.w(ind + 1, "try:")
        self.node(t, ind + 2)
        self.w(ind + 1, "except BaseException:")
        self.w(ind + 2, f"_pa(_pc() - {clock})")
        self.w(ind + 2, "raise")
        self.w(ind + 1, f"_pe(_t{t.uid}, _pc() - {clock}, {name})")

    def node(self, t: Term, ind: int, part: bool = False) -> None:
        name = self.name(t)
        op = t.op
        if t.intern_root and t is not self.inline:
            # Per-skeleton store first; a miss (or a falsy empty-set
            # mask) takes the executor's fetch, which fills the store.
            # Values are otherwise truthy: row tuples are never empty.
            self.ns[f"_t{t.uid}"] = t
            store = "_TS" if t.txn else "_SC"
            self.w(
                ind, f"{name} = {store}.get({t.skey!r}) or _s(st, _t{t.uid})"
            )
        elif self.calls(t, part):
            # One shared evaluator per term, memoised in the execution's
            # node memo: every plan checking the execution computes the
            # node once, and its code is emitted once, not at every
            # demand site.
            self.ns[f"_d{t.uid}"] = _node_function(t, self.ns, self.profile)
            memo = self.memo(t)
            if not self.profile:
                self.w(ind, f"{name} = {memo}.get({t.uid}) or _d{t.uid}(st)")
                return
            self.ns[f"_t{t.uid}"] = t
            self.w(ind, f"{name} = {memo}.get({t.uid}, _M)")
            self.w(ind, f"if {name} is _M:")
            self.w(ind + 1, f"{name} = _d{t.uid}(st)")
            self.w(ind, "else:")
            self.w(ind + 1, f"_ph(_t{t.uid})")
        elif op == "base":
            # Leaf rows are read in place; a static leaf not built yet
            # for this skeleton takes the executor's path, which builds
            # it.
            leaf = t.args[0]
            if leaf == "id":
                fast = "st.id_rows"
            elif leaf in ("rf", "co"):
                fast = f"st.{leaf}"
            else:
                fast = f"{'_TR' if t.txn else '_L'}.get({leaf!r})"
            self.w(ind, f"{name} = {fast} or _b(st, {leaf!r})")
        elif op == "set":
            self.w(ind, f"{name} = _m(st, {t.args[0]!r})")
        elif op == "fix":
            group = t.group
            self.ns[f"_g{group.uid}"] = _group_function(
                group, self.ns, self.profile
            )
            self.w(ind, f"{name} = _g{group.uid}(st)[{t.args[1]}]")
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
            self.w(ind, f"{name} = _clo({self.name(t.args[0])})")
        elif op == "star":
            self.ensure(t.args[0], ind)
            self.w(ind, f"{name} = _rtc({self.name(t.args[0])})")
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
        else:  # pragma: no cover - a "var" outside its fix iteration
            raise AssertionError(f"cannot emit op {op!r}")

    def union(self, t: Term, ind: int) -> None:
        name = self.name(t)
        for child in t.args:
            self.ensure(child, ind, _free_part(t, child))
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


#: A constraint kind → its verdict over the root rows ``{}``.
_VERDICTS = {
    "acyclic": "_acy({})",
    "irreflexive": "not _refl({})",
    "empty": "not any({})",
}


def build(plan: Plan, helpers: dict, profile: bool = False):
    """Compile ``plan`` into ``runner(st, full) -> bool``.

    ``helpers`` supplies the executor's primitives (leaf fetchers, row
    kernels, counters, profiler hooks).  The runner decides constraints
    in scheduled order, skipping any whose verdict the execution's
    verdict memo already holds and recording the rest there (in the
    memo half :meth:`_Emitter.memo` picks for the constraint's term); it
    returns ``False`` at the first failure unless ``full`` asks it to
    decide every constraint.
    """
    ns = dict(helpers)
    em = _Emitter(ns, profile=profile)
    scheduled = plan.scheduled
    ind = 2 if profile else 1
    em.w(1, "holds = True")
    for position, constraint in enumerate(scheduled):
        vk = f"_vk{position}"
        ns[vk] = constraint.vkey
        em.w(1, f"# {constraint.kind} {constraint.name}")
        if profile:
            timer = f"ir.constraint.{plan.name}.{constraint.name}"
            em.w(
                1,
                f"with _pcon({plan.name!r}, {constraint.name!r}),"
                f" _tm({timer!r}).time():",
            )
        memo = em.memo(constraint.term)
        em.w(ind, f"ok = {memo}.get({vk})")
        em.w(ind, "if ok is None:")
        em.ensure(constraint.term, ind + 1)
        verdict = _VERDICTS[constraint.kind].format(em.name(constraint.term))
        em.w(ind + 1, f"ok = {memo}[{vk}] = {verdict}")
        em.w(1, "if not ok:")
        if position + 1 < len(scheduled):
            em.w(2, "if not full:")
            em.w(3, "_sc.inc()")
            em.w(3, "return False")
            em.w(2, "holds = False")
        else:
            em.w(2, "return False")
    return _function(
        em, ["    return holds"], f"<ir-runner {plan.name}>", "st, full"
    )


def _outlined(t: Term) -> bool:
    """Whether ``t`` gets its own evaluator: the derived communication
    relations, and any closed node whose inline code would be large (it
    would be repeated at every demand site)."""
    if t.has_var:
        return False
    if derived_name(t) is not None:
        return True
    return t.op not in _INLINE_OPS and _inline_size(t) >= _OUTLINE_MIN


def _free_part(parent: Term, child: Term) -> bool:
    """Whether ``child`` is the free part a transactional union hoisted
    (a dynamic, var-free composite reading no transaction relation),
    which gets its own evaluator: every transaction layout of one rf/co
    choice then reads its one value from the shared memo.  A var-bearing
    child is never memoised: that would keep one Kleene iterate."""
    return (
        parent.op == "union"
        and parent.txn
        and not (child.txn or child.static or child.has_var)
        and child.op not in _INLINE_OPS
    )


def _inline_size(t: Term) -> int:
    """Nodes emitted inline for ``t`` (calls count as one)."""
    size = _SIZES.get(t.uid)
    if size is None:
        size = 1
        if not (t.intern_root or t.op in _INLINE_OPS):
            for child in t.args:
                if isinstance(child, Term):
                    called = _outlined(child) or _free_part(t, child)
                    size += 1 if called else _inline_size(child)
        _SIZES[t.uid] = size
    return size


def _node_function(t: Term, helpers: dict, profile: bool = False):
    """Compile ``t`` into ``evaluate(st) -> value``, which computes the
    term from its children and stores it in the execution's node memo
    under its uid."""
    key = (t.uid, profile)
    fn = _NODES.get(key)
    if fn is None:
        em = _Emitter(dict(helpers), inline=t, profile=profile)
        em.ensure(t, 1)
        tail = [
            f"    {em.memo(t)}[{t.uid}] = v{t.uid}",
            f"    return v{t.uid}",
        ]
        fn = _NODES[key] = _function(em, tail, f"<ir-node {t.uid}>")
    return fn


def _group_function(group: FixGroup, helpers: dict, profile: bool):
    """Compile a fix group into ``values(st) -> tuple``: its input
    values, then its least fixpoint, interned across executions on
    ``("irfix", uid, n, *inputs)`` and memoised per execution."""
    key = (group.uid, profile)
    fn = _GROUPS.get(key)
    if fn is None:
        ns = dict(helpers)
        ns["_it"] = _iteration_function(group, helpers, profile)
        em = _Emitter(ns, profile=profile)
        gkey = ("g", group.uid)
        memo = em.memo(group.fixes[0])
        em.w(1, f"r = {memo}.get({gkey!r})")
        em.w(1, "if r is None:")
        for t in group.inputs:
            em.ensure(t, 2)
        args = "".join(f", {em.name(t)}" for t in group.inputs)
        em.w(
            2,
            f"r = {memo}[{gkey!r}] = _gi(('irfix', {group.uid}, _N{args}),"
            f" lambda: _it(st{args}))",
        )
        fn = _GROUPS[key] = _function(
            em, ["    return r"], f"<ir-fix {group.uid}>"
        )
    return fn


def _iteration_function(group: FixGroup, helpers: dict, profile: bool):
    """Compile a fix group's Kleene iteration into ``iterate(st,
    *inputs) -> tuple``: every body is evaluated against the current
    iterate (a Jacobi step, as the cat evaluator's ``let rec`` loop
    does) until nothing changes.  Variable-containing nodes are reset
    each round; everything else is computed at most once per call."""
    variables: dict[int, Term] = {}
    stack = list(group.bodies)
    while stack:
        t = stack.pop()
        if t.op == "var":
            variables[t.uid] = t
        elif t.has_var:
            stack.extend(a for a in t.args if isinstance(a, Term))
    inputs = [t.uid for t in group.inputs]
    em = _Emitter(
        dict(helpers), profile=profile, bound=frozenset([*inputs, *variables])
    )
    bottoms = "".join(
        "_Z, " if kind == "rel" else "0, " for kind in group.kinds
    )
    em.w(1, f"cur = ({bottoms})")
    em.w(1, "while True:")
    for uid, t in sorted(variables.items()):
        em.w(2, f"v{uid} = cur[{t.args[0]}]")
    start = len(em.lines)
    for body in group.bodies:
        em.ensure(body, 2)
    em.lines[start:start] = [
        f"        v{uid} = _M"
        for uid, t in sorted(em.terms.items())
        if t.has_var
    ]
    nxt = "".join(f"{em.name(body)}, " for body in group.bodies)
    em.w(2, f"nxt = ({nxt})")
    em.w(2, "if nxt == cur:")
    em.w(3, "return cur")
    em.w(2, "cur = nxt")
    params = "st" + "".join(f", v{uid}" for uid in inputs)
    return _function(em, [], f"<ir-fix-iteration {group.uid}>", params)


def _function(
    em: _Emitter, tail: list[str], filename: str, params: str = "st"
):
    body = "\n".join(em.lines + tail)
    preamble = [f"def _fn({params}):"]
    # Bind only the locals the body reads (the calls are per candidate;
    # a substring hit on a longer name merely binds an unused local).
    for local, value in _LOCALS:
        if local in body:
            preamble.append(f"    {local} = {value}")
    for uid in sorted(em.terms):
        preamble.append(f"    v{uid} = _M")
    source = "\n".join(preamble + [body])
    exec(compile(source, filename, "exec"), em.ns)
    fn = em.ns["_fn"]
    fn.__ir_source__ = source  # introspection for tests/debugging
    return fn
