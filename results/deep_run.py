"""Deep reproduction run: collects paper-scale numbers for EXPERIMENTS.md.

Writes incremental results to results/deep_run.txt so partial progress
survives interruption.  Expected total runtime: ~50 minutes single-core.
"""
import json, time, sys

OUT = open("/root/repo/results/deep_run.txt", "a")
def log(msg):
    print(msg)
    OUT.write(msg + "\n")
    OUT.flush()

log(f"=== deep run started {time.strftime('%Y-%m-%d %H:%M:%S')} ===")

from repro.enumeration import synthesise
from repro.harness import run_rtl_bug
from repro.harness.figure7 import run_figure7
from repro.harness.table1 import run_table1
from repro.metatheory import check_monotonicity, check_compilation, check_lock_elision

# ---- 1. x86 synthesis at 4 events + validation ----
t0 = time.time()
syn_x86 = synthesise("x86", 4)
log(f"[x86 synth |E|<=4] forbid={len(syn_x86.forbidden)} "
    f"by_size={{ {', '.join(f'{k}: {len(v)}' for k,v in sorted(syn_x86.forbidden_by_size().items()))} }} "
    f"allow={len(syn_x86.allowed)} "
    f"allow_by_size={{ {', '.join(f'{k}: {len(v)}' for k,v in sorted(syn_x86.allowed_by_size().items()))} }} "
    f"candidates={syn_x86.candidates_examined} elapsed={syn_x86.elapsed:.1f}s "
    f"txn_hist={syn_x86.transaction_histogram()}")
tbl = run_table1("x86", 4, synthesis=syn_x86)
log("[x86 table1 |E|<=4]\n" + tbl.render())
fig7 = run_figure7("x86", 4, synthesis=syn_x86)
log("[x86 figure7 |E|<=4]\n" + fig7.render())
log(f"[x86 figure7] t50={fig7.time_to_fraction(0.5):.2f}s t98={fig7.time_to_fraction(0.98):.2f}s total={fig7.elapsed:.1f}s")

# ---- 2. armv8 synthesis at 3 events + rtl bug ----
syn_arm = synthesise("armv8", 3)
log(f"[armv8 synth |E|<=3] forbid={len(syn_arm.forbidden)} "
    f"by_size={{ {', '.join(f'{k}: {len(v)}' for k,v in sorted(syn_arm.forbidden_by_size().items()))} }} "
    f"allow={len(syn_arm.allowed)} candidates={syn_arm.candidates_examined} "
    f"elapsed={syn_arm.elapsed:.1f}s txn_hist={syn_arm.transaction_histogram()}")
rtl = run_rtl_bug(max_events=3)
log("[rtl-bug]\n" + rtl.render())

# ---- 3. monotonicity ----
for target, bound, budget in [("power", 2, None), ("armv8", 2, None),
                               ("x86", 4, 1800), ("cpp", 3, 1800)]:
    r = check_monotonicity(target, bound, time_budget=budget)
    note = ""
    if r.counterexample:
        x, c = r.counterexample
        note = f" cex='{c.description}' |E|={len(x)}"
    log(f"[mono {target} |E|<={bound}] holds={r.holds} checked={r.executions_checked} "
        f"elapsed={r.elapsed:.1f}s complete={r.complete}{note}")

# ---- 4. compilation ----
for target in ("x86", "power", "armv8"):
    r = check_compilation(target, 3, time_budget=1800)
    log(f"[compile C++->{target} |E|<=3] sound={r.sound} checked={r.executions_checked} "
        f"elapsed={r.elapsed:.1f}s complete={r.complete}")

# ---- 5. lock elision ----
for arch in ("x86", "power", "armv8", "armv8-fixed"):
    r = check_lock_elision(arch)
    note = ""
    if r.counterexample:
        ce = r.counterexample
        note = (f" cex bodies={'+'.join(op.kind for op in ce.body0)}"
                f"||{'+'.join(op.kind for op in ce.body1)} regs={ce.registers} mem={ce.memory}")
    log(f"[elision {arch}] sound={r.sound} outcomes={r.outcomes_checked} "
        f"elapsed={r.elapsed:.1f}s{note}")

# ---- 6. power synthesis at 4 events + validation (the long one) ----
syn_pwr = synthesise("power", 4)
log(f"[power synth |E|<=4] forbid={len(syn_pwr.forbidden)} "
    f"by_size={{ {', '.join(f'{k}: {len(v)}' for k,v in sorted(syn_pwr.forbidden_by_size().items()))} }} "
    f"allow={len(syn_pwr.allowed)} "
    f"allow_by_size={{ {', '.join(f'{k}: {len(v)}' for k,v in sorted(syn_pwr.allowed_by_size().items()))} }} "
    f"candidates={syn_pwr.candidates_examined} elapsed={syn_pwr.elapsed:.1f}s "
    f"txn_hist={syn_pwr.transaction_histogram()}")
fig7p = run_figure7("power", 4, synthesis=syn_pwr)
log(f"[power figure7] t50={fig7p.time_to_fraction(0.5):.2f}s t98={fig7p.time_to_fraction(0.98):.2f}s total={fig7p.elapsed:.1f}s")
tblp = run_table1("power", 4, synthesis=syn_pwr)
log("[power table1 |E|<=4]\n" + tblp.render())

log(f"=== deep run finished {time.strftime('%Y-%m-%d %H:%M:%S')} ===")
