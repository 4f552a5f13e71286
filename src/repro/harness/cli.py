"""Command-line driver: regenerate any of the paper's artifacts.

Usage::

    repro-harness table1 --arch x86 --events 4
    repro-harness table1 --arch power --events 4 --workers 4 \\
        --cache results/table1-power --stats
    repro-harness table2
    repro-harness figure7 --arch x86 --events 4
    repro-harness rtl-bug
    repro-harness figures
    repro-harness fuzz --arch x86 --seed 7 --budget 200
    repro-harness stats results/metrics-table1.json

The long-running drivers (``table1``, ``table2``, ``figure7``,
``ablation``) and ``fuzz`` share one flag vocabulary (argparse parents
for the pipeline and observability groups): ``--workers``
(multiprocessing fan-out), ``--stats [PATH]`` (dump the merged
observability metrics as JSON, by default next to ``results/``),
``--trace [PATH]`` (Chrome trace-event JSON over the merged span
forest, loadable in Perfetto, one lane per worker pid), and
``--profile [PATH]`` (per-IR-plan-node cost attribution: hot-node
table + planner-calibration report on stderr, samples as JSON;
``--profile-dot PREFIX`` additionally writes one annotated Graphviz
file per profiled model).  The drivers also take ``--cache``
(cross-run store directory, default ``REPRO_CACHE`` -- a killed run
restarted on the same directory resumes instead of recomputing, and a
rerun of the same code replays every finished chunk and job from disk;
any source edit misses); ``fuzz`` runs no synthesis and takes no store.
The ``stats`` subcommand pretty-prints a stats dump.
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def _observability_parent() -> argparse.ArgumentParser:
    """The shared ``--stats/--trace/--profile`` flags, as an argparse
    *parent* so every long-running subcommand spells them identically."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "--stats",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help=(
            "write merged metrics JSON after the run "
            "(default FILE: results/metrics-<command>.json)"
        ),
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help=(
            "write a Chrome trace-event JSON (Perfetto-loadable) after "
            "the run (default FILE: results/trace-<command>.json)"
        ),
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help=(
            "enable the per-IR-plan-node profiler; prints the hot-node "
            "table and calibration report, writes samples as JSON "
            "(default FILE: results/profile-<command>.json)"
        ),
    )
    parser.add_argument(
        "--profile-dot",
        default=None,
        metavar="PREFIX",
        help=(
            "with --profile: write Graphviz plan DAGs annotated with "
            "observed cost, one <PREFIX>-<model>.dot per profiled model"
        ),
    )
    return parser


def _workers_parent() -> argparse.ArgumentParser:
    """The ``--workers`` fan-out flag (``fuzz`` takes only this one)."""
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: REPRO_WORKERS or 1)",
    )
    return parser


def _pipeline_parent() -> argparse.ArgumentParser:
    """The drivers' ``--workers/--cache`` pipeline flags."""
    parser = argparse.ArgumentParser(
        add_help=False, parents=[_workers_parent()]
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help=(
            "cross-run store directory (default: REPRO_CACHE); a killed "
            "run resumes from it, a rerun of the same code replays it"
        ),
    )
    return parser


def _apply_profile(args: argparse.Namespace) -> None:
    """Turn the profiler on before the run when ``--profile`` was given.

    Also exports ``REPRO_PROFILE=1`` so pool workers (whose init resets
    observability state back to the environment's defaults) come up
    profiling too, under both fork and spawn start methods.
    """
    if getattr(args, "profile", None) is None:
        return
    os.environ["REPRO_PROFILE"] = "1"
    from ..obs import PROFILER

    PROFILER.enable()


def _write_stats(args: argparse.Namespace) -> None:
    if getattr(args, "stats", None) is None:
        return
    from ..obs import write_stats

    path = args.stats or f"results/metrics-{args.command}.json"
    write_stats(path)
    print(f"metrics written to {path}", file=sys.stderr)


def _write_trace(args: argparse.Namespace) -> None:
    if getattr(args, "trace", None) is None:
        return
    from ..obs import write_chrome_trace

    path = args.trace or f"results/trace-{args.command}.json"
    write_chrome_trace(path)
    print(f"trace written to {path} (open in ui.perfetto.dev)", file=sys.stderr)


def _write_profile(args: argparse.Namespace) -> None:
    if getattr(args, "profile", None) is None:
        return
    from pathlib import Path

    from ..obs import PROFILER

    print(PROFILER.hot_table(20), file=sys.stderr)
    print(PROFILER.calibration_report(), file=sys.stderr)
    path = Path(args.profile or f"results/profile-{args.command}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(PROFILER.snapshot(), indent=2) + "\n")
    print(f"profile written to {path}", file=sys.stderr)
    prefix = getattr(args, "profile_dot", None)
    if prefix:
        from .pipeline import model_for

        for name in sorted(PROFILER.snapshot()["plans"]):
            try:
                plan = model_for(name).plan()
            except Exception:
                continue
            dot_path = Path(f"{prefix}-{name}.dot")
            dot_path.parent.mkdir(parents=True, exist_ok=True)
            dot_path.write_text(PROFILER.dot(plan) + "\n")
            print(f"plan DAG written to {dot_path}", file=sys.stderr)


def _write_run_outputs(args: argparse.Namespace) -> None:
    """All post-run observability artifacts (--stats/--trace/--profile)."""
    _write_stats(args)
    _write_trace(args)
    _write_profile(args)


#: Span children rendered per node before eliding (big fan-out batches
#: would otherwise swamp the digest with thousands of per-job lines).
_MAX_SPAN_CHILDREN = 12


def _render_span(span: dict, parent_elapsed: float | None, depth: int, lines: list) -> None:
    elapsed = span.get("elapsed", 0.0)
    try:
        elapsed = float(elapsed)
    except (TypeError, ValueError):
        elapsed = 0.0
    share = ""
    if parent_elapsed:
        share = f" ({100 * elapsed / parent_elapsed:5.1f}% of parent)"
    tags = span.get("tags") or {}
    tag_text = "".join(f" {k}={tags[k]}" for k in sorted(tags))
    lines.append(
        f"  {'  ' * depth}{span.get('name', '?')} "
        f"{elapsed:9.3f}s{share}{tag_text}"
    )
    children = span.get("children") or []
    for child in children[:_MAX_SPAN_CHILDREN]:
        _render_span(child, elapsed, depth + 1, lines)
    hidden = children[_MAX_SPAN_CHILDREN:]
    if hidden:
        hidden_s = sum(
            child.get("elapsed", 0.0)
            for child in hidden
            if isinstance(child.get("elapsed", 0.0), (int, float))
        )
        lines.append(
            f"  {'  ' * (depth + 1)}... ({len(hidden)} more children, "
            f"{hidden_s:.3f}s)"
        )


#: Top-level dump keys with a dedicated rendering section below; any
#: other key is rendered generically instead of silently dropped.
_KNOWN_DUMP_KEYS = frozenset(
    (
        "hit_rates",
        "timers",
        "histograms",
        "counters",
        "gauges",
        "uniques",
        "spans",
        "profile",
    )
)


def _render_shard_summary(counters: dict, timers: dict, lines: list) -> None:
    """One line per synthesis shard, folded from the
    ``synthesis.shard.<target>.b<n>.<label>.<field>`` counters."""
    shards: dict[str, dict] = {}
    for name, value in counters.items():
        if not name.startswith("synthesis.shard."):
            continue
        base, _, field = name.rpartition(".")
        shards.setdefault(base, {})[field] = value
    if not shards:
        return
    lines.append("synthesis shards:")
    for base in sorted(shards):
        fields = shards[base]
        timer = timers.get(f"{base}.seconds")
        seconds = ""
        if isinstance(timer, dict):
            try:
                seconds = f" {float(timer['total']):8.3f}s"
            except (KeyError, TypeError, ValueError):
                pass
        lines.append(
            f"  {base.removeprefix('synthesis.shard.'):<32} "
            f"completions={fields.get('completions', 0):<8} "
            f"survivors={fields.get('survivors', 0):<5} "
            f"chunks={fields.get('chunks', 0):<4} "
            f"steals={fields.get('steals', 0):<4}{seconds}"
        )


def _render_stats_dump(dump: dict) -> str:
    """A human-oriented digest of a ``--stats`` JSON dump.

    Tolerates malformed records (hand-edited dumps, older versions):
    a timer/histogram entry that is not a dict, or is missing
    ``count``/``total``, is flagged as partial instead of crashing the
    renderer.  Unrecognised top-level keys (dumps from newer versions)
    are rendered generically rather than silently omitted.
    """
    lines = ["cache hit rates:"]
    hit_rates = dump.get("hit_rates", {})
    if any(rate is not None for rate in hit_rates.values()):
        for name in sorted(hit_rates):
            rate = hit_rates[name]
            if rate is not None:
                lines.append(f"  {name:<28} {100 * rate:6.2f}%")
    else:
        lines.append("  (none recorded)")
    timers = dump.get("timers", {})
    if timers:
        lines.append("timings:")
        for name in sorted(timers):
            t = timers[name]
            try:
                count = int(t["count"])
                total = float(t["total"])
                maximum = float(t.get("max", 0.0))
            except (TypeError, KeyError, ValueError):
                lines.append(f"  {name:<36} (partial record: {t!r})")
                continue
            mean = total / count if count else 0.0
            lines.append(
                f"  {name:<36} n={count:<8} total={total:9.3f}s "
                f"mean={mean:.6f}s max={maximum:.6f}s"
            )
    histograms = dump.get("histograms", {})
    if histograms:
        lines.append("latency histograms:")
        for name in sorted(histograms):
            h = histograms[name]
            try:
                count = int(h["count"])
                p50 = float(h.get("p50", 0.0))
                p90 = float(h.get("p90", 0.0))
                p99 = float(h.get("p99", 0.0))
                maximum = float(h.get("max", 0.0))
            except (TypeError, KeyError, ValueError):
                lines.append(f"  {name:<36} (partial record: {h!r})")
                continue
            lines.append(
                f"  {name:<36} n={count:<8} p50={p50:.6f}s "
                f"p90={p90:.6f}s p99={p99:.6f}s max={maximum:.6f}s"
            )
    counters = dump.get("counters", {})
    _render_shard_summary(
        counters if isinstance(counters, dict) else {},
        timers if isinstance(timers, dict) else {},
        lines,
    )
    if counters:
        plain = {
            name: value
            for name, value in counters.items()
            if not name.startswith("synthesis.shard.")
        }
        if plain:
            lines.append("counters:")
            for name in sorted(plain):
                lines.append(f"  {name:<36} {plain[name]}")
    gauges = dump.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:<36} {gauges[name]}")
    uniques = dump.get("uniques", {})
    if uniques:
        lines.append("distinct keys:")
        for name in sorted(uniques):
            lines.append(f"  {name:<36} {uniques[name]}")
    spans = dump.get("spans") or []
    if spans:
        lines.append("spans:")
        for root in spans:
            if isinstance(root, dict):
                _render_span(root, None, 0, lines)
    profile = dump.get("profile") or {}
    nodes = profile.get("nodes") or []
    if nodes:
        lines.append("hot plan nodes (self time):")
        for n in nodes[:10]:
            lines.append(
                f"  {n.get('self_seconds', 0.0):9.4f}s "
                f"{n.get('label', '?'):<20} "
                f"[{n.get('model', '?')}/{n.get('constraint', '?')}] "
                f"evals={n.get('count', 0)} hits={n.get('hits', 0)}"
            )
    unknown = sorted(set(dump) - _KNOWN_DUMP_KEYS)
    for key in unknown:
        rendered = json.dumps(dump[key], sort_keys=True, default=str)
        if len(rendered) > 200:
            rendered = rendered[:200] + "..."
        lines.append(f"{key}: {rendered}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-harness",
        description=(
            "Regenerate the tables and figures of 'The Semantics of "
            "Transactions and Weak Memory in x86, Power, ARM, and C++' "
            "(PLDI 2018)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pipeline_parent = _pipeline_parent()
    obs_parent = _observability_parent()
    shared = [pipeline_parent, obs_parent]

    p_t1 = sub.add_parser(
        "table1", help="synthesis + hardware validation", parents=shared
    )
    p_t1.add_argument("--arch", default="x86", choices=("x86", "power", "armv8"))
    p_t1.add_argument("--events", type=int, default=4)

    sub.add_parser("table2", help="metatheory summary", parents=shared)

    p_f7 = sub.add_parser(
        "figure7", help="discovery-time distribution", parents=shared
    )
    p_f7.add_argument("--arch", default="x86", choices=("x86", "power", "armv8"))
    p_f7.add_argument("--events", type=int, default=4)

    sub.add_parser("rtl-bug", help="the §6.2 buggy-RTL detection story")
    sub.add_parser("figures", help="verdicts for every paper figure")

    p_ab = sub.add_parser(
        "ablation", help="per-axiom Forbid attribution", parents=shared
    )
    p_ab.add_argument("--arch", default="x86", choices=("x86", "power", "armv8"))
    p_ab.add_argument("--events", type=int, default=3)

    p_ex = sub.add_parser("export", help="write Forbid/Allow suites to disk")
    p_ex.add_argument("--arch", default="x86", choices=("x86", "power", "armv8"))
    p_ex.add_argument("--events", type=int, default=3)
    p_ex.add_argument("--out", default="suites")

    p_fz = sub.add_parser(
        "fuzz",
        help="differential conformance fuzzing across verdict paths",
        parents=[_workers_parent(), obs_parent],
    )
    p_fz.add_argument(
        "--arch",
        default="x86",
        choices=("x86", "power", "armv8", "cpp", "sc"),
        help="architecture whose event vocabulary drives generation",
    )
    p_fz.add_argument(
        "--seed",
        type=int,
        default=None,
        help="campaign seed (default: REPRO_SEED or 0)",
    )
    p_fz.add_argument(
        "--budget", type=int, default=200, help="number of cases to evaluate"
    )
    p_fz.add_argument(
        "--max-events", type=int, default=7, help="largest generated execution"
    )
    p_fz.add_argument(
        "--mode",
        default="all",
        choices=("all", "diff", "meta"),
        help="oracle matrix only (diff), metamorphic only (meta), or both",
    )
    p_fz.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="delta-debug each disagreement to a minimal witness",
    )
    p_fz.add_argument(
        "--corpus",
        default="results/fuzz-corpus.jsonl",
        metavar="FILE",
        help="JSONL witness corpus ('' disables writing)",
    )
    p_fz.add_argument(
        "--seed-corpus",
        default=None,
        metavar="FILE",
        help="existing corpus whose executions seed the mutation pool",
    )
    p_fz.add_argument(
        "--replay",
        default=None,
        metavar="DIGEST",
        help="re-evaluate one corpus witness by digest prefix and exit",
    )

    p_st = sub.add_parser("stats", help="pretty-print a --stats JSON dump")
    p_st.add_argument("path", help="metrics JSON written by --stats")

    args = parser.parse_args(argv)
    _apply_profile(args)

    if args.command in ("table1", "table2", "figure7", "ablation"):
        from .. import api

        print(
            api.run_table(
                args.command,
                arch=getattr(args, "arch", "x86"),
                bound=getattr(args, "events", None),
                workers=args.workers,
                cache=args.cache,
            ).render()
        )
        _write_run_outputs(args)
    elif args.command == "rtl-bug":
        from .rtl_bug import run_rtl_bug

        print(run_rtl_bug().render())
    elif args.command == "figures":
        from .figures import run_figures

        print(run_figures().render())
    elif args.command == "export":
        from .. import api
        from .export import export_suite

        synthesis = api.synthesize(args.arch, args.events)
        manifest = export_suite(synthesis, args.out)
        print(
            f"exported {len(manifest['forbid'])} forbid + "
            f"{len(manifest['allow'])} allow tests to {args.out}/"
        )
    elif args.command == "fuzz":
        from ..fuzz import FuzzConfig, replay, run_fuzz

        corpus = args.corpus or None
        if args.replay:
            if corpus is None:
                parser.error("--replay needs --corpus")
            record, findings = replay(corpus, args.replay)
            if record is None:
                print(f"no corpus record matches {args.replay!r}")
                return 1
            print(
                f"witness {record['digest'][:12]} "
                f"[{record['kind']}] {record['model']}:"
            )
            if record.get("litmus"):
                print(record["litmus"])
            if findings:
                print(f"still disagrees ({len(findings)} finding(s)):")
                for finding in findings:
                    print(f"  [{finding['kind']}] {finding['model']}")
                return 1
            print("no longer disagrees (fixed since recording)")
            return 0
        report = run_fuzz(
            FuzzConfig(
                arch=args.arch,
                seed=args.seed,
                budget=args.budget,
                max_events=args.max_events,
                shrink=args.shrink,
                corpus=corpus,
                workers=args.workers,
                mode=args.mode,
                seed_corpus=args.seed_corpus,
            )
        )
        print(report.render())
        _write_run_outputs(args)
        return 0 if report.clean else 1
    elif args.command == "stats":
        with open(args.path, encoding="utf-8") as handle:
            dump = json.load(handle)
        print(_render_stats_dump(dump))
    return 0


if __name__ == "__main__":
    sys.exit(main())
