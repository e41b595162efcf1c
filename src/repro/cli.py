"""Command-line interface: ``python -m repro <command>``.

Gives downstream users the paper's pipeline without writing Python:

* ``profile``    — MSA-profile one workload, print its miss-ratio curve.
* ``partition``  — run the Bank-aware (or Unrestricted) assignment on a mix.
* ``simulate``   — detailed simulation of a mix under any registered
  partitioning policy (``--scheme``; see :mod:`repro.partitioning.registry`).
* ``compare``    — several schemes on one mix (the paper's three by
  default, any registered policies via ``--scheme``), relative metrics.
* ``montecarlo`` — analytic sweep over random mixes on any ``--jobs``;
  fail-fast, checkpointed, and bit-identical after ``--resume``.
* ``report``     — digest a telemetry trace (JSONL from ``--trace``).
* ``stats``      — aggregate the per-epoch time series of a stored run
  or trace (min/max/mean/p50/p95 per column; text, JSON or CSV).
* ``runs``       — query the run store populated by ``--store`` runs
  (``list`` with provenance filters, ``show`` one manifest; ``--json``).
* ``diff``       — first-divergence comparison of two traces/stored runs.
* ``suite``      — list the 26 SPEC-like workload models.
* ``machine``    — print the (scaled) Table I machine description.
* ``lint``       — run the repository's domain-aware static analysis.

Examples::

    python -m repro profile bzip2 --ways 8,16,32,45
    python -m repro partition crafty gap mcf art equake equake bzip2 equake
    python -m repro compare --set 2 --duration 4000000 --jobs 3
    python -m repro compare --set 2 --scheme bank-bw --scheme joint
    python -m repro simulate --set 1 --sanitize --trace trace.jsonl --store
    python -m repro montecarlo --mixes 1000 --jobs 4 --checkpoint mc.json
    python -m repro montecarlo --mixes 200 --rank-policies
    python -m repro montecarlo --mixes 1000 --checkpoint mc.json --resume
    python -m repro report trace.jsonl --check --chrome trace.chrome.json
    python -m repro stats trace.jsonl --select core_miss_rate --format csv
    python -m repro runs list --scheme bank-aware --since 2026-08
    python -m repro diff serial.jsonl parallel.jsonl
    python -m repro lint src benchmarks examples --format json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.analysis import (
    collect_profiles,
    format_table,
    run_monte_carlo,
    table1_rows,
)
from repro.config import SystemConfig, scaled_config
from repro.lint import (
    lint_paths,
    load_config,
    render_json,
    render_rules,
    render_text,
)
from repro.obs import Tracer, check_trace, read_jsonl, write_jsonl
from repro.obs.analytics import (
    query_runs,
    render_digest_json,
    render_digest_text,
    render_runs_query_text,
    render_stats_csv,
    render_stats_json,
    render_stats_text,
    resolve_series,
    runs_query_rows,
    series_stats,
)
from repro.obs.chrome import write_chrome_trace
from repro.obs.diff import diff_traces, render_diff_json, render_diff_text
from repro.obs.store import (
    DEFAULT_STORE,
    RunStore,
    headline_from_comparison,
    headline_from_montecarlo,
    headline_from_result,
)
from repro.parallel import ProfileCache
from repro.partitioning import (
    analytic_policies,
    bank_aware_partition,
    policy_help,
    predicted_misses,
    registered_policies,
    unrestricted_partition,
)
from repro.profiling import load_curves, save_curves
from repro.resilience import ReproError
from repro.sim import (
    DETAILED_SCHEMES,
    SIM_BACKENDS,
    RunSettings,
    compare_schemes,
    run_mix,
)
from repro.workloads import ALL_NAMES, TABLE_III_SETS, Mix, get, suite


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _number(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number")


def _positive_float(text: str) -> float:
    value = _number(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {value}"
        )
    return value


def _non_negative_float(text: str) -> float:
    value = _number(text)
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(
            f"must be zero or positive and finite, got {value}"
        )
    return value


def _way_counts(text: str) -> list[int]:
    parts = text.split(",")
    if not all(part.strip().isdecimal() for part in parts):
        raise argparse.ArgumentTypeError(
            f"must be comma-separated way counts, each zero or positive, "
            f"got {text!r}"
        )
    return [int(part) for part in parts]


def _machine(args: argparse.Namespace) -> SystemConfig:
    return scaled_config(args.scale, epoch_cycles=args.epoch)


def _add_machine_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--scale", type=_positive_int, default=8,
        help="linear machine scale-down factor (1 = the full paper machine)",
    )
    p.add_argument(
        "--epoch", type=_positive_int, default=2_000_000,
        help="repartitioning epoch in cycles",
    )


def _add_jobs_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for independent work items (default: "
             "$REPRO_JOBS or 1 = serial; 0 = one per CPU); results are "
             "bit-identical for every value",
    )


def _profile_cache(args: argparse.Namespace) -> ProfileCache | None:
    value = getattr(args, "profile_cache", None)
    if value is None:
        return None
    return ProfileCache(value or None)


def _add_trace_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace", metavar="PATH",
        help="record a telemetry event stream (epoch decisions, guard "
             "actions, bank snapshots) to this JSONL file; inspect it "
             "with 'repro report PATH'",
    )


def _add_store_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--store", nargs="?", const=DEFAULT_STORE, metavar="DIR",
        help="archive this run (manifest with config fingerprint, git rev, "
             f"headline results, trace) under DIR (default {DEFAULT_STORE}); "
             "query with 'repro runs list|show'",
    )


def _store_run(args: argparse.Namespace, **archive_kwargs) -> None:
    """Archive one finished run when ``--store`` was given."""
    if not getattr(args, "store", None):
        return
    record = RunStore(args.store).archive(**archive_kwargs)
    print(f"stored run: {record.run_id} ({record.path})")


def _add_sanitize_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--sanitize", action="store_true",
        help="deep runtime invariant checking (LRU-stack uniqueness, way "
             "conservation, MSA mass, Rules 1-3 post-aggregation); "
             "violations abort the run with a SanitizerViolation",
    )


def _resolve_mix(args: argparse.Namespace, num_cores: int) -> Mix:
    if getattr(args, "set", None) is not None:
        if not 1 <= args.set <= len(TABLE_III_SETS):
            raise SystemExit(f"--set must be 1..{len(TABLE_III_SETS)}")
        return TABLE_III_SETS[args.set - 1]
    names = list(args.workloads)
    if not names:
        raise SystemExit(f"give {num_cores} workload names or --set N")
    unknown = [n for n in names if n not in ALL_NAMES]
    if unknown:
        raise SystemExit(f"unknown workloads {unknown}; see 'repro suite'")
    if len(names) != num_cores:
        raise SystemExit(f"need {num_cores} workloads, got {len(names)}")
    return Mix(tuple(names))


def _print_guard_events(events) -> None:
    if events:
        print(f"\nguard log ({len(events)} events):")
        for time, kind, detail, mode in events:
            print(f"  [{time:>12,.0f}] {kind:<8} ({mode}) {detail}")


def cmd_suite(_args: argparse.Namespace) -> int:
    rows = []
    for name, spec in suite().items():
        pools = " + ".join(
            f"{p.ways}w@{p.weight:g}" + (f"/z{p.zipf:g}" if p.zipf else "")
            for p in spec.pools
        )
        rows.append(
            (name, pools, f"{spec.stream_weight:g}", f"{spec.l2_apki:g}",
             f"{spec.mlp:g}")
        )
    print(
        format_table(
            ["workload", "reuse pools", "stream", "L2 APKI", "MLP"],
            rows,
            title="The 26 SPEC CPU2000-like workload models",
        )
    )
    return 0


def cmd_machine(args: argparse.Namespace) -> int:
    cfg = _machine(args)
    print(format_table(["Parameter", "Value"], table1_rows(cfg),
                       title=f"Machine (scale 1/{args.scale})"))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    cfg = _machine(args)
    for name in args.workloads:
        get(name)  # validate early
    curves = collect_profiles(tuple(args.workloads), cfg,
                              accesses=args.accesses, seed=args.seed)
    if args.save:
        save_curves(args.save, curves)
        print(f"saved {len(curves)} curves to {args.save}")
    rows = [
        [name] + [f"{curve.miss_ratio_at(w):.3f}" for w in args.ways]
        for name, curve in curves.items()
    ]
    print(format_table(["workload"] + [str(w) for w in args.ways], rows,
                       title="Projected miss ratio by dedicated ways (MSA)"))
    return 0


def cmd_partition(args: argparse.Namespace) -> int:
    cfg = _machine(args)
    mix = _resolve_mix(args, cfg.num_cores)
    if args.curves:
        curves_by_name = load_curves(args.curves)
        missing = set(mix.names) - set(curves_by_name)
        if missing:
            raise SystemExit(f"curve file lacks {sorted(missing)}")
    else:
        curves_by_name = collect_profiles(tuple(set(mix.names)), cfg,
                                          accesses=args.accesses, seed=args.seed)
    curves = [curves_by_name[n] for n in mix.names]
    decision = bank_aware_partition(
        curves,
        num_banks=cfg.l2.num_banks,
        bank_ways=cfg.l2.bank_ways,
        max_ways_per_core=cfg.max_ways_per_core,
    )
    rows = [
        (f"core{i}", name, decision.ways[i], decision.center_banks[i],
         str(decision.pair_of(i) or "-"))
        for i, name in enumerate(mix.names)
    ]
    print(format_table(
        ["core", "workload", "ways", "center banks", "pair"], rows,
        title="Bank-aware assignment",
    ))
    if args.unrestricted:
        ur = unrestricted_partition(curves, cfg.l2.total_ways)
        print(f"\nUnrestricted (UCP) assignment: {ur}")
        print(
            "predicted misses: bank-aware "
            f"{predicted_misses(curves, list(decision.ways)):,.0f} vs "
            f"unrestricted {predicted_misses(curves, ur):,.0f}"
        )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _machine(args)
    mix = _resolve_mix(args, cfg.num_cores)
    settings = RunSettings(duration_cycles=args.duration, seed=args.seed,
                           sanitize=args.sanitize,
                           trace=bool(args.trace),
                           sim_backend=args.sim_backend)
    result = run_mix(mix, args.scheme, cfg, settings)
    if args.trace:
        write_jsonl(args.trace, result.events)
        print(f"trace: {args.trace} ({len(result.events)} events)")
    _store_run(
        args,
        source="simulate",
        config=cfg,
        workloads=mix.names,
        settings={"scheme": args.scheme, "duration_cycles": args.duration,
                  "seed": args.seed, "scale": args.scale,
                  "epoch_cycles": args.epoch,
                  "sim_backend": args.sim_backend},
        headline=headline_from_result(result),
        trace_events=result.events if args.trace else None,
    )
    rows = [
        (c.core, c.workload, c.l2_accesses, f"{c.miss_rate:.3f}",
         f"{c.mpki:.2f}", f"{c.cpi:.3f}")
        for c in result.cores
    ]
    print(format_table(
        ["core", "workload", "L2 refs", "miss rate", "MPKI", "CPI"], rows,
        title=f"{args.scheme} on {mix}",
    ))
    print(f"\noverall miss rate {result.miss_rate:.3f}; "
          f"migrations {result.migrations:,}; epochs {len(result.epochs)}")
    if result.epochs:
        print(f"last allocation: {result.epochs[-1].ways}")
    _print_guard_events(result.guard_events)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    cfg = _machine(args)
    mix = _resolve_mix(args, cfg.num_cores)
    settings = RunSettings(duration_cycles=args.duration, seed=args.seed,
                           sanitize=args.sanitize,
                           trace=bool(args.trace),
                           sim_backend=args.sim_backend)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.emit_run_meta("compare", detail=str(mix))
    # relative metrics normalise against No-partitions, so the baseline
    # always joins an explicit --scheme list (deduplicated, order kept)
    schemes = (
        tuple(dict.fromkeys(["no-partitions", *args.schemes]))
        if args.schemes
        else DETAILED_SCHEMES
    )
    comp = compare_schemes(
        mix, cfg, settings, schemes, jobs=args.jobs, tracer=tracer
    )
    if tracer is not None:
        tracer.write_jsonl(args.trace)
        print(f"trace: {args.trace} ({len(tracer.events)} events)")
    rows = []
    for scheme in comp.results:
        rows.append(
            (scheme, f"{comp.relative_miss_rate(scheme):.3f}",
             f"{comp.relative_cpi(scheme):.3f}",
             comp.results[scheme].migrations)
        )
    print(format_table(
        ["scheme", "rel. misses/instr", "rel. CPI", "migrations"], rows,
        title=f"Scheme comparison on {mix}",
    ))
    for scheme, result in comp.results.items():
        if result.guard_events:
            print(f"\n[{scheme}]", end="")
            _print_guard_events(result.guard_events)
    _store_run(
        args,
        source="compare",
        config=cfg,
        workloads=mix.names,
        settings={"duration_cycles": args.duration, "seed": args.seed,
                  "scale": args.scale, "epoch_cycles": args.epoch,
                  "jobs": args.jobs, "sim_backend": args.sim_backend,
                  "schemes": list(schemes)},
        headline=headline_from_comparison(comp),
        trace_events=tracer.events if tracer is not None else None,
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    events = read_jsonl(args.trace)
    if args.check:
        problems = check_trace(events)
        if problems:
            for problem in problems:
                print(f"problem: {problem}", file=sys.stderr)
            return 1
        print(f"{args.trace}: {len(events)} events, schema OK")
    if args.chrome:
        write_chrome_trace(args.chrome, events)
        print(f"chrome trace: {args.chrome} (open in ui.perfetto.dev)")
    if not args.check:
        if args.format == "json":
            print(render_digest_json(events))
        else:
            print(render_digest_text(events))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    payload = resolve_series(args.source, RunStore(args.store))
    rows = series_stats(payload, select=args.select)
    if args.format == "json":
        print(render_stats_json(rows))
    elif args.format == "csv":
        print(render_stats_csv(rows))
    else:
        print(render_stats_text(
            rows, title=f"Per-epoch series stats: {args.source}"
        ))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list_rules:
        print(render_rules())
        return 0
    config = load_config(Path(args.config) if args.config else None)
    result = lint_paths(args.paths, config)
    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result))
    return result.exit_code


def cmd_montecarlo(args: argparse.Namespace) -> int:
    cfg = _machine(args)
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint PATH")
    policies = analytic_policies() if args.rank_policies else None
    tracer = Tracer() if args.trace else None
    result = run_monte_carlo(
        args.mixes,
        cfg,
        seed=args.seed,
        profile_accesses=args.accesses,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
        jobs=args.jobs,
        profile_cache=_profile_cache(args),
        tracer=tracer,
        policies=policies,
    )
    if tracer is not None:
        tracer.write_jsonl(args.trace)
        print(f"trace: {args.trace} ({len(tracer.events)} events)")
    print(format_table(
        ["metric", "value"],
        [
            ("mixes evaluated", f"{len(result.points)}"),
            ("mean relative misses, Unrestricted",
             f"{result.mean_unrestricted_ratio:.4f}"),
            ("mean relative misses, Bank-aware",
             f"{result.mean_bank_aware_ratio:.4f}"),
            ("restriction penalty",
             f"{result.restriction_penalty():.4f}"),
        ],
        title=f"Monte Carlo sweep ({args.mixes} random mixes, seed {args.seed})",
    ))
    ranking = result.policy_ranking()
    if ranking:
        print(format_table(
            ["policy", "mean relative misses vs equal"],
            [(name, f"{ratio:.4f}") for name, ratio in ranking],
            title="Policy ranking (best first)",
        ))
    if args.checkpoint:
        print(f"checkpoint: {args.checkpoint}")
    _store_run(
        args,
        source="montecarlo",
        config=cfg,
        settings={"mixes": args.mixes, "seed": args.seed,
                  "profile_accesses": args.accesses, "jobs": args.jobs,
                  "scale": args.scale, "epoch_cycles": args.epoch},
        headline=headline_from_montecarlo(result),
        trace_events=tracer.events if tracer is not None else None,
    )
    return 0


def cmd_runs(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    if args.action == "list":
        rows = runs_query_rows(query_runs(
            store.list(),
            source=args.source,
            scheme=args.scheme,
            workload=args.workload,
            fingerprint=args.fingerprint,
            since=args.since,
            until=args.until,
        ))
        if args.json:
            print(json.dumps(rows, indent=2, sort_keys=True))
        else:
            print(render_runs_query_text(rows))
        return 0
    # action == "show"
    if not args.run_id:
        raise SystemExit("'repro runs show' needs a run id (see 'runs list')")
    record = store.get(args.run_id)
    print(json.dumps(record.manifest, indent=2, sort_keys=True))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    path_a = store.resolve_trace(args.a)
    path_b = store.resolve_trace(args.b)
    report = diff_traces(
        read_jsonl(path_a),
        read_jsonl(path_b),
        rel_tol=args.rel_tol,
        abs_tol=args.abs_tol,
        a_label=args.a,
        b_label=args.b,
    )
    if args.format == "json":
        print(render_diff_json(report))
    else:
        print(render_diff_text(report))
    return report.exit_code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bank-aware dynamic cache partitioning (ICPP 2009) toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("suite", help="list the workload models")
    p.set_defaults(fn=cmd_suite)

    p = sub.add_parser("machine", help="print the machine description")
    _add_machine_args(p)
    p.set_defaults(fn=cmd_machine)

    p = sub.add_parser("profile", help="MSA-profile workloads")
    p.add_argument("workloads", nargs="+", choices=sorted(ALL_NAMES))
    p.add_argument("--ways", type=_way_counts, default="2,4,8,16,32,45,64",
                   help="comma-separated way counts to tabulate")
    p.add_argument("--accesses", type=_positive_int, default=80_000)
    p.add_argument("--seed", type=_positive_int, default=11)
    p.add_argument("--save", help="save the curves to an .npz for reuse")
    _add_machine_args(p)
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("partition", help="run the Bank-aware assignment")
    p.add_argument("workloads", nargs="*", default=[],
                   metavar="WORKLOAD", help="8 workload names (see 'suite')")
    p.add_argument("--set", type=int, help="use paper Table III set N (1-8)")
    p.add_argument("--accesses", type=_positive_int, default=80_000)
    p.add_argument("--seed", type=_positive_int, default=11)
    p.add_argument("--curves", help="load cached curves (.npz from 'profile --save')")
    p.add_argument("--unrestricted", action="store_true",
                   help="also show the Unrestricted (UCP) assignment")
    _add_machine_args(p)
    p.set_defaults(fn=cmd_partition)

    for name, fn in (("simulate", cmd_simulate), ("compare", cmd_compare)):
        p = sub.add_parser(name, help=f"{name} a mix on the DES simulator")
        p.add_argument("workloads", nargs="*", default=[],
                       metavar="WORKLOAD", help="8 workload names (see 'suite')")
        p.add_argument("--set", type=int, help="use paper Table III set N (1-8)")
        if name == "simulate":
            p.add_argument(
                "--scheme",
                default="bank-aware",
                choices=registered_policies(),
                help=f"partitioning policy ({policy_help()})",
            )
        else:
            p.add_argument(
                "--scheme",
                action="append",
                dest="schemes",
                choices=registered_policies(),
                metavar="SCHEME",
                help="compare these registered policies instead of the "
                     "paper's three (repeatable; the No-partitions "
                     f"baseline always runs; known: {policy_help()})",
            )
        p.add_argument("--duration", type=_positive_float, default=4_000_000)
        p.add_argument("--seed", type=_positive_int, default=7)
        p.add_argument(
            "--sim-backend",
            default="reference",
            choices=SIM_BACKENDS,
            help="execution engine: 'reference' (checked object-model event "
                 "loop) or 'batched' (struct-of-arrays engine, bit-identical "
                 "and several times faster)",
        )
        _add_sanitize_arg(p)
        _add_trace_arg(p)
        _add_store_arg(p)
        _add_machine_args(p)
        if name == "compare":
            _add_jobs_arg(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser(
        "montecarlo",
        help="analytic Monte Carlo sweep over random mixes (Fig. 7)",
    )
    p.add_argument("--mixes", type=_positive_int, default=100,
                   help="number of random mixes to evaluate")
    p.add_argument("--seed", type=_positive_int, default=2009)
    p.add_argument("--accesses", type=_positive_int, default=60_000,
                   help="profiling accesses per workload")
    p.add_argument("--checkpoint", metavar="PATH",
                   help="snapshot completed mixes to this JSON file")
    p.add_argument("--resume", action="store_true",
                   help="continue from an existing --checkpoint snapshot")
    p.add_argument("--profile-cache", nargs="?", const="", metavar="DIR",
                   help="memoize the per-workload miss curves on disk "
                        "(default dir: $REPRO_PROFILE_CACHE or "
                        "~/.cache/repro/profiles)")
    p.add_argument("--rank-policies", action="store_true",
                   help="additionally project every mix through each "
                        "analytically rankable registry policy "
                        f"({', '.join(analytic_policies())}) and print "
                        "their mean miss ratios vs. Equal")
    _add_trace_arg(p)
    _add_store_arg(p)
    _add_jobs_arg(p)
    _add_machine_args(p)
    p.set_defaults(fn=cmd_montecarlo)

    p = sub.add_parser(
        "report",
        help="digest a telemetry trace (JSONL written by --trace)",
    )
    p.add_argument("trace", metavar="TRACE",
                   help="JSONL trace file from a --trace run")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--check", action="store_true",
                   help="schema-validate the trace and exit (non-zero on "
                        "any violation)")
    p.add_argument("--chrome", metavar="PATH",
                   help="also export a Chrome/Perfetto trace JSON")
    p.set_defaults(fn=cmd_report)

    p = sub.add_parser(
        "stats",
        help="aggregate the per-epoch time series of a run or trace",
    )
    p.add_argument("source", metavar="RUN|TRACE",
                   help="stored run id, timeseries.json.gz sidecar, or "
                        "JSONL trace file")
    p.add_argument("--select", metavar="PATTERN",
                   help="only columns matching PATTERN (substring, or a "
                        "glob like 'core_miss_rate.*')")
    p.add_argument("--format", choices=("text", "json", "csv"),
                   default="text")
    p.add_argument("--store", default=DEFAULT_STORE, metavar="DIR",
                   help="run store used to resolve run ids "
                        f"(default: {DEFAULT_STORE})")
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "runs",
        help="query the run store populated by --store runs",
    )
    p.add_argument("action", choices=("list", "show"),
                   help="'list' the archived runs (all, or those matching "
                        "the filters below), or 'show' one manifest")
    p.add_argument("run_id", nargs="?",
                   help="run id to show (from 'repro runs list')")
    p.add_argument("--store", default=DEFAULT_STORE, metavar="DIR",
                   help=f"run store root (default: {DEFAULT_STORE})")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output (list)")
    p.add_argument("--source", metavar="CMD",
                   help="list filter: archiving command "
                        "(simulate/compare/montecarlo)")
    p.add_argument("--scheme", metavar="NAME",
                   help="list filter: comparison headline carries this "
                        "scheme")
    p.add_argument("--workload", metavar="NAME",
                   help="list filter: any archived workload name "
                        "contains NAME")
    p.add_argument("--fingerprint", metavar="HEX",
                   help="list filter: config fingerprint prefix")
    p.add_argument("--since", metavar="ISO",
                   help="list filter: created >= this ISO-8601 prefix "
                        "(e.g. 2026-08)")
    p.add_argument("--until", metavar="ISO",
                   help="list filter: created <= this ISO-8601 prefix")
    p.set_defaults(fn=cmd_runs)

    p = sub.add_parser(
        "diff",
        help="first-divergence comparison of two traces or stored runs",
    )
    p.add_argument("a", metavar="A",
                   help="trace file or stored run id (baseline side)")
    p.add_argument("b", metavar="B",
                   help="trace file or stored run id (candidate side)")
    p.add_argument("--rel-tol", type=_non_negative_float, default=0.0,
                   metavar="R",
                   help="relative tolerance for float metric fields "
                        "(default 0 = exact, the determinism gate)")
    p.add_argument("--abs-tol", type=_non_negative_float, default=0.0,
                   metavar="A",
                   help="absolute tolerance for float metric fields")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--store", default=DEFAULT_STORE, metavar="DIR",
                   help="run store used to resolve run ids "
                        f"(default: {DEFAULT_STORE})")
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser(
        "lint",
        help="domain-aware static analysis: eleven per-file and "
             "whole-program rules in one pass (determinism, float "
             "equality, partition invariants, API hygiene, process "
             "safety, telemetry schema, error taxonomy)",
    )
    p.add_argument("paths", nargs="*", default=["src"], metavar="PATH",
                   help="files or directories to check (default: src)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--config", metavar="PYPROJECT",
                   help="explicit pyproject.toml (default: walk up from cwd)")
    p.add_argument("--list-rules", action="store_true",
                   help="describe every rule and exit")
    p.set_defaults(fn=cmd_lint)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as error:
        # contained, expected failures (corrupt checkpoints, damaged
        # traces, ...) exit cleanly instead of dumping a traceback
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
