"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``    — show the available protocols, workloads and experiments
* ``run``     — run one workload on one protocol, print stats
* ``sweep``   — run a workload across all protocols, print normalized runtimes
* ``trace``   — run one workload with tracing on, write a Perfetto-loadable
  Chrome trace and (optionally) span/profiler reports
* ``bench``   — run a named paper experiment through the engine
* ``perf``    — print the deterministic work-and-allocation report of
  the fig6 smoke cell (``repro.bench_work/1``, committed as
  ``BENCH_work.json``; see ``docs/performance.md``)
* ``topo``    — list topology generators, or validate one for a chip
  count and print its canonical link table (text or ``repro.topology/1``
  JSON)
* ``verify``  — model-check the protocol models (Section 5)
* ``lint``    — run the protocol-aware static analysis passes over the
  simulator's own source (``docs/static-analysis.md``)
* ``faults``  — run the ``robustness`` experiment (the fault sweep under
  an adversarial network), write its tables
* ``campaign`` — run a declarative fault campaign (token recreation
  recovery scenarios), write a canonical ``repro.campaign/1`` report
* ``telemetry`` — run one workload with time-series sampling on, write
  the canonical ``repro.telemetry/1`` document and print the saturation
  summary
* ``diff``    — compare two canonical JSON documents (metrics,
  telemetry, profiles) with per-counter deltas and ``GLOB:PCT``
  regression gates
* ``report``  — run the paper's figure and table experiments plus the
  ``verify --fast`` model checks, write markdown

``run``/``sweep``/``bench``/``faults``/``report`` all execute through the
:mod:`repro.exp` engine: ``--jobs N`` fans cells out across processes,
and results are replayed from the content-addressed cache unless
``--no-cache`` is given.  ``--json`` emits structured CellResult records.
"""

from __future__ import annotations

import argparse
import sys

from repro.common.params import SystemParams
from repro.exp.runner import Runner, run_cell
from repro.exp.spec import Cell
from repro.interconnect.topology import GENERATORS, Topology
from repro.interconnect.traffic import Scope
from repro.system.config import PROTOCOLS
from repro.workloads import REGISTRY, workload_entry


def _auto_tokens(chips: int, procs: int) -> int:
    """Smallest power-of-two token count valid for this machine size.

    Keeps the Table-3 default (64) for the paper configurations and
    scales it for big-topology sweeps, where the cache count exceeds it.
    """
    caches = chips * (2 * procs + 1)
    tokens = 64
    while tokens <= caches:
        tokens *= 2
    return tokens


def _params_from_args(args) -> SystemParams:
    return SystemParams(
        num_chips=args.chips,
        procs_per_chip=args.procs,
        tokens_per_block=_auto_tokens(args.chips, args.procs),
        topology=Topology.named(getattr(args, "topology", "ptp")),
    )


def _telemetry_from_args(args, force: bool = False):
    """The cell's TelemetryConfig, or None when sampling is off."""
    if not force and not getattr(args, "telemetry", False):
        return None
    from repro.obs.telemetry import TelemetryConfig

    return TelemetryConfig(
        sample_every_events=getattr(args, "telemetry_every", 4096)
    )


def _cell_from_args(args, protocol: str, check_invariants: bool = False,
                    telemetry=None) -> Cell:
    entry = workload_entry(args.workload)
    return Cell(
        protocol=protocol,
        workload=entry.name,
        workload_kwargs=entry.cli_kwargs(args),
        seed=args.seed,
        params=_params_from_args(args),
        check_invariants=check_invariants,
        telemetry=telemetry,
    )


def _emit_telemetry(result, out_path) -> None:
    """Write/print one result's telemetry document (shared by commands)."""
    from repro.obs.telemetry import render_saturation, write_telemetry

    if result.telemetry is None:
        return
    print(render_saturation(result.telemetry))
    if out_path:
        import os

        parent = os.path.dirname(out_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        write_telemetry(out_path, result.telemetry)
        print(f"wrote {out_path}")


def _runner(args, progress=None) -> Runner:
    return Runner(
        jobs=getattr(args, "jobs", 1),
        cache=not getattr(args, "no_cache", False),
        progress=progress,
    )


def cmd_list(_args) -> int:
    print("protocols:")
    for name, cfg in PROTOCOLS.items():
        print(f"  {name:22s} family={cfg.family}")
    print("workloads:")
    for name, entry in REGISTRY.items():
        print(f"  {name:22s} {entry.description}")
    from repro.exp.library import EXPERIMENTS

    print("experiments (python -m repro bench <id>):")
    for exp_id, exp in EXPERIMENTS.items():
        print(f"  {exp_id:22s} {exp.title}")
    return 0


def cmd_run(args) -> int:
    result = run_cell(_cell_from_args(
        args, args.protocol, check_invariants=True,
        telemetry=_telemetry_from_args(args),
    ))
    if args.json:
        print(result.to_json())
        return 0
    print(f"protocol   {args.protocol}")
    print(f"workload   {args.workload}")
    print(f"runtime    {result.runtime_ns:.1f} ns")
    print(f"hits       {result.get('l1.hits')}")
    print(f"misses     {result.get('l1.misses')}")
    miss_lat = result.summary("l1.miss_latency_ps")
    if miss_lat["count"]:
        print(f"miss lat   {miss_lat['mean'] / 1000:.1f} ns avg")
    print(f"persistent {result.get('persistent.requests')}")
    print(f"intra      {result.scope_bytes(Scope.INTRA)} bytes")
    print(f"inter      {result.scope_bytes(Scope.INTER)} bytes")
    _emit_telemetry(result, getattr(args, "telemetry_out", None))
    return 0


def cmd_sweep(args) -> int:
    from repro.common.errors import ConfigError
    from repro.system.spec import MachineSpec

    params = _params_from_args(args)
    telemetry = _telemetry_from_args(args)
    cells = []
    for name in PROTOCOLS:
        try:
            MachineSpec(params=params, protocol=name, seed=args.seed).build()
        except ConfigError:
            continue  # e.g. SnoopingSCMP on a multi-chip machine
        cells.append(_cell_from_args(args, name, telemetry=telemetry))
    runner = _runner(args)
    result = runner.run_cells(cells, name=f"sweep-{args.workload}")
    if args.json:
        print(result.to_json())
        return 0
    runtimes = {res.protocol: res.runtime_ps for res in result}
    base = runtimes.get("DirectoryCMP") or next(iter(runtimes.values()))
    print(f"{args.workload}: runtime normalized to DirectoryCMP")
    for name, runtime in sorted(runtimes.items(), key=lambda kv: kv[1]):
        print(f"  {name:22s} {runtime / base:6.2f}")
    if telemetry is not None:
        for res in result:
            windows = len(res.telemetry["saturation"]) if res.telemetry else 0
            print(f"  {res.protocol:22s} {windows} saturation window(s)")
    if result.cache_hits:
        print(f"  ({result.cache_hits}/{len(result)} cells from cache)")
    return 0


def cmd_bench(args) -> int:
    from repro.exp.library import EXPERIMENTS

    if not args.experiment:
        print("experiments:")
        for exp_id, exp in EXPERIMENTS.items():
            print(f"  {exp_id:12s} {exp.title}")
        return 0
    if args.experiment not in EXPERIMENTS:
        print(f"unknown experiment {args.experiment!r}; "
              f"known: {', '.join(sorted(EXPERIMENTS))}", file=sys.stderr)
        return 2
    exp = EXPERIMENTS[args.experiment]
    # With --json, stdout is the machine-readable record stream (the CI
    # determinism gate byte-compares it); progress notes go to stderr.
    out = sys.stderr if args.json else sys.stdout
    runner = _runner(args, progress=lambda msg: print(f"... {msg}", file=out))
    result = runner.run(exp.build())
    if args.json:
        print(result.to_json())
        return 0
    for table in exp.render(result):
        print()
        print(table.render())
    print()
    print(f"{len(result)} cells, {result.cache_hits} from cache "
          f"({result.hit_rate:.0%} hit rate)")
    return 0


def cmd_trace(args) -> int:
    import os

    from repro.obs import (
        KernelProfiler,
        SpanBuilder,
        Tracer,
        validate_chrome_trace,
        write_chrome_trace,
    )

    tracer = Tracer()
    profiler = (
        KernelProfiler() if args.profile or args.profile_out else None
    )
    cell = _cell_from_args(args, args.protocol,
                           telemetry=_telemetry_from_args(args))
    result = run_cell(cell, tracer=tracer, profiler=profiler)
    report = SpanBuilder().build(tracer.events)
    parent = os.path.dirname(args.trace_out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    doc = write_chrome_trace(args.trace_out, tracer.events, report)
    if args.validate:
        count = validate_chrome_trace(doc)
        print(f"validated {count} trace records")
    print(f"wrote {args.trace_out} ({len(tracer.events)} events; "
          f"load at https://ui.perfetto.dev)")
    print(f"runtime {result.runtime_ns:.1f} ns, "
          f"{result.get('l1.misses')} misses")
    if args.spans:
        print()
        print(report.render())
    if profiler is not None:
        print()
        print(profiler.report())
        if args.profile_out:
            import json

            with open(args.profile_out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(profiler.to_dict(), sort_keys=True,
                                    separators=(",", ":")) + "\n")
            print(f"wrote {args.profile_out}")
    _emit_telemetry(result, getattr(args, "telemetry_out", None))
    return 0


def cmd_telemetry(args) -> int:
    from repro.obs.telemetry import validate_telemetry

    cell = _cell_from_args(args, args.protocol,
                           telemetry=_telemetry_from_args(args, force=True))
    result = run_cell(cell)
    validate_telemetry(result.telemetry)
    if args.json:
        from repro.obs.telemetry import render_telemetry

        print(render_telemetry(result.telemetry), end="")
        return 0
    doc = result.telemetry
    print(f"protocol   {args.protocol}")
    print(f"workload   {args.workload}")
    print(f"runtime    {result.runtime_ns:.1f} ns")
    print(f"probes     {len(doc['probes'])} over {len(doc['links'])} links")
    _emit_telemetry(result, args.telemetry_out)
    return 0


def cmd_diff(args) -> int:
    import json

    from repro.obs.diff import (
        diff_report, parse_gate, render_diff_json, render_diff_report,
    )

    try:
        gates = [parse_gate(text) for text in args.gate]
        docs = []
        for path in (args.a, args.b):
            with open(path, encoding="utf-8") as fh:
                docs.append(json.load(fh))
    except (OSError, ValueError) as err:
        print(f"diff: {err}", file=sys.stderr)
        return 2
    report = diff_report(docs[0], docs[1], gates)
    if args.json:
        print(render_diff_json(report), end="")
    else:
        print(render_diff_report(report, show_all=args.show_all))
    return 0 if report["ok"] else 1


def cmd_topo(args) -> int:
    import json

    from repro.common.errors import ConfigError

    if not args.generator:
        print("topology generators:")
        for name in sorted(GENERATORS):
            _fn, desc = GENERATORS[name]
            print(f"  {name:10s} {desc}")
        return 0
    try:
        topo = Topology.named(args.generator)
        params = SystemParams(
            num_chips=args.chips,
            procs_per_chip=args.procs,
            tokens_per_block=_auto_tokens(args.chips, args.procs),
            topology=topo,
        )
        # describe() validates: connectivity of every endpoint pair plus
        # per-link bandwidth/latency sanity; failures exit 2.
        doc = topo.build(params).describe()
    except ConfigError as err:
        print(f"topo: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    stats = doc["stats"]
    print(f"generator  {doc['generator']} "
          f"({args.chips} chips x {args.procs} procs)")
    print(f"endpoints  {stats['endpoints']}")
    print(f"vertices   {stats['vertices']}")
    print(f"links      {stats['links']}")
    print(f"diameter   {stats['diameter_hops']} hops "
          f"(mean {stats['mean_hops']:.2f})")
    print()
    print(f"{'link':32s} {'scope':6s} {'lat(ns)':>8s} {'GB/s':>7s} buffer")
    for link in doc["links"]:
        buf = link["buffer_bytes"]
        print(f"{link['name']:32s} {link['scope']:6s} "
              f"{link['latency_ps'] / 1000:8.1f} {link['bytes_per_ns']:7.1f} "
              f"{buf if buf is not None else '-'}")
    return 0


def cmd_perf(args) -> int:
    from repro.perf import main

    return main()


def cmd_verify(args) -> int:
    from repro.verification import verify_models
    from repro.verification.checker import check

    for model, liveness in verify_models(fast=args.fast):
        result = check(model, max_states=args.max_states, check_liveness=liveness)
        print(result)
    print("all properties verified")
    return 0


def cmd_lint(args) -> int:
    from pathlib import Path

    from repro.staticcheck import (
        PASSES, diff_baseline, explain_rule, load_baseline, render_json,
        render_text, run_passes, write_baseline,
    )

    if args.explain is not None:
        report = explain_rule(args.explain)
        if report is None:
            known = sorted(r for p in PASSES for r in p.rules)
            print(f"lint: unknown rule '{args.explain}' "
                  f"(known: {', '.join(known)})", file=sys.stderr)
            return 2
        print(report, end="")
        return 0

    passes = None
    if args.pass_name is not None:
        passes = [p for p in PASSES if p.id == args.pass_name]
        if not passes:
            known = ", ".join(p.id for p in PASSES)
            print(f"lint: unknown pass '{args.pass_name}' (known: {known})",
                  file=sys.stderr)
            return 2

    from repro.staticcheck.protomodel import build_model, render_protomodel
    from repro.staticcheck.runner import default_root
    from repro.staticcheck.source import load_tree

    files = load_tree(default_root())
    findings, pass_ids = run_passes(files=files, passes=passes)
    if args.model_out is not None:
        out_path = Path(args.model_out)
        out_path.write_text(render_protomodel(build_model(files)))
        print(f"wrote {out_path} (schema repro.protomodel/1)", file=sys.stderr)
    baseline_path = Path(args.baseline)
    if args.update_baseline:
        write_baseline(baseline_path, findings)
        print(f"wrote {baseline_path} ({len(findings)} finding(s) baselined)")
        return 0
    baseline = load_baseline(baseline_path)
    new, stale = diff_baseline(findings, baseline)
    if args.json:
        print(render_json(new, pass_ids), end="")
    else:
        print(render_text(new))
        if stale:
            print(f"note: {len(stale)} stale baseline fingerprint(s) — "
                  f"rerun with --update-baseline to shrink the file")
    return 1 if new else 0


def cmd_faults(args) -> int:
    from repro.common.errors import ConfigError
    from repro.exp.library import EXPERIMENTS, render_text, robustness_spec

    runner = _runner(args, progress=lambda msg: print(f"... {msg}"))
    try:
        rates = tuple(float(r) for r in args.rates.split(","))
        result = runner.run(robustness_spec(args.scale, args.seed, rates))
    except (ValueError, ConfigError) as err:
        # e.g. a ClassPolicy rejecting an out-of-range rate: a user input
        # problem, not a crash — report it cleanly.
        print(f"faults: {err}", file=sys.stderr)
        return 2
    text = render_text(EXPERIMENTS["robustness"].render(result))
    with open(args.out, "w") as fh:
        fh.write(text)
    print("Robustness battery: TokenCMP correctness substrate under an "
          f"adversarial network\n(2 CMPs x 2 processors, seed {args.seed}, "
          f"scale {args.scale}; fault model: docs/robustness.md)\n\n{text}",
          end="")
    print(f"wrote {args.out}")
    return 0


def cmd_campaign(args) -> int:
    import os

    from repro.common.errors import ConfigError
    from repro.recovery.campaign import (
        CampaignConfig, render_text as render_campaign, run_campaign,
        write_report,
    )

    try:
        config = CampaignConfig.load(args.config)
    except (ValueError, ConfigError, OSError) as err:
        print(f"campaign: {err}", file=sys.stderr)
        return 2
    runner = _runner(args, progress=lambda msg: print(f"... {msg}"))
    report = run_campaign(config, runner, spans=not args.no_spans)
    parent = os.path.dirname(args.out)
    if parent:
        os.makedirs(parent, exist_ok=True)
    write_report(report, args.out)
    print(render_campaign(report))
    print(f"wrote {args.out}")
    return 1 if report["totals"]["failed"] else 0


def cmd_report(args) -> int:
    from repro.exp.library import render_report

    text = render_report(
        _runner(args, progress=lambda msg: print(f"... {msg}")),
        scale=args.scale, seed=args.seed,
    )
    with open(args.out, "w") as fh:
        fh.write(text)
    print(f"wrote {args.out}")
    return 0


def _add_engine_flags(parser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the experiment engine")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the content-addressed result cache")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show protocols, workloads and experiments")

    for name in ("run", "sweep", "trace", "telemetry"):
        p = sub.add_parser(name, help=f"{name} a workload")
        if name in ("run", "trace", "telemetry"):
            p.add_argument("protocol", choices=sorted(PROTOCOLS))
        p.add_argument("workload", choices=sorted(REGISTRY))
        p.add_argument("--chips", type=int, default=4)
        p.add_argument("--procs", type=int, default=4)
        p.add_argument("--topology", choices=sorted(GENERATORS), default="ptp",
                       help="inter-CMP fabric generator (default: the "
                            "paper's point-to-point network)")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--ops", type=int, default=16,
                       help="acquires / phases / increments / rounds (x10 "
                            "refs for commercial workloads)")
        p.add_argument("--locks", type=int, default=32)
        if name in ("run", "sweep", "telemetry"):
            p.add_argument("--json", action="store_true",
                           help="emit structured CellResult records"
                           if name != "telemetry" else
                           "print the repro.telemetry/1 document to stdout")
        if name == "sweep":
            _add_engine_flags(p)
        if name != "telemetry":
            p.add_argument("--telemetry", action="store_true",
                           help="sample time-series telemetry during the run")
        p.add_argument("--telemetry-every", type=int, default=4096,
                       help="sampling cadence in fired kernel events")
        p.add_argument("--telemetry-out",
                       default="benchmarks/results/telemetry.json"
                       if name == "telemetry" else "",
                       help="repro.telemetry/1 output path"
                       + ("" if name == "telemetry"
                          else " (empty: don't write)"))
        if name == "trace":
            p.add_argument("--trace-out",
                           default="benchmarks/results/trace.json",
                           help="Chrome trace output path (Perfetto-loadable)")
            p.add_argument("--spans", action="store_true",
                           help="print the transaction-span latency report")
            p.add_argument("--profile", action="store_true",
                           help="profile kernel event handlers (wall time)")
            p.add_argument("--profile-out", default="",
                           help="write the profiler's deterministic "
                                "repro.profile/1 projection (diffable)")
            p.add_argument("--validate", action="store_true",
                           help="schema-validate the trace before writing")

    d = sub.add_parser(
        "diff", help="compare two canonical JSON documents"
    )
    d.add_argument("a", help="baseline document (metrics/telemetry/profile)")
    d.add_argument("b", help="candidate document")
    d.add_argument("--gate", action="append", default=[], metavar="GLOB:PCT",
                   help="fail (exit 1) when a key matching GLOB changes by "
                        "more than PCT percent; repeatable")
    d.add_argument("--json", action="store_true",
                   help="emit the canonical repro.diff/1 report")
    d.add_argument("--all", action="store_true", dest="show_all",
                   help="show unchanged keys too")

    b = sub.add_parser("bench", help="run a named paper experiment")
    b.add_argument("experiment", nargs="?", default="",
                   help="experiment id (omit to list)")
    b.add_argument("--json", action="store_true",
                   help="emit structured CellResult records")
    _add_engine_flags(b)

    t = sub.add_parser(
        "topo", help="list or validate interconnect topology generators"
    )
    t.add_argument("generator", nargs="?", default="",
                   help="generator name (omit to list); validates "
                        "connectivity for --chips/--procs")
    t.add_argument("--chips", type=int, default=4)
    t.add_argument("--procs", type=int, default=4)
    t.add_argument("--json", action="store_true",
                   help="emit the canonical repro.topology/1 document")

    sub.add_parser(
        "perf", help="print the fig6 smoke cell's deterministic work and "
                     "allocation report (BENCH_work.json)"
    )

    v = sub.add_parser("verify", help="model-check the protocol models")
    v.add_argument("--fast", action="store_true")
    v.add_argument("--max-states", type=int, default=6_000_000)

    lt = sub.add_parser(
        "lint", help="run the protocol-aware static analysis passes"
    )
    lt.add_argument("--json", action="store_true",
                    help="emit the canonical repro.staticcheck/1 JSON report")
    lt.add_argument("--baseline", default="staticcheck-baseline.json",
                    help="baseline file of grandfathered finding fingerprints")
    lt.add_argument("--update-baseline", action="store_true",
                    help="rewrite the baseline from the current findings")
    lt.add_argument("--pass", dest="pass_name", default=None, metavar="NAME",
                    help="run a single pass by id (exit 2 if unknown)")
    lt.add_argument("--explain", default=None, metavar="RULE",
                    help="print a rule's documentation and an example "
                         "finding, then exit (exit 2 if unknown)")
    lt.add_argument("--model-out", default=None, metavar="PATH",
                    help="also write the canonical repro.protomodel/1 "
                         "transition-graph artifact to PATH")

    f = sub.add_parser(
        "faults", help="run the robustness fault sweep (library preset)"
    )
    f.add_argument("--out", default="benchmarks/results/robustness_battery.txt")
    f.add_argument("--rates", default="0,0.05,0.1,0.2",
                   help="comma-separated fault rates to sweep")
    f.add_argument("--scale", type=float, default=1.0,
                   help="workload size multiplier (0.5 = quick look)")
    f.add_argument("--seed", type=int, default=1)
    _add_engine_flags(f)

    c = sub.add_parser(
        "campaign", help="run a declarative recovery fault campaign"
    )
    c.add_argument("config",
                   help="campaign config JSON (see benchmarks/campaigns/)")
    c.add_argument("-o", "--out",
                   default="benchmarks/results/campaign.json",
                   help="canonical repro.campaign/1 report output path")
    c.add_argument("--no-spans", action="store_true",
                   help="skip the traced span representatives "
                        "(faster; drops time_to_recover_ps)")
    _add_engine_flags(c)

    r = sub.add_parser("report", help="run the paper's experiments, write markdown")
    r.add_argument("--out", default="REPORT.md")
    r.add_argument("--scale", type=float, default=1.0,
                   help="workload size multiplier (0.5 = quick look)")
    r.add_argument("--seed", type=int, default=1)
    _add_engine_flags(r)

    args = parser.parse_args(argv)
    return {
        "list": cmd_list,
        "run": cmd_run,
        "sweep": cmd_sweep,
        "trace": cmd_trace,
        "bench": cmd_bench,
        "topo": cmd_topo,
        "perf": cmd_perf,
        "verify": cmd_verify,
        "lint": cmd_lint,
        "faults": cmd_faults,
        "campaign": cmd_campaign,
        "telemetry": cmd_telemetry,
        "diff": cmd_diff,
        "report": cmd_report,
    }[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
