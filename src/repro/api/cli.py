"""``repro`` — the single console front door.

Subcommands::

    repro sweep    run a benchmark × mechanism sweep
    repro figures  regenerate the paper's figures from declarative specs
    repro inspect  the one reader: artifacts, the result lake, event logs
                   (optionally followed), or the environment overlay
    repro profile  per-stage wall attribution and KIPS per benchmark
    repro serve    cluster host on TCP: shards in, verified out

Every run subcommand builds an :class:`~repro.api.spec.ExperimentSpec`
through the one environment overlay (explicit flag beats ``REPRO_*``
beats default) and executes it through a
:class:`~repro.api.session.Session`, so a CLI invocation, a bench and a
library call are the same experiment value — fingerprint and all.
:func:`main` runs every subcommand under ``activated(ObsSpec.from_env())``,
so ``REPRO_OBS=1 repro …`` observes the whole command.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.api import env as api_env
from repro.api.figures import (
    FIGURE_NAMES,
    render_figure,
    run_figure,
    run_figures,
)
from repro.api.result import RunResult
from repro.api.session import Session
from repro.api.spec import (
    ExperimentSpec,
    StoreSpec,
    WindowSpec,
    reject_unknown_benchmarks,
)
from repro.harness.reporting import Table, format_ipc, harmonic_mean
from repro.obs import ObsSpec, activated
from repro.pipeline.config import MECHANISM_PRESETS, MechanismConfig

PROG = "repro"


# ---------------------------------------------------------------------------
# Shared rendering
# ---------------------------------------------------------------------------


def _render_result(result: RunResult) -> str:
    """Benchmark × mechanism IPC table (speedup vs baseline when present)."""
    have_baseline = "baseline" in result.mechanism_names()
    headers = ["benchmark", "mechanism", "IPC"]
    if have_baseline:
        headers.append("vs baseline")
    table = Table(headers)
    for benchmark in result.benchmarks:
        for name in result.mechanism_names():
            try:
                outcome = result.outcome(benchmark, name)
            except KeyError:
                # A quarantined shard's hole in a partial sharded result.
                row = [benchmark, name, "(hole)"]
                if have_baseline:
                    row.append("-")
                table.add_row(*row)
                continue
            row = [benchmark, name, format_ipc(outcome.merged_stats[0])
                   if len(outcome.results) == 1 else f"{outcome.ipc:.3f}"]
            if have_baseline:
                speedup = "-"
                if name != "baseline":
                    try:
                        speedup = (
                            f"{100 * result.speedup(benchmark, name):+.1f}%"
                        )
                    except KeyError:
                        speedup = "(hole)"
                row.append(speedup)
            table.add_row(*row)
    return table.render()


def _spec_summary(spec: ExperimentSpec) -> str:
    sampling = spec.sampling
    return "\n".join([
        f"fingerprint : {spec.fingerprint()}",
        f"benchmarks  : {len(spec.benchmarks)} "
        f"({', '.join(spec.benchmarks[:6])}"
        + (", ..." if len(spec.benchmarks) > 6 else "") + ")",
        f"mechanisms  : {', '.join(spec.mechanism_names())}",
        f"seeds       : {list(spec.seeds)}",
        f"window      : warmup {spec.window.warmup}, "
        f"measure {spec.window.measure}",
        f"sampling    : " + (
            f"interval {sampling.interval}, detail {sampling.detail_ratio}, "
            f"ramp {sampling.detail_warmup}" if sampling.active else "off"
        ),
        f"store       : "
        + ("disabled" if not spec.store.enabled
           else (spec.store.path or "default cache"))
        + f", lake {'on' if spec.store.result_lake else 'off'}",
        f"shards      : {spec.shards if spec.shards > 1 else 'in-process'}",
        f"cells       : {spec.cells}",
    ])


def _mechanisms_from_args(names: list[str] | None):
    if not names:
        return None
    return [MechanismConfig.preset(name) for name in names]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _print_sharded_outcome(outcome) -> None:
    """The sharded/clustered fault story, shared by both sweep paths."""
    print(f"\n{outcome.mode} over {len(outcome.attempts)} shard(s), "
          f"{sum(outcome.attempts.values())} attempt(s)")
    for label, report in sorted(outcome.host_reports.items()):
        print(f"  host {label}: {report.get('status')}, "
              f"{report.get('dispatched', 0)} dispatch(es), "
              f"{report.get('failures', 0)} failure(s)"
              + (f" ({report['reason']})" if report.get("reason") else ""))
    for index, report in sorted(outcome.shard_reports.items()):
        if report.attempts <= 1 and not report.failure_kinds:
            continue
        kinds = ", ".join(report.failure_kinds) or "none"
        print(f"  shard {index}: {report.attempts} attempt(s), "
              f"failures [{kinds}], "
              f"backoff {report.backoff_seconds:.2f}s"
              + (", QUARANTINED" if report.quarantined else ""))
    for line in outcome.failures:
        print(f"  fault survived: {line}", file=sys.stderr)


def _print_holes(holes) -> None:
    """A partial result's lost cells, on stderr (nothing when complete)."""
    if not holes:
        return
    print(f"\nPARTIAL RESULT: {len(holes)} cell(s) lost to "
          "quarantined shards:", file=sys.stderr)
    for benchmark, mechanism, seed in holes:
        print(f"  hole: {benchmark} × {mechanism} × seed {seed}",
              file=sys.stderr)


def _cmd_sweep(args) -> int:
    from dataclasses import replace

    sampling = None
    store = None
    if args.sampled:
        sampling = replace(api_env.sampling_from_env(), enabled=True)
    if args.lake:
        store = replace(StoreSpec.from_env(), result_lake=True)
    try:
        spec = ExperimentSpec.from_env(
            benchmarks=args.benchmarks,
            mechanisms=_mechanisms_from_args(args.mechanisms),
            seeds=list(range(1, args.seeds + 1)) if args.seeds else None,
            warmup=args.warmup,
            measure=args.measure,
            sampling=sampling,
            store=store,
            shards=args.shards,
        )
    except (TypeError, ValueError) as error:
        print(f"repro sweep: {error}", file=sys.stderr)
        return 2
    print(_spec_summary(spec))
    session = Session.for_spec(spec)
    holes = ()
    if args.hosts is not None:
        try:
            outcome = session.run_clustered(spec, hosts=args.hosts)
        except ValueError as error:
            print(f"repro sweep: {error}", file=sys.stderr)
            return 2
        result, holes = outcome.result, outcome.holes
        _print_sharded_outcome(outcome)
    elif spec.shards > 1:
        outcome = session.run_sharded(spec)
        result, holes = outcome.result, outcome.holes
        _print_sharded_outcome(outcome)
    else:
        result = session.run(spec)
    print()
    print(_render_result(result))
    _print_holes(holes)
    if args.json:
        result.save(args.json)
        print(f"\nwrote {args.json} (digest {result.digest()})")
    return 1 if holes else 0


def _window(args) -> WindowSpec:
    """The environment's window with ``--warmup``/``--measure`` over it.

    Raises ``ValueError`` on a bad window; callers turn that into their
    one-line exit 2.
    """
    base = WindowSpec.from_env()
    return WindowSpec(
        warmup=base.warmup if args.warmup is None else args.warmup,
        measure=base.measure if args.measure is None else args.measure,
    )


def _cmd_figures(args) -> int:
    names = args.figures or list(FIGURE_NAMES)
    unknown = [name for name in names if name not in FIGURE_NAMES]
    if unknown:
        print(f"unknown figure(s): {', '.join(unknown)} "
              f"(choose from {', '.join(FIGURE_NAMES)})", file=sys.stderr)
        return 2
    try:
        # fig1 runs without a spec, so it needs the spec's check here.
        reject_unknown_benchmarks(args.benchmarks or ())
        window = None
        if args.warmup is not None or args.measure is not None:
            window = _window(args)
    except ValueError as error:
        print(f"repro figures: {error}", file=sys.stderr)
        return 2
    # The sweep figures run first, as one batch, so forked workers start
    # from a parent that has not yet run fig1's functional analysis.
    results, holes = {}, ()
    sweep_names = [name for name in names if name != "fig1"]
    if sweep_names:
        try:
            results, outcome = run_figures(
                sweep_names, benchmarks=args.benchmarks, window=window,
            )
        except (TypeError, ValueError) as error:
            print(f"repro figures: {error}", file=sys.stderr)
            return 2
        holes = outcome.holes
        if outcome.failures:
            _print_sharded_outcome(outcome)
    for name in names:
        if name == "fig1":
            _, text = run_figure(
                "fig1", benchmarks=args.benchmarks, window=window,
            )
            print(text)
            if args.out:
                print("[fig1 is a functional analysis without a RunResult "
                      "artifact; nothing saved for it]")
            continue
        result = results.get(name)
        if result is None:  # incomplete: its holes are listed below
            continue
        print(render_figure(name, result))
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            path = out_dir / f"{name}.json"
            result.save(path)
            print(f"[wrote {path} (digest {result.digest()})]")
    _print_holes(holes)
    return 1 if holes else 0


# ---------------------------------------------------------------------------
# repro inspect: the one reader
# ---------------------------------------------------------------------------


def _render_telemetry(payload: dict, detail: bool) -> str:
    """The artifact's ``telemetry`` section, summarised (or, with
    *detail*, including per-cell series heads)."""
    lines = [
        f"telemetry   : format {payload.get('format')}, "
        f"metrics every {payload.get('metrics_every')} committed, "
        f"events under {payload.get('events_dir')}"
    ]
    cells = payload.get("cells", [])
    lines.append(f"  metric cells: {len(cells)}")
    for cell in cells:
        samples = cell.get("samples", 0)
        lines.append(
            f"  {cell.get('benchmark')} × {cell.get('mechanism')} × seed "
            f"{cell.get('seed')}: {samples} sample(s)"
        )
        if detail and samples:
            series = cell.get("series", {})
            for name in ("total_committed", "cycles", "rob", "iq"):
                values = series.get(name)
                if not values:
                    continue
                head = ", ".join(str(v) for v in values[:8])
                more = ", ..." if len(values) > 8 else ""
                lines.append(f"    {name:<16}: [{head}{more}]")
    shards = payload.get("shards")
    if shards:
        lines.append(f"  shard reports: {len(shards)}")
        # JSON object keys are strings; list shards by their index.
        for index, report in sorted(shards.items(),
                                    key=lambda item: int(item[0])):
            kinds = ", ".join(report.get("failure_kinds", [])) or "none"
            lines.append(
                f"  shard {index}: {report.get('attempts')} attempt(s), "
                f"failures [{kinds}], backoff "
                f"{report.get('backoff_seconds', 0.0):.2f}s"
                + (", QUARANTINED" if report.get("quarantined") else "")
            )
    return "\n".join(lines)


def _list_raw_sections(path: str) -> None:
    """What an unloadable artifact holds, section by section: a
    future-format file should still say *what it is*."""
    import json

    from repro.api.result import KNOWN_SECTIONS

    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return
    if isinstance(payload, dict):
        print(f"# {path} (raw section listing)")
        for key in sorted(payload):
            label = ("known" if key in KNOWN_SECTIONS
                     else "not understood by this build")
            print(f"section {key:<12}: {label}")


def _inspect_artifact(path: str, figure: str | None, metrics: bool) -> int:
    """Provenance, the IPC table, telemetry and (with *figure*) a figure
    rendering of one artifact."""
    try:
        result = RunResult.load(path)
    except (OSError, ValueError, KeyError) as error:
        print(f"{path}: unreadable artifact: {error}", file=sys.stderr)
        _list_raw_sections(path)
        return 1
    print(f"# {path}")
    print(f"format      : {result.format}")
    print(f"digest      : {result.digest()}")
    print(_spec_summary(result.spec))
    for key, value in sorted(result.meta.items()):
        print(f"meta.{key:<12}: {value}")
    if result.telemetry is not None:
        print(_render_telemetry(result.telemetry, detail=metrics))
    elif metrics:
        print("telemetry   : none recorded (run with REPRO_OBS=1 "
              "or ObsSpec(enabled=True))")
    for key in sorted(result.extra_sections):
        print(f"section {key:<12}: not understood by this build; "
              "preserved verbatim and re-emitted on save")
    print()
    print(_render_result(result))
    status = 0
    if figure:
        try:
            print(render_figure(figure, result))
        except KeyError as error:
            print(f"{path}: cannot render as {figure}: the artifact has "
                  f"no cell for {error}", file=sys.stderr)
            status = 1
    print()
    return status


def _lake_store_from_arg(path_arg: str):
    """Resolve a ``--lake [DIR]`` argument to a ``TraceStore``.

    An empty argument (bare ``--lake``) means the environment's store
    root; returns ``None`` when that resolves to persistence-disabled.
    """
    from repro.workloads.store import TraceStore

    if path_arg:
        return TraceStore(path_arg)
    root = api_env.store_root_from_env()
    return TraceStore(root) if root is not None else None


def _hmean_ipc(cells: list[dict]) -> str:
    ipcs = [
        cell["stats"].get("committed", 0) / cell["stats"]["cycles"]
        for cell in cells if cell["stats"].get("cycles")
    ]
    return f"{harmonic_mean(ipcs):.3f}" if ipcs else "-"


def _inspect_lake(path_arg: str) -> int:
    """``repro inspect --lake``: one walk over every cached cell.

    Prints what the lake holds (cells, benchmarks, mechanisms, workload
    versions), then the cells grouped by (mechanism, window, sampling)
    configuration and the per-mechanism × per-benchmark trend, each with
    harmonic-mean IPC — the cross-run view no single artifact has.
    """
    store = _lake_store_from_arg(path_arg)
    if store is None:
        print("repro inspect --lake: the trace store is disabled "
              "(REPRO_TRACE_STORE=off); pass --lake DIR", file=sys.stderr)
        return 2
    total = unreadable = 0
    versions: set[str] = set()
    groups: dict[tuple[str, str, str], list[dict]] = {}
    trend: dict[tuple[str, str], list[dict]] = {}
    for _, payload in store.iter_cells():
        total += 1
        if payload is None:
            unreadable += 1
            continue
        meta = payload.get("meta") or {}
        mechanism = str(meta.get("mechanism", "?"))
        benchmark = str(payload.get("benchmark", "?"))
        versions.add(str(meta.get("workload_version", "?")))
        groups.setdefault((
            mechanism,
            f"{meta.get('warmup', '?')}+{meta.get('measure', '?')}",
            str(meta.get("sampling", "?"))[:12],
        ), []).append(payload)
        trend.setdefault((mechanism, benchmark), []).append(payload)

    def listing(values, limit: int = 8) -> str:
        ordered = sorted(set(values))
        more = ", ..." if len(ordered) > limit else ""
        return f"{len(ordered)} ({', '.join(ordered[:limit])}{more})"

    print(f"# result lake at {store.root}")
    print(f"cells       : {total} readable "
          f"{total - unreadable}, unreadable/tampered {unreadable} "
          "(these serve as misses and are overwritten on re-simulation)")
    if not groups:
        return 0
    print(f"benchmarks  : {listing(b for _, b in trend)}")
    print(f"mechanisms  : {listing(m for m, _ in trend)}")
    print(f"versions    : {listing(versions)} (workload code)")
    table = Table(["mechanism", "window", "sampling", "cells",
                   "benchmarks", "hmean IPC"])
    for (mechanism, window, sampling), cells in sorted(groups.items()):
        benchmarks = {str(cell.get("benchmark", "?")) for cell in cells}
        table.add_row(mechanism, window, sampling, str(len(cells)),
                      str(len(benchmarks)), _hmean_ipc(cells))
    print()
    print(table.render())
    table = Table(["mechanism", "benchmark", "cells", "hmean IPC"])
    for (mechanism, benchmark), cells in sorted(trend.items()):
        table.add_row(mechanism, benchmark, str(len(cells)),
                      _hmean_ipc(cells))
    print()
    print(table.render())
    return 0


def _inspect_events(path_arg: str, follow: bool) -> int:
    """``repro inspect --events [PATH]``: one event file, or every
    ``events-*.jsonl`` under a directory (default: the environment's obs
    dir).  Prints a per-name summary, then every record; with *follow*,
    prints each new complete record until Ctrl-C instead."""
    import time

    from repro.obs import format_record, read_events
    from repro.obs.config import DEFAULT_OBS_DIR

    target = Path(path_arg or api_env.obs_dir_from_env() or DEFAULT_OBS_DIR)
    printed: dict[Path, int] = {}

    def read_new() -> tuple[list[dict], int]:
        """Records not printed yet (complete lines only: a live writer's
        in-flight line counts as dropped until its newline lands)."""
        paths = ([target] if target.is_file()
                 else sorted(target.glob("events-*.jsonl")))
        fresh, dropped = [], 0
        for path in paths:
            try:
                records, lost = read_events(path)
            except OSError:  # removed or unreadable mid-walk
                continue
            fresh.extend(records[printed.get(path, 0):])
            printed[path] = len(records)
            dropped += lost
        return fresh, dropped

    if path_arg and not target.exists():
        print(f"{target}: no such event file or directory", file=sys.stderr)
        return 1
    if follow:
        print(f"repro inspect: following {target} (Ctrl-C to stop)",
              file=sys.stderr)
        try:
            while True:
                for record in read_new()[0]:
                    print(format_record(record))
                sys.stdout.flush()
                time.sleep(0.5)
        except KeyboardInterrupt:
            return 0
    records, dropped = read_new()
    if not records and not dropped:
        print(f"(no events under {target})")
        return 0
    print(f"# {target}")
    by_name: dict[str, int] = {}
    for record in records:
        by_name[record["name"]] = by_name.get(record["name"], 0) + 1
    print(f"{len(records)} record(s), {dropped} dropped "
          "(torn tail / future format)")
    for name, count in sorted(by_name.items()):
        print(f"  {name:<24} × {count}")
    print()
    for record in records:
        print(format_record(record))
    return 0


def _inspect_environment() -> int:
    """The resolved environment overlay plus the variable table."""
    import os

    unknown = api_env.warn_unknown_vars()
    spec = ExperimentSpec.from_env()
    print("# environment overlay (explicit field beats env beats default)")
    print(_spec_summary(spec))
    print()
    table = Table(["variable", "set to", "spec field / consumer"])
    for name, (field_name, _) in sorted(api_env.KNOWN_VARS.items()):
        table.add_row(name, os.environ.get(name, "(unset)"), field_name)
    print(table.render())
    if unknown:
        print(f"\nWARNING: unrecognized REPRO_* variable(s): "
              f"{', '.join(unknown)}")
        return 1
    return 0


def _cmd_inspect(args) -> int:
    modes = [flag for flag, given in (
        ("ARTIFACT", args.artifacts), ("--lake", args.lake is not None),
        ("--events", args.events is not None),
    ) if given]
    if len(modes) > 1:
        print(f"repro inspect: {' and '.join(modes)} do not combine",
              file=sys.stderr)
        return 2
    for flag, given, needs in (
        ("--figure", args.figure, "ARTIFACT"),
        ("--metrics", args.metrics, "ARTIFACT"),
        ("--follow", args.follow, "--events"),
    ):
        if given and needs not in modes:
            print(f"repro inspect: {flag} needs {needs}", file=sys.stderr)
            return 2
    if args.lake is not None:
        return _inspect_lake(args.lake)
    if args.events is not None:
        return _inspect_events(args.events, args.follow)
    if not args.artifacts:
        return _inspect_environment()
    status = 0
    for path in args.artifacts:
        status = max(status,
                     _inspect_artifact(path, args.figure, args.metrics))
    return status


# ---------------------------------------------------------------------------
# repro profile and repro serve
# ---------------------------------------------------------------------------


def _cmd_profile(args) -> int:
    from dataclasses import replace

    from repro.obs.profile import (
        DEFAULT_BENCHMARKS,
        phase_profile,
        render_profile,
        write_json,
    )
    from repro.sampling import SamplingConfig

    sampling = (
        SamplingConfig() if args.full_detail
        else replace(api_env.sampling_from_env(), enabled=True)
    )
    try:
        window = _window(args)
        payload = phase_profile(
            benchmarks=tuple(args.benchmarks) if args.benchmarks
            else DEFAULT_BENCHMARKS,
            mechanism_name=args.mechanism,
            warmup=window.warmup,
            measure=window.measure,
            sampling=sampling,
        )
    except (KeyError, ValueError) as error:
        print(f"repro profile: {error}", file=sys.stderr)
        return 2
    print(render_profile(payload))
    if args.json:
        write_json(payload, args.json)
        print(f"wrote {args.json}")
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    from repro.cluster.hosts import HostSpec
    from repro.service.server import SweepServer

    try:
        server = SweepServer(HostSpec.parse(args.tcp).address)
    except ValueError as error:
        print(f"repro serve: {error}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        task = asyncio.ensure_future(server.serve(once=args.once))
        started = asyncio.ensure_future(server.wait_started())
        await asyncio.wait((task, started),
                           return_when=asyncio.FIRST_COMPLETED)
        if not started.done():
            started.cancel()
            task.result()  # serve() ended before binding: raise why
        # The tcp= line is machine-readable on purpose: with port 0 it
        # is how a parent that spawned this host learns the real
        # ephemeral port.
        host, port = server.bound_address
        print(f"repro serve: tcp={host}:{port}", flush=True)
        await task

    print("repro serve: starting", flush=True)
    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("repro serve: interrupted, shutting down")
    except OSError as error:
        if server.bound_address is not None:
            raise
        host, port = server.tcp
        print(f"repro serve: cannot listen on {host}:{port}: {error}",
              file=sys.stderr)
        return 1
    print(f"repro serve: {server.requests_served} request(s) served")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Reproduction front door: typed experiment specs, "
        "one CLI, versioned result artifacts.",
    )
    sub = parser.add_subparsers(dest="command")

    sweep = sub.add_parser(
        "sweep", help="run a benchmark × mechanism sweep"
    )
    sweep.add_argument("--sampled", action="store_true",
                       help="run interval-sampled (REPRO_INTERVAL and "
                       "friends)")
    sweep.add_argument("--lake", action="store_true",
                       help="serve cells from (and populate) the "
                       "spec-level result lake in the trace store")
    sweep.add_argument("--benchmark", action="append", dest="benchmarks",
                       metavar="NAME",
                       help="benchmark (repeatable; default: the "
                       "representative mix, all 29 with REPRO_FULL)")
    sweep.add_argument("--mechanism", action="append", dest="mechanisms",
                       metavar="NAME", choices=sorted(MECHANISM_PRESETS),
                       help="mechanism preset (repeatable; default: "
                       "baseline and rsep-realistic)")
    sweep.add_argument("--seeds", type=int, default=None,
                       help="checkpoints per benchmark (default: "
                       "REPRO_SEEDS)")
    sweep.add_argument("--warmup", type=int, default=None,
                       help="warm-up instructions (default: REPRO_WARMUP)")
    sweep.add_argument("--measure", type=int, default=None,
                       help="measured instructions (default: REPRO_MEASURE)")
    sweep.add_argument("--shards", type=int, default=None,
                       help="fault-tolerant sharded service shard count "
                       "(default: REPRO_SHARDS; 0/1 = in-process)")
    sweep.add_argument("--hosts", metavar="LIST", default=None,
                       help="run clustered across remote `repro serve "
                       "--tcp` hosts, e.g. a:9091,b:9091 (default: "
                       "REPRO_HOSTS)")
    sweep.add_argument("--json", metavar="PATH", default=None,
                       help="write the RunResult artifact to PATH")

    figures = sub.add_parser(
        "figures", help="regenerate the paper's figures"
    )
    figures.add_argument("figures", nargs="*", metavar="FIGURE",
                         help=f"which figures ({', '.join(FIGURE_NAMES)}; "
                         "default: all)")
    figures.add_argument("--benchmark", action="append", dest="benchmarks",
                         metavar="NAME",
                         help="benchmark subset (repeatable)")
    figures.add_argument("--warmup", type=int, default=None)
    figures.add_argument("--measure", type=int, default=None)
    figures.add_argument("--out", metavar="DIR", default=None,
                         help="also save one RunResult artifact per figure")

    inspect = sub.add_parser(
        "inspect", help="read artifacts, the result lake or obs event "
        "logs (no argument: the resolved environment overlay)"
    )
    inspect.add_argument("artifacts", nargs="*", metavar="ARTIFACT",
                         help="artifact(s): provenance, the IPC table and "
                         "the telemetry summary")
    inspect.add_argument("--figure", choices=sorted(
        name for name in FIGURE_NAMES if name != "fig1"
    ), default=None, help="with artifacts: also render with a figure "
        "formatter")
    inspect.add_argument("--metrics", action="store_true",
                         help="with artifacts: render the telemetry "
                         "section's per-cell metric series heads")
    inspect.add_argument("--lake", nargs="?", const="", default=None,
                         metavar="DIR",
                         help="walk the result lake: what it holds, its "
                         "cells grouped by configuration and the "
                         "mechanism × benchmark trend (DIR defaults to "
                         "the environment's store root)")
    inspect.add_argument("--events", nargs="?", const="", default=None,
                         metavar="PATH",
                         help="render an obs event file, or every "
                         "events-*.jsonl under a directory (default: "
                         "REPRO_OBS_DIR, then .repro-obs)")
    inspect.add_argument("--follow", "-f", action="store_true",
                         help="with --events: keep printing new records "
                         "until Ctrl-C")

    profile = sub.add_parser(
        "profile", help="per-stage wall attribution and KIPS per "
        "benchmark"
    )
    profile.add_argument("--benchmark", action="append", dest="benchmarks",
                         metavar="NAME",
                         help="benchmark to profile (repeatable; "
                         "default: mcf, bzip2)")
    profile.add_argument("--mechanism", default="rsep-realistic",
                         choices=sorted(MECHANISM_PRESETS))
    profile.add_argument("--warmup", type=int, default=None,
                         help="warm-up instructions (default: REPRO_WARMUP)")
    profile.add_argument("--measure", type=int, default=None,
                         help="measured instructions (default: "
                         "REPRO_MEASURE)")
    profile.add_argument("--full-detail", action="store_true",
                         help="profile a full-detail run instead of a "
                         "sampled one (no warm phase)")
    profile.add_argument("--json", metavar="PATH", default=None,
                         help="also write the payload as JSON")

    serve = sub.add_parser(
        "serve", help="cluster host on TCP (shard JSON in, "
        "digest-verified payload out)"
    )
    serve.add_argument("--tcp", metavar="HOST:PORT", required=True,
                       help="listen on TCP (port 0 binds an ephemeral "
                       "port, announced as 'tcp=HOST:PORT'); this is what "
                       "`repro sweep --hosts` dials")
    # A hidden no-op: the end-to-end benchmark starts its hosts with
    # `--tcp 127.0.0.1:0 --no-socket` (e2ebench/run.py:190), and the
    # benchmark's files change only together with the benchmark.
    serve.add_argument("--no-socket", action="store_true",
                       help=argparse.SUPPRESS)
    serve.add_argument("--once", action="store_true",
                       help="serve a single request, then exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    handler = {
        "sweep": _cmd_sweep, "figures": _cmd_figures,
        "inspect": _cmd_inspect, "profile": _cmd_profile,
        "serve": _cmd_serve,
    }[args.command]
    with activated(ObsSpec.from_env()):
        return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
