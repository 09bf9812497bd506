"""The ``repro`` command-line interface: ``python -m repro <command>``.

The CLI is a thin argparse shell over the public library API
(:mod:`repro.api`): every command builds an
:class:`~repro.api.Experiment` and prints/serialises its typed result, so
anything the CLI does is equally available to notebooks and services, and
all ``--json`` payloads carry a ``schema_version`` (frozen schema v1, see
``docs/api.md``).

Seven commands cover the common workflows:

``run``
    Simulate one scenario file and print per-tenant plus aggregate
    fill-throughput metrics::

        python -m repro run scenarios/multi_tenant.yaml
        python -m repro run scenarios/quickstart.yaml --json -
        python -m repro run scenarios/smoke.yaml --set policy=edf+sjf

``validate``
    Load and validate a scenario spec (including ``faults:`` and elastic
    tenant blocks) without running it; exits non-zero with the
    ``ScenarioError`` message on a malformed spec::

        python -m repro validate scenarios/faulty_cluster.yaml

``sweep``
    Re-run a scenario across a parameter grid, fanning the runs out over
    *supervised* worker processes (see ``docs/robustness.md``).  The grid
    comes from the scenario's ``sweep`` block or from
    ``--parameter/--values`` overrides; every grid point is validated
    *before* any worker spawns, so a typo'd path or value is a one-line
    error instead of N worker tracebacks.  A worker that crashes, raises
    or exceeds ``--timeout`` is retried with backoff up to
    ``--max-retries``; a point that exhausts its budget is reported as a
    structured failure (exit 1) instead of aborting the grid.  Completed
    points are journaled under ``<cache-dir>/sweeps/<sweep_id>/`` so an
    interrupted sweep (exit 130) resumes with ``--resume auto`` and
    merges bit-identically; ``--chaos`` injects faults for testing::

        python -m repro sweep scenarios/multi_tenant.yaml
        python -m repro sweep scenarios/multi_tenant.yaml \\
            --parameter policy --values sjf,edf+sjf,slack+sjf --workers 3
        python -m repro sweep scenarios/multi_tenant.yaml --resume auto
        python -m repro sweep scenarios/smoke.yaml \\
            --chaos kill --chaos-rate 0.5 --timeout 120

    ``--shard i/N`` runs one content-keyed shard of the grid, for
    fanning a sweep out across processes or machines; the partial
    outputs recombine bit-identically with ``repro merge`` (see
    ``docs/distributed.md``)::

        python -m repro sweep scenarios/multi_tenant.yaml --shard 0/2 \\
            --json shard0.json

``merge``
    Recombine the outputs of ``repro sweep --shard i/N`` (result JSON
    files and/or shard journals) into the exact payload the unsharded
    sweep would have produced (see ``docs/distributed.md``); refuses
    grid-digest mismatches and incomplete shard sets::

        python -m repro merge shard0.json shard1.json --json merged.json
        python -m repro merge .repro-cache/sweeps/<id>-shard*of2 --json -

``report``
    Regenerate the paper's tables/figures (the same harnesses as
    ``benchmarks/``) and write ``EXPERIMENTS.md``; with ``--only``, print
    the selected sections unless ``--output`` names a file::

        python -m repro report
        python -m repro report --only "Figure 9"

``profile``
    Run one scenario and report the kernel's per-event-kind handler
    timings plus plan-cache traffic (see ``docs/performance.md``)::

        python -m repro profile scenarios/multi_tenant.yaml
        python -m repro profile scenarios/multi_tenant.yaml --json -

``fuzz``
    Run a property-based verification campaign: generate random valid
    scenarios from a seeded fuzzer, execute each under the runtime
    invariant engine, cross-check with the differential oracles, and
    shrink any failure to a minimal reproducer under ``repro-failures/``
    (see ``docs/testing.md``)::

        python -m repro fuzz --seed 0 --runs 25 --budget smoke
        python -m repro fuzz --seed 7 --runs 100 --budget deep --json -

``run``, ``validate``, ``sweep`` and ``profile`` accept repeatable
``--set PATH=VALUE`` dotted-path overrides (the sweep-grid syntax, e.g.
``--set tenants.0.workload.arrival_rate_per_hour=240``).  Scheduling
policies, preemption rules, arrival processes and fault models all
resolve through the unified registries (:mod:`repro.registry`),
so plugins installed under the ``repro.plugins`` entry-point group are
addressable by name from every command.

``run``, ``sweep``, ``profile`` and ``fuzz`` share a persistent plan
cache under ``.repro-cache/`` (``--cache-dir`` to relocate,
``--no-disk-cache`` to opt out), so repeated invocations and sweep
workers on one machine pay each plan search once.  Shards on other
machines share plans by copying or concatenating the cache's log files
(see ``docs/distributed.md``).  Scenario files are documented in
``docs/scenarios.md``; every command exits non-zero with a one-line
error for malformed specs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro._version import __version__
from repro.api import Experiment, ProfileResult, RunResult, ScenarioError, SweepResult
from repro.sim.scenario import ScenarioSpec
from repro.utils import plancache
from repro.utils.tables import Table

#: Default location of the persistent plan/estimate cache shared by
#: ``run``/``sweep``/``profile``/``fuzz`` (see repro.utils.plancache).
DEFAULT_CACHE_DIR = ".repro-cache"


def _add_cache_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="PATH",
        help=f"persistent plan-cache directory (default: {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-disk-cache",
        action="store_true",
        help="disable the persistent plan cache for this invocation",
    )


def _add_set_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--set",
        action="append",
        dest="overrides",
        metavar="PATH=VALUE",
        help="dotted-path scenario override (repeatable), e.g. --set policy=edf+sjf",
    )


def _configure_plancache(args: argparse.Namespace) -> None:
    plancache.configure(None if args.no_disk_cache else args.cache_dir)


def _coerce_scalar(token: str) -> Any:
    """Parse a CLI override value: int, float, bool, null or plain string."""
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("null", "none"):
        return None
    for parser in (int, float):
        try:
            return parser(token)
        except ValueError:
            continue
    return token


def _experiment(args: argparse.Namespace) -> Experiment:
    """The command's Experiment: the scenario file plus ``--set`` overrides."""
    exp = Experiment.from_yaml(args.scenario)
    for item in getattr(args, "overrides", None) or ():
        path, sep, value = item.partition("=")
        if not sep or not path:
            raise ScenarioError(f"--set expects PATH=VALUE, got {item!r}")
        exp = exp.with_override(path, _coerce_scalar(value))
    return exp


def _print_result(spec: ScenarioSpec, result: RunResult, *, stream=None) -> None:
    stream = stream or sys.stdout
    header = f"Scenario: {spec.name}"
    if spec.description:
        header += f" -- {spec.description}"
    print(header, file=stream)
    print(
        f"policy={spec.policy}"
        + (f" preemption={spec.preemption}" if spec.preemption else "")
        + f" horizon={spec.horizon_seconds:.0f}s"
        + f" tenants={len(spec.tenants)}",
        file=stream,
    )
    print("", file=stream)
    print(result.summary_table().to_ascii(), file=stream)
    agg = result.aggregate
    print("", file=stream)
    print(
        f"Aggregate: {agg.jobs_completed}/{agg.jobs_submitted} jobs completed, "
        f"{result.fill_tflops_per_device:.2f} recovered TFLOP/s per device, "
        f"{agg.num_preemptions} preemption(s), "
        f"{result.backlog_remaining} left in backlog.",
        file=stream,
    )


def _write_json(payload: Dict[str, Any], destination: str) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if destination == "-":
        print(text)
    else:
        Path(destination).write_text(text + "\n")


# -- run ---------------------------------------------------------------------------


def cmd_run(args: argparse.Namespace) -> int:
    _configure_plancache(args)
    exp = _experiment(args)
    result = exp.run()
    if args.json != "-":  # '-' means: stdout carries pure JSON instead
        _print_result(exp.spec, result)
    if args.json:
        _write_json(result.to_dict(include_timings=True), args.json)
    return 0


# -- validate ----------------------------------------------------------------------


def cmd_validate(args: argparse.Namespace) -> int:
    """Load + validate a scenario spec without simulating anything.

    A malformed spec raises :class:`ScenarioError`, which ``main`` turns
    into a one-line error on stderr and exit code 2.
    """
    spec = _experiment(args).validate()
    dynamics = []
    if spec.faults:
        dynamics.append(f"{len(spec.faults)} fault(s)")
    elastic = sum(
        1 for t in spec.tenants if t.join_at is not None or t.leave_at is not None
    )
    if elastic:
        dynamics.append(f"{elastic} elastic tenant(s)")
    open_loop = sum(1 for t in spec.tenants if t.workload.open_loop)
    if open_loop:
        dynamics.append(f"{open_loop} open-loop workload(s)")
    print(
        f"ok: scenario {spec.name!r} is valid -- "
        f"{len(spec.tenants)} tenant(s), policy={spec.policy}, "
        f"horizon={spec.horizon_seconds:.0f}s"
        + (", " + ", ".join(dynamics) if dynamics else "")
    )
    return 0


# -- sweep -------------------------------------------------------------------------


def _chaos_plan(args: argparse.Namespace):
    """The ChaosPlan described by ``--chaos*`` flags (None without --chaos)."""
    if not args.chaos:
        return None
    from repro.api import ChaosPlan
    from repro.registry import chaos_injectors

    if args.chaos not in chaos_injectors.names():
        raise ScenarioError(
            f"unknown chaos injector {args.chaos!r}; "
            f"known: {sorted(chaos_injectors.names())}"
        )
    params: Dict[str, Any] = {}
    for item in args.chaos_arg or ():
        key, sep, value = item.partition("=")
        if not sep or not key:
            raise ScenarioError(f"--chaos-arg expects KEY=VALUE, got {item!r}")
        params[key] = _coerce_scalar(value)
    return ChaosPlan.build(
        args.chaos,
        params,
        probability=args.chaos_rate,
        max_attempt=args.chaos_attempts,
        seed=args.chaos_seed,
    )


def _parse_shard(text: Optional[str]) -> tuple:
    """Parse ``--shard I/N`` into ``(shard_index, shards)``; (0, None) when unset."""
    if not text:
        return 0, None
    index_text, sep, count_text = text.partition("/")
    try:
        if not sep:
            raise ValueError
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ScenarioError(
            f"--shard expects I/N with 0 <= I < N (e.g. 1/4), got {text!r}"
        ) from None
    if count < 1 or not 0 <= index < count:
        raise ScenarioError(
            f"--shard expects I/N with 0 <= I < N (e.g. 1/4), got {text!r}"
        )
    return index, count


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.api import SweepInterrupted

    _configure_plancache(args)
    exp = _experiment(args)
    parameter = args.parameter or None
    values = (
        [_coerce_scalar(v) for v in args.values.split(",")]
        if args.parameter and args.values
        else [] if args.parameter else None
    )
    journal_dir = (
        None if args.no_resume_journal else str(Path(args.cache_dir) / "sweeps")
    )
    shard_index, shards = _parse_shard(args.shard)
    stdout_json = args.json == "-"
    # Fail-fast validation of every grid point happens inside the facade,
    # before any worker process spawns.
    try:
        result = exp.sweep(
            parameter=parameter,
            values=values,
            workers=args.workers,
            max_retries=args.max_retries,
            timeout_seconds=args.timeout,
            journal_dir=journal_dir,
            resume=args.resume,
            chaos=_chaos_plan(args),
            shards=shards,
            shard_index=shard_index,
            log=lambda line: print(line, file=sys.stderr),
        )
    except SweepInterrupted as exc:
        print(f"error: {exc}", file=sys.stderr)
        if journal_dir is not None:
            print(
                f"hint: rerun with --resume {exc.sweep_id} (or --resume auto) "
                f"to continue from the journal",
                file=sys.stderr,
            )
        return 130
    if not stdout_json:
        _print_sweep_table(exp.spec, result)
    if args.json:
        _write_json(result.to_dict(), args.json)
    if result.failures:
        for failure in result.failures:
            print(f"error: sweep point {failure.describe()}", file=sys.stderr)
        if journal_dir is not None:
            print(
                f"hint: {len(result.failures)} point(s) failed; rerun with "
                f"--resume {result.sweep_id} to re-attempt just those",
                file=sys.stderr,
            )
        return 1
    return 0


def _print_sweep_table(spec: ScenarioSpec, result: SweepResult) -> None:
    table = Table(
        columns=[
            result.parameter,
            "completed",
            "submitted",
            "fill TFLOP/s per GPU",
            "avg JCT (s)",
            "makespan (s)",
            "deadline hit rate",
            "preemptions",
        ],
        title=f"Sweep of {result.parameter!r} on scenario {spec.name!r}",
        formats={
            "fill TFLOP/s per GPU": ".2f",
            "avg JCT (s)": ".1f",
            "makespan (s)": ".1f",
            "deadline hit rate": ".1%",
        },
    )
    for point in result.points:
        agg = point.aggregate
        table.add_row(
            str(point.value),
            agg["jobs_completed"],
            agg["jobs_submitted"],
            point.payload["fill_tflops_per_device"],
            agg["average_jct"],
            agg["makespan"],
            agg["deadline_hit_rate"] if agg["deadlines_total"] else None,
            agg["num_preemptions"],
        )
    print(table.to_ascii())


# -- merge -------------------------------------------------------------------------


def cmd_merge(args: argparse.Namespace) -> int:
    """Recombine sharded sweep partials into one canonical sweep payload."""
    from repro.api.results import result_digest
    from repro.api.schema import validate_sweep_payload
    from repro.dist import MergeError, load_partial, merge_sweep_payloads

    try:
        partials = [load_partial(path) for path in args.inputs]
        merged = merge_sweep_payloads(partials, sources=args.inputs)
    except MergeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    validate_sweep_payload(merged)
    core = [
        {
            key: value
            for key, value in entry.items()
            if key not in ("parameter", "value", "point_key")
        }
        for entry in merged["sweep"]
    ]
    digest = result_digest({"points": core})
    stdout_json = args.json == "-"
    if args.json:
        _write_json(merged, args.json)
    if not stdout_json:
        failed = merged["failed_points"]
        print(
            f"merged {len(partials)} partial(s) of sweep {merged['sweep_id']}: "
            f"{len(merged['sweep'])} point(s)"
            + (f", {len(failed)} failed" if failed else "")
            + f" on scenario {merged['scenario']!r}; result digest {digest}"
        )
    if merged["failed_points"]:
        for failure in merged["failed_points"]:
            print(
                f"error: sweep point {failure['parameter']}="
                f"{failure['value']}: [{failure['kind']}] "
                f"{failure['error_type']}: {failure['message']}",
                file=sys.stderr,
            )
        return 1
    return 0


# -- report ------------------------------------------------------------------------


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments.report import run_all, write_report

    only = args.only or None
    results = run_all(only)
    if not results:
        print(f"error: no experiments matched {only!r}", file=sys.stderr)
        return 2
    # A subset goes to stdout unless asked for: it must never replace the
    # whole report by default.
    output = args.output or ("-" if only else "EXPERIMENTS.md")
    write_report(results, output)
    if output != "-":
        print(f"wrote {len(results)} experiment section(s) to {output}")
    return 0


# -- profile -----------------------------------------------------------------------


def cmd_profile(args: argparse.Namespace) -> int:
    """Run one scenario and report where the simulation time went."""
    _configure_plancache(args)
    exp = _experiment(args)
    profile = exp.profile()
    stdout_json = args.json == "-"
    if not stdout_json:
        _print_profile(args.scenario, exp.spec, profile)
    if args.json:
        _write_json(profile.to_dict(), args.json)
    if args.trace:
        _write_json(profile.to_chrome_trace(), args.trace)
        if not stdout_json and args.trace != "-":
            print(
                f"wrote Chrome trace to {args.trace} "
                "(open in Perfetto or chrome://tracing)"
            )
    return 0


def _print_profile(scenario_path: str, spec: ScenarioSpec, profile: ProfileResult) -> None:
    counts = dict(profile.events_by_kind)
    timings = dict(profile.timings_by_kind)
    handler_total = profile.handler_seconds
    wall = profile.wall_seconds
    print(
        f"Scenario: {spec.name} -- {profile.events_processed} events in {wall:.3f}s"
    )
    table = Table(
        columns=["event kind", "events", "total (s)", "avg (us)", "share"],
        title=f"repro profile {scenario_path}",
        formats={"total (s)": ".4f", "avg (us)": ".1f", "share": ".1%"},
    )
    for kind in sorted(counts):
        seconds = timings.get(kind, 0.0)
        count = counts[kind]
        table.add_row(
            kind,
            count,
            seconds,
            1e6 * seconds / count if count else 0.0,
            seconds / handler_total if handler_total > 0 else 0.0,
        )
    print(table.to_ascii())
    cache = profile.plan_cache
    if cache.get("enabled"):
        print(
            f"plan cache ({plancache.cache_dir()}): "
            f"{cache['hits']} hit(s), {cache['misses']} miss(es), "
            f"{cache['writes']} write(s), {cache['errors']} error(s), "
            f"{cache['quarantined']} quarantined"
        )
    else:
        print("plan cache: disabled")
    print(
        f"handlers: {handler_total:.3f}s of {wall:.3f}s wall-clock "
        f"({profile.events_processed / wall:.0f} events/sec overall)"
    )


# -- fuzz --------------------------------------------------------------------------


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Run one property-based verification campaign (see docs/testing.md)."""
    from repro.verify import run_fuzz_campaign

    _configure_plancache(args)
    stdout_json = args.json == "-"
    say = (lambda line: None) if stdout_json else print
    report = run_fuzz_campaign(
        seed=args.seed,
        runs=args.runs,
        budget=args.budget,
        out_dir=args.out,
        differential=not args.no_differential,
        shrink=not args.no_shrink,
        workers=args.workers,
        timeout_seconds=args.timeout,
        log=say,
    )
    if args.json:
        _write_json(report.to_dict(), args.json)
    if not report.ok:
        print(
            f"error: {len(report.failures)} failing scenario(s); "
            f"reproducers under {args.out}/",
            file=sys.stderr,
        )
        return 1
    return 0


# -- lint --------------------------------------------------------------------------


def cmd_lint(args: argparse.Namespace) -> int:
    """Statically verify the tree against the bit-identity contracts."""
    from repro.analysis import FORMATTERS, load_rules, run_lint

    if args.list_rules:
        for rule in load_rules():
            print(f"{rule.id:<22} [{rule.family}] {rule.description}")
        return 0
    try:
        report = run_lint(args.paths, rule_ids=args.rule)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    output = FORMATTERS[args.format](report)
    print(output)
    return 0 if report.ok else 1


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PipeFill reproduction: run, sweep and report cluster simulations.",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate one scenario file")
    run_p.add_argument("scenario", help="path to a .yaml/.json scenario spec")
    run_p.add_argument(
        "--json",
        metavar="PATH",
        help="write the result as JSON to PATH ('-' for stdout)",
    )
    _add_set_flag(run_p)
    _add_cache_flags(run_p)
    run_p.set_defaults(func=cmd_run)

    profile_p = sub.add_parser(
        "profile",
        help="run one scenario and report per-event-kind handler timings",
    )
    profile_p.add_argument("scenario", help="path to a .yaml/.json scenario spec")
    profile_p.add_argument(
        "--json",
        metavar="PATH",
        help="write the timing profile as JSON to PATH ('-' for stdout)",
    )
    profile_p.add_argument(
        "--trace",
        metavar="PATH",
        help="write the profile as a Chrome trace (Perfetto/chrome://tracing) "
        "to PATH ('-' for stdout)",
    )
    _add_set_flag(profile_p)
    _add_cache_flags(profile_p)
    profile_p.set_defaults(func=cmd_profile)

    validate_p = sub.add_parser(
        "validate", help="load and validate a scenario file without running it"
    )
    validate_p.add_argument("scenario", help="path to a .yaml/.json scenario spec")
    _add_set_flag(validate_p)
    validate_p.set_defaults(func=cmd_validate)

    sweep_p = sub.add_parser("sweep", help="run a scenario across a parameter grid")
    sweep_p.add_argument("scenario", help="path to a .yaml/.json scenario spec")
    sweep_p.add_argument(
        "--parameter",
        help="dotted path to override (e.g. policy, tenants.0.workload.arrival_rate_per_hour)",
    )
    sweep_p.add_argument("--values", help="comma-separated values for --parameter")
    sweep_p.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (default: min(len(values), 4); 1 disables fan-out)",
    )
    sweep_p.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="extra attempts per grid point after a crash/timeout/error (default: 2)",
    )
    sweep_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-point wall-clock limit; a hung worker is killed and retried "
        "(default: no limit; needs --workers > 1)",
    )
    sweep_p.add_argument(
        "--shard",
        metavar="I/N",
        help="run only shard I of N (0-based, e.g. --shard 0/4): the grid "
        "is split by stable content keys, so N independent invocations "
        "cover it exactly once and 'repro merge' recombines their outputs",
    )
    sweep_p.add_argument(
        "--resume",
        metavar="SWEEP_ID",
        help="resume a journaled sweep, skipping completed points "
        "('auto' resolves this grid's own sweep id)",
    )
    sweep_p.add_argument(
        "--no-resume-journal",
        action="store_true",
        help="disable the checkpoint journal under <cache-dir>/sweeps/",
    )
    sweep_p.add_argument(
        "--chaos",
        metavar="INJECTOR",
        help="inject a registered chaos fault into worker attempts "
        "(kill, sleep, exception, interrupt, truncate-cache; testing)",
    )
    sweep_p.add_argument(
        "--chaos-rate",
        type=float,
        default=1.0,
        metavar="P",
        help="probability an eligible attempt is injected (default: 1.0)",
    )
    sweep_p.add_argument(
        "--chaos-attempts",
        type=int,
        default=1,
        metavar="N",
        help="inject only into attempts <= N, so retries can succeed (default: 1)",
    )
    sweep_p.add_argument(
        "--chaos-seed",
        type=int,
        default=0,
        help="seed of the deterministic injection decision (default: 0)",
    )
    sweep_p.add_argument(
        "--chaos-arg",
        action="append",
        metavar="KEY=VALUE",
        help="injector parameter (repeatable), e.g. --chaos-arg seconds=30",
    )
    sweep_p.add_argument("--json", metavar="PATH", help="also write results as JSON")
    _add_set_flag(sweep_p)
    _add_cache_flags(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    merge_p = sub.add_parser(
        "merge",
        help="recombine sharded sweep partials into one sweep result",
    )
    merge_p.add_argument(
        "inputs",
        nargs="+",
        metavar="PARTIAL",
        help="shard outputs to merge: 'repro sweep --shard i/N --json' files "
        "and/or shard journals (<cache-dir>/sweeps/<journal-id>[/journal.jsonl])",
    )
    merge_p.add_argument(
        "--json",
        metavar="PATH",
        help="write the merged sweep payload as JSON to PATH ('-' for stdout)",
    )
    merge_p.set_defaults(func=cmd_merge)

    report_p = sub.add_parser("report", help="regenerate the paper-experiment report")
    report_p.add_argument(
        "--output",
        help="output path ('-' for stdout; default: EXPERIMENTS.md, or "
        "stdout with --only)",
    )
    report_p.add_argument(
        "--only",
        action="append",
        metavar="ID",
        help="run only this experiment id (repeatable), e.g. --only 'Figure 9'",
    )
    report_p.set_defaults(func=cmd_report)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="fuzz random scenarios under the invariant engine and oracles",
    )
    from repro.registry import fuzz_budgets as _FUZZ_BUDGETS

    fuzz_p.add_argument(
        "--seed", type=int, default=0, help="campaign seed (default: 0)"
    )
    fuzz_p.add_argument(
        "--runs", type=int, default=25, help="scenarios to generate (default: 25)"
    )
    fuzz_p.add_argument(
        "--budget",
        default="smoke",
        choices=_FUZZ_BUDGETS.names(),
        help="size/complexity preset (default: smoke)",
    )
    fuzz_p.add_argument(
        "--out",
        default="repro-failures",
        metavar="DIR",
        help="directory for shrunk failure reproducers (default: repro-failures)",
    )
    fuzz_p.add_argument(
        "--no-differential",
        action="store_true",
        help="skip the differential oracles (invariants only)",
    )
    fuzz_p.add_argument(
        "--no-shrink",
        action="store_true",
        help="write failing scenarios as-is instead of shrinking them",
    )
    fuzz_p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="supervised worker processes; a crashed case becomes a "
        "'runtime' failure instead of killing the campaign (default: 1)",
    )
    fuzz_p.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-case wall-clock limit under supervision (default: none)",
    )
    fuzz_p.add_argument(
        "--json",
        metavar="PATH",
        help="write the campaign report as JSON to PATH ('-' for stdout)",
    )
    _add_cache_flags(fuzz_p)
    fuzz_p.set_defaults(func=cmd_fuzz)

    lint_p = sub.add_parser(
        "lint",
        help="statically check determinism & consistency contracts",
    )
    lint_p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        metavar="PATH",
        help="files or directories to lint (default: src)",
    )
    lint_p.add_argument(
        "--format",
        default="text",
        choices=("text", "json", "github"),
        help="output format (default: text; github emits workflow annotations)",
    )
    lint_p.add_argument(
        "--rule",
        action="append",
        metavar="ID",
        help="run only this rule id (repeatable; default: all registered rules)",
    )
    lint_p.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules (id, family, description) and exit",
    )
    lint_p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Output was piped into a pager/head that exited early.
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
