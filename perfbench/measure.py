"""The measured phases of one benchmark run, untraced and traced.

Every run drives the program through its public API only:
``PipeFillSystem``/``Tenant``/``MultiTenantSimulator`` for the simulation
phases, ``Experiment.sweep`` for the sweep phase, and
``plancache.configure``/``stats`` plus ``clear_shared_caches`` to choose
cold or warm plan state.  Each phase is timed from outside:

* ``plan_cold``  -- first-touch plan search, memos cleared and an empty
  cache directory: ``build_estimate(build_model(m), t)`` for every
  executor x job class the stream submits;
* ``setup``      -- each tenant's ``PipeFillSystem``, the ``Tenant``
  objects and ``MultiTenantSimulator(...)``;
* ``events``     -- ``MultiTenantSimulator.run`` with plans warm;
* ``sweep_cold`` -- ``Experiment.sweep`` against an empty cache directory;
* ``sweep_warm`` -- the same sweep against the populated directory, with
  in-process memos cleared and a fresh journal directory.

Other tenants of the machine move its speed by up to 1.7x within
seconds, so a fixed calibration slice is timed before every sample, and
every untraced metric is reported at a reference host speed (see
``Runner.scaled``).
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.api import Experiment, SweepResult
from repro.core.executor import clear_shared_caches
from repro.core.system import PipeFillSystem
from repro.models.registry import build_model
from repro.pipeline.parallelism import ParallelConfig
from repro.sim.multi_tenant import MultiTenantResult, MultiTenantSimulator, Tenant
from repro.utils import plancache

from perfbench import tracing
from perfbench.workloads import (
    SWEEP_PARAMETER,
    Workload,
    generate_faults,
    generate_jobs,
    job_classes,
    sweep_document,
    sweep_values,
)

#: The seed whose digests are pinned in ``digests.json``.
DEFAULT_SEED = 0
DIGESTS = Path(__file__).with_name("digests.json")

#: Cluster constructions timed together as one ``setup`` sample.
SETUP_REPS = 20
#: Warm sweep passes after each cold pass.
WARM_PASSES = 3
MIN_ROUNDS = 3
TIMED_PHASES = ("plan_cold", "setup", "events", "sweep_cold", "sweep_warm")
#: Untraced/traced sequence pairs in a traced run.
TRACED_PAIRS = 3
#: Iterations of one calibration slice.
CALIBRATION_ITERATIONS = 30_000
#: Seconds a calibration slice lasts at the reference host speed; every
#: untraced sample is reported at that speed (see ``Runner.scaled``).
REFERENCE_SLICE_S = 0.030
#: Slices around a sample whose median gives the host's speed for it:
#: about one round of samples.
CALIBRATION_WINDOW = 7

#: ``probe(phase, edge)`` is called with edge ``"start"``/``"end"``
#: around every timed sample; the sensitivity check counts calls with it.
Probe = Callable[[str, str], None]


def _no_probe(phase: str, edge: str) -> None:
    pass


class Workdir:
    """Fresh directories under ``<root>/.perfbench/tmp-<pid>``, removed on close."""

    def __init__(self, root: Path) -> None:
        self.path = root / ".perfbench" / f"tmp-{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        self._next = 0

    def fresh(self, label: str) -> Path:
        self._next += 1
        path = self.path / f"{label}-{self._next}"
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def calibration_slice() -> float:
    """Seconds a fixed pure-Python loop of heap and dict operations takes.

    The collector is paused for the slice, so that a collection of the
    program's objects never lands in it.
    """
    heap: List[Tuple[int, int]] = []
    table: Dict[int, int] = {}
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for i in range(CALIBRATION_ITERATIONS):
            heapq.heappush(heap, ((i * 7919) % 10007, i))
            if len(heap) > 256:
                key, j = heapq.heappop(heap)
                table[j & 1023] = table.get(j & 1023, 0) + key
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


@dataclass
class Inputs:
    """Everything one run feeds the program, made from the seed."""

    workload: Workload
    seed: int
    streams: Dict[str, list]
    faults: list
    classes: list
    experiment: Experiment
    values: List[Dict[str, int]]

    @classmethod
    def make(cls, workload: Workload, seed: int) -> "Inputs":
        streams = generate_jobs(workload, seed)
        return cls(
            workload=workload,
            seed=seed,
            streams=streams,
            faults=generate_faults(workload),
            classes=job_classes(streams),
            experiment=Experiment.from_dict(sweep_document(workload, seed)),
            values=sweep_values(workload),
        )


def build_cluster(inputs: Inputs) -> Tuple[List[Tenant], MultiTenantSimulator]:
    """The program-side construction ``setup_s`` times."""
    w = inputs.workload
    window = w.window_seconds
    tenants = []
    for shape in w.tenants:
        system = PipeFillSystem(
            build_model(shape.model),
            ParallelConfig(**shape.parallel()),
            devices_per_stage=shape.devices_per_stage,
        )
        tenants.append(
            Tenant(
                shape.name,
                system,
                jobs=inputs.streams[shape.name],
                join_at=None if shape.join_fraction is None else window * shape.join_fraction,
                leave_at=None if shape.leave_fraction is None else window * shape.leave_fraction,
                leave_mode=shape.leave_mode,
            )
        )
    simulator = MultiTenantSimulator(tenants, policy=w.policy, preemption_rule=w.preemption)
    return tenants, simulator


def run_digest(result: MultiTenantResult) -> str:
    return hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True).encode()).hexdigest()


@dataclass
class Check:
    """Counts operations and failures against the expected digests.

    At the default seed the expected digests are the pinned ones; at any
    other seed the first result of each kind becomes the reference the
    later ones must match.
    """

    expected: Dict[str, str]
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)

    @classmethod
    def for_seed(cls, workload: str, seed: int) -> "Check":
        pinned = json.loads(DIGESTS.read_text()).get(workload, {})
        return cls(dict(pinned) if seed == DEFAULT_SEED else {})

    def _matches(self, kind: str, digest: str) -> bool:
        expected = self.expected.setdefault(kind, digest)
        if digest != expected:
            self.notes.append(f"{kind} digest {digest[:16]} != expected {expected[:16]}")
            return False
        return True

    def run(self, result: Optional[MultiTenantResult]) -> None:
        self.attempted += 1
        if result is None or not self._matches("run", run_digest(result)):
            self.failed += 1

    def sweep(self, result: Optional[SweepResult], points: int) -> None:
        if result is None:
            self.attempted += points
            self.failed += points
            return
        self.attempted += len(result.points) + len(result.failures)
        self.failed += len(result.failures)
        if result.failures:
            self.notes.extend(f.describe() for f in result.failures)
        if not self._matches("sweep", result.digest()):
            self.failed += len(result.points)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.attempted > 0


class Runner:
    """Runs the phases of one workload at one seed.

    Every phase method returns its sample's wall time; :meth:`scaled`
    gives all samples so far at the reference host speed.
    """

    def __init__(self, inputs: Inputs, workdir: Workdir, check: Check, probe: Probe = _no_probe):
        self.inputs = inputs
        self.workdir = workdir
        self.check = check
        self.probe = probe
        self.simulator: Optional[MultiTenantSimulator] = None
        self.plan_dir: Optional[Path] = None
        #: Every timed sample in order, ``(phase, wall seconds)``, and the
        #: calibration slice timed just before each.
        self.samples: List[Tuple[str, float]] = []
        self.calibration: List[float] = []

    def _timed(self, phase: str, fn: Callable[[], Any]) -> Tuple[float, Any]:
        gc.collect()
        self.calibration.append(calibration_slice())
        self.probe(phase, "start")
        start = time.perf_counter()
        value = fn()
        elapsed = time.perf_counter() - start
        self.probe(phase, "end")
        self.samples.append((phase, elapsed))
        return elapsed, value

    def scaled(self) -> Dict[str, List[float]]:
        """Every sample's seconds at the reference host speed, per phase.

        At the reference speed a calibration slice takes
        ``REFERENCE_SLICE_S``.  A sample's wall time is multiplied by
        ``REFERENCE_SLICE_S`` over the median of the
        ``CALIBRATION_WINDOW`` slices nearest to it, which span about one
        round: the host's speed drifts within a run, so a run-wide factor
        misses it, while a single 30 ms slice is noisier than the sample
        it would scale.  A change to the program does not touch the
        slices, so it moves a scaled time exactly as it moves the wall
        time.
        """
        out: Dict[str, List[float]] = {phase: [] for phase in TIMED_PHASES}
        n = len(self.calibration)
        for i, (phase, wall) in enumerate(self.samples):
            lo = max(0, min(i - CALIBRATION_WINDOW // 2, n - CALIBRATION_WINDOW))
            local = statistics.median(self.calibration[lo : lo + CALIBRATION_WINDOW])
            out[phase].append(wall * REFERENCE_SLICE_S / local)
        return out

    def plan_cold(self) -> float:
        clear_shared_caches()
        if self.plan_dir is not None:
            shutil.rmtree(self.plan_dir, ignore_errors=True)
        self.plan_dir = self.workdir.fresh("plans")
        plancache.configure(self.plan_dir)
        # Executors bind to the (now empty) shared memos when constructed.
        tenants, _ = build_cluster(self.inputs)
        executors = [ex for t in tenants for ex in t.system.executors.values()]
        classes = self.inputs.classes

        def search() -> None:
            for executor in executors:
                for model_name, job_type in classes:
                    executor.build_estimate(build_model(model_name), job_type)

        elapsed, _ = self._timed("plan_cold", search)
        return elapsed

    def setup(self) -> float:
        """Seconds per construction, over a batch of ``SETUP_REPS``."""

        def build() -> MultiTenantSimulator:
            for _ in range(SETUP_REPS):
                _, simulator = build_cluster(self.inputs)
            return simulator

        elapsed, self.simulator = self._timed("setup", build)
        return elapsed / SETUP_REPS

    def simulate(self) -> Tuple[float, Optional[MultiTenantResult]]:
        assert self.simulator is not None
        w, sim = self.inputs.workload, self.simulator

        def run() -> Optional[MultiTenantResult]:
            try:
                return sim.run(faults=self.inputs.faults, horizon_seconds=w.horizon_seconds)
            except Exception as exc:  # a failed run is counted, not fatal
                self.check.notes.append(f"run raised {type(exc).__name__}: {exc}")
                return None

        elapsed, result = self._timed("events", run)
        self.check.run(result)
        return elapsed, result

    def sweep(self, phase: str, cache: Path) -> Tuple[float, Optional[SweepResult]]:
        clear_shared_caches()
        plancache.configure(cache)
        journal = self.workdir.fresh("journal")
        values = self.inputs.values

        def run() -> Optional[SweepResult]:
            try:
                return self.inputs.experiment.sweep(
                    parameter=SWEEP_PARAMETER, values=values, workers=1, journal_dir=journal
                )
            except Exception as exc:
                self.check.notes.append(f"sweep raised {type(exc).__name__}: {exc}")
                return None

        elapsed, result = self._timed(phase, run)
        shutil.rmtree(journal, ignore_errors=True)
        self.check.sweep(result, len(values))
        return elapsed, result


def measure(
    workload: Workload, seed: int, seconds: float, root: Path, probe: Probe = _no_probe
) -> Tuple[Check, Dict[str, float], Dict[str, List[float]]]:
    """The untraced run: every end-to-end metric, plus its samples.

    The run repeats rounds of all five phases (at least ``MIN_ROUNDS``,
    then while a further round is expected to end within half a round of
    ``seconds``), so every phase is sampled across the whole run instead
    of in one stretch.  Each timed metric is the median of its samples,
    each at the reference host speed (see :meth:`Runner.scaled`).  The
    events run of a round follows its plan search and setup, so its
    plans are always warm.
    """
    inputs = Inputs.make(workload, seed)
    check = Check.for_seed(workload.name, seed)
    workdir = Workdir(root)
    events: List[int] = []
    try:
        runner = Runner(inputs, workdir, check, probe)
        deadline = time.perf_counter() + seconds
        rounds, round_s = 0, 0.0
        while rounds < MIN_ROUNDS or time.perf_counter() + round_s / 2 < deadline:
            rounds += 1
            round_start = time.perf_counter()
            runner.plan_cold()
            runner.setup()
            _, result = runner.simulate()
            events.append(0 if result is None else result.events_processed)
            cache = workdir.fresh("sweep-cache")
            runner.sweep("sweep_cold", cache)
            for _ in range(WARM_PASSES):
                runner.sweep("sweep_warm", cache)
            shutil.rmtree(cache, ignore_errors=True)
            round_s = time.perf_counter() - round_start
    finally:
        plancache.configure(None, enabled=False)
        workdir.close()

    scaled = runner.scaled()
    points = len(inputs.values)
    samples = {
        "plan_cold": scaled["plan_cold"],
        "setup": [s / SETUP_REPS for s in scaled["setup"]],
        "events": [e / s for e, s in zip(events, scaled["events"]) if e],
        "sweep_cold": [points / s for s in scaled["sweep_cold"]],
        "sweep_warm": [points / s for s in scaled["sweep_warm"]],
    }
    median = statistics.median
    metrics = {
        "setup_s": median(samples["setup"]),
        "plan_cold_s": median(samples["plan_cold"]),
        "events_per_s": median(samples["events"] or [0.0]),
        "sweep_cold_points_per_s": median(samples["sweep_cold"]),
        "sweep_warm_points_per_s": median(samples["sweep_warm"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples["calibration"] = runner.calibration
    return check, metrics, samples


def _sweep_events(result: Optional[SweepResult]) -> int:
    if result is None:
        return 0
    return sum(int(p.payload["events_processed"]) for p in result.points)


def _sweep_retries(result: Optional[SweepResult]) -> Tuple[int, int]:
    if result is None:
        return 0, 0
    retries = sum(a - 1 for a in result.attempts().values())
    return retries, len(result.failures)


def _sequence(runner: Runner, workdir: Workdir, tracer: Optional[tracing.Tracer]) -> Dict[str, Any]:
    """plan_cold, setup, events, sweep_cold, sweep_warm: each exactly once."""
    out: Dict[str, Any] = {}
    pack = tracer.index("plan.pack_fill_job") if tracer is not None else -1
    stats0 = plancache.stats()
    out["plan_cold"] = runner.plan_cold()
    out["plan_bytes"] = directory_bytes(runner.plan_dir)
    out["setup"] = runner.setup()
    searches = tracer.calls[pack] if tracer is not None else 0
    out["events"], result = runner.simulate()
    out["searches_in_run"] = (tracer.calls[pack] - searches) if tracer is not None else 0
    out["run_events"] = 0 if result is None else result.events_processed

    cache = workdir.fresh("sweep-cache")
    out["sweep_cold"], cold = runner.sweep("sweep_cold", cache)
    out["sweep_bytes"] = directory_bytes(cache)
    out["sweep_warm"], warm = runner.sweep("sweep_warm", cache)
    shutil.rmtree(cache, ignore_errors=True)
    stats1 = plancache.stats()

    out["events_total"] = out["run_events"] + _sweep_events(cold) + _sweep_events(warm)
    out["plancache"] = {k: stats1[k] - stats0[k] for k in ("hits", "misses", "errors", "quarantined")}
    cold_retries, cold_failed = _sweep_retries(cold)
    warm_retries, warm_failed = _sweep_retries(warm)
    out["sweep_retries"] = cold_retries + warm_retries
    out["sweep_failed"] = cold_failed + warm_failed
    return out


def _traced_metrics(tracer: tracing.Tracer, traced: Dict[str, Any]) -> Dict[str, float]:
    metrics: Dict[str, float] = tracer.span_metrics()
    metrics.update(
        {
            "kernel.events": tracer.counters[tracer.index("kernel.run")],
            "gsched.dispatch.assign_ratio": tracer.ratio("gsched.dispatch"),
            "gsched.try_preempt.success_ratio": tracer.ratio("gsched.try_preempt"),
            "cand.best_for_executor.found_ratio": tracer.ratio("cand.best_for_executor"),
            "plancache.hits": traced["plancache"]["hits"],
            "plancache.misses": traced["plancache"]["misses"],
            "plancache.errors": traced["plancache"]["errors"] + traced["plancache"]["quarantined"],
            "plancache.bytes": traced["plan_bytes"] + traced["sweep_bytes"],
            "sweep.retries": traced["sweep_retries"],
            "sweep.failed_points": traced["sweep_failed"],
            "trace.coverage": tracer.coverage(),
        }
    )
    return metrics


def _counts(metrics: Dict[str, float]) -> Dict[str, float]:
    return {
        k: v
        for k, v in metrics.items()
        if k.endswith(".calls") or k in ("kernel.events", "plancache.hits", "plancache.misses")
    }


def measure_traced(
    workload: Workload, seed: int, root: Path, trace_path: Optional[Path] = None
) -> Tuple[Check, Dict[str, float]]:
    """The traced run: every per-layer metric.

    ``TRACED_PAIRS`` times, the fixed sequence runs untraced and then with
    the span wrappers installed.  Each traced sequence must reproduce the
    digests, event count and plan-cache counts of the untraced one before
    it, must search no plan inside the timed simulation run, and must
    repeat the first traced sequence's counts exactly.  Each per-layer
    metric is the median over the traced sequences; ``trace.overhead``
    compares the median traced and untraced sequence times.
    """
    inputs = Inputs.make(workload, seed)
    check = Check.for_seed(workload.name, seed)
    workdir = Workdir(root)
    names = [span.name for span in tracing.SPANS]
    pairs: List[Tuple[Dict[str, Any], Dict[str, Any], tracing.Tracer]] = []
    try:
        runner = Runner(inputs, workdir, check)
        for _ in range(TRACED_PAIRS):
            base = _sequence(runner, workdir, None)
            tracer = tracing.Tracer(names)
            with tracing.instrument(tracer):
                traced = _sequence(runner, workdir, tracer)
            pairs.append((base, traced, tracer))
    finally:
        plancache.configure(None, enabled=False)
        workdir.close()

    def fail(note: str) -> None:
        check.failed += 1
        check.notes.append(note)

    per_sequence = []
    for i, (base, traced, tracer) in enumerate(pairs):
        metrics = _traced_metrics(tracer, traced)
        if metrics["kernel.events"] != base["events_total"]:
            fail(f"sequence {i}: traced events {metrics['kernel.events']} != untraced {base['events_total']}")
        if traced["plancache"] != base["plancache"]:
            fail(f"sequence {i}: traced plan cache {traced['plancache']} != {base['plancache']}")
        if traced["searches_in_run"]:
            fail(f"sequence {i}: {traced['searches_in_run']} plan searches inside the timed simulation run")
        if per_sequence and _counts(metrics) != _counts(per_sequence[0]):
            moved = sorted(k for k, v in _counts(metrics).items() if per_sequence[0][k] != v)
            fail(f"sequence {i}: counts differ from sequence 0: {moved}")
        per_sequence.append(metrics)

    median = statistics.median
    metrics = {key: median(m[key] for m in per_sequence) for key in per_sequence[0]}
    untraced_s = median(sum(base[p] for p in TIMED_PHASES) for base, _, _ in pairs)
    traced_s = median(sum(traced[p] for p in TIMED_PHASES) for _, traced, _ in pairs)
    metrics["trace.overhead"] = traced_s / untraced_s - 1.0
    if trace_path is not None:
        tracing.write_chrome_trace(
            trace_path,
            [tracer for _, _, tracer in pairs],
            {"workload": workload.name, "seed": seed},
        )
    return check, metrics
