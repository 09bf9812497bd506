"""The fuzz campaign driver behind ``python -m repro fuzz``.

One campaign generates ``runs`` scenarios from a seeded
:class:`~repro.verify.fuzz.ScenarioFuzzer`, executes each under the full
:class:`~repro.verify.invariants.InvariantObserver`, then cross-checks it
with both differential oracles (fast path vs the brute-force
:mod:`repro.verify.reference`, indexed vs generic-fallback candidate
evaluation).  Any failure is greedily shrunk (:mod:`repro.verify.shrink`)
to a minimal reproducer and written to
``repro-failures/<campaign-seed>-<index>.yaml``; the campaign keeps going,
so one broken scenario never hides another.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.verify.fuzz import FuzzBudget, ScenarioFuzzer, resolve_budget
from repro.verify.invariants import InvariantObserver, InvariantViolation
from repro.verify.oracles import (
    DifferentialMismatch,
    check_cache_oracle,
    check_index_oracle,
)
from repro.verify.shrink import shrink_spec, write_reproducer

#: Progress/logging sink: called with one human-readable line at a time.
LogSink = Callable[[str], None]


@dataclass(frozen=True)
class FuzzFailure:
    """One scenario that failed a stage of the campaign."""

    index: int
    scenario: str
    stage: str  # "invariants" | "cache-oracle" | "index-oracle" | "runtime"
    message: str
    reproducer: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "scenario": self.scenario,
            "stage": self.stage,
            "message": self.message,
            "reproducer": self.reproducer,
        }


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of one fuzz campaign."""

    seed: int
    budget: str
    runs: int
    events_processed: int
    oracle_runs: int
    failures: List[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "runs": self.runs,
            "events_processed": self.events_processed,
            "oracle_runs": self.oracle_runs,
            "ok": self.ok,
            "failures": [f.to_dict() for f in self.failures],
        }

    def summary(self) -> str:
        verdict = (
            "all invariants and oracles held"
            if self.ok
            else f"{len(self.failures)} failure(s)"
        )
        return (
            f"fuzz: {self.runs} scenario(s) at budget {self.budget!r} "
            f"(seed {self.seed}, {self.events_processed} events, "
            f"{self.oracle_runs} oracle run(s)): {verdict}"
        )


def _invariant_predicate(observer_factory) -> Callable[[Dict[str, Any]], bool]:
    """Whether a candidate spec still violates *some* invariant."""

    def still_fails(raw: Dict[str, Any]) -> bool:
        from repro.api import Experiment

        try:
            Experiment.from_dict(raw).run(observers=[observer_factory()])
        except InvariantViolation:
            return True
        return False

    return still_fails


def _oracle_predicate(check) -> Callable[[Dict[str, Any]], bool]:
    def still_fails(raw: Dict[str, Any]) -> bool:
        try:
            check(raw)
        except DifferentialMismatch:
            return True
        return False

    return still_fails


def _fuzz_case_worker(payload) -> Dict[str, Any]:
    """Run one fuzz case in a supervised worker process.

    The payload is ``(seed, budget, index, differential, cache_dir)`` --
    everything needed to *regenerate* the case, so nothing scenario-sized
    crosses the process boundary and the parent can rebuild the exact
    spec (for shrinking and reproducers) from the index alone.  Stage
    failures come back as data; only a crash/hang/unexpected error
    surfaces through the supervisor.
    """
    from repro.api import Experiment
    from repro.utils import plancache

    seed, budget, index, differential, cache_dir = payload
    plancache.configure(cache_dir, enabled=cache_dir is not None)
    raw = ScenarioFuzzer(seed=seed, budget=budget).spec_dict(index)
    failures: List[Dict[str, str]] = []
    try:
        result = Experiment.from_dict(dict(raw)).run(
            observers=[InvariantObserver(check_every=1)]
        )
    except InvariantViolation as exc:
        return {
            "events": 0,
            "oracle_runs": 0,
            "failures": [{"stage": "invariants", "message": str(exc)}],
        }
    events = result.raw.events_processed
    digest = result.digest()
    oracle_runs = 0
    if differential:
        try:
            check_cache_oracle(raw, reference_digest=digest)
            oracle_runs += 1
        except DifferentialMismatch as exc:
            failures.append({"stage": "cache-oracle", "message": str(exc)})
        try:
            check_index_oracle(raw, reference_digest=digest)
            oracle_runs += 1
        except DifferentialMismatch as exc:
            failures.append({"stage": "index-oracle", "message": str(exc)})
    return {"events": events, "oracle_runs": oracle_runs, "failures": failures}


def run_fuzz_campaign(
    *,
    seed: int = 0,
    runs: int = 25,
    budget: Union[str, FuzzBudget] = "smoke",
    out_dir: Union[str, Path] = "repro-failures",
    differential: bool = True,
    shrink: bool = True,
    max_shrink_evaluations: int = 60,
    invariant_observer: Optional[Callable[[], InvariantObserver]] = None,
    workers: int = 1,
    timeout_seconds: Optional[float] = None,
    max_retries: int = 0,
    log: Optional[LogSink] = None,
) -> FuzzReport:
    """Run one fuzz campaign; returns a :class:`FuzzReport`.

    Parameters
    ----------
    seed, runs, budget:
        The campaign triple: ``runs`` scenarios generated by
        ``ScenarioFuzzer(seed, budget)`` at indices ``0..runs-1``.
    out_dir:
        Where shrunk reproducers of failures are written
        (``<out_dir>/<seed>-<index>.yaml``); created on first failure.
    differential:
        Also run both differential oracles per scenario (the expensive
        half: the brute-force path rebuilds every estimate).
    shrink:
        Minimize failing scenarios before writing the reproducer;
        disabling writes the original spec as-is.
    max_shrink_evaluations:
        Re-execution budget of each shrink (every candidate is a full
        simulation).
    invariant_observer:
        Factory for the observer checked on every run; defaults to a
        full :class:`InvariantObserver` sweeping at every event.  A
        custom factory forces the inline path (it cannot be shipped to
        worker processes).
    workers, timeout_seconds, max_retries:
        Supervised execution (:mod:`repro.exec`): ``workers > 1`` or a
        timeout runs each case in a supervised worker process, so a case
        that crashes the interpreter or hangs the plan search becomes a
        structured ``"runtime"`` failure with a reproducer instead of
        killing (or stalling) the whole campaign.  ``max_retries``
        defaults to 0: fuzz cases are deterministic, so a crash is
        itself a finding, not noise to retry away.
    log:
        Optional line sink for progress output (the CLI passes one).
    """
    from repro.api import Experiment

    budget = resolve_budget(budget)
    fuzzer = ScenarioFuzzer(seed=seed, budget=budget)
    observer_factory = invariant_observer or (
        lambda: InvariantObserver(check_every=1)
    )
    out_dir = Path(out_dir)
    failures: List[FuzzFailure] = []
    events = 0
    oracle_runs = 0

    def emit(line: str) -> None:
        if log is not None:
            log(line)

    def record(index: int, raw: Dict[str, Any], stage: str, message: str,
               predicate: Callable[[Dict[str, Any]], bool]) -> None:
        reproducer: Optional[str] = None
        spec = raw
        if shrink:
            emit(f"  shrinking {raw['name']} ({stage})...")
            try:
                spec = shrink_spec(
                    raw, predicate, max_evaluations=max_shrink_evaluations
                )
            except ValueError:
                spec = raw  # flaky failure: keep the original reproducer
        path = write_reproducer(
            spec,
            out_dir / f"{seed}-{index}.yaml",
            header=(
                f"{stage} failure found by ScenarioFuzzer(seed={seed}, "
                f"budget={budget.name!r}) at index {index}\n{message}"
            ),
        )
        reproducer = str(path)
        failures.append(
            FuzzFailure(
                index=index,
                scenario=str(raw.get("name", "?")),
                stage=stage,
                message=message,
                reproducer=reproducer,
            )
        )
        emit(f"  FAIL [{stage}] {message} -> {reproducer}")

    supervised = (
        (workers > 1 or timeout_seconds is not None)
        and invariant_observer is None
    )
    if supervised:
        from repro.exec import RetryPolicy, SupervisedTask, Supervisor
        from repro.utils import plancache

        cache_dir = (
            str(plancache.cache_dir()) if plancache.is_enabled() else None
        )
        tasks = [
            SupervisedTask(
                key=f"{seed}-{index}",
                payload=(seed, budget, index, differential, cache_dir),
                description=f"fuzz case {index}",
            )
            for index in range(runs)
        ]
        index_of = {task.key: i for i, task in enumerate(tasks)}
        done = 0

        def on_outcome(outcome) -> None:
            nonlocal done
            done += 1
            if outcome.ok:
                emit(f"[{done}/{runs}] case {index_of[outcome.key]} done")
            else:
                emit(
                    f"[{done}/{runs}] case {index_of[outcome.key]} RUNTIME "
                    f"FAILURE: {outcome.failure.describe()}"
                )

        supervisor = Supervisor(
            _fuzz_case_worker,
            workers=workers,
            retry=RetryPolicy(
                max_retries=max_retries, timeout_seconds=timeout_seconds
            ),
            on_outcome=on_outcome,
        )
        outcomes = supervisor.run(tasks)
        for outcome in outcomes:
            index = index_of[outcome.key]
            if not outcome.ok:
                # The interpreter died or hung mid-case: there is no
                # in-process exception to shrink against, so write the
                # spec as-is (regenerated from the index) and record a
                # structured "runtime" failure.
                raw = fuzzer.spec_dict(index)
                message = outcome.failure.describe()
                path = write_reproducer(
                    raw,
                    out_dir / f"{seed}-{index}.yaml",
                    header=(
                        f"runtime failure found by ScenarioFuzzer(seed={seed}, "
                        f"budget={budget.name!r}) at index {index}\n{message}"
                    ),
                )
                failures.append(
                    FuzzFailure(
                        index=index,
                        scenario=str(raw.get("name", "?")),
                        stage="runtime",
                        message=message,
                        reproducer=str(path),
                    )
                )
                continue
            events += outcome.result["events"]
            oracle_runs += outcome.result["oracle_runs"]
            for item in outcome.result["failures"]:
                raw = fuzzer.spec_dict(index)
                stage = item["stage"]
                if stage == "invariants":
                    predicate = _invariant_predicate(observer_factory)
                elif stage == "cache-oracle":
                    predicate = _oracle_predicate(check_cache_oracle)
                else:
                    predicate = _oracle_predicate(check_index_oracle)
                record(index, raw, stage, item["message"], predicate)
        failures.sort(key=lambda f: f.index)
    else:
        for index in range(runs):
            raw = fuzzer.spec_dict(index)
            emit(f"[{index + 1}/{runs}] {raw['name']}")
            digest: Optional[str] = None
            try:
                result = Experiment.from_dict(dict(raw)).run(
                    observers=[observer_factory()]
                )
                events += result.raw.events_processed
                digest = result.digest()
            except InvariantViolation as exc:
                record(
                    index,
                    raw,
                    "invariants",
                    str(exc),
                    _invariant_predicate(observer_factory),
                )
                continue
            if not differential:
                continue
            try:
                check_cache_oracle(raw, reference_digest=digest)
                oracle_runs += 1
            except DifferentialMismatch as exc:
                record(index, raw, "cache-oracle", str(exc),
                       _oracle_predicate(check_cache_oracle))
            try:
                check_index_oracle(raw, reference_digest=digest)
                oracle_runs += 1
            except DifferentialMismatch as exc:
                record(index, raw, "index-oracle", str(exc),
                       _oracle_predicate(check_index_oracle))

    report = FuzzReport(
        seed=seed,
        budget=budget.name,
        runs=runs,
        events_processed=events,
        oracle_runs=oracle_runs,
        failures=failures,
    )
    emit(report.summary())
    return report
