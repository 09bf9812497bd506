"""Fill-job scheduling and preemption policies.

The Fill Job Scheduler exposes its policy as a scoring function
``f(job, state, executor_index) -> score`` (Section 4.4): whenever a device
finishes a fill job, the scheduler submits the queued job with the highest
score for that device.  This module provides the policies evaluated in the
paper (Shortest-Job-First and Makespan-Minimizing), plus FIFO,
Earliest-Deadline-First, Least-Slack-First and weighted composition for
hierarchical policies.

For multi-tenant clusters the module also defines *preemption rules*: a
rule ``f(arriving, running, state) -> score`` inspects an arriving
deadline-constrained job and one running job and returns a positive score
when interrupting the running job to start the arrival is worthwhile
(see :class:`~repro.core.global_scheduler.GlobalScheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Optional, Sequence, Tuple

from repro import registry
from repro.utils.validation import check_non_negative

_EPS = 1e-12


@dataclass(frozen=True)
class JobView:
    """The job information a policy may inspect.

    ``proc_times`` maps executor index to the job's predicted processing
    time on that executor (infinite when the job does not fit there).
    """

    job_id: str
    arrival_time: float
    proc_times: Mapping[int, float]
    deadline: Optional[float] = None

    @cached_property
    def min_proc_time(self) -> float:
        """Fastest predicted processing time across all executors.

        Cached on the (frozen, immutable) view: policies consult it once
        per scored (job, executor) pair, and schedulers reuse views across
        whole dispatch sweeps.
        """
        finite = [t for t in self.proc_times.values() if t != float("inf")]
        return min(finite) if finite else float("inf")


@dataclass(frozen=True)
class SchedulerView:
    """The scheduler state a policy may inspect."""

    now: float
    rem_times: Mapping[int, float] = field(default_factory=dict)

    @property
    def max_rem_time(self) -> float:
        """Longest remaining busy time across all executors."""
        return max(self.rem_times.values(), default=0.0)


#: A scheduling policy: higher score wins, and ties go to the job queued
#: first.  ``-inf`` means "never place this job on this executor": when
#: every waiting job scores ``-inf``, the executor stays idle.  A NaN score
#: is an error: dispatch raises ``ValueError`` naming the policy and the job.
SchedulingPolicy = Callable[[JobView, SchedulerView, int], float]


def nan_score_error(policy: SchedulingPolicy, job_id: str) -> ValueError:
    """The error raised when ``policy`` scores job ``job_id`` NaN."""
    name = getattr(policy, "__qualname__", None) or repr(policy)
    return ValueError(f"policy {name} scored job {job_id!r} NaN; scores must be numbers or -inf")


def fifo_policy(job: JobView, state: SchedulerView, executor_index: int) -> float:
    """First-in-first-out: the job that has waited longest wins."""
    return state.now - job.arrival_time


def sjf_policy(job: JobView, state: SchedulerView, executor_index: int) -> float:
    """Shortest-Job-First: ``1 / min(proc_times)`` (the paper's example)."""
    return 1.0 / (job.min_proc_time + _EPS)


# Scan/index metadata (consumed by repro.core.candidates):
#
# ``scan_kind`` names the closed-form shape of a shipped primitive so the
# candidate index can evaluate it in a flat loop with *bit-identical*
# arithmetic; ``static_score`` marks a policy whose score for a fixed
# JobView depends on neither ``now``, ``rem_times`` nor the executor
# index, which is what allows keeping candidates in a score-ordered heap
# between events.  Policies without either attribute still work -- the
# index falls back to calling them per candidate.
sjf_policy.static_score = True  # type: ignore[attr-defined]
sjf_policy.scan_kind = "sjf"  # type: ignore[attr-defined]
fifo_policy.scan_kind = "fifo"  # type: ignore[attr-defined]


def makespan_policy(job: JobView, state: SchedulerView, executor_index: int) -> float:
    """Makespan-minimizing: ``1 / max(proc_times[i], rem_times)``.

    Prefers the assignment that keeps the maximum busy time across all
    executors as small as possible (the paper's second example policy).
    """
    proc_here = job.proc_times.get(executor_index, float("inf"))
    return 1.0 / (max(proc_here, state.max_rem_time) + _EPS)


def edf_policy(job: JobView, state: SchedulerView, executor_index: int) -> float:
    """Earliest-Deadline-First: jobs closer to their deadline score higher.

    Jobs without a deadline score 0, so EDF is typically composed with a
    fallback policy (see :func:`compose_policies`).
    """
    if job.deadline is None:
        return 0.0
    slack = job.deadline - state.now
    return 1.0 / (max(slack, 0.0) + _EPS)


def slack_policy(job: JobView, state: SchedulerView, executor_index: int) -> float:
    """Least-Slack-First: prioritise the job closest to missing its deadline.

    Slack is ``deadline - now - processing_time_here``; unlike plain EDF
    this accounts for how long the job still needs to run, so a long job
    with a far deadline can outrank a short job with a nearer one.  Jobs
    without a deadline score 0 (compose with a fallback policy).
    """
    if job.deadline is None:
        return 0.0
    proc_here = job.proc_times.get(executor_index, float("inf"))
    if proc_here == float("inf"):
        proc_here = job.min_proc_time
    slack = job.deadline - state.now - proc_here
    return 1.0 / (max(slack, 0.0) + _EPS)


edf_policy.scan_kind = "edf"  # type: ignore[attr-defined]
slack_policy.scan_kind = "slack"  # type: ignore[attr-defined]
makespan_policy.scan_kind = "makespan"  # type: ignore[attr-defined]


class ComposedPolicy:
    """A hierarchical policy: the weighted sum of sub-policies.

    Callable exactly like a plain policy function.  The ``parts`` tuple is
    exposed so the candidate index (:mod:`repro.core.candidates`) can
    recognise shipped compositions such as ``slack+sjf`` and evaluate them
    in a flat scan loop with bit-identical arithmetic; the accumulation
    order here (left to right, starting from ``0.0``) is therefore part of
    the contract.
    """

    __slots__ = ("parts",)

    def __init__(self, parts: Tuple[Tuple[float, SchedulingPolicy], ...]) -> None:
        self.parts = parts

    def __call__(self, job: JobView, state: SchedulerView, executor_index: int) -> float:
        return sum(w * policy(job, state, executor_index) for w, policy in self.parts)


def compose_policies(
    *weighted: Tuple[float, SchedulingPolicy],
) -> SchedulingPolicy:
    """Build a hierarchical policy as a weighted sum of sub-policies.

    Example: prioritise proximity-to-deadline but fall back to SJF when no
    job has a deadline::

        policy = compose_policies((10.0, edf_policy), (1.0, sjf_policy))
    """
    if not weighted:
        raise ValueError("compose_policies needs at least one (weight, policy) pair")
    for weight, _ in weighted:
        check_non_negative(weight, "policy weight")
    return ComposedPolicy(tuple(weighted))


registry.register_policy("fifo", fifo_policy)
registry.register_policy("sjf", sjf_policy)
registry.register_policy("makespan", makespan_policy)
registry.register_policy("edf", edf_policy)
registry.register_policy(
    "edf+sjf", compose_policies((1_000.0, edf_policy), (1.0, sjf_policy))
)
registry.register_policy("slack", slack_policy)
registry.register_policy(
    "slack+sjf", compose_policies((1_000.0, slack_policy), (1.0, sjf_policy))
)

#: Live view of the named policies usable from experiment configuration.
#: The single source of truth is :data:`repro.registry.policies`; register
#: new entries with ``@repro.registry.register_policy("name")``.
POLICIES: Mapping[str, SchedulingPolicy] = registry.policies.view()


def get_policy(name: str) -> SchedulingPolicy:
    """Look up a policy by name (shipped or plugin-registered)."""
    return registry.policies.get(name)


# -- preemption -------------------------------------------------------------------


@dataclass(frozen=True)
class RunningJobView:
    """The information a preemption rule may inspect about a running job."""

    job_id: str
    start_time: float
    scheduled_end: float
    executor_index: int = 0
    deadline: Optional[float] = None

    def remaining_time(self, now: float) -> float:
        """Seconds of the current run segment still ahead."""
        return max(0.0, self.scheduled_end - now)

    def progress(self, now: float) -> float:
        """Fraction of the current run segment already executed."""
        total = self.scheduled_end - self.start_time
        if total <= 0:
            return 1.0
        return min(1.0, max(0.0, (now - self.start_time) / total))


#: A preemption rule: given an arriving job, a running job and the scheduler
#: state, return a score; positive means "preempt the running job in favour
#: of the arrival", and among candidates the highest score wins.
PreemptionRule = Callable[[JobView, RunningJobView, SchedulerView], float]


def deadline_preemption_rule(
    arriving: JobView, running: RunningJobView, state: SchedulerView
) -> float:
    """Preempt deadline-free (or slack-rich) work for an urgent arrival.

    The arrival must carry a deadline that waiting for the running segment
    would miss; the victim must either have no deadline or keep enough
    slack to absorb being re-queued.  The score favours victims with the
    most remaining run time (they block the device longest) and the least
    progress (the least work is thrown away).
    """
    if arriving.deadline is None:
        return 0.0
    # Price the arrival on the executor it would actually take over.
    proc_here = arriving.proc_times.get(running.executor_index, float("inf"))
    if proc_here == float("inf"):
        return 0.0
    wait = running.remaining_time(state.now)
    # Waiting out the running segment still meets the deadline: no need.
    if state.now + wait + proc_here <= arriving.deadline:
        return 0.0
    # Preempting would not save the arrival either.
    if state.now + proc_here > arriving.deadline:
        return 0.0
    if running.deadline is not None:
        victim_slack = running.deadline - state.now - wait
        arrival_slack = arriving.deadline - state.now - proc_here
        # The victim resumes only after the arrival runs, so it must keep
        # enough slack to absorb that re-queue delay -- and still be less
        # urgent than the arrival.  Preempting a victim this would push
        # past its own deadline just trades one miss for another.
        if victim_slack - proc_here <= max(arrival_slack, 0.0):
            return 0.0
    return wait * (1.0 - running.progress(state.now)) + _EPS


registry.register_preemption_rule("deadline", deadline_preemption_rule)

#: Live view of the named preemption rules usable from scenario specs
#: (source of truth: :data:`repro.registry.preemption_rules`).
PREEMPTION_RULES: Mapping[str, PreemptionRule] = registry.preemption_rules.view()


def get_preemption_rule(name: str) -> PreemptionRule:
    """Look up a preemption rule by name (shipped or plugin-registered)."""
    return registry.preemption_rules.get(name)
