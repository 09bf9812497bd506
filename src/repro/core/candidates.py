"""Incremental candidate indexes for the dispatch hot path.

Before this module, every simulated event triggered a *dispatch sweep*:
each idle executor re-scored every waiting job with the scheduling policy,
making per-event cost ``O(idle executors x waiting jobs)``.  The
:class:`CandidateIndex` replaces that sweep with incremental state that is
maintained as jobs enter and leave a queue:

* **Job classes.**  Two fill jobs with the same ``(model_name, job_type)``
  behave identically on a given executor up to their sample count: they
  share one :class:`~repro.core.executor.FillExecutionEstimate` per
  executor, hence the same feasibility and the same seconds-per-sample.
  The owning scheduler numbers the classes in first-seen order and serves,
  per executor, the ``(feasible, samples_per_cycle, cycle_period)`` arrays
  indexed by class id -- so per-job state collapses to a class id and a
  sample count.

* **One column store.**  Every waiting candidate, of every class, sits in
  one set of parallel numpy columns (class id, sequence, samples,
  deadline, arrival, static score, static tail) plus aligned Python lists
  for the job objects and cached views.  Slots are appended in insertion
  order; a removal marks its slot as never arriving (``arrival = +inf``)
  in O(1), and the columns compact -- preserving insertion order -- when
  half the slots are dead.

* **One masked pass per query.**  Time-dependent policies cannot live in
  a heap (deadline proximity reorders as the clock advances), so a
  dispatch query scores *every* waiting candidate in one numpy pass: each
  slot's timing pair is gathered from the executor's class arrays by
  class id, slots that have not arrived or whose class the executor
  cannot run are masked to ``-inf``, and ``argmax`` picks the winner.  The
  score formula is inlined for the shipped shapes (``fifo``, ``edf``,
  ``slack``, ``makespan`` and the ``<deadline policy> + sjf``
  compositions, whose static tail is computed once at insertion).  A job
  without a deadline stores an infinite one, for which the inlined
  deadline term is exactly the policies' ``0.0`` (``1 / (inf + eps)``).

* **Lazily-invalidated score heaps.**  Policies whose score for a fixed
  :class:`~repro.core.policies.JobView` is independent of time and
  executor (``static_score = True``, e.g. SJF) keep candidates in one
  score-ordered heap per class.  Dispatch peeks each feasible class's top
  in O(log n); entries invalidated by removal or re-queue (preemption
  banks progress and changes the remaining work) are discarded lazily at
  peek time, which is how invalidation can ride the existing event
  handlers without ever walking the heaps.  A top that has not arrived
  yet (only when the scheduler is driven directly) sends the query to the
  masked pass over the stored scores.  For the shipped SJF shape the
  static score itself is computed off the class's fastest time
  (``1 / (FillJobScheduler.fastest_time(cid, samples) + eps)``), skipping
  the per-job view construction entirely.

* **The generic walk.**  Unknown policies are called per candidate on the
  cached views, walking the store once in insertion order over the same
  mask.

Every path reproduces the brute-force sweep
(:func:`repro.verify.reference.best_scored`) **bit-identically**,
including tie-breaking: the sweep keeps the first strictly-greater score
in queue insertion order, i.e. the maximum score with the minimum
insertion sequence among ties -- which is what ``argmax`` over the
insertion-ordered store returns (first occurrence of the maximum), what
the heap order ``(-score, sequence)`` puts on top, and what the walk's
strict comparison keeps.  The score arithmetic mirrors the policy
functions expression-for-expression -- numpy elementwise float64
operations perform the same IEEE-754 operations as the scalar Python
arithmetic.  A best score of ``-inf`` means "never place": every path
then returns ``(None, -inf)``.  A NaN score raises ``ValueError`` (see
:data:`~repro.core.policies.SchedulingPolicy`).
``tests/test_candidate_index.py`` asserts all of this under churn and
``tests/test_perf_equivalence.py`` end-to-end via golden digests.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.policies import (
    ComposedPolicy,
    JobView,
    SchedulerView,
    _EPS,
    nan_score_error,
)

#: State handed to static policies when computing their (state-independent)
#: score once at index insertion time.
_STATIC_STATE = SchedulerView(now=0.0)

_NEG_INF = -float("inf")


def _is_static(policy) -> bool:
    """Whether the policy's score is independent of time and executor."""
    if getattr(policy, "static_score", False):
        return True
    if isinstance(policy, ComposedPolicy):
        return all(_is_static(p) for _, p in policy.parts)
    return False


def resolve_program(policy) -> Tuple[str, object]:
    """Classify a policy into an index evaluation program.

    Returns ``(mode, data)`` where mode is one of:

    * ``"static"`` -- score precomputed at insertion, candidates heap-kept;
    * ``"scan1"``  -- single shipped primitive, inlined scan (data: kind);
    * ``"scan2"``  -- ``(w1, deadline-primitive) + (w2, static)`` composition,
      inlined scan with the static tail precomputed (data:
      ``(w1, kind1, w2, static_policy)``);
    * ``"generic"`` -- scan calling ``policy`` per candidate.
    """
    if _is_static(policy):
        return ("static", None)
    kind = getattr(policy, "scan_kind", None)
    if kind in ("fifo", "edf", "slack", "makespan"):
        return ("scan1", kind)
    if isinstance(policy, ComposedPolicy) and len(policy.parts) == 2:
        (w1, p1), (w2, p2) = policy.parts
        kind1 = getattr(p1, "scan_kind", None)
        if kind1 in ("edf", "slack") and _is_static(p2):
            return ("scan2", (w1, kind1, w2, p2))
    return ("generic", None)


class CandidateIndex:
    """Incrementally-maintained waiting-job candidates for one queue.

    One index serves one (queue, scoring context) pair: the per-tenant
    fill-job queue of a :class:`~repro.core.scheduler.FillJobScheduler`
    scores with that scheduler's views, and the global backlog keeps one
    index *per tenant* (a job's processing times -- and hence scores --
    differ per tenant).  The owning scheduler supplies the class table;
    ``view_provider``/``samples_provider`` supply the queue-specific job
    view and remaining-work lookup (the backlog's provider consults parked
    evicted records, mirroring ``GlobalScheduler._backlog_view``).

    The store's columns are indexed by *slot*.  Slots are assigned in
    insertion order and never reordered; ``_slot_of`` maps job id to slot
    and, being insertion-ordered and purged on removal, lists the live
    slots in ascending order.
    """

    _INITIAL = 16

    def __init__(
        self,
        table,  # FillJobScheduler: hosts the class tables and executor arrays
        policy,
        *,
        view_provider: Callable[[object], JobView],
        samples_provider: Callable[[object], float],
        state_provider: Callable[[float], SchedulerView],
    ) -> None:
        self.table = table
        self.policy = policy
        self.mode, self.program = resolve_program(policy)
        self._view_provider = view_provider
        self._samples_provider = samples_provider
        self._state_provider = state_provider
        self._seq = itertools.count()
        self._heaps: Dict[int, List[tuple]] = {}
        # The inlined primitive of a scan program, and a scan2
        # composition's weight on it.
        self._kind = self.program
        self._w1 = None
        # The shipped SJF shapes score straight off the class timing
        # arrays, skipping JobView construction on the add path entirely.
        self._static_sjf = self.mode == "static" and (
            getattr(policy, "scan_kind", None) == "sjf"
        )
        self._scan2_sjf_w2 = None
        if self.mode == "scan2":
            self._w1, self._kind, w2, static_part = self.program
            if getattr(static_part, "scan_kind", None) == "sjf":
                self._scan2_sjf_w2 = w2
        cap = self._INITIAL
        self._cls = np.zeros(cap, dtype=np.int64)
        self._seqs = np.zeros(cap, dtype=np.int64)
        self._samples = np.zeros(cap, dtype=np.float64)
        self._deadlines = np.zeros(cap, dtype=np.float64)
        self._arrivals = np.zeros(cap, dtype=np.float64)
        self._scores = np.zeros(cap, dtype=np.float64)
        self._tails = np.zeros(cap, dtype=np.float64)
        self._jobs: List[object] = [None] * cap
        self._views: List[object] = [None] * cap
        self._slot_of: Dict[str, int] = {}
        self._n = 0  # high-water slot (live + dead)

    # -- maintenance -------------------------------------------------------------

    def add(self, job) -> None:
        """Index a job that just entered the queue.

        Must be called *after* the job's record reflects its current
        remaining work (re-queues after preemption/eviction bank progress
        first), so the score is computed against what a later dispatch
        would actually run.
        """
        cid = self.table.ensure_class(job.model_name, job.job_type)
        if not self.table.class_feasible(cid):
            return  # never selectable on this scheduler's executors
        seq = next(self._seq)
        samples = self._samples_provider(job)
        score = tail = 0.0
        view = None
        if self.mode == "static":
            if self._static_sjf:
                score = self._sjf_score(cid, samples)
            else:
                score = self.policy(self._view_provider(job), _STATIC_STATE, -1)
            if score != score:
                raise nan_score_error(self.policy, job.job_id)
        elif self.mode == "scan2":
            if self._scan2_sjf_w2 is not None:
                tail = self._scan2_sjf_w2 * self._sjf_score(cid, samples)
            else:
                _w1, _kind1, w2, static_part = self.program
                tail = w2 * static_part(self._view_provider(job), _STATIC_STATE, -1)
            if tail != tail:
                raise nan_score_error(self.policy, job.job_id)
        elif self.mode == "generic":
            # Only the generic program hands views to the policy itself;
            # every other program scores off the class timing tables.
            view = self._view_provider(job)
        n = self._n
        if n == len(self._jobs):
            self._compact_or_grow()
            n = self._n
        self._cls[n] = cid
        self._seqs[n] = seq
        self._samples[n] = samples
        self._deadlines[n] = np.inf if job.deadline is None else job.deadline
        self._arrivals[n] = job.arrival_time
        self._scores[n] = score
        self._tails[n] = tail
        self._jobs[n] = job
        self._views[n] = view
        self._slot_of[job.job_id] = n
        self._n = n + 1
        if self.mode == "static":
            heapq.heappush(self._heaps.setdefault(cid, []), (-score, seq, job.job_id))

    def remove(self, job_id: str) -> None:
        """Drop a job that left the queue (heap entries expire lazily)."""
        slot = self._slot_of.pop(job_id, None)
        if slot is not None:
            self._arrivals[slot] = np.inf
            self._jobs[slot] = None
            self._views[slot] = None

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._slot_of

    def __len__(self) -> int:
        return len(self._slot_of)

    def _compact_or_grow(self) -> None:
        """Make room for one append: drop dead slots, or double the columns."""
        live = np.fromiter(self._slot_of.values(), dtype=np.int64, count=len(self._slot_of))
        k = int(live.size)
        cap = len(self._jobs)
        new_cap = cap if k * 2 <= cap else cap * 2
        for name in ("_cls", "_seqs", "_samples", "_deadlines", "_arrivals", "_scores", "_tails"):
            column = getattr(self, name)
            fresh = np.zeros(new_cap, dtype=column.dtype)
            fresh[:k] = column[live]
            setattr(self, name, fresh)
        order = live.tolist()
        pad: List[object] = [None] * (new_cap - k)
        self._jobs = [self._jobs[i] for i in order] + pad
        self._views = [self._views[i] for i in order] + pad
        self._slot_of = {self._jobs[slot].job_id: slot for slot in range(k)}
        self._n = k

    def _sjf_score(self, cid: int, samples: float) -> float:
        """``sjf_policy`` off the class table, bit-identical to the view path.

        ``JobView.min_proc_time`` is the minimum of the view's finite
        processing times, which is exactly the class's ``fastest_time``,
        so the score matches float-for-float.
        """
        return 1.0 / (self.table.fastest_time(cid, samples) + _EPS)

    # -- queries -----------------------------------------------------------------

    def best_for_executor(self, executor_index: int, now: float):
        """The best waiting job runnable on this executor, with its score.

        Returns ``(None, -inf)`` when no arrived candidate of a class the
        executor can run waits, or when the best score is ``-inf``.
        """
        if not self._slot_of:
            return None, _NEG_INF
        if self.mode == "static":
            return self._peek_heaps(executor_index, now)
        if self.mode == "generic":
            return self._walk(executor_index, now)
        return self._pass(executor_index, now)

    def _mask(self, executor_index: int, now: float):
        """Arrived, live slots of classes the executor can run, plus the
        slots' class ids and the executor's class timing arrays."""
        n = self._n
        cls = self._cls[:n]
        feasible, spc, period = self.table.exec_class_arrays(executor_index)
        return feasible[cls] & (self._arrivals[:n] <= now), cls, spc, period

    def _peek_heaps(self, executor_index: int, now: float):
        """Best heap top over the executor's feasible classes.

        Heap entries are ``(-score, seq, job_id)``, so the smallest top is
        the highest score with the lowest sequence among ties.
        """
        slot_of = self._slot_of
        seqs = self._seqs
        best = None
        for cid in self.table.exec_classes[executor_index]:
            heap = self._heaps.get(cid)
            while heap:
                top = heap[0]
                slot = slot_of.get(top[2])
                if slot is None or seqs[slot] != top[1]:
                    heapq.heappop(heap)  # removed or re-queued since pushed
                    continue
                if self._arrivals[slot] > now:
                    # A future-arrival job sits at the top (only possible
                    # when the scheduler is driven directly, never from the
                    # event loop, where submission happens at arrival time):
                    # the masked pass honours the arrival filter.
                    return self._pass(executor_index, now)
                if best is None or top < best:
                    best = top
                break
        if best is None or best[0] == np.inf:
            return None, _NEG_INF
        slot = slot_of[best[2]]
        return self._jobs[slot], float(self._scores[slot])

    def _pass(self, executor_index: int, now: float):
        """One masked array pass scoring every waiting candidate at once."""
        valid, cls, spc, period = self._mask(executor_index, now)
        n = self._n
        if self.mode == "static":
            scores = self._scores[:n]
        elif self._kind == "fifo":
            scores = now - self._arrivals[:n]
        elif self._kind == "makespan":
            proc = (self._samples[:n] / spc[cls]) * period[cls]
            max_rem = self._state_provider(now).max_rem_time
            scores = 1.0 / (np.maximum(proc, max_rem) + _EPS)
        else:  # edf or slack, alone or as the head of a scan2 composition
            slack = self._deadlines[:n] - now
            if self._kind == "slack":
                slack = slack - (self._samples[:n] / spc[cls]) * period[cls]
            scores = 1.0 / (np.maximum(slack, 0.0) + _EPS)
            if self.mode == "scan2":
                scores = (self._w1 * scores) + self._tails[:n]
        masked = np.where(valid, scores, _NEG_INF)
        slot = int(masked.argmax())  # first occurrence: lowest sequence
        score = float(masked[slot])
        if score == _NEG_INF:
            return None, _NEG_INF
        if score != score:  # argmax stops at the first NaN
            raise nan_score_error(self.policy, self._jobs[slot].job_id)
        return self._jobs[slot], score

    def _walk(self, executor_index: int, now: float):
        """The policy itself, called per candidate on the cached views in
        insertion order, exactly as the brute-force sweep would."""
        valid = self._mask(executor_index, now)[0]
        state = self._state_provider(now)
        policy = self.policy
        jobs = self._jobs
        views = self._views
        best_job = None
        best = _NEG_INF
        for slot in np.flatnonzero(valid).tolist():
            score = policy(views[slot], state, executor_index)
            if score != score:
                raise nan_score_error(policy, jobs[slot].job_id)
            if score > best:
                best, best_job = score, jobs[slot]
        return best_job, best
