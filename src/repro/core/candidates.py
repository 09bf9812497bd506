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
  The owning scheduler memoises one *class table* per class -- the
  ``(samples_per_cycle, cycle_period)`` pair per executor plus the set of
  feasible executors -- so per-job state collapses to a sample count.

* **Per-executor feasibility sets.**  Each executor knows which classes it
  can run; an idle executor whose feasible classes hold no waiting
  candidate is skipped in O(1) instead of scanning the whole backlog.

* **Structure-of-arrays candidate columns.**  Each class keeps its
  waiting candidates in parallel numpy arrays (:class:`_ClassColumns`:
  sequence, samples, deadline, arrival, precomputed score/tail) plus
  aligned Python lists for the job objects and cached views.  Slots are
  appended in insertion order, removals tombstone in O(1), and the
  columns compact -- preserving insertion order -- when half the slots
  are dead.  This is what lets one dispatch query score *every* feasible
  candidate of a class in a single vectorized array pass.

* **Lazily-invalidated score heaps.**  Policies whose score for a fixed
  :class:`~repro.core.policies.JobView` is independent of time and
  executor (``static_score = True``, e.g. SJF) keep candidates in one
  score-ordered heap per class.  Dispatch peeks the best entry in
  O(log n); entries invalidated by removal or re-queue (preemption banks
  progress and changes the remaining work) are discarded lazily at peek
  time, which is how invalidation can ride the existing event handlers
  without ever walking the heaps.  For the shipped SJF shape the static
  score itself is computed straight off the class timing arrays
  (``1 / (min over feasible executors of (samples/spc)*period + eps)``),
  skipping the per-job view construction entirely.

* **Vectorized flat scans.**  Time-dependent policies cannot live in a
  heap (deadline proximity reorders as the clock advances), so their
  classes are scanned -- but as numpy expressions over the candidate
  columns, with the score formula inlined for the shipped shapes
  (``fifo``, ``edf``, ``slack``, ``makespan`` and the
  ``<deadline policy> + sjf`` compositions) and a masked ``argmax``
  supplying the tie-break.  Unknown policies fall back to calling the
  policy per candidate on the cached views.

Every path reproduces the brute-force sweep **bit-identically**, including
tie-breaking: the sweep keeps the first strictly-greater score in queue
insertion order, i.e. the maximum score with the minimum insertion
sequence among ties, which is exactly what ``argmax`` over
insertion-ordered columns returns (first occurrence of the maximum).  The
score arithmetic mirrors the policy functions expression-for-expression
-- numpy elementwise float64 operations perform the same IEEE-754
operations as the scalar Python arithmetic -- which
``tests/test_candidate_index.py`` asserts under churn and
``tests/test_perf_equivalence.py`` asserts end-to-end via golden digests.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core.policies import ComposedPolicy, JobView, SchedulerView, _EPS

#: State handed to static policies when computing their (state-independent)
#: score once at index insertion time.
_STATIC_STATE = SchedulerView(now=0.0)


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


class _ClassColumns:
    """Structure-of-arrays storage for one class's waiting candidates.

    Parallel columns indexed by *slot*: numpy arrays for everything a
    vectorized score expression consumes, Python lists for the job
    objects and (generic-mode) cached views.  Slots are assigned in
    insertion order and never reordered; a removal tombstones its slot
    (``seq = -1``) in O(1).  When an append finds the arrays full, the
    columns either compact (if at least half the slots are dead) or
    double -- both preserve the relative order of live slots, so
    position order always equals insertion order, which the tie-breaking
    contract depends on.  ``slot_of`` maps job id to slot and -- being
    insertion-ordered and purged on removal -- doubles as the iteration
    order for the per-candidate loops.

    ``deadlines`` stores ``nan`` for jobs without a deadline (the
    vectorized scans map it to the policies' "no deadline" score); ``scores``/``tails`` hold the static-mode score and the
    scan2 precomputed static tail, zero-filled when unused.
    """

    _INITIAL = 16

    __slots__ = (
        "seqs",
        "samples",
        "deadlines",
        "arrivals",
        "scores",
        "tails",
        "jobs",
        "views",
        "slot_of",
        "n",
        "version",
        "dl_slots",
        "_dl_cache",
    )

    def __init__(self) -> None:
        cap = self._INITIAL
        self.seqs = np.full(cap, -1, dtype=np.int64)
        self.samples = np.zeros(cap, dtype=np.float64)
        self.deadlines = np.zeros(cap, dtype=np.float64)
        self.arrivals = np.zeros(cap, dtype=np.float64)
        self.scores = np.zeros(cap, dtype=np.float64)
        self.tails = np.zeros(cap, dtype=np.float64)
        self.jobs: List[object] = [None] * cap
        self.views: List[object] = [None] * cap
        self.slot_of: Dict[str, int] = {}
        self.n = 0  # high-water slot (live + tombstoned)
        self.version = 0  # bumped on every add/remove (scan memo key)
        # Slots of deadline-carrying entries, in insertion order (may
        # contain tombstones; the seq check filters them at scan time).
        self.dl_slots: List[int] = []
        self._dl_cache = None

    def dl_index(self) -> np.ndarray:
        """``dl_slots`` as an int64 gather index (cached until it changes)."""
        cache = self._dl_cache
        if cache is None or cache.size != len(self.dl_slots):
            cache = np.asarray(self.dl_slots, dtype=np.int64)
            self._dl_cache = cache
        return cache

    def __len__(self) -> int:
        return len(self.slot_of)

    def add(self, job_id, seq, job, samples, deadline, arrival, score, tail, view) -> None:
        n = self.n
        if n == len(self.jobs):
            self._compact_or_grow()
            n = self.n
        self.seqs[n] = seq
        self.samples[n] = samples
        self.deadlines[n] = np.nan if deadline is None else deadline
        self.arrivals[n] = arrival
        self.scores[n] = 0.0 if score is None else score
        self.tails[n] = 0.0 if tail is None else tail
        self.jobs[n] = job
        self.views[n] = view
        self.slot_of[job_id] = n
        self.n = n + 1
        self.version += 1
        if deadline is not None:
            self.dl_slots.append(n)

    def remove(self, job_id: str) -> None:
        slot = self.slot_of.pop(job_id, None)
        if slot is not None:
            self.seqs[slot] = -1
            self.jobs[slot] = None
            self.views[slot] = None
            self.version += 1

    def _compact_or_grow(self) -> None:
        n = self.n
        live = np.flatnonzero(self.seqs[:n] >= 0)  # ascending: keeps order
        k = int(live.size)
        cap = len(self.jobs)
        new_cap = cap if k * 2 <= cap else cap * 2
        self.seqs = self._packed(self.seqs, live, new_cap, fill=-1)
        self.samples = self._packed(self.samples, live, new_cap)
        self.deadlines = self._packed(self.deadlines, live, new_cap)
        self.arrivals = self._packed(self.arrivals, live, new_cap)
        self.scores = self._packed(self.scores, live, new_cap)
        self.tails = self._packed(self.tails, live, new_cap)
        pad: List[object] = [None] * (new_cap - k)
        self.jobs = [self.jobs[i] for i in live.tolist()] + pad
        self.views = [self.views[i] for i in live.tolist()] + pad
        self.slot_of = {self.jobs[slot].job_id: slot for slot in range(k)}
        if self.dl_slots:
            remap = np.full(n, -1, dtype=np.int64)
            remap[live] = np.arange(k, dtype=np.int64)
            moved = remap[np.asarray(self.dl_slots, dtype=np.int64)]
            self.dl_slots = moved[moved >= 0].tolist()
        self._dl_cache = None
        self.n = k

    @staticmethod
    def _packed(column, live, new_cap, *, fill=0):
        fresh = np.full(new_cap, fill, dtype=column.dtype)
        fresh[: live.size] = column[live]
        return fresh


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
    """

    def __init__(
        self,
        table,  # FillJobScheduler: hosts class tables + exec feasibility sets
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
        self._classes: Dict[tuple, _ClassColumns] = {}
        self._heaps: Dict[tuple, List[tuple]] = {}
        self._nd_heaps: Dict[tuple, List[tuple]] = {}
        self._class_of: Dict[str, tuple] = {}
        self._class_arrays: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}
        self._scan_memo: Dict[tuple, tuple] = {}
        self._seq = itertools.count()
        # Deadline-driven scans score a no-deadline candidate as a
        # now-independent constant (0, or the scan2 static tail), so those
        # candidates keep a lazily-invalidated score heap of their own and
        # the vectorized scan gathers only the deadline-carrying slots.
        self._split_nodl = self.mode == "scan2" or (
            self.mode == "scan1" and self.program in ("edf", "slack")
        )
        # The shipped SJF shapes score straight off the class timing
        # arrays, skipping JobView construction on the add path entirely.
        self._static_sjf = self.mode == "static" and (
            getattr(policy, "scan_kind", None) == "sjf"
        )
        self._scan2_sjf_w2 = None
        if self.mode == "scan2":
            _w1, _kind1, w2, static_part = self.program
            if getattr(static_part, "scan_kind", None) == "sjf":
                self._scan2_sjf_w2 = w2

    # -- maintenance -------------------------------------------------------------

    def add(self, job) -> None:
        """Index a job that just entered the queue.

        Must be called *after* the job's record reflects its current
        remaining work (re-queues after preemption/eviction bank progress
        first), so the score is computed against what a later dispatch
        would actually run.
        """
        key = self.table.ensure_class(job.model_name, job.job_type)
        if not self.table.class_feasible(key):
            return  # never selectable on this scheduler's executors
        seq = next(self._seq)
        samples = self._samples_provider(job)
        score = tail = view = None
        if self.mode == "static":
            if self._static_sjf:
                score = self._sjf_score(key, samples)
            else:
                score = self.policy(self._view_provider(job), _STATIC_STATE, -1)
        elif self.mode == "scan2":
            if self._scan2_sjf_w2 is not None:
                tail = self._scan2_sjf_w2 * self._sjf_score(key, samples)
            else:
                _w1, _kind1, w2, static_part = self.program
                tail = w2 * static_part(self._view_provider(job), _STATIC_STATE, -1)
        elif self.mode == "generic":
            # Only the generic program hands views to the policy itself;
            # every other program scores off the class timing tables.
            view = self._view_provider(job)
        if self._split_nodl and job.deadline is None:
            # The candidate's score is the same at every clock: the policy's
            # expression with the deadline term zeroed, computed here once
            # (same operations, same order -- bit-identical).
            if self.mode == "scan2":
                w1 = self.program[0]
                score = (w1 * 0.0) + tail
            else:
                score = 0.0
        cols = self._classes.get(key)
        if cols is None:
            cols = self._classes[key] = _ClassColumns()
        cols.add(
            job.job_id, seq, job, samples, job.deadline, job.arrival_time,
            score, tail, view,
        )
        self._class_of[job.job_id] = key
        if self.mode == "static":
            heapq.heappush(
                self._heaps.setdefault(key, []), (-score, seq, job.job_id)
            )
        elif self._split_nodl and job.deadline is None:
            heapq.heappush(
                self._nd_heaps.setdefault(key, []), (-score, seq, job.job_id)
            )

    def remove(self, job_id: str) -> None:
        """Drop a job that left the queue (heap entries expire lazily)."""
        key = self._class_of.pop(job_id, None)
        if key is not None:
            self._classes[key].remove(job_id)

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._class_of

    def __len__(self) -> int:
        return len(self._class_of)

    def _class_timing_arrays(self, key) -> Tuple[np.ndarray, np.ndarray]:
        """Feasible-executor ``(samples_per_cycle, cycle_period)`` columns.

        Class tables are immutable for the scheduler's lifetime (executor
        cycles never change; down states do not alter predicted times), so
        the arrays are built once per class.
        """
        arrays = self._class_arrays.get(key)
        if arrays is None:
            pairs = self.table.class_exec_times(key)
            count = len(pairs)
            spc = np.fromiter(
                (pair[0] for pair in pairs.values()), dtype=np.float64, count=count
            )
            period = np.fromiter(
                (pair[1] for pair in pairs.values()), dtype=np.float64, count=count
            )
            arrays = (spc, period)
            self._class_arrays[key] = arrays
        return arrays

    def _sjf_score(self, key, samples: float) -> float:
        """``sjf_policy`` off the class table, bit-identical to the view path.

        ``JobView.min_proc_time`` is the minimum over feasible executors of
        ``(samples / spc) * period``; elementwise float64 array arithmetic
        performs the identical IEEE-754 operations and ``min`` is
        order-independent, so the score matches float-for-float.
        """
        spc, period = self._class_timing_arrays(key)
        min_proc = float(((samples / spc) * period).min())
        return 1.0 / (min_proc + _EPS)

    # -- queries -----------------------------------------------------------------

    def best_for_executor(self, executor_index: int, now: float):
        """The best waiting job runnable on this executor, with its score.

        Returns ``(None, -inf)`` when no feasible candidate waits --
        detected in O(feasible classes), without touching any job.
        """
        classes = self.table.exec_classes.get(executor_index)
        best_score = -float("inf")
        best_seq = 0
        best_job = None
        if not classes:
            return None, best_score
        for key in classes:
            cols = self._classes.get(key)
            if not cols:
                continue
            if self.mode == "static":
                found = self._best_static(key, cols, now)
            else:
                # _scan_class pulls the (memoised) scheduler view lazily,
                # only for the programs that actually consult state.
                found = self._scan_class(key, cols, executor_index, now, None)
            if found is None:
                continue
            score, seq, job = found
            if best_job is None or score > best_score or (
                score == best_score and seq < best_seq
            ):
                best_score, best_seq, best_job = score, seq, job
        return best_job, best_score

    # -- static (heap) path -------------------------------------------------------

    def _best_static(self, key, cols, now):
        heap = self._heaps.get(key)
        slot_of = cols.slot_of
        seqs = cols.seqs
        while heap:
            _negscore, seq, job_id = heap[0]
            slot = slot_of.get(job_id)
            if slot is None or seqs[slot] != seq:
                heapq.heappop(heap)  # removed or re-queued since pushed
                continue
            if cols.arrivals[slot] > now:
                # A future-arrival job sits at the top (only possible when
                # the scheduler is driven directly, never from the event
                # loop, where submission happens at arrival time): fall
                # back to a linear scan honouring the arrival filter.
                return self._scan_static_linear(cols, now)
            return (float(cols.scores[slot]), seq, cols.jobs[slot])
        return None

    @staticmethod
    def _scan_static_linear(cols, now):
        jobs = cols.jobs
        scores = cols.scores
        seqs = cols.seqs
        best = None
        for slot in cols.slot_of.values():
            if jobs[slot].arrival_time > now:
                continue
            score = float(scores[slot])
            if best is None or score > best[0]:
                best = (score, int(seqs[slot]), jobs[slot])
        return best

    # -- scan paths ---------------------------------------------------------------

    def _scan_class(self, key, cols, executor_index, now, state):
        """Best candidate of one class on one executor, exactly scored.

        Candidates evaluate in insertion order and the first
        strictly-greater score wins, mirroring the brute-force sweep's
        tie-breaking; the vectorized path's masked ``argmax`` (first
        occurrence of the maximum over insertion-ordered columns) is the
        same rule.

        The shipped scan shapes depend on the executor only through the
        class timing pair ``(spc, period)`` (plus ``max_rem_time`` for
        makespan), so the result is memoised per class on
        ``(now, columns version, pair[, max_rem])``: within one dispatch
        sweep every executor sharing the pair reuses one scan.
        """
        if self.mode == "generic":
            return self._scan_class_generic(cols, executor_index, now, state)
        pair = self.table.class_exec_times(key)[executor_index]
        if self.mode == "scan1" and self.program == "makespan":
            if state is None:
                state = self._state_provider(now)
            cache_key = (now, cols.version, pair, state.max_rem_time)
        else:
            cache_key = (now, cols.version, pair)
        memo = self._scan_memo.get(key)
        if memo is not None and memo[0] == cache_key:
            return memo[1]
        if self._split_nodl:
            found = self._scan_split(key, cols, now, pair)
        else:
            found = self._scan_class_vector(cols, now, state, pair)
        self._scan_memo[key] = (cache_key, found)
        return found

    def _scan_split(self, key, cols, now, pair):
        """Deadline scan over the gathered deadline slots + no-deadline heap.

        The class's best is the better of the two partition bests: higher
        score wins, the lower insertion sequence breaks ties -- exactly
        the first-strictly-greater rule over the full insertion order.
        """
        best_nd = self._best_nodl(key, cols, now)
        best_dl = None
        dl = cols.dl_index()
        if dl.size:
            seqs = cols.seqs[dl]
            arrivals = cols.arrivals[dl]
            valid = (seqs >= 0) & (arrivals <= now)
            if valid.any():
                deadlines = cols.deadlines[dl]
                spc, period = pair
                if self.mode == "scan2":
                    w1, kind1, _w2, _p2 = self.program
                    if kind1 == "slack":
                        slack = (deadlines - now) - (cols.samples[dl] / spc) * period
                    else:
                        slack = deadlines - now
                    s1 = 1.0 / (np.maximum(slack, 0.0) + _EPS)
                    scores = (w1 * s1) + cols.tails[dl]
                else:
                    if self.program == "slack":
                        slack = (deadlines - now) - (cols.samples[dl] / spc) * period
                    else:
                        slack = deadlines - now
                    scores = 1.0 / (np.maximum(slack, 0.0) + _EPS)
                masked = np.where(valid, scores, -np.inf)
                pick = int(masked.argmax())
                if not valid[pick]:
                    pick = int(np.flatnonzero(valid)[0])
                best_dl = (
                    float(masked[pick]),
                    int(seqs[pick]),
                    cols.jobs[int(dl[pick])],
                )
        if best_dl is None:
            return best_nd
        if best_nd is None:
            return best_dl
        if best_nd[0] > best_dl[0] or (
            best_nd[0] == best_dl[0] and best_nd[1] < best_dl[1]
        ):
            return best_nd
        return best_dl

    def _best_nodl(self, key, cols, now):
        """Best no-deadline candidate via its lazily-invalidated heap."""
        heap = self._nd_heaps.get(key)
        if not heap:
            return None
        slot_of = cols.slot_of
        seqs = cols.seqs
        while heap:
            _negscore, seq, job_id = heap[0]
            slot = slot_of.get(job_id)
            if slot is None or seqs[slot] != seq:
                heapq.heappop(heap)  # removed or re-queued since pushed
                continue
            if cols.arrivals[slot] > now:
                return self._scan_nodl_linear(cols, now)
            return (float(cols.scores[slot]), seq, cols.jobs[slot])
        return None

    @staticmethod
    def _scan_nodl_linear(cols, now):
        jobs = cols.jobs
        scores = cols.scores
        seqs = cols.seqs
        best = None
        for slot in cols.slot_of.values():
            job = jobs[slot]
            if job.deadline is not None or job.arrival_time > now:
                continue
            score = float(scores[slot])
            if best is None or score > best[0]:
                best = (score, int(seqs[slot]), job)
        return best

    def _scan_class_vector(self, cols, now, state, pair):
        """One array pass scoring every candidate of the class at once."""
        n = cols.n
        seqs = cols.seqs[:n]
        arrivals = cols.arrivals[:n]
        valid = (seqs >= 0) & (arrivals <= now)
        if not valid.any():
            return None
        if self.mode == "scan2":
            w1, kind1, _w2, _p2 = self.program
            spc, period = pair
            deadlines = cols.deadlines[:n]
            if kind1 == "slack":
                slack = (deadlines - now) - (cols.samples[:n] / spc) * period
            else:
                slack = deadlines - now
            s1 = 1.0 / (np.maximum(slack, 0.0) + _EPS)
            s1 = np.where(np.isnan(deadlines), 0.0, s1)
            scores = (w1 * s1) + cols.tails[:n]
        else:
            kind = self.program
            if kind == "fifo":
                scores = now - arrivals
            elif kind in ("edf", "slack"):
                spc, period = pair
                deadlines = cols.deadlines[:n]
                if kind == "slack":
                    slack = (deadlines - now) - (cols.samples[:n] / spc) * period
                else:
                    slack = deadlines - now
                scores = 1.0 / (np.maximum(slack, 0.0) + _EPS)
                scores = np.where(np.isnan(deadlines), 0.0, scores)
            else:  # makespan
                spc, period = pair
                proc = (cols.samples[:n] / spc) * period
                scores = 1.0 / (np.maximum(proc, state.max_rem_time) + _EPS)
        masked = np.where(valid, scores, -np.inf)
        slot = int(masked.argmax())
        if not valid[slot]:
            # Every valid score is -inf (possible only with an exotic
            # static tail): keep the first valid entry, as the
            # per-candidate loops do.
            slot = int(np.flatnonzero(valid)[0])
        return (float(masked[slot]), int(seqs[slot]), cols.jobs[slot])

    def _scan_class_generic(self, cols, executor_index, now, state):
        """The policy itself, called per candidate on the cached views,
        exactly as the brute-force sweep would."""
        if state is None:
            state = self._state_provider(now)
        policy = self.policy
        jobs = cols.jobs
        views = cols.views
        seqs = cols.seqs
        best = best_seq = None
        best_job = None
        for slot in cols.slot_of.values():
            job = jobs[slot]
            if job.arrival_time > now:
                continue
            score = policy(views[slot], state, executor_index)
            if best is None or score > best:
                best, best_seq, best_job = score, int(seqs[slot]), job
        if best_job is None:
            return None
        return (best, best_seq, best_job)
