"""Microbenchmarks for the scheduler's queue structures.

Unlike the paper-figure benchmarks, these track the *simulator's own*
performance: the cost of the queue operations that dominate large
multi-tenant runs.  End-to-end simulator performance is measured by
perfbench; see docs/performance.md.
"""

from __future__ import annotations

from repro.utils.ordered import OrderedIdSet


class TestQueueStructures:
    def test_ordered_id_set_churn(self, benchmark):
        """O(1) membership/removal under queue-like churn."""
        ids = [f"job-{i}" for i in range(2_000)]

        def churn():
            queue = OrderedIdSet()
            for jid in ids:
                queue.append(jid)
            # Interleaved removals from the front and middle, as dispatch
            # and preemption do.
            for jid in ids[::2]:
                queue.remove(jid)
            for jid in ids[::2]:
                queue.append(jid)
            return len(queue)

        assert benchmark(churn) == len(ids)
