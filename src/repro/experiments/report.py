"""Assemble all experiment tables into an EXPERIMENTS.md report.

:func:`write_report` is the one writer of ``EXPERIMENTS.md``:
``python -m repro report`` and ``examples/reproduce_paper.py`` both call
it, so both write the committed bytes.  Every harness can also be run
individually through the benchmark suite.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.experiments.fig1_utilization import run_fig1
from repro.experiments.fig2_bubble_fraction import run_fig2
from repro.experiments.fig4_scaling import run_fig4
from repro.experiments.fig5_fill_fraction import run_fig5
from repro.experiments.fig6_sim_validation import run_fig6
from repro.experiments.fig7_fill_job_char import run_fig7
from repro.experiments.fig8_schedules import run_fig8
from repro.experiments.fig9_policies import run_fig9
from repro.experiments.fig10_sensitivity import run_fig10a, run_fig10b
from repro.experiments.table1_fill_jobs import run_table1
from repro.utils.tables import Table


@dataclass(frozen=True)
class ExperimentEntry:
    """One table/figure of the paper and the harness that regenerates it."""

    experiment_id: str
    paper_claim: str
    runner: Callable[[], Table]


#: The full experiment index, in paper order.
EXPERIMENTS: Sequence[ExperimentEntry] = (
    ExperimentEntry(
        "Table 1",
        "Five representative fill-job models spanning S/M/L sizes and CV/NLP domains.",
        run_table1,
    ),
    ExperimentEntry(
        "Figure 2",
        "Doubling the number of pipelines (halving microbatches) grows the bubble "
        "fraction by roughly 40% in the 4-stage example.",
        run_fig2,
    ),
    ExperimentEntry(
        "Figure 1",
        "PipeFill recovers most of the per-GPU utilization lost when scaling the 40B "
        "LLM from 1K to 8K GPUs.",
        run_fig1,
    ),
    ExperimentEntry(
        "Figure 4",
        "Scaling 1K->8K GPUs cuts training from ~82 to ~26 days but raises the bubble "
        "ratio to ~65%; PipeFill recovers 5-15% utilization at low scale and far more "
        "at large scale, with <2% main-job slowdown.",
        run_fig4,
    ),
    ExperimentEntry(
        "Figure 5",
        "Filling up to ~68% of each bubble keeps main-job overhead under 2%; beyond "
        "that the overhead grows quickly while recovered FLOPS keep rising.",
        run_fig5,
    ),
    ExperimentEntry(
        "Figure 6",
        "The event-driven simulator tracks the instrumented-engine ('physical') "
        "results across fill-job mixes with small error.",
        run_fig6,
    ),
    ExperimentEntry(
        "Figure 7",
        "Batch-inference fill jobs recover more FLOPS than training; Swin and "
        "EfficientNet fill poorly; all fill jobs run at a fraction of exclusive "
        "throughput.",
        run_fig7,
    ),
    ExperimentEntry(
        "Figure 8",
        "GPipe recovers more fill utilization than 1F1B at small scale; the gap "
        "closes at large scale.",
        run_fig8,
    ),
    ExperimentEntry(
        "Figure 9",
        "SJF lowers average JCT; the makespan-minimizing policy lowers makespan, "
        "especially at higher load.",
        run_fig9,
    ),
    ExperimentEntry(
        "Figure 10a",
        "Recovered TFLOPS is insensitive to scaling the bubble durations.",
        run_fig10a,
    ),
    ExperimentEntry(
        "Figure 10b",
        "Recovered TFLOPS grows with bubble free memory, with diminishing returns.",
        run_fig10b,
    ),
)


def run_all(
    only: Optional[Sequence[str]] = None,
) -> Dict[str, Table]:
    """Run every experiment harness (or the subset named in ``only``)."""
    results: Dict[str, Table] = {}
    for entry in EXPERIMENTS:
        if only is not None and entry.experiment_id not in only:
            continue
        results[entry.experiment_id] = entry.runner()
    return results


def render_markdown(results: Dict[str, Table]) -> str:
    """Render experiment results as EXPERIMENTS.md, final newline included."""
    lines: List[str] = [
        "# EXPERIMENTS",
        "",
        "Paper-versus-measured results for every table and figure, regenerated by",
        "`python examples/reproduce_paper.py` (same harnesses as `benchmarks/`).",
        "Absolute numbers come from the analytical V100 cost model, not the",
        "authors' testbed; the claims checked are the qualitative shapes.",
        "",
    ]
    by_id = {entry.experiment_id: entry for entry in EXPERIMENTS}
    for experiment_id, table in results.items():
        entry = by_id[experiment_id]
        lines.append(f"## {experiment_id}")
        lines.append("")
        lines.append(f"**Paper claim.** {entry.paper_claim}")
        lines.append("")
        lines.append(table.to_markdown())
        lines.append("")
    return "\n".join(lines) + "\n"


def write_report(results: Dict[str, Table], output: Union[str, Path]) -> None:
    """Write the rendered report to the path ``output`` (``"-"``: stdout)."""
    text = render_markdown(results)
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")
