"""Tests for the experiment harnesses (small/fast settings).

The full-scale sweeps live in ``benchmarks/``; here each harness is run at a
reduced setting to check that it produces well-formed tables and that the
headline qualitative claims hold even at small horizons.
"""

from __future__ import annotations

import itertools
from pathlib import Path

import pytest

from repro.experiments.common import (
    build_workload,
    make_40b_parallel,
    make_5b_parallel,
    mixed_model_workload,
)
from repro.experiments.fig2_bubble_fraction import run_fig2
from repro.experiments.fig4_scaling import evaluate_scale_point
from repro.experiments.fig5_fill_fraction import run_fig5
from repro.experiments.fig7_fill_job_char import run_fig7
from repro.experiments.fig9_policies import run_fig9
from repro.experiments.fig10_sensitivity import run_fig10b
from repro.experiments.report import EXPERIMENTS, render_markdown, run_all
from repro.experiments.table1_fill_jobs import run_table1

FAST_HORIZON = 600.0
EXPERIMENTS_MD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"


class TestCommon:
    def test_make_40b_parallel(self):
        cfg = make_40b_parallel(8192)
        assert cfg.num_devices == 8192
        assert cfg.num_microbatches == 8

    def test_make_5b_parallel(self):
        cfg = make_5b_parallel()
        assert cfg.devices_per_replica == 16
        assert cfg.bubble_fraction == pytest.approx(0.652, abs=0.001)

    def test_build_workload_variants(self):
        mix = build_workload(FAST_HORIZON, workload="trace-mix", seed=1)
        bert = build_workload(FAST_HORIZON, workload="bert-inference", seed=1)
        assert mix and bert
        assert {j.model_name for j in bert} == {"bert-base"}
        with pytest.raises(ValueError):
            build_workload(FAST_HORIZON, workload="unknown")

    def test_mixed_model_workload(self):
        jobs = mixed_model_workload(FAST_HORIZON, 0.5, seed=1)
        names = {j.model_name for j in jobs}
        assert names <= {"xlm-roberta-xl", "efficientnet"}
        with pytest.raises(ValueError):
            mixed_model_workload(FAST_HORIZON, 1.5)


class TestTable1AndFig2:
    def test_table1_rows(self):
        table = run_table1()
        assert len(table.rows) == 5
        assert table.column("model") == [
            "efficientnet", "bert-base", "bert-large", "swin-large", "xlm-roberta-xl",
        ]

    def test_fig2_forty_percent_increase(self):
        table = run_fig2()
        increase = table.rows[-1][2]
        assert increase == pytest.approx(0.40, abs=0.02)


class TestFig4Point:
    @pytest.fixture(scope="class")
    def point_8k(self):
        return evaluate_scale_point(8192, horizon_seconds=FAST_HORIZON)

    @pytest.fixture(scope="class")
    def point_1k(self):
        return evaluate_scale_point(1024, horizon_seconds=FAST_HORIZON)

    def test_scaling_tradeoff(self, point_1k, point_8k):
        """Figure 4: more GPUs -> fewer days, higher bubble ratio, lower TFLOPS."""
        assert point_8k.days_to_train < point_1k.days_to_train
        assert point_8k.bubble_ratio > point_1k.bubble_ratio
        assert point_8k.traditional_tflops < point_1k.traditional_tflops

    def test_pipefill_beats_traditional(self, point_8k):
        assert point_8k.pipefill_trace_mix_tflops > point_8k.traditional_tflops
        assert point_8k.pipefill_bert_inference_tflops > point_8k.pipefill_trace_mix_tflops

    def test_gain_larger_at_scale(self, point_1k, point_8k):
        """Figure 1: PipeFill's relative gain grows with scale (5-15% -> >40%)."""
        gain_1k = point_1k.pipefill_trace_mix_tflops / point_1k.traditional_tflops - 1
        gain_8k = point_8k.pipefill_trace_mix_tflops / point_8k.traditional_tflops - 1
        assert gain_8k > gain_1k
        assert 0.02 < gain_1k < 0.25
        assert gain_8k > 0.25

    def test_slowdown_below_two_percent(self, point_8k):
        assert point_8k.main_job_slowdown < 0.02


class TestFig5:
    def test_overhead_growth_and_recovery(self):
        table = run_fig5(fill_fractions=(0.4, 0.68, 1.0), horizon_seconds=FAST_HORIZON)
        overhead = table.column("main-job overhead")
        recovered = table.column("recovered TFLOPS/GPU")
        assert overhead[0] < 0.02 and overhead[1] < 0.02
        assert overhead[2] > 0.05
        # Recovered FLOPS keeps increasing with the fill fraction.
        assert recovered == sorted(recovered)


class TestFig7:
    def test_inference_beats_training_everywhere(self):
        table = run_fig7()
        rows = table.to_dicts()
        by_key = {(r["model"], r["job type"]): r for r in rows}
        for model in ("bert-base", "bert-large", "efficientnet"):
            inf = by_key[(model, "batch_inference")]["recovered TFLOPS (7a)"]
            train = by_key[(model, "training")]["recovered TFLOPS (7a)"]
            assert inf > train

    def test_all_fill_jobs_below_main_job_60_tflops(self):
        table = run_fig7()
        values = [v for v in table.column("recovered TFLOPS (7a)") if v is not None]
        assert values
        assert max(values) < 60.0


class TestFig9:
    def test_policy_tradeoff(self):
        table = run_fig9(loads=(60.0,), horizon_seconds=FAST_HORIZON)
        row = table.to_dicts()[0]
        # SJF is at least as good on JCT; makespan policy at least as good on makespan.
        assert row["SJF avg JCT (s)"] <= row["Makespan-min avg JCT (s)"] * 1.10
        assert row["Makespan-min makespan (s)"] <= row["SJF makespan (s)"] * 1.10


class TestFig10b:
    def test_memory_helps(self):
        table = run_fig10b(free_memory_gb=(2.0, 4.0, 8.0))
        recovered = table.column("recovered TFLOPS/GPU")
        # More bubble free memory never hurts and helps overall (Figure 10b);
        # see EXPERIMENTS.md for the shape difference vs the paper (threshold
        # effects from large fill jobs newly fitting, rather than smooth
        # diminishing returns).
        assert recovered[1] >= recovered[0]
        assert recovered[2] >= recovered[1]
        assert recovered[2] / recovered[0] - 1 > 0.10


class TestReport:
    def test_experiment_index_covers_all_figures(self):
        ids = {e.experiment_id for e in EXPERIMENTS}
        assert ids == {
            "Table 1", "Figure 1", "Figure 2", "Figure 4", "Figure 5", "Figure 6",
            "Figure 7", "Figure 8", "Figure 9", "Figure 10a", "Figure 10b",
        }

    def test_run_all_subset_and_render(self):
        results = run_all(only=["Table 1", "Figure 2"])
        assert set(results) == {"Table 1", "Figure 2"}
        markdown = render_markdown(results)
        assert "# EXPERIMENTS" in markdown
        assert "## Table 1" in markdown
        assert "Figure 2" in markdown


def _first_difference(committed: str, regenerated: str) -> str:
    """Name the first differing line of EXPERIMENTS.md and its section."""
    section = "(preamble)"
    pairs = itertools.zip_longest(committed.split("\n"), regenerated.split("\n"))
    for number, (want, got) in enumerate(pairs, start=1):
        if want is not None and want.startswith("## "):
            section = want[3:]
        if want != got:
            return (
                f"EXPERIMENTS.md line {number} (section {section!r}) moved:\n"
                f"  committed:   {want!r}\n"
                f"  regenerated: {got!r}\n"
                "Regenerate it with `python examples/reproduce_paper.py` and "
                "explain the move in CHANGES.md."
            )
    return "EXPERIMENTS.md differs from the regenerated report"


class TestPaperContract:
    def test_experiments_md_regenerates_byte_for_byte(self):
        """Every paper figure, rerun without a disk cache, matches EXPERIMENTS.md."""
        from repro.utils import plancache

        plancache.configure(None, enabled=False)
        regenerated = render_markdown(run_all()) + "\n"
        committed = EXPERIMENTS_MD.read_bytes().decode("utf-8")
        if regenerated != committed:
            pytest.fail(_first_difference(committed, regenerated), pytrace=False)
