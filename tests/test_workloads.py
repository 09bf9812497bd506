"""Tests for repro.workloads (fill-job categories, model hub, trace, generator)."""

from __future__ import annotations

import pytest

from repro.models.configs import JobType
from repro.utils.rng import ensure_rng
from repro.workloads.fill_jobs import (
    FILL_JOB_CATEGORIES,
    TRAINING_PARAM_LIMIT,
    actual_param_count,
    category_for_model,
)
from repro.workloads.generator import FillJobTraceBuilder, build_fill_job_trace
from repro.workloads.model_hub import (
    CNN_FRACTION,
    ModelHubDistribution,
    SyntheticModelHub,
    UNDER_3B_FRACTION,
    default_distribution,
)
from repro.workloads.trace import QosClass, TraceFilter, TraceGenerator


class TestFillJobCategories:
    def test_table1_contents(self):
        assert set(FILL_JOB_CATEGORIES) == {
            "efficientnet", "bert-base", "bert-large", "swin-large", "xlm-roberta-xl",
        }
        assert FILL_JOB_CATEGORIES["xlm-roberta-xl"].size_class == "L"
        assert FILL_JOB_CATEGORIES["efficientnet"].domain == "CV"

    def test_training_limit_rule(self):
        """Models over 700M parameters are inference-only (Section 5.3)."""
        assert category_for_model("bert-base").allows_training
        assert not category_for_model("xlm-roberta-xl").allows_training
        assert not category_for_model("swin-large").allows_training
        assert JobType.TRAINING not in category_for_model("swin-large").job_types()

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            category_for_model("gpt-5b")

    def test_reference_counts_close_to_built_models(self):
        for name, category in FILL_JOB_CATEGORIES.items():
            assert actual_param_count(name) == pytest.approx(
                category.reference_param_count, rel=0.30
            )

    def test_limit_constant(self):
        assert TRAINING_PARAM_LIMIT == 700e6


class TestSyntheticModelHub:
    def test_under_3b_fraction_matches_paper(self):
        """The paper reports 71% of popular hub models are under 3B parameters."""
        hub = SyntheticModelHub(seed=0)
        assert hub.under_cap_fraction == pytest.approx(UNDER_3B_FRACTION, abs=0.05)

    def test_cnn_fraction_matches_paper(self):
        hub = SyntheticModelHub(seed=0).filtered()
        assert float(hub.is_cnn.mean()) == pytest.approx(CNN_FRACTION, abs=0.02)

    def test_filtered_removes_large_models(self):
        hub = SyntheticModelHub(seed=1).filtered()
        assert (hub.param_counts < 3e9).all()

    def test_deterministic(self):
        a = SyntheticModelHub(seed=5).param_counts
        b = SyntheticModelHub(seed=5).param_counts
        assert (a == b).all()

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SyntheticModelHub(num_models=0)


class TestModelHubDistribution:
    def test_probabilities_sum_to_one(self):
        dist = default_distribution()
        assert sum(dist.probabilities.values()) == pytest.approx(1.0)

    def test_cnn_share_flows_to_efficientnet(self):
        dist = default_distribution()
        assert dist.probabilities["efficientnet"] == pytest.approx(CNN_FRACTION, abs=0.03)

    def test_all_table1_models_have_mass(self):
        dist = default_distribution()
        for name in FILL_JOB_CATEGORIES:
            assert dist.probabilities.get(name, 0.0) > 0.0

    def test_sampling_follows_distribution(self):
        dist = default_distribution()
        rng = ensure_rng(0)
        samples = dist.sample(rng, size=5_000)
        bert_share = samples.count("bert-base") / len(samples)
        assert bert_share == pytest.approx(dist.probabilities["bert-base"], abs=0.05)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            ModelHubDistribution({"bert-base": 0.5})
        with pytest.raises(ValueError):
            ModelHubDistribution({"unknown-model": 1.0})


class TestTraceGenerator:
    def test_jobs_within_duration(self):
        jobs = TraceGenerator(seed=0).generate(3_600.0)
        assert jobs
        assert all(0 <= j.arrival_time < 3_600.0 for j in jobs)

    def test_arrival_rate_approximate(self):
        gen = TraceGenerator(arrival_rate_per_hour=200, seed=0)
        jobs = gen.generate(10 * 3_600.0)
        rate = len(jobs) / 10
        assert rate == pytest.approx(200, rel=0.25)

    def test_deterministic(self):
        a = TraceGenerator(seed=3).generate(3_600.0)
        b = TraceGenerator(seed=3).generate(3_600.0)
        assert [j.arrival_time for j in a] == [j.arrival_time for j in b]

    def test_gpu_hours_property(self):
        job = TraceGenerator(seed=0).generate(3_600.0)[0]
        assert job.gpu_hours == pytest.approx(job.num_gpus * job.service_time / 3600.0)

    def test_qos_mix(self):
        jobs = TraceGenerator(seed=0, latency_sensitive_fraction=0.3).generate(20 * 3600.0)
        ls = sum(1 for j in jobs if j.qos is QosClass.LATENCY_SENSITIVE) / len(jobs)
        assert ls == pytest.approx(0.3, abs=0.05)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            TraceGenerator().generate(0.0)


class TestTraceFilter:
    @pytest.fixture(scope="class")
    def raw_jobs(self):
        return TraceGenerator(seed=7).generate(50 * 3_600.0)

    def test_latency_sensitive_dropped(self, raw_jobs):
        kept = TraceFilter().apply(raw_jobs)
        assert all(j.qos is QosClass.BEST_EFFORT for j in kept)

    def test_size_cap_enforced(self, raw_jobs):
        cap = TraceFilter.PHYSICAL_CAP_SECONDS
        kept = TraceFilter(max_gpu_seconds=cap).apply(raw_jobs)
        assert all(j.gpu_seconds <= cap for j in kept)

    def test_retention_rates_match_paper(self, raw_jobs):
        """The paper keeps 55% of jobs under 9 GPU-minutes and 81.6% under 1 GPU-hour."""
        physical = TraceFilter(max_gpu_seconds=TraceFilter.PHYSICAL_CAP_SECONDS)
        simulation = TraceFilter(max_gpu_seconds=TraceFilter.SIMULATION_CAP_SECONDS)
        assert physical.retention(raw_jobs) == pytest.approx(0.55, abs=0.10)
        assert simulation.retention(raw_jobs) == pytest.approx(0.816, abs=0.08)

    def test_sorted_by_arrival(self, raw_jobs):
        kept = TraceFilter().apply(raw_jobs)
        arrivals = [j.arrival_time for j in kept]
        assert arrivals == sorted(arrivals)

    def test_retention_empty(self):
        assert TraceFilter().retention([]) == 0.0


class TestFillJobTraceBuilder:
    def test_generate_produces_fill_jobs(self):
        jobs = FillJobTraceBuilder(seed=0).generate(3_600.0)
        assert jobs
        assert all(j.num_samples >= 1 for j in jobs)
        assert all(j.model_name in FILL_JOB_CATEGORIES for j in jobs)

    def test_large_models_inference_only(self):
        jobs = FillJobTraceBuilder(seed=0).generate(8 * 3_600.0)
        for job in jobs:
            if not category_for_model(job.model_name).allows_training:
                assert job.job_type is JobType.BATCH_INFERENCE

    def test_small_models_mix_training_and_inference(self):
        jobs = FillJobTraceBuilder(seed=0).generate(12 * 3_600.0)
        small = [j for j in jobs if category_for_model(j.model_name).allows_training]
        types = {j.job_type for j in small}
        assert types == {JobType.TRAINING, JobType.BATCH_INFERENCE}

    def test_deadline_fraction(self):
        jobs = FillJobTraceBuilder(seed=0, deadline_fraction=0.5).generate(6 * 3_600.0)
        with_deadline = sum(1 for j in jobs if j.deadline is not None) / len(jobs)
        assert with_deadline == pytest.approx(0.5, abs=0.12)
        for job in jobs:
            if job.deadline is not None:
                assert job.deadline > job.arrival_time

    def test_samples_proportional_to_gpu_seconds(self):
        """GPU-hours convert to samples via isolated throughput (Section 5.3)."""
        builder = FillJobTraceBuilder(seed=0)
        from repro.workloads.trace import TraceJob

        small = TraceJob("a", 0.0, 1, 60.0, QosClass.BEST_EFFORT)
        large = TraceJob("b", 0.0, 1, 600.0, QosClass.BEST_EFFORT)
        # An inference-only model keeps the GPU-hours -> samples conversion
        # factor identical for both jobs.
        dist = ModelHubDistribution({"xlm-roberta-xl": 1.0})
        builder.distribution = dist
        jobs = builder.from_trace_jobs([small, large], rng=0)
        by_id = {j.job_id: j for j in jobs}
        ratio = by_id["fill-b"].num_samples / by_id["fill-a"].num_samples
        assert ratio == pytest.approx(10.0, rel=0.30)

    def test_deterministic(self):
        a = FillJobTraceBuilder(seed=9).generate(3_600.0)
        b = FillJobTraceBuilder(seed=9).generate(3_600.0)
        assert [(j.job_id, j.model_name, j.num_samples) for j in a] == [
            (j.job_id, j.model_name, j.num_samples) for j in b
        ]


class TestBuildFillJobTrace:
    def test_restricted_models(self):
        jobs = build_fill_job_trace(3_600.0, models=["bert-base"], seed=0)
        assert jobs
        assert all(j.model_name == "bert-base" for j in jobs)

    def test_forced_job_type(self):
        jobs = build_fill_job_trace(
            3_600.0, models=["bert-base"], job_type=JobType.BATCH_INFERENCE, seed=0
        )
        assert all(j.job_type is JobType.BATCH_INFERENCE for j in jobs)

    @pytest.mark.parametrize(
        "models, job_type",
        [
            (["bert-base"], JobType.BATCH_INFERENCE),  # Figure 4c's workload
            (None, JobType.TRAINING),  # drops the inference-only models
        ],
    )
    def test_forced_job_type_keeps_each_jobs_gpu_time(self, models, job_type):
        """A forced type converts GPU time with its own throughput: every
        job keeps the id, arrival, model and GPU time of the unforced draw."""
        from repro.models.profiles import isolated_throughput
        from repro.models.registry import build_model

        def gpu_seconds(job):
            return job.num_samples / isolated_throughput(
                build_model(job.model_name), job.job_type
            )

        drawn = {
            job.job_id: job
            for job in build_fill_job_trace(4 * 3_600.0, models=models, seed=0)
        }
        forced = build_fill_job_trace(
            4 * 3_600.0, models=models, job_type=job_type, seed=0
        )
        assert {job.job_id for job in forced} == {
            job.job_id
            for job in drawn.values()
            if job_type in category_for_model(job.model_name).job_types()
        }
        retyped = 0
        for job in forced:
            original = drawn[job.job_id]
            assert job.job_type is job_type
            assert (job.model_name, job.arrival_time) == (
                original.model_name,
                original.arrival_time,
            )
            assert gpu_seconds(job) == pytest.approx(gpu_seconds(original), rel=1e-12)
            retyped += original.job_type is not job_type
        assert retyped > 0

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            build_fill_job_trace(3_600.0, models=["resnet"])

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            build_fill_job_trace(0.0)


class TestArrivalProcess:
    def make(self, **kwargs):
        from repro.workloads.generator import ArrivalProcess

        defaults = dict(
            name="t0",
            arrival_rate_per_hour=600.0,
            seed=3,
            end_time=3_600.0,
        )
        defaults.update(kwargs)
        return ArrivalProcess(**defaults)

    def test_yields_ordered_bounded_arrivals(self):
        jobs = list(self.make())
        assert jobs
        times = [j.arrival_time for j in jobs]
        assert times == sorted(times)
        assert all(0.0 <= t < 3_600.0 for t in times)
        assert all(j.tenant == "t0" for j in jobs)
        assert len({j.job_id for j in jobs}) == len(jobs)

    def test_iteration_restarts_deterministically(self):
        process = self.make()
        first = [(j.job_id, j.arrival_time, j.num_samples) for j in process]
        second = [(j.job_id, j.arrival_time, j.num_samples) for j in process]
        assert first == second

    def test_unbounded_stream_is_lazy(self):
        import itertools

        head = list(itertools.islice(iter(self.make(end_time=None)), 100))
        assert len(head) == 100  # pulls forever without materializing

    def test_restricted_models_and_deadlines(self):
        jobs = list(self.make(models=["bert-base"], deadline_fraction=1.0))
        assert all(j.model_name == "bert-base" for j in jobs)
        assert all(j.deadline is not None and j.deadline > j.arrival_time for j in jobs)

    def test_forced_job_type(self):
        jobs = list(self.make(models=["bert-base"], job_type=JobType.BATCH_INFERENCE))
        assert jobs
        assert all(j.job_type is JobType.BATCH_INFERENCE for j in jobs)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            self.make(models=["resnet"])

    def test_gpu_time_cap_respected(self):
        from repro.models.profiles import isolated_throughput
        from repro.models.registry import build_model
        from repro.workloads.trace import TraceFilter

        process = self.make(models=["bert-base"], job_type=JobType.BATCH_INFERENCE)
        throughput = isolated_throughput(
            build_model("bert-base"), JobType.BATCH_INFERENCE, process.device
        )
        for job in process:
            gpu_seconds = job.num_samples / throughput
            assert gpu_seconds <= TraceFilter.SIMULATION_CAP_SECONDS * (1 + 1e-9)

    def test_workload_spec_builds_equivalent_process(self):
        from repro.workloads.generator import TenantWorkloadSpec

        spec = TenantWorkloadSpec(
            name="t0", arrival_rate_per_hour=600.0, open_loop=True
        )
        process = spec.build_arrival_process(seed=3, end_time=3_600.0)
        assert [j.job_id for j in process] == [j.job_id for j in self.make()]

    def test_workload_spec_needs_name(self):
        from repro.workloads.generator import TenantWorkloadSpec

        with pytest.raises(ValueError, match="name"):
            TenantWorkloadSpec(open_loop=True).build_arrival_process(seed=0)

    def test_generator_seed_still_restarts_deterministically(self):
        # A Generator-object seed is frozen at construction so iteration
        # restarts reproducibly, same as an int seed.
        import numpy as np

        process = self.make(seed=np.random.default_rng(3))
        first = [(j.job_id, j.arrival_time) for j in process]
        second = [(j.job_id, j.arrival_time) for j in process]
        assert first and first == second


class TestBenchJobs:
    def test_each_job_class_is_priced_once(self, monkeypatch):
        """`repro bench` setup prices each (model, job type) once per call,
        not once per job."""
        from collections import Counter

        from repro.bench import workloads as bench_workloads

        calls: Counter = Counter()
        price = bench_workloads.isolated_throughput

        def counting(model, job_type, *args, **kwargs):
            calls[model.name, job_type] += 1
            return price(model, job_type, *args, **kwargs)

        monkeypatch.setattr(bench_workloads, "isolated_throughput", counting)
        size = bench_workloads.SIZES["smoke"]
        jobs = bench_workloads.build_bench_jobs(
            size, num_executors=size.executors_per_tenant
        )
        assert len(jobs) == size.num_jobs
        assert set(calls) == {(job.model_name, job.job_type) for job in jobs}
        assert max(calls.values()) == 1
