"""Tests for repro.models.profiles."""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.executor import FillJobExecutor, clear_shared_caches
from repro.hardware.device import A100_40GB, A100_80GB, V100_16GB
from repro.models import profiles
from repro.models.base import NodeRole
from repro.models.configs import ExecutionConfig, JobType, candidate_configs
from repro.models.profiles import (
    best_profile,
    cached_profile,
    class_profiles,
    isolated_throughput,
    isolated_tflops,
    profile_model,
)
from repro.models.registry import FILL_JOB_MODELS, build_model
from repro.pipeline.bubbles import BubbleCycle
from repro.utils.units import GIB
from repro.workloads.fill_jobs import category_for_model


class TestProfileStructure:
    def test_inference_graph_has_only_forward_nodes(self, bert_base_model, inference_config):
        profile = profile_model(bert_base_model, JobType.BATCH_INFERENCE, inference_config)
        roles = {node.role for node in profile.graph.nodes}
        assert roles == {NodeRole.FORWARD}
        assert len(profile.graph) == bert_base_model.num_layers

    def test_training_graph_has_fwd_bwd_and_optimizer(self, bert_base_model, training_config):
        profile = profile_model(bert_base_model, JobType.TRAINING, training_config)
        roles = [node.role for node in profile.graph.nodes]
        assert roles.count(NodeRole.FORWARD) == bert_base_model.num_layers
        assert roles.count(NodeRole.BACKWARD) == bert_base_model.num_layers
        assert roles.count(NodeRole.OPTIMIZER_STEP) == 1
        # Backward nodes come after forward nodes, in reverse layer order.
        assert roles[-1] == NodeRole.OPTIMIZER_STEP

    def test_backward_nodes_reverse_layer_order(self, bert_base_model, training_config):
        profile = profile_model(bert_base_model, JobType.TRAINING, training_config)
        fwd = [n.layer_name for n in profile.graph.nodes if n.role == NodeRole.FORWARD]
        bwd = [n.layer_name for n in profile.graph.nodes if n.role == NodeRole.BACKWARD]
        assert bwd == list(reversed(fwd))


class TestProfileTiming:
    def test_training_slower_than_inference(self, bert_base_model):
        cfg = ExecutionConfig(batch_size=8)
        inf = profile_model(bert_base_model, JobType.BATCH_INFERENCE, cfg)
        train = profile_model(bert_base_model, JobType.TRAINING, cfg)
        assert train.iteration_time > 2 * inf.iteration_time

    def test_larger_batch_higher_throughput(self, bert_base_model):
        small = profile_model(bert_base_model, JobType.BATCH_INFERENCE, ExecutionConfig(batch_size=1))
        large = profile_model(bert_base_model, JobType.BATCH_INFERENCE, ExecutionConfig(batch_size=32))
        assert large.throughput_samples_per_s > small.throughput_samples_per_s

    def test_checkpointing_adds_recompute_time(self, bert_base_model):
        plain = profile_model(bert_base_model, JobType.TRAINING, ExecutionConfig(batch_size=4))
        ckpt = profile_model(
            bert_base_model,
            JobType.TRAINING,
            ExecutionConfig(batch_size=4, activation_checkpointing=True),
        )
        assert ckpt.iteration_time > plain.iteration_time
        assert ckpt.device_footprint_bytes < plain.device_footprint_bytes

    def test_param_offload_bound_by_pcie(self, xlm_model):
        plain = profile_model(xlm_model, JobType.BATCH_INFERENCE, ExecutionConfig(batch_size=1))
        offloaded = profile_model(
            xlm_model, JobType.BATCH_INFERENCE, ExecutionConfig(batch_size=1, offload_params=True)
        )
        assert offloaded.iteration_time >= plain.iteration_time
        assert offloaded.device_footprint_bytes < plain.device_footprint_bytes

    def test_faster_device_faster_profile(self, bert_base_model, inference_config):
        v100 = profile_model(bert_base_model, JobType.BATCH_INFERENCE, inference_config, V100_16GB)
        a100 = profile_model(bert_base_model, JobType.BATCH_INFERENCE, inference_config, A100_80GB)
        assert a100.iteration_time < v100.iteration_time

    def test_effective_tflops_below_peak(self, bert_base_model, inference_config):
        profile = profile_model(bert_base_model, JobType.BATCH_INFERENCE, inference_config)
        assert 0 < profile.effective_tflops < V100_16GB.peak_tflops


class TestBestProfile:
    def test_best_profile_fits_memory(self, bert_large_model):
        limit = 4.5 * GIB
        profile = best_profile(bert_large_model, JobType.TRAINING, memory_limit_bytes=limit)
        assert profile is not None
        assert profile.device_footprint_bytes <= limit

    def test_xlm_training_does_not_fit_bubble_memory(self, xlm_model):
        """Table 1 rationale: large models are inference-only fill jobs."""
        profile = best_profile(xlm_model, JobType.TRAINING, memory_limit_bytes=4.5 * GIB)
        assert profile is None

    def test_xlm_inference_fits_bubble_memory(self, xlm_model):
        profile = best_profile(xlm_model, JobType.BATCH_INFERENCE, memory_limit_bytes=4.5 * GIB)
        assert profile is not None

    def test_more_memory_never_hurts(self, bert_large_model):
        tight = best_profile(bert_large_model, JobType.TRAINING, memory_limit_bytes=2 * GIB)
        roomy = best_profile(bert_large_model, JobType.TRAINING, memory_limit_bytes=10 * GIB)
        assert roomy is not None
        if tight is not None:
            assert roomy.throughput_samples_per_s >= tight.throughput_samples_per_s

    def test_invalid_memory_limit(self, bert_base_model):
        with pytest.raises(ValueError):
            best_profile(bert_base_model, JobType.TRAINING, memory_limit_bytes=0.0)


class TestIsolatedExecution:
    def test_isolated_throughput_positive(self, bert_base_model):
        assert isolated_throughput(bert_base_model, JobType.BATCH_INFERENCE) > 0

    def test_inference_throughput_exceeds_training(self, bert_base_model):
        inf = isolated_throughput(bert_base_model, JobType.BATCH_INFERENCE)
        train = isolated_throughput(bert_base_model, JobType.TRAINING)
        assert inf > train

    def test_isolated_tflops_in_plausible_range(self, bert_base_model):
        tflops = isolated_tflops(bert_base_model, JobType.BATCH_INFERENCE)
        assert 20.0 < tflops < 125.0

    def test_isolated_swin_lower_than_bert(self, swin_model, bert_base_model):
        """Swin's poorly-optimised window attention lowers its achievable FLOPS."""
        assert isolated_tflops(swin_model, JobType.BATCH_INFERENCE) < isolated_tflops(
            bert_base_model, JobType.BATCH_INFERENCE
        )


class TestProfileMemo:
    """The process-wide profile memo: one entry per job class on a device,
    cleared with the shared caches, keyed by spec identity, and bounded."""

    @pytest.fixture()
    def profile_calls(self, monkeypatch):
        """Every ``profile_model`` call the memo makes on a miss."""
        calls = []
        original = profiles.profile_model

        def counting(*args, **kwargs):
            calls.append(args[:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(profiles, "profile_model", counting)
        clear_shared_caches()
        yield calls
        clear_shared_caches()

    def test_clear_shared_caches_makes_the_next_search_profile_again(self, profile_calls):
        cycle = BubbleCycle.from_durations([1.5, 1.5], 4.5 * GIB, period=4.0)
        # One spec object throughout: a new spec would miss the memo anyway.
        model = dataclasses.replace(build_model("bert-base"))
        FillJobExecutor(cycle).build_estimate(model, JobType.BATCH_INFERENCE)
        first = len(profile_calls)
        assert first == len(candidate_configs(JobType.BATCH_INFERENCE))
        FillJobExecutor(cycle).build_estimate(
            model, JobType.BATCH_INFERENCE, configs=[ExecutionConfig(batch_size=8)]
        )
        assert len(profile_calls) == first  # served by the memo
        clear_shared_caches()
        assert not profiles._CLASSES
        FillJobExecutor(cycle).build_estimate(model, JobType.BATCH_INFERENCE)
        assert len(profile_calls) == 2 * first

    def test_distinct_specs_sharing_a_name_never_share_a_profile(self, profile_calls):
        spec = dataclasses.replace(build_model("bert-base"))
        twin = dataclasses.replace(spec, layers=spec.layers[:-1])
        assert twin.name == spec.name
        config = ExecutionConfig(batch_size=8)
        a = cached_profile(spec, JobType.BATCH_INFERENCE, config)
        b = cached_profile(twin, JobType.BATCH_INFERENCE, config)
        assert a.model is spec and b.model is twin
        assert len(b.graph) == len(a.graph) - 1
        assert cached_profile(spec, JobType.BATCH_INFERENCE, config) is a
        assert cached_profile(twin, JobType.BATCH_INFERENCE, config) is b
        assert len(profiles._CLASSES) == 2
        assert len(profile_calls) == 2 * len(candidate_configs(JobType.BATCH_INFERENCE))

    def test_memo_flushes_at_its_entry_bound(self, profile_calls, monkeypatch):
        # The shipped bound holds no more profiles than the old 4,096-entry
        # per-configuration memo did.
        largest = max(len(candidate_configs(job_type)) for job_type in JobType)
        assert profiles._MAX_CLASSES * largest <= 4096
        monkeypatch.setattr(profiles, "_MAX_CLASSES", 3)
        specs = [dataclasses.replace(build_model("bert-base")) for _ in range(4)]
        for spec in specs[:3]:
            class_profiles(spec, JobType.BATCH_INFERENCE)
        assert len(profiles._CLASSES) == 3
        class_profiles(specs[3], JobType.BATCH_INFERENCE)
        assert len(profiles._CLASSES) == 1  # flushed, then the new entry
        class_profiles(specs[0], JobType.BATCH_INFERENCE)
        # The flushed class was profiled again.
        assert len(profile_calls) == 5 * len(candidate_configs(JobType.BATCH_INFERENCE))

    def test_a_configuration_outside_the_candidates_is_never_memoised(self, profile_calls):
        model = dataclasses.replace(build_model("bert-base"))
        config = ExecutionConfig(batch_size=8, offload_optimizer=True)
        assert config not in candidate_configs(JobType.BATCH_INFERENCE)
        first = cached_profile(model, JobType.BATCH_INFERENCE, config)
        second = cached_profile(model, JobType.BATCH_INFERENCE, config)
        assert first is not second and first.config == config
        assert len(profile_calls) == 2
        assert not profiles._CLASSES


class TestClassProfiles:
    """Every class entry equals its candidates profiled from scratch, bit for
    bit, and its isolated best is the fastest candidate that fits the device."""

    @pytest.mark.parametrize("device", [V100_16GB, A100_40GB], ids=lambda d: d.name)
    def test_entry_matches_profiling_from_scratch(self, device):
        clear_shared_caches()
        checked = 0
        for name in sorted(FILL_JOB_MODELS):
            model = build_model(name)
            for job_type in category_for_model(name).job_types():
                entry = class_profiles(model, job_type, device)
                configs = candidate_configs(job_type)
                fresh = [profile_model(model, job_type, c, device) for c in configs]
                assert [p.config for p in entry.profiles] == configs
                for got, want in zip(entry.profiles, fresh):
                    assert float.hex(got.graph.total_duration) == float.hex(
                        want.graph.total_duration
                    ), (name, job_type, got.config)
                    assert float.hex(got.device_footprint_bytes) == float.hex(
                        want.device_footprint_bytes
                    ), (name, job_type, got.config)
                fitting = [
                    p.throughput_samples_per_s
                    for p in fresh
                    if p.device_footprint_bytes <= device.usable_memory_bytes
                ]
                assert float.hex(isolated_throughput(model, job_type, device)) == float.hex(
                    max(fitting)
                ), (name, job_type)
                checked += 1
        assert checked > 0
        clear_shared_caches()
