"""Tests for the model zoo: parameter counts, structure, registry."""

from __future__ import annotations

import pytest

from repro.models.registry import FILL_JOB_MODELS, MAIN_JOB_MODELS, build_model, model_names
from repro.models.transformer import (
    GPT_40B_CONFIG,
    GPT_5B_CONFIG,
    TransformerConfig,
    build_decoder_lm,
    build_encoder_lm,
    scale_transformer,
)


class TestRegistry:
    def test_all_table1_models_registered(self):
        expected = {"efficientnet", "bert-base", "bert-large", "swin-large", "xlm-roberta-xl"}
        assert set(FILL_JOB_MODELS) == expected

    def test_main_job_models_registered(self):
        assert set(MAIN_JOB_MODELS) == {"gpt-5b", "gpt-40b"}

    def test_model_names(self):
        assert "bert-base" in model_names()
        assert "gpt-40b" not in model_names(fill_jobs_only=True)

    def test_unknown_model(self):
        with pytest.raises(KeyError, match="unknown model"):
            build_model("resnet-50")

    def test_cache_returns_same_object(self):
        assert build_model("bert-base") is build_model("bert-base")


class TestParameterCounts:
    """Parameter counts should be within 15% of the values in Table 1 / Section 5.2."""

    @pytest.mark.parametrize(
        "name, target",
        [
            ("bert-base", 109e6),
            ("bert-large", 334e6),
            ("efficientnet", 117e6),
            ("swin-large", 779e6),
            ("xlm-roberta-xl", 2.8e9),
            ("gpt-5b", 5e9),
            ("gpt-40b", 40e9),
        ],
    )
    def test_param_count_close_to_paper(self, name, target):
        model = build_model(name)
        assert model.param_count == pytest.approx(target, rel=0.15)


class TestModelStructure:
    def test_bert_base_has_12_blocks(self, bert_base_model):
        blocks = [l for l in bert_base_model.layers if l.name.startswith("block_")]
        assert len(blocks) == 12

    def test_gpt_40b_has_48_blocks(self, gpt40b_model):
        blocks = [l for l in gpt40b_model.layers if l.name.startswith("block_")]
        assert len(blocks) == 48

    def test_efficientnet_is_cnn_family(self, efficientnet_model):
        assert efficientnet_model.family == "cnn"

    def test_swin_uses_window_attention(self, swin_model):
        from repro.models.base import LayerKind

        kinds = {l.kind for l in swin_model.layers}
        assert LayerKind.WINDOW_ATTENTION in kinds

    def test_swin_kernel_efficiency_penalised(self, swin_model):
        from repro.models.base import LayerKind

        attn = [l for l in swin_model.layers if l.kind == LayerKind.WINDOW_ATTENTION]
        assert all(l.kernel_efficiency < 1.0 for l in attn)

    def test_cnn_activation_heavy_relative_to_params(self, efficientnet_model, bert_base_model):
        """EfficientNet's defining property: large activations per parameter."""
        eff_ratio = (
            efficientnet_model.activation_bytes_per_sample / efficientnet_model.param_bytes
        )
        bert_ratio = (
            bert_base_model.activation_bytes_per_sample / bert_base_model.param_bytes
        )
        # Per-sample activations relative to model size are of the same order;
        # what matters is that EfficientNet needs far larger batches (tested in
        # the efficiency model), but its activation/parameter ratio should not
        # be dramatically lower than BERT's.
        assert eff_ratio > 0.1 * bert_ratio

    def test_main_jobs_use_seq_2048(self, gpt5b_model, gpt40b_model):
        assert gpt5b_model.reference_seq_len == 2048
        assert gpt40b_model.reference_seq_len == 2048

    def test_fill_jobs_use_shorter_sequences(self, bert_base_model, xlm_model):
        assert bert_base_model.reference_seq_len == 512
        assert xlm_model.reference_seq_len == 512


class TestTransformerConfig:
    def test_approx_param_count_close_to_built(self):
        model = build_decoder_lm(GPT_5B_CONFIG)
        assert GPT_5B_CONFIG.approx_param_count == pytest.approx(model.param_count, rel=0.01)

    def test_hidden_divisible_by_heads(self):
        with pytest.raises(ValueError):
            TransformerConfig(
                name="bad", hidden_size=100, num_layers=2, num_heads=3, vocab_size=10, seq_len=8
            )

    def test_scaled_keeps_head_dim(self):
        scaled = GPT_40B_CONFIG.scaled(width_scale=0.5)
        head_dim = GPT_40B_CONFIG.hidden_size // GPT_40B_CONFIG.num_heads
        assert scaled.hidden_size % head_dim == 0
        assert scaled.hidden_size % scaled.num_heads == 0

    def test_scale_transformer_total_size(self):
        base = build_decoder_lm(GPT_5B_CONFIG)
        double = scale_transformer(GPT_5B_CONFIG, 2.0)
        assert double.param_count == pytest.approx(2 * base.param_count, rel=0.30)

    def test_scale_transformer_half(self):
        base = build_decoder_lm(GPT_5B_CONFIG)
        half = scale_transformer(GPT_5B_CONFIG, 0.5)
        assert half.param_count < base.param_count

    def test_encoder_is_not_causal(self):
        cfg = TransformerConfig(
            name="enc", hidden_size=64, num_layers=2, num_heads=4, vocab_size=100, seq_len=16,
            causal=True,
        )
        model = build_encoder_lm(cfg)
        assert model.family == "transformer-encoder"
