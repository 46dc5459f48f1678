"""Tests for repro.nn layers, attention, encoder, BERT workload and quantisation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.attention import MultiHeadAttention
from repro.nn.bert import BERT_BASE, BertConfig, BertEncoderModel, BertWorkload
from repro.nn.encoder import TransformerEncoder, TransformerEncoderLayer
from repro.nn.layers import Embedding, FeedForward, LayerNorm, Linear
from repro.nn.quantization import QuantizationSpec, dequantize_tensor, fake_quantize, quantize_tensor
from repro.nn.softmax_models import FixedPointSoftmax
from repro.utils.fixed_point import CNEWS_FORMAT


class TestLayers:
    def test_linear_shapes_and_flops(self, rng):
        layer = Linear(16, 8, rng=rng)
        out = layer(rng.normal(size=(2, 5, 16)))
        assert out.shape == (2, 5, 8)
        assert layer.flops(10) == 2 * 10 * 16 * 8

    def test_linear_rejects_wrong_input_size(self, rng):
        with pytest.raises(ValueError):
            Linear(16, 8)(rng.normal(size=(2, 5, 15)))

    def test_linear_no_bias(self, rng):
        layer = Linear(4, 4, rng=rng, bias=False)
        assert layer.bias is None
        assert layer(np.zeros((1, 4))).max() == 0.0

    def test_layernorm(self, rng):
        norm = LayerNorm(32)
        out = norm(rng.normal(2, 3, size=(4, 32)))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-9)
        with pytest.raises(ValueError):
            norm(rng.normal(size=(4, 31)))

    def test_feed_forward(self, rng):
        ffn = FeedForward(16, 64, rng=rng)
        assert ffn(rng.normal(size=(2, 3, 16))).shape == (2, 3, 16)
        assert ffn.flops(5) == 2 * 5 * 16 * 64 * 2

    def test_embedding(self, rng):
        emb = Embedding(vocab_size=100, max_positions=16, hidden=8, rng=rng)
        ids = rng.integers(0, 100, size=(2, 10))
        assert emb(ids).shape == (2, 10, 8)
        with pytest.raises(ValueError):
            emb(np.full((1, 20), 1))  # too long
        with pytest.raises(ValueError):
            emb(np.array([[100]]))  # out of vocab


class TestAttention:
    def test_output_shape(self, rng):
        mha = MultiHeadAttention(hidden=32, num_heads=4, rng=rng)
        out = mha(rng.normal(size=(2, 6, 32)))
        assert out.shape == (2, 6, 32)
        assert mha.last_scores.shape == (2, 4, 6, 6)
        np.testing.assert_allclose(mha.last_weights.sum(axis=-1), 1.0)

    def test_requires_divisible_heads(self):
        with pytest.raises(ValueError):
            MultiHeadAttention(hidden=30, num_heads=4)

    def test_custom_softmax_is_used(self, rng):
        x = rng.normal(size=(1, 5, 32)) * 3
        exact = MultiHeadAttention(hidden=32, num_heads=4, rng=np.random.default_rng(0))
        quantised = MultiHeadAttention(
            hidden=32,
            num_heads=4,
            rng=np.random.default_rng(0),
            softmax_fn=FixedPointSoftmax(CNEWS_FORMAT),
        )
        out_exact = exact(x)
        out_quant = quantised(x)
        assert not np.allclose(out_exact, out_quant)
        assert np.max(np.abs(out_exact - out_quant)) < 0.5

    def test_flop_counts(self):
        mha = MultiHeadAttention(hidden=64, num_heads=8)
        seq = 16
        assert mha.projection_flops(seq) == 4 * 2 * seq * 64 * 64
        assert mha.score_flops(seq) == 2 * 2 * 8 * seq * seq * 8
        assert mha.softmax_elements(seq) == 8 * seq * seq

    def test_mask_applied(self, rng):
        mha = MultiHeadAttention(hidden=16, num_heads=2, rng=rng)
        mask = np.zeros((4, 4))
        mask[:, 0] = -1e9
        mha(rng.normal(size=(1, 4, 16)), mask=mask)
        np.testing.assert_allclose(mha.last_weights[..., 0], 0.0, atol=1e-9)


class TestEncoder:
    def test_layer_and_stack_shapes(self, rng):
        layer = TransformerEncoderLayer(32, 4, 64, rng=rng)
        x = rng.normal(size=(2, 6, 32))
        assert layer(x).shape == x.shape
        encoder = TransformerEncoder(3, 32, 4, 64, rng=rng)
        assert encoder(x).shape == x.shape
        assert all(
            layer.attention.last_scores.shape == (2, 4, 6, 6) for layer in encoder.layers
        )

    def test_flops_aggregate_over_layers(self):
        encoder = TransformerEncoder(2, 32, 4, 64)
        layer_flops = TransformerEncoderLayer(32, 4, 64).flops(10)
        total = encoder.flops(10)
        for key, value in layer_flops.items():
            assert total[key] == 2 * value

    def test_invalid_layer_count(self):
        with pytest.raises(ValueError):
            TransformerEncoder(0, 32, 4, 64)


class TestBert:
    def test_bert_base_topology(self):
        assert BERT_BASE.num_layers == 12
        assert BERT_BASE.hidden == 768
        assert BERT_BASE.num_heads == 12
        assert BERT_BASE.intermediate == 3072
        assert BERT_BASE.head_dim == 64

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            BertConfig(hidden=100, num_heads=12)
        with pytest.raises(ValueError):
            BertConfig(num_layers=0)

    def test_small_model_forward(self, rng):
        config = BertConfig(num_layers=2, hidden=32, num_heads=4, intermediate=64, vocab_size=50, max_positions=16)
        model = BertEncoderModel(config, seed=0)
        ids = rng.integers(0, 50, size=(2, 8))
        out = model(ids)
        assert out.shape == (2, 8, 32)
        layers = model.encoder.layers
        assert len(layers) == 2
        assert all(layer.attention.last_scores.shape == (2, 4, 8, 8) for layer in layers)

    def test_workload_counts_scale_quadratically_in_seq_for_softmax(self):
        short = BertWorkload(seq_len=128)
        long = BertWorkload(seq_len=256)
        assert long.softmax_elements() == 4 * short.softmax_elements()

    def test_workload_matmul_breakdown_consistency(self):
        workload = BertWorkload(seq_len=128)
        breakdown = workload.breakdown()
        assert sum(breakdown.values()) == workload.total_ops()
        assert breakdown["softmax"] == workload.softmax_ops()
        assert (
            breakdown["qkv_projections"] + breakdown["attention_matmuls"] + breakdown["ffn"]
            == workload.matmul_ops()
        )

    def test_workload_known_values(self):
        # one layer, seq 128: 4 projections of 768x768 = 4*2*128*768*768 ops
        workload = BertWorkload(seq_len=128)
        assert workload.qkv_projection_ops_per_layer() == 4 * 2 * 128 * 768 * 768
        assert workload.softmax_elements_per_layer() == 12 * 128 * 128
        assert workload.attention_matmul_ops_per_layer() == 12 * 2 * 2 * 128 * 128 * 64

    def test_workload_batch_scaling(self):
        single = BertWorkload(seq_len=64, batch_size=1)
        batch = BertWorkload(seq_len=64, batch_size=4)
        assert batch.total_ops() == 4 * single.total_ops()

    def test_invalid_workload(self):
        with pytest.raises(ValueError):
            BertWorkload(seq_len=0)

    def test_fractional_workload_sizes_fail_loudly(self):
        with pytest.raises(ValueError, match="seq_len must be an integer, got 64.5"):
            BertWorkload(seq_len=64.5)
        with pytest.raises(ValueError, match="batch_size must be an integer, got 2.5"):
            BertWorkload(seq_len=64, batch_size=2.5)
        with pytest.raises(ValueError, match="batch_size must be an integer, got 2.5"):
            BertWorkload(seq_len=64).with_batch(2.5)
        numpy_sized = BertWorkload(seq_len=np.int64(64), batch_size=np.int64(2))
        assert numpy_sized.total_ops() == BertWorkload(seq_len=64, batch_size=2).total_ops()


class TestQuantization:
    def test_round_trip_error_bounded(self, rng):
        spec = QuantizationSpec(bits=8)
        tensor = rng.normal(size=(16, 16))
        codes, scales = quantize_tensor(tensor, spec)
        recovered = dequantize_tensor(codes, scales)
        assert np.max(np.abs(recovered - tensor)) <= float(scales) / 2 + 1e-12
        assert np.max(np.abs(codes)) <= spec.q_max

    def test_per_channel_scales(self, rng):
        spec = QuantizationSpec(bits=8, per_channel_axis=1)
        tensor = rng.normal(size=(4, 3)) * np.array([1.0, 10.0, 100.0])
        scales = spec.scales_for(tensor)
        assert scales.shape == (1, 3)
        assert scales[0, 2] > scales[0, 0]

    def test_fake_quantize_more_bits_less_error(self, rng):
        tensor = rng.normal(size=(32, 32))
        err4 = np.abs(fake_quantize(tensor, QuantizationSpec(bits=4)) - tensor).mean()
        err8 = np.abs(fake_quantize(tensor, QuantizationSpec(bits=8)) - tensor).mean()
        assert err8 < err4

    def test_zero_tensor(self):
        spec = QuantizationSpec(bits=8)
        codes, scales = quantize_tensor(np.zeros((3, 3)), spec)
        assert np.all(codes == 0)

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantizationSpec(bits=1)
