"""NumPy attention-model substrate: layers, softmax variants, compute backends, BERT-base."""

from repro.nn.attention import MultiHeadAttention
from repro.nn.backend import AnalogBackend, ComputeBackend, IdealBackend
from repro.nn.bert import BERT_BASE, BertConfig, BertEncoderModel, BertWorkload
from repro.nn.encoder import TransformerEncoder, TransformerEncoderLayer
from repro.nn.functional import (
    gelu,
    layer_norm,
    log_softmax,
    relu,
    scaled_dot_product_attention,
    softmax,
)
from repro.nn.layers import Embedding, FeedForward, LayerNorm, Linear
from repro.nn.quantization import (
    QuantizationSpec,
    dequantize_tensor,
    fake_quantize,
    quantize_tensor,
)
from repro.nn.softmax_models import FixedPointSoftmax, ReferenceSoftmax

__all__ = [
    "softmax",
    "log_softmax",
    "gelu",
    "relu",
    "layer_norm",
    "scaled_dot_product_attention",
    "Linear",
    "LayerNorm",
    "FeedForward",
    "Embedding",
    "MultiHeadAttention",
    "TransformerEncoderLayer",
    "TransformerEncoder",
    "BertConfig",
    "BERT_BASE",
    "BertEncoderModel",
    "BertWorkload",
    "ReferenceSoftmax",
    "FixedPointSoftmax",
    "ComputeBackend",
    "IdealBackend",
    "AnalogBackend",
    "QuantizationSpec",
    "quantize_tensor",
    "dequantize_tensor",
    "fake_quantize",
]
