"""Feedforward network compression under a learnable Gaussian mixture prior.

Weights are retrained jointly with a factorized mixture-of-Gaussians prior
whose zero-mean component prunes, whose learned means quantize, and whose
final state drives a bit-exact sparse encoding with measured compression
rates.
"""

from .checkpoint import load_checkpoint, save_checkpoint
from .codec import (
    CompressionReport,
    CsrMatrix,
    decode_network,
    encode_network,
    from_csr,
    naive_rate,
    to_csr,
)
from .config import ExperimentConfig, load_config
from .data import MnistDataset, load_mnist, read_idx, synthetic_digits
from .errors import (
    ConfigurationError,
    DataFormatError,
    DecodeError,
    DivergenceError,
    NumericError,
    SoftShareError,
)
from .mixture import (
    HyperPriorConfig,
    MixtureModel,
    init_mixture,
    log_prior,
    prior_grads,
    subsampled_prior_grads,
)
from .net import Batch, Layer, Network, error_loss_and_grad, evaluate, forward, \
    make_network
from .pipeline import pretrain_network, run_pipeline
from .postprocess import (
    QuantizedNetwork,
    kl_gaussian,
    load_quantized,
    merge_components,
    merge_pass,
    quantize,
    save_quantized,
)
from .train import retrain, trace_to_csv

__version__ = "0.1.0"

