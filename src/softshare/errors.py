"""Exception hierarchy shared across the toolkit.

The CLI maps these to process exit codes: configuration problems exit 2,
data/format problems exit 3, numeric failures exit 4.
"""


class SoftShareError(Exception):
    """Base class for all toolkit errors."""


class ConfigurationError(SoftShareError):
    """Invalid configuration, dimensions, or arguments."""


class DataFormatError(SoftShareError):
    """Malformed or truncated input data (IDX files, checkpoints, blobs)."""


class DecodeError(DataFormatError):
    """Corrupt encoded stream; carries a position where decoding failed."""


class NumericError(SoftShareError):
    """Non-finite or out-of-domain numeric result."""


class DivergenceError(NumericError):
    """Training diverged; carries the training state at the failure.

    Retraining raises it after an epoch whose loss is non-finite, or at the
    step whose mixture update leaves a mixture parameter non-finite.

    Attributes:
        network: the network being trained, as it stands at the failure
            (not a copy): after that epoch, or before that step's network
            update.
        mixture: the mixture being trained, at the same point.
        trace: the epoch trace rows so far; after a non-finite loss, the
            failing epoch's row last.
    """

    def __init__(self, message, network=None, mixture=None, trace=None):
        super().__init__(message)
        self.network = network
        self.mixture = mixture
        self.trace = trace
