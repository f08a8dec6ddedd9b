"""Exception types shared across the package."""


class ParameterError(ValueError):
    """Parameters fail validation (non-integral geometry, bad ranges)."""


class LengthMismatch(ValueError):
    """Symbol sequence has the wrong count or unequal symbol widths."""


class IndexOutOfRange(IndexError):
    """Requested symbol index lies outside the layer."""


class ConfigError(ValueError):
    """Scenario configuration is inconsistent or incomplete."""


class BadCode(RuntimeError):
    """The erasure code itself is defective: reconstruction stalled even
    though enough valid chunks were supplied, or code generation could not
    meet the undecodable-ratio gate.

    Distinct from a fraud proof: the data may be honest but the code has a
    stopping set smaller than its target.
    """

    def __init__(self, message, layer=None, layer_size=None, known_fraction=None,
                 unknown=None, code_seed=None):
        super().__init__(message)
        self.layer = layer
        self.layer_size = layer_size
        self.known_fraction = known_fraction
        self.unknown = unknown
        self.code_seed = code_seed
