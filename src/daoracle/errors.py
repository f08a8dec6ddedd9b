"""The package's two failure types: bad input and a defective code."""


class ParameterError(ValueError):
    """Input fails validation: a parameter, a file's content, a scenario
    field or an index out of its range (the CLI's exit code 2)."""


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
