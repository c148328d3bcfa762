"""The package's one exception type."""


class InputError(ValueError):
    """Malformed or out-of-contract input, or a quantity it cannot give; the CLI exits 2."""
