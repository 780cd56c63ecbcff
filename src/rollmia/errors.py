"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: configuration/validation
problems exit 2, data/format problems exit 3, and runtime failures exit 4:
training divergence, and a white-box scorer that raises, which
``run_whitebox_sets`` reports as a ``RuntimeError`` naming the side it was
scoring (``run_whitebox``: naming the candidate).
"""


class ToolkitError(Exception):
    """Base class for all rollmia errors."""


class ConfigError(ToolkitError):
    """Invalid configuration or argument values."""


class FormatError(ToolkitError):
    """Malformed or corrupted on-disk data."""


class DivergenceError(ToolkitError):
    """Training produced non-finite values.

    Carries the last checkpoint that was still finite (``None`` if training
    diverged before the first checkpoint).
    """

    def __init__(self, message, last_checkpoint=None):
        super().__init__(message)
        self.last_checkpoint = last_checkpoint
