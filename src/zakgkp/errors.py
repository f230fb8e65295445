"""Exception types shared across the package, and the one wording of a refused kind of argument."""


def _kind(value, kinds, what, hint=""):
    """``value``; ValueError ``"<what>, not a <type>[; <hint>]"`` unless it is one of ``kinds``."""
    if isinstance(value, kinds):
        return value
    raise ValueError(f"{what}, not a {type(value).__name__}" + (f"; {hint}" if hint else ""))


class ZakError(Exception):
    """Base class for errors raised by this package."""


class GridMismatchError(ZakError):
    """Two objects live on incompatible grids or patches."""


class OffGridError(ZakError):
    """A coordinate that must coincide with a grid node does not."""


class TruncationError(ZakError):
    """The comb-sum truncation tail exceeds the requested tolerance."""

    def __init__(self, tail, tolerance):
        super().__init__(
            f"estimated truncation tail {tail:.3e} exceeds tolerance {tolerance:.3e}; "
            "increase m_max"
        )
        self.tail = tail
        self.tolerance = tolerance


class NormalizationError(ZakError):
    """A state or mixture is not normalized where normalization is required."""

    def __init__(self, norm, message=None):
        super().__init__(message or f"norm is {norm!r}, expected 1")
        self.norm = norm


class DegenerateLogicalError(ZakError):
    """Logical extraction found no support on the correctable patch."""


class ConfigError(ZakError):
    """Invalid run configuration (CLI exit code 2)."""


class NonFiniteError(ZakError, ValueError):
    """A grid sample that is written or read is not finite (CLI exit code 3)."""
