"""Zak-domain numerics for the GKP bosonic code.

Modular wavefunctions on a finite patch, modular phase/shift operators,
GKP codewords and error correction, and the modular-variable subsystem
decomposition with logical-qubit extraction.
"""

from .core import (
    IdealZakState,
    ModularWavefunction,
    ZakGrid,
    ZakPatch,
    convention_phase,
    gaussian_comb,
    inverse_zak_transform,
    stretch_rescale,
    tabulated,
    vacuum,
    zak_transform,
)
from .errors import (
    ConfigError,
    DegenerateLogicalError,
    GridMismatchError,
    NonFiniteError,
    NormalizationError,
    OffGridError,
    TruncationError,
    ZakError,
)
from .gkp import (
    DEFAULT_ALPHA,
    GKPCode,
    LogicalQubit,
    MixtureState,
    Syndrome,
    approx_codeword,
    codeword,
    ec_channel_logical,
    ec_kraus_amplitudes,
    logical_from_overlap,
    stabilizer_residual,
    syndrome_reduce,
)
from .operators import (
    apply_phase_u,
    apply_phase_v,
    apply_translate_u,
    apply_translate_v,
    apply_X,
    apply_Z,
)
from .ssd import (
    PPGaugeModes,
    SSDState,
    apply_X_ssd,
    apply_Z_ssd,
    ec_gauge_trace,
    from_ssd,
    gauge_trace,
    pp_bridge,
    pp_bridge_inverse,
    to_ssd,
)

__version__ = "0.1.0"
