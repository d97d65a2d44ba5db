"""Spectral analysis of the antiferromagnetic Lipkin-Meshkov-Glick model."""

from .errors import (
    DimensionMismatch,
    DimensionTooLarge,
    EmptySpectrum,
    LmgError,
    NonFiniteInput,
    NotConverged,
    NotIntegerSpin,
    NotSymmetric,
    OverflowRisk,
)
from .spin import (
    SpinJ,
    SpinOperators,
    build_spin_operators,
    mat_exp_scaled,
)
from .tridiag import GeneralTridiag, SymTridiag
from .models import (
    HnBlocks,
    ModelParams,
    build_factorized,
    build_lmg_general,
    build_nonhermitian,
    build_susy_rotated,
    extract_hn_blocks,
    gap_sector_tridiag,
    supercharge_chain,
    susy_sector_blocks,
)
from .susy import (
    SpectrumReport,
    Supercharges,
    SuperalgebraResiduals,
    build_supercharges,
    classify_spectrum,
    susy_sorted_hamiltonian,
    verify_superalgebra,
    verify_superalgebra_bands,
)
from .eigensolve import (
    CharPoly,
    GapResult,
    charpoly_tridiag,
    eig_dense_symmetric,
    eig_symtridiag,
    spectral_gap,
    spectral_gap_cells,
)
from .groundstate import GroundState, ground_state, legendre_p

__version__ = "0.1.0"
