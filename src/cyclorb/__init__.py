"""cyclorb: twist-field correlators and Renyi entropies of minimal-model CFTs.

The package solves the Fuchsian ODEs obeyed by cyclic-orbifold twist-field
correlators with Frobenius series, fits connection matrices between the
expansion points, solves the single-valuedness constraints for the block
coefficients, and cross-checks everything against closed forms, structure
constants, torus characters, and exact diagonalization of critical RSOS
height chains and the imaginary-field Ising chain.
"""

from .frobenius import (
    FrobeniusBasis,
    FrobeniusSeries,
    LogarithmicCaseError,
    NonFuchsianError,
    OutOfDiskError,
    RiemannScheme,
    ThetaOde,
    basis_for,
    evaluate,
    exponents_at_infinity,
    frobenius_series,
    indicial_exponents,
    recenter_to_one,
    scheme_of,
    theta_form,
    to_standard_coeffs,
)
from .specfun import (
    CharacterSpec,
    HypParams,
    PoleError,
    character_coeffs,
    connection_2x2,
    dedekind_eta,
    gamma,
    gamma_ratio,
    hyp2f1,
    kac_character,
    nome_from_x,
    rgamma,
    x_from_nome,
)
from .monodromy import (
    BlockCoefficients,
    ConnectionFit,
    DegeneracyError,
    assemble,
    continue_blocks,
    correlator_on_circle,
    diagonal_invariants,
    fit_connection,
)
from .catalog import (
    MODEL_IDS,
    CorrelatorModel,
    bootstrap,
    ceff_baseline,
    closed_form_eval,
    correlator,
    get_model,
    integer_spaced_pairs,
    n3_ward_consistency,
    ope_table,
    ope_table_csv,
    predict_on_circle,
    torus_block_expansions,
    torus_check,
    unfolded_four_point,
    validate_scheme,
    ward_taylor,
)
from . import rsos, yanglee_chain

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
