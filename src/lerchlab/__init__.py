"""lerchlab: Lerch zeta evaluation and operator-identity verification."""

from .errors import (
    AccelerationFailureError,
    DegenerateParameterError,
    DomainError,
    IdentityViolationError,
    LatticePointError,
    LerchLabError,
    NonConvergenceError,
    UnknownRelationError,
)
from .special_functions import (
    GammaValue,
    Parity,
    complex_gamma,
    gamma_R,
    root_number,
    tate_gamma,
)
from .lerch_core import (
    TARGET_TOL,
    EvalResult,
    L_pm,
    LerchParams,
    Strategy,
    completed_L,
    hurwitz,
    hurwitz_many,
    l_pm_many,
    lerch_star,
    lerch_star_many,
    lerch_zeta,
    lpm_is_identically_zero,
    r_pm_is_identically_zero,
    riemann_zeta,
)
from .twisted_space import (
    OperatorKind,
    TwistedFn,
    apply_R,
    apply_hecke,
    kubert_1d,
    l_pm_twisted,
    lerch_star_twisted,
    zeta_operator_partial,
)
from .diff_ops import (
    apply_D,
    commutator_residual,
    raising_lowering_scan,
)
from .eigenspace import (
    CharacterizationResult,
    EigenBasis,
    FourierSlice,
    build_eigenspace,
    characterize,
    fourier_slice,
    j_split,
)
from .quadrature import QuadratureGrid, line_nodes, unit_square_grid
from .report import ReportRecord

__version__ = "0.1.0"
