"""Exact decomposition of definite lattices and their endomorphism structures.

Everything is computed in exact rational arithmetic.  The central
operation is the unique splitting of a positive definite Z-lattice into
pairwise orthogonal indecomposable sublattices; the same engine splits
positive Hermitian modules over involutive orders, the unit of such an
order into Hermitian idempotents, and polarised complex structures into
indecomposable polarised substructures.  Automorphism groups of definite
lattices are enumerated exactly and checked against the block structure.
"""

from .algebra import (
    FiniteDimAlgebra,
    Involution,
    InvolutiveOrder,
    change_basis,
    check_l_eq_lstar,
    check_l_eq_r,
    check_nd,
    check_positive_involution,
    check_ss,
    positivity_witness,
    star_trace_form,
    trace_pairing,
)
from .aut import (
    IsometryGroup,
    aut_group,
    group_closure,
    grouped_decomposition,
    is_isometric,
    isometry_witness,
    verify_aut_factorization,
)
from .errors import (
    IncompleteDecompositionError,
    InternalError,
    InvalidHodgeStructureError,
    InvalidIdempotentsError,
    InvalidInputError,
    LatdecError,
    NoSolutionError,
    NotPositiveDefiniteError,
    NotPositiveInvolutionError,
    PreconditionError,
    RankTooLargeError,
)
from .hermitian import (
    HermitianModule,
    decompose_hermitian,
    decompose_restriction,
    regular_module,
    trace_form,
)
from .hodge import (
    HodgeBlock,
    HodgeDecomposition,
    PolarisedComplexStructure,
    decompose_hodge,
    endomorphism_order,
    verify_hodge_decomposition,
)
from .idempotents import (
    IdempotentDecomposition,
    blocks_from_idempotents,
    decompose_unity,
    idempotents_from_blocks,
    is_indecomposable_idempotent,
)
from .lattice import (
    Block,
    OrthoDecomposition,
    ZLattice,
    decompose,
    is_indecomposable,
    is_primitive,
    verify_decomposition,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "FiniteDimAlgebra",
    "HermitianModule",
    "HodgeBlock",
    "HodgeDecomposition",
    "IdempotentDecomposition",
    "IncompleteDecompositionError",
    "InternalError",
    "InvalidHodgeStructureError",
    "InvalidIdempotentsError",
    "InvalidInputError",
    "Involution",
    "InvolutiveOrder",
    "IsometryGroup",
    "LatdecError",
    "NoSolutionError",
    "NotPositiveDefiniteError",
    "NotPositiveInvolutionError",
    "OrthoDecomposition",
    "PolarisedComplexStructure",
    "PreconditionError",
    "RankTooLargeError",
    "ZLattice",
    "aut_group",
    "blocks_from_idempotents",
    "change_basis",
    "check_l_eq_lstar",
    "check_l_eq_r",
    "check_nd",
    "check_positive_involution",
    "check_ss",
    "decompose",
    "decompose_hermitian",
    "decompose_hodge",
    "decompose_restriction",
    "decompose_unity",
    "endomorphism_order",
    "group_closure",
    "grouped_decomposition",
    "idempotents_from_blocks",
    "is_indecomposable",
    "is_indecomposable_idempotent",
    "is_isometric",
    "is_primitive",
    "isometry_witness",
    "positivity_witness",
    "regular_module",
    "star_trace_form",
    "trace_form",
    "trace_pairing",
    "verify_aut_factorization",
    "verify_decomposition",
    "verify_hodge_decomposition",
]
