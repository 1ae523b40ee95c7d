"""Exact faithful linear representations of HNN extensions of free groups,
two-generator Artin groups, and semidirect products of matrix groups."""

from .errors import DimensionBoundError, OracleError, VerificationError
from .matrix import (
    BlockMonomial,
    RingMatrix,
    block_companion,
    block_diag,
    block_grid,
    conjugate,
    det_bareiss,
    get_block,
)
from .reps import (
    Representation,
    artin_even,
    artin_odd,
    b3_explicit,
    canonical_relation,
    defining_relations,
    golden_check,
    golden_table,
    hnn_induced_rep,
    integer_artin,
    integer_hnn,
    probe_faithfulness,
    sigma_free,
    sigma_int,
    sigma_qp,
    sigma_symbolic,
    verify_defining_relations,
)
from .ring import (
    INT,
    LAURENT,
    QQ,
    FractionRing,
    IntRing,
    LaurentPoly,
    LaurentRing,
    QpRing,
    QpScalar,
)
from .words import (
    Endomorphism,
    HnnSpec,
    MixedWord,
    NormalForm,
    Word,
    artin_canonical,
    artin_even_spec,
    artin_odd_spec,
    artin_spec,
    center_generator,
    equal,
    holomorph_conjugation_check,
    inner_endomorphism,
    normal_form,
    parse_base_word,
    parse_word,
    psi_inverse_power_x0,
)

__all__ = [name for name in dir() if not name.startswith("_")]
