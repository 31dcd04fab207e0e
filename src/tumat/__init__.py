"""Exact totally unimodular matrices, vector matroids, and their 1/2/3-sums."""

from .documents import (
    DocumentError,
    parse_document,
    parse_matrix_document,
    parse_standard_repr_document,
    render_matrix_document,
    render_standard_repr_document,
)
from .errors import ShapeError, SizeGuardError
from .exactmat import GF2, RATIONAL, ExactMatrix, from_cols
from .matroid import (
    AxiomReport,
    FiniteMatroid,
    LabeledMatrix,
    disjoint_sum,
    matroids_equal,
    to_matroid,
    verify_matroid_axioms,
    zmod_linear_independent,
)
from .stdrepr import (
    StandardRepr,
    fundamental_repr,
    is_regular,
    standardize,
    standardize_tu,
)
from .sums import (
    FORM_IDENTITY,
    FORM_UPPER_TRIANGULAR,
    REASON_D0_MISMATCH,
    REASON_D0_SINGULAR,
    REASON_LABELS_NOT_DISTINCT,
    REASON_MISSING_ONE,
    REASON_NONZERO_OUTSIDE,
    REASON_X_OVERLAP,
    REASON_Y_OVERLAP,
    REASON_ZERO_COL,
    REASON_ZERO_ROW,
    Sum3Labels,
    SumOutcome,
    canonical_signing_sum3,
    certifies_sum,
    compose,
    is_unit_2x2,
    sign_composition,
    sign_sum_1,
    sign_sum_2,
    standard_repr_sum_1,
    standard_repr_sum_2,
    standard_repr_sum_3,
    verify_is_sum_k_of,
)
from .tu import (
    TuVerdict,
    find_tu_signing,
    is_signing_of,
    is_totally_unimodular,
    is_tu_signing_of,
    scale_rows_cols,
)

__version__ = "0.1.0"
