"""qlinset: linearized polynomials over F_{q^n} with equal ratio image sets,
the semilinear group action on them, and scattered linear sets of PG(1,q^n),
at exhaustively checkable field sizes."""

from .gf import FieldCtx, build_field
from .qpoly import QPoly, identity_poly, monomial, trace_poly, zero_poly
from .imageset import (
    ImageSet,
    direction_bounds,
    image_of_ratio,
    images_equal,
    power_sum,
    survey_image_sizes,
)
from .moebius import (
    INF,
    SemilinearMap,
    SetEquivalenceIndex,
    find_set_equivalence,
    is_admissible,
    moebius_image,
    transform_poly,
)
from .criteria import (
    ClassifyOutcome,
    ERelationReport,
    check_e_relations,
    classify_n5,
    classify_n_le_4,
    exhaustive_same_image,
    monomial_classify,
    power_sums_all_equal,
    pseudoalg_test,
    trace5_test,
)
from .linset import (
    family,
    is_max_scattered,
    is_pseudoregulus_type,
    pgammal_equivalent,
    verify_new_example,
)

__version__ = "0.1.0"

__all__ = [
    "FieldCtx",
    "build_field",
    "QPoly",
    "identity_poly",
    "monomial",
    "trace_poly",
    "zero_poly",
    "ImageSet",
    "direction_bounds",
    "image_of_ratio",
    "images_equal",
    "power_sum",
    "survey_image_sizes",
    "INF",
    "SemilinearMap",
    "SetEquivalenceIndex",
    "find_set_equivalence",
    "is_admissible",
    "moebius_image",
    "transform_poly",
    "ClassifyOutcome",
    "ERelationReport",
    "check_e_relations",
    "classify_n5",
    "classify_n_le_4",
    "exhaustive_same_image",
    "monomial_classify",
    "power_sums_all_equal",
    "pseudoalg_test",
    "trace5_test",
    "family",
    "is_max_scattered",
    "is_pseudoregulus_type",
    "pgammal_equivalent",
    "verify_new_example",
]
