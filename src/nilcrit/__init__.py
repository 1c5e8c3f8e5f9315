"""Finite permutation group toolkit for commutator-word nilpotency checks."""

from .errors import (
    DegreeMismatch,
    HypothesisNotSatisfied,
    InvalidPermutation,
    NilcritError,
    NotCommutatorClosed,
    NotGenerating,
    NotMetanilpotent,
    NotNormal,
    NotPElementSet,
    NotPrimeDivisor,
    NotSoluble,
    OrderCapExceeded,
    OrderMismatch,
    ParseError,
    PermutabilityViolated,
    SearchExhausted,
    TagMismatch,
)
from .perm import Permutation, commutator
from .group import (
    DEFAULT_ENUM_CAP,
    PermGroup,
    centralizer,
    normal_closure,
    normalizer,
    subgroup_generated,
    trivial_group,
)
from .structure import (
    SeriesReport,
    SylowBasis,
    derived_series,
    derived_subgroup,
    derived_term,
    fitting_height,
    fitting_subgroup,
    gamma_infinity,
    intersect_basis,
    is_metanilpotent,
    is_nilpotent,
    is_soluble,
    lower_central_series,
    lower_central_term,
    lower_fitting_series,
    p_core,
    p_prime_core,
    sylow_basis,
    sylow_subgroup,
)
from .words import (
    DeltaValueSet,
    GeneratorTower,
    delta_values,
    derived_from_closed_set,
    gamma_values,
    generator_tower,
    random_commutator_closed_generating_set,
)
from .criterion import (
    CriterionReport,
    CriterionWitness,
    NilpotencyCheck,
    ProbeReport,
    coprime_product_criterion,
    derived_nilpotency_check,
    lower_central_nilpotency_check,
    probe_insoluble,
)
from .lemmas import (
    LemmaReport,
    check_coprime_action,
    check_coset_intersection,
    check_fitting_membership,
    check_focal_generation,
    check_lifted_generation,
    normal_subgroups,
    p_power_value_closure,
)
from .corpus import (
    BUILTINS,
    GroupDescriptor,
    builtin_names,
    corpus_hash,
    filter_names,
    load_group,
    parse_descriptor,
)

__version__ = "0.1.0"
