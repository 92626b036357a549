"""Exact toolkit for tensor-square decompositions of the basic module of
affine sl(n): crystal combinatorics on colored Young diagrams, congruence-
constrained partition enumeration, truncated q-series arithmetic, and
machine-checked multiplicity and partition identities."""

from .young import (
    Partition,
    ColoredDiagram,
    EMPTY,
    color_of,
    color_counts,
    is_n_regular,
    is_maximal_shape,
    enumerate_maximal_shapes,
    maximal_shape_color_counts,
)
from .crystal import (
    Signature,
    SignatureEntry,
    i_signature,
    e_tilde,
    f_tilde,
    epsilon,
    phi,
    is_maximal_second_factor,
    is_maximal_structural,
)
from .weightlat import (
    WeightVector,
    ComponentLabel,
    fundamental_weight,
    simple_root,
    weight_of,
    classify_maximal,
    closed_form_component_index,
)
from .qseries import (
    QSeries,
    OrderMismatchError,
    NonUnitConstantError,
    euler_phi,
    theta_f,
    theta_g,
    triple_product_f,
    triple_product_g,
    restricted_partition_gf,
    det,
    cofactors,
    first_difference,
)
from .multiplicity import (
    MultiplicityTable,
    TableEntry,
    UnsupportedModulusError,
    NonUnitDeterminantError,
    theta_branch,
    multiplicity_table,
    count_by_component,
    count_maximal_shapes,
    gf_comb,
    gf_theta,
    theta_solution,
    master_coefficient,
    residue_block,
    coefficient_matrix,
    entry_via_separation,
    master_discrepancy,
)
from .identities import (
    IdentityReport,
    distinct_odd_sum_form,
    partition_identity_counts,
    check_lemma_5_1,
    check_lemma_5_2,
    check_lemma_5_3,
    check_lemma_5_4,
    check_theorem_5_1,
    check_master,
    check_triple_product,
)

__version__ = "0.1.0"
