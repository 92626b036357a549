import types

import qcrystal
from qcrystal import crystal, identities, multiplicity, qseries, weightlat, young

MODULES = (young, crystal, weightlat, qseries, multiplicity, identities)


def test_package_reexports_exactly_the_module_exports():
    exported = {}
    for module in MODULES:
        for name in module.__all__:
            assert name not in exported, (name, module.__name__, exported.get(name))
            exported[name] = module.__name__
            assert getattr(qcrystal, name) is getattr(module, name), name
    public = {
        name
        for name, value in vars(qcrystal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(exported)


# The public API, pinned.  `multiplicity.entry_via_separation` and
# `QSeries.contract` now live in tests/helpers.py, since only tests call them.
EXPORTS = {
    "ComponentLabel", "EMPTY", "IdentityReport", "MultiplicityTable", "NonUnitConstantError",
    "NonUnitDeterminantError", "OrderMismatchError", "Partition", "QSeries", "Signature",
    "SignatureEntry", "TableEntry", "UnsupportedModulusError", "WeightVector", "check_lemma_5_1",
    "check_lemma_5_2", "check_lemma_5_3", "check_lemma_5_4", "check_master", "check_theorem_5_1",
    "check_triple_product", "classify_maximal", "closed_form_component_index",
    "coefficient_matrix", "cofactors", "color_counts", "color_of", "count_by_component",
    "count_maximal_shapes", "det", "distinct_odd_sum_form", "e_tilde", "enumerate_maximal_shapes",
    "epsilon", "euler_phi", "f_tilde", "first_difference", "fundamental_weight", "gf_comb",
    "gf_theta", "i_signature", "is_maximal_second_factor", "is_maximal_shape",
    "is_maximal_structural", "is_n_regular", "master_coefficient", "master_discrepancy",
    "maximal_shape_zero_counts", "multiplicity_table", "partition_identity_counts", "phi",
    "residue_block", "restricted_partition_gf", "simple_root", "theta_branch", "theta_f",
    "theta_g", "theta_solution", "triple_product_f", "triple_product_g", "weight_of",
}


def test_exported_names_are_the_pinned_api():
    assert set().union(*(module.__all__ for module in MODULES)) == EXPORTS
    assert not hasattr(multiplicity, "entry_via_separation")
    assert not hasattr(qseries.QSeries, "contract")
