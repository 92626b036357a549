import ast
import inspect
import re
import sys
import types
from pathlib import Path

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


# The public API, pinned.  Names that only tests call live in tests/helpers.py
# (`entry_via_separation`, `QSeries.contract`, `color_of`,
# `partition_identity_counts`, `e_tilde`, `f_tilde`, the crystal `phi`,
# `Signature` with `SignatureEntry` and `word`, `i_signature`, `epsilon`,
# `simple_root`) or are gone (the `WeightVector` members
# `level`, `pairing`, `__sub__`, `__neg__` and `__rmul__`, the `QSeries`
# integer scaling `scaled` and `__rmul__`, and `MultiplicityTable`).
EXPORTS = {
    "ComponentLabel", "EMPTY", "IdentityReport", "NonUnitConstantError",
    "OrderMismatchError", "Partition", "QSeries", "TableEntry",
    "UnsupportedModulusError", "WeightVector", "check_lemma_5_1", "check_lemma_5_2",
    "check_lemma_5_3", "check_lemma_5_4", "check_master", "check_theorem_5_1",
    "check_triple_product", "classify_maximal", "closed_form_component_index",
    "coefficient_matrix", "cofactors", "color_counts", "count_by_component",
    "count_maximal_shapes", "det", "distinct_odd_sum_form", "enumerate_maximal_shapes",
    "euler_phi", "first_difference", "fundamental_weight", "gf_comb", "gf_theta",
    "is_maximal_second_factor", "is_maximal_shape", "is_maximal_structural", "is_n_regular",
    "master_coefficient", "master_discrepancy", "maximal_shape_zero_counts", "multiplicity_table",
    "residue_block", "restricted_partition_gf", "theta_branch", "theta_f", "theta_g",
    "theta_solution", "triple_product_f", "triple_product_g", "weight_of",
}


def test_exported_names_are_the_pinned_api():
    assert set().union(*(module.__all__ for module in MODULES)) == EXPORTS
    assert not hasattr(multiplicity, "entry_via_separation")
    assert not hasattr(qseries.QSeries, "contract")
    for name in ("scaled", "__rmul__"):
        assert not hasattr(qseries.QSeries, name), name
    assert not hasattr(multiplicity, "MultiplicityTable")
    assert not hasattr(young, "color_of")
    assert not hasattr(identities, "partition_identity_counts")
    retired = ("e_tilde", "f_tilde", "phi", "_moved", "Signature", "SignatureEntry", "i_signature", "epsilon")
    for name in retired:
        assert not hasattr(crystal, name), name
    assert not hasattr(weightlat, "simple_root")
    for name in ("level", "pairing", "__sub__", "__neg__", "__rmul__"):
        assert not hasattr(weightlat.WeightVector, name), name


def test_coefficient_matrix_takes_only_modulus_and_order():
    # Whether the construction is proven for n is decided by the solve.
    assert list(inspect.signature(multiplicity.coefficient_matrix).parameters) == ["n", "order"]


def _test_extra_names():
    """Distribution names in pyproject.toml's `test` extra, read without
    tomllib, which Python 3.10 lacks."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    section = text.split("[project.optional-dependencies]", 1)[1].split("\n[", 1)[0]
    (listed,) = re.findall(r"^test\s*=\s*\[(.*?)\]", section, re.M | re.S)
    return {re.match(r"[\w.-]+", req).group().lower() for req in re.findall(r'"([^"]+)"', listed)}


def test_test_extra_installs_every_third_party_module_the_tests_import():
    local = set(sys.stdlib_module_names) | {"qcrystal", "helpers", "conftest"}
    imported = {}
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), path.name)):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top not in local:
                    imported.setdefault(top, path.name)
    extra = _test_extra_names()
    assert imported, "no third-party import found"
    assert {top: where for top, where in imported.items() if top not in extra} == {}
