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
