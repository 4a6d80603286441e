"""The package's public names: __all__ is what its import block binds.

Each public name is written once, in the package's imports, and __all__
is read from them, so a star import binds exactly __all__, exports no
submodule, and every value it binds comes from one of the submodules.
"""

from __future__ import annotations

import types

import branch_invariants


def test_star_import_binds_exactly_the_public_names():
    namespace: dict = {}
    exec("from branch_invariants import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(branch_invariants.__all__)
    values = [namespace[name] for name in branch_invariants.__all__]
    assert not [value for value in values if isinstance(value, types.ModuleType)]
    assert {value.__module__.rpartition(".")[0] for value in values} == {"branch_invariants"}
