import importlib

import pytest

import kpdet


@pytest.mark.parametrize("module", kpdet.__all__)
def test_module_imports_and_exports_only_existing_names(module):
    mod = importlib.import_module(f"kpdet.{module}")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"kpdet.{module}.__all__ lists missing names {missing}"


def test_hit_kernels_are_test_oracles_only():
    from kpdet import scattering
    assert not {"hit_kernel", "no_hit_kernel"} & set(dir(scattering))

