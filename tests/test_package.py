import pytest

import tabaudit
import tabaudit.contam


@pytest.mark.parametrize("package", [tabaudit, tabaudit.contam], ids=lambda p: p.__name__)
def test_every_export_resolves_and_is_listed(package):
    listed = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None
        assert name in listed


@pytest.mark.parametrize("package", [tabaudit, tabaudit.contam], ids=lambda p: p.__name__)
def test_unknown_attribute_is_attribute_error(package):
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_exports_are_the_submodules_objects():
    from tabaudit.contam.search import ScanConfig
    from tabaudit.data import load_dataset
    from tabaudit.errors import InputError

    assert tabaudit.load_dataset is load_dataset
    assert tabaudit.InputError is InputError
    assert tabaudit.contam.ScanConfig is ScanConfig
