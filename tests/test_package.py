"""The package's public surface."""

import crlab


def test_every_exported_name_resolves():
    assert len(set(crlab.__all__)) == len(crlab.__all__)
    assert [name for name in crlab.__all__ if not hasattr(crlab, name)] == []
    namespace: dict = {}
    exec("from crlab import *", namespace)
    assert set(crlab.__all__) <= set(namespace)
