"""The package's public surface."""

import photonchain


def test_every_exported_name_resolves():
    namespace = {}
    exec("from photonchain import *", namespace)
    assert set(photonchain.__all__) <= namespace.keys()
