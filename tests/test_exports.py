"""`qiris.__all__` is exactly the public names the package binds."""

import inspect

import qiris


def test_all_lists_every_public_name_and_each_resolves():
    bound = {
        name
        for name, value in vars(qiris).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert sorted(qiris.__all__) == sorted(bound)
    namespace = {}
    exec("from qiris import *", namespace)
    assert set(qiris.__all__) <= namespace.keys()
