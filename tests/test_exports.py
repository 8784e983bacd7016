"""The package's export list: every name resolves, and once."""

import chowkit


def test_export_list_resolves():
    names = chowkit.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(chowkit, n)] == []
    namespace = {}
    exec("from chowkit import *", namespace)  # a stale name raises here
    assert set(names) <= namespace.keys()
