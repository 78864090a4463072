"""The export list of the package names each public object once, and
every name on it is bound, so `from dpoisson import *` cannot break."""

import dpoisson


def test_every_export_is_bound_and_listed_once():
    names = dpoisson.__all__
    assert [n for n in names if not hasattr(dpoisson, n)] == []
    assert len(set(names)) == len(names)
