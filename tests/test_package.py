import chernloc


def test_star_import_and_every_export_resolves():
    namespace = {}
    exec("from chernloc import *", namespace)
    for name in chernloc.__all__:
        assert name in namespace
        assert getattr(chernloc, name) is namespace[name]
    assert len(set(chernloc.__all__)) == len(chernloc.__all__)
