import rigidkit


def test_public_names_resolve():
    # the star import raises on a name __all__ lists but the package lacks
    namespace = {}
    exec("from rigidkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rigidkit.__all__)
