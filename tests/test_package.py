import inspect

import rigidkit


def test_public_names_resolve():
    # the star import raises on a name __all__ lists but the package lacks
    namespace = {}
    exec("from rigidkit import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(rigidkit.__all__)


def test_only_relation_verdicts_take_a_tolerance():
    # one tolerance knob: geometry checks read DEFAULT_TOL, and --tol reaches
    # only the relation runners and the commutator certificate
    takes_tol = {name for name in rigidkit.__all__
                 if callable(getattr(rigidkit, name))
                 and "tol" in inspect.signature(getattr(rigidkit, name)).parameters}
    assert takes_tol == {"run_suite", "verify_all", "commutator_decompose"}
