import monosplit


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # ``from monosplit import *`` while every other import still works
    missing = [name for name in monosplit.__all__
               if not hasattr(monosplit, name)]
    assert missing == []
    assert len(set(monosplit.__all__)) == len(monosplit.__all__)


def test_operator_norm_resolves_where_the_benchmark_patches_it():
    # perfbench/tracing.py patches operator_norm in these two modules; an
    # import cleanup there would break the traced benchmark run only
    from monosplit import linops, minimization, system

    assert system.operator_norm is linops.operator_norm
    assert minimization.operator_norm is linops.operator_norm
