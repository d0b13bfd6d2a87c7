import monosplit


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is gone breaks
    # ``from monosplit import *`` while every other import still works
    missing = [name for name in monosplit.__all__
               if not hasattr(monosplit, name)]
    assert missing == []
    assert len(set(monosplit.__all__)) == len(monosplit.__all__)
