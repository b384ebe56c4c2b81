import charmax


def test_every_export_resolves():
    # a name left in __all__ after its definition is gone breaks
    # ``from charmax import *``
    assert len(set(charmax.__all__)) == len(charmax.__all__)
    assert [name for name in charmax.__all__
            if not hasattr(charmax, name)] == []
