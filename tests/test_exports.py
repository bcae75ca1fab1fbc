import importlib
import pkgutil

import fcco


def test_every_exported_name_resolves():
    # a name left in __all__ after its definition is deleted breaks
    # `from module import *` only when someone runs it
    missing = []
    for info in pkgutil.iter_modules(fcco.__path__):
        module = importlib.import_module(f"fcco.{info.name}")
        assert getattr(module, "__all__", None), f"{module.__name__} declares no __all__"
        missing += [f"{module.__name__}.{n}" for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
