import importlib
import pkgutil

import chainlab


def test_every_exported_name_resolves():
    modules = [importlib.import_module(f"chainlab.{m.name}") for m in pkgutil.iter_modules(chainlab.__path__)
               if m.name != "__main__"]  # importing __main__ runs the command
    assert [(m.__name__, name) for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)] == []
