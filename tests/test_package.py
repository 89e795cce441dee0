import ast
import importlib
import pkgutil
from functools import cached_property
from pathlib import Path
from types import FunctionType

import chainlab

# exported names that no library code calls: the independent routes that tests compare against
ORACLES = {
    "detector.amplitude_free",
    "detector.semicircle_kernel",
    "packets.ghat_radial",
    "meanfield.berezin_bracket",
    "qdomino.green_infinite",
    "xychain.evolution_coefficient",
    "xychain.recurrence_coefficients",
    "dense_oracle.build_full_chain_hamiltonian",
    "dense_oracle.spin_ops",
}


def _modules():
    return [importlib.import_module(f"chainlab.{m.name}") for m in pkgutil.iter_modules(chainlab.__path__)
            if m.name != "__main__"]  # importing __main__ runs the command


def _trees():
    return {path.name: ast.parse(path.read_text()) for path in Path(chainlab.__file__).parent.glob("*.py")}


def _library_uses():
    # a use in the package's code counts: a name or an attribute, not a docstring, a comment or an __all__ string
    used = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_resolves():
    assert [(m.__name__, name) for m in _modules() for name in getattr(m, "__all__", ()) if not hasattr(m, name)] == []


def test_every_exported_name_has_a_library_caller_or_is_an_oracle():
    used = _library_uses()
    exported = {f"{m.__name__.removeprefix('chainlab.')}.{name}": name
                for m in _modules() for name in getattr(m, "__all__", ())}
    assert sorted(key for key, name in exported.items() if name not in used) == sorted(ORACLES)


def test_every_public_method_and_property_has_a_library_caller():
    # an override of a base-class method (argparse's error) is called by the base class
    used = _library_uses()
    members = {f"{m.__name__.removeprefix('chainlab.')}.{cls.__name__}.{name}": name
               for m in _modules() for cls in vars(m).values()
               if isinstance(cls, type) and cls.__module__ == m.__name__
               for name, val in vars(cls).items()
               if not name.startswith("_")
               and isinstance(val, (FunctionType, property, cached_property, staticmethod, classmethod))
               and not any(hasattr(base, name) for base in cls.__mro__[1:])}
    assert members
    assert sorted(key for key, name in members.items() if name not in used) == []


def test_package_modules_import_no_private_names():
    # a module's private name stays in that module: another module reaches it through a public function
    imports = [(file, node.module, alias.name) for file, tree in _trees().items() for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (node.level > 0 or (node.module or "").startswith("chainlab"))
               for alias in node.names]
    assert imports
    assert [entry for entry in imports if entry[2].startswith("_")] == []
