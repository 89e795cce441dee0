import ast
import importlib
import pkgutil
from pathlib import Path

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


def test_every_exported_name_resolves():
    assert [(m.__name__, name) for m in _modules() for name in getattr(m, "__all__", ()) if not hasattr(m, name)] == []


def test_every_exported_name_has_a_library_caller_or_is_an_oracle():
    # a use in the package's code counts: a name or an attribute, not a docstring, a comment or an __all__ string
    used = set()
    for path in Path(chainlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exported = {f"{m.__name__.removeprefix('chainlab.')}.{name}": name
                for m in _modules() for name in getattr(m, "__all__", ())}
    assert sorted(key for key, name in exported.items() if name not in used) == sorted(ORACLES)
