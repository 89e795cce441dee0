import importlib
import pkgutil
import re
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
}


def _modules():
    return [importlib.import_module(f"chainlab.{m.name}") for m in pkgutil.iter_modules(chainlab.__path__)
            if m.name != "__main__"]  # importing __main__ runs the command


def test_every_exported_name_resolves():
    assert [(m.__name__, name) for m in _modules() for name in getattr(m, "__all__", ()) if not hasattr(m, name)] == []


def test_every_exported_name_has_a_library_caller_or_is_an_oracle():
    # any mention in the package's source counts, except the name's def/class line and its __all__ entry
    lines = [line.strip() for path in Path(chainlab.__file__).parent.glob("*.py") for line in path.read_text().splitlines()]
    exported = {f"{m.__name__.removeprefix('chainlab.')}.{name}": name
                for m in _modules() for name in getattr(m, "__all__", ())}

    def referenced(name):
        own = re.compile(rf'(def|class) {name}\b|"{name}",$')
        word = re.compile(rf"\b{name}\b")
        return any(word.search(line) and not own.match(line) for line in lines)

    assert sorted(key for key, name in exported.items() if not referenced(name)) == sorted(ORACLES)
