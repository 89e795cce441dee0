import ast
import importlib
import pkgutil
import subprocess
import sys
import textwrap
from functools import cached_property
from pathlib import Path
from types import FunctionType

import numpy as np

import chainlab

# exported names that no library code calls: the independent routes that tests compare against
ORACLES = {
    "detector.amplitude_free",
    "detector.semicircle_kernel",
    "packets.ghat_radial",
    "meanfield.berezin_bracket",
    "meanfield.bracket_flow_rhs",
    "meanfield.bcs_gradient",
    "meanfield.gibbs_expectations",
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


def _uses(trees):
    # a use in code counts: a name or an attribute, not a docstring, a comment or an __all__ string
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_exported_name_resolves():
    assert [(m.__name__, name) for m in _modules() for name in getattr(m, "__all__", ()) if not hasattr(m, name)] == []


def test_no_public_name_is_exported_by_two_modules():
    # one name, one implementation: a caller never has to ask which module's version it got
    owners = {}
    for m in _modules():
        for name in getattr(m, "__all__", ()):
            owners.setdefault(name, []).append(m.__name__)
    assert {name: mods for name, mods in owners.items() if len(mods) > 1} == {}


def test_every_exported_name_has_a_library_caller_or_is_an_oracle():
    used = _uses(_trees().values())
    exported = {f"{m.__name__.removeprefix('chainlab.')}.{name}": name
                for m in _modules() for name in getattr(m, "__all__", ())}
    assert sorted(key for key, name in exported.items() if name not in used) == sorted(ORACLES)


def test_every_oracle_is_used_by_a_test():
    # an oracle has no library caller, so a test is its only use; it goes with its last test
    tests = Path(__file__).parent
    used = _uses(ast.parse(path.read_text()) for path in tests.glob("test_*.py"))
    assert sorted(key for key in ORACLES if key.rpartition(".")[2] not in used) == []


def test_every_public_method_and_property_has_a_library_caller():
    # an override of a base-class method (argparse's error) is called by the base class
    used = _uses(_trees().values())
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


def test_module_level_arrays_are_read_only():
    # a module-level array is shared by every later call in the process: one write would change them all
    arrays = {f"{m.__name__}.{name}": val for m in _modules() for name, val in vars(m).items()
              if isinstance(val, np.ndarray)}
    assert "chainlab.meanfield.SIGMA" in arrays
    assert sorted(key for key, val in arrays.items() if val.flags.writeable) == []


def test_traced_peaks_go_through_the_harness():
    # conftest.traced reads the peak before tracing stops; a hand-written start/stop block may read 0
    tests = Path(__file__).parent
    starts = [(path.name, node.lineno) for path in sorted(tests.glob("test_*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "start"
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "tracemalloc"]
    assert starts == []


def test_cli_refusals_go_through_the_contract():
    # test_cli's _refused checks a refusal's exit code, stderr prefix, missing traceback and empty --out;
    # every other call of main there asserts exit 0
    def main_calls(root):
        return {node for node in ast.walk(root)
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "main"}

    tree = ast.parse((Path(__file__).parent / "test_cli.py").read_text())
    (refused,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_refused"]
    successes = {node.left for node in ast.walk(tree) if isinstance(node, ast.Compare)
                 and [type(op) for op in node.ops] == [ast.Eq] and isinstance(node.comparators[0], ast.Constant)
                 and node.comparators[0].value == 0}
    assert main_calls(refused)
    assert sorted(node.lineno for node in main_calls(tree) - main_calls(refused) - successes) == []


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # hypothesis imports libcst to print a failing example's patch; under filterwarnings = error the
    # import's DeprecationWarning once ended the session with INTERNALERROR, so the next test never ran
    (tmp_path / "test_pair.py").write_text(textwrap.dedent("""
        from hypothesis import given
        from hypothesis import strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 10

        def test_passes():
            pass
    """))
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(pyproject),
           "--rootdir", str(tmp_path), "test_pair.py"]
    out = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "Falsifying example" in out.stdout
    assert out.stdout.splitlines()[-1].startswith("1 failed, 1 passed"), out.stdout
