"""The package's public surface and its dependencies."""

import ast
import sys
from pathlib import Path

import crlab


def test_every_exported_name_resolves():
    assert len(set(crlab.__all__)) == len(crlab.__all__)
    assert [name for name in crlab.__all__ if not hasattr(crlab, name)] == []
    namespace: dict = {}
    exec("from crlab import *", namespace)
    assert set(crlab.__all__) <= set(namespace)


def _absolute_imports():
    """(file name, module name) for every absolute import in the package."""
    for path in sorted(Path(crlab.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                yield path.name, node.module
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    yield path.name, alias.name


def test_runtime_imports_only_the_standard_library():
    # Every import in the package is crlab-relative or a standard-library module.
    outside = [f"{file}: {name}" for file, name in _absolute_imports()
               if name.split(".")[0] not in sys.stdlib_module_names | {"crlab"}]
    assert outside == []


def test_no_module_imports_dataclasses():
    # Records are NamedTuples: dataclasses (and the inspect it loads) cost
    # milliseconds of every cold start.
    assert [file for file, name in _absolute_imports() if name == "dataclasses"] == []
