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


def _self_calling_functions():
    """module.qualname of each package function that calls itself by name or as self.<name>."""
    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, module, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                if any(isinstance(call, ast.Call) and (
                        isinstance(call.func, ast.Name) and call.func.id == name
                        or isinstance(call.func, ast.Attribute) and call.func.attr == name
                        and isinstance(call.func.value, ast.Name) and call.func.value.id == "self")
                       for call in ast.walk(child)):
                    yield f"{module}.{prefix}{name}"
                yield from visit(child, module, f"{prefix}{name}.")

    for path in sorted(Path(crlab.__file__).parent.glob("*.py")):
        yield from visit(ast.parse(path.read_text(), str(path)), path.stem, "")


def test_no_recursion_grows_with_input_degree():
    # The parser's depth is capped by MAX_NESTING and the report's by its own
    # fixed nesting; nothing else may recurse, so no input degree can exhaust
    # Python's stack.
    assert set(_self_calling_functions()) == {
        "parsing._Parser.parse_factor", "report.encode_witness", "report._json",
        "report._approximate"}
