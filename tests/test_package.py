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


def _modules():
    """(module name, syntax tree) for every module of the package."""
    for path in sorted(Path(crlab.__file__).parent.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(), str(path))


def _functions(node, prefix):
    """(prefix + qualname, node) for every function defined under node, at any depth."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if not isinstance(child, ast.ClassDef):
                yield f"{prefix}{child.name}", child
            yield from _functions(child, f"{prefix}{child.name}.")


def _self_calling_functions():
    """module.qualname of each package function that calls itself by name or as self.<name>."""
    for module, tree in _modules():
        for qualname, func in _functions(tree, f"{module}."):
            name = func.name
            if any(isinstance(call, ast.Call) and (
                    isinstance(call.func, ast.Name) and call.func.id == name
                    or isinstance(call.func, ast.Attribute) and call.func.attr == name
                    and isinstance(call.func.value, ast.Name) and call.func.value.id == "self")
                   for call in ast.walk(func)):
                yield qualname


def test_no_recursion_grows_with_input_degree():
    # The parser's depth is capped by MAX_NESTING and the report's by its own
    # fixed nesting; nothing else may recurse, so no input degree can exhaust
    # Python's stack.
    assert set(_self_calling_functions()) == {
        "parsing._Parser.parse_factor", "report.encode_witness", "report._json",
        "report._approximate"}


def _memoised_functions():
    """({module.qualname: maxsize} of the functools memos, [module:line of any other use]).

    A function decorated with ``functools.cache``, or with ``lru_cache``
    without an integer maxsize, reads as maxsize None.
    """
    found, stray = {}, []
    for module, tree in _modules():
        local = {alias.asname or alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "functools"
                 for alias in node.names if alias.name in ("cache", "lru_cache")}

        def is_memo(node):
            return (isinstance(node, ast.Name) and node.id in local
                    or isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
                    and isinstance(node.value, ast.Name) and node.value.id == "functools")

        decorators = set()
        for qualname, func in _functions(tree, f"{module}."):
            for decorator in func.decorator_list:
                call = decorator if isinstance(decorator, ast.Call) else None
                if not is_memo(call.func if call else decorator):
                    continue
                decorators.add(call.func if call else decorator)
                sizes = []
                if call:
                    sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
                found[qualname] = next((size.value for size in sizes
                                        if isinstance(size, ast.Constant)
                                        and type(size.value) is int), None)
        stray += [f"{module}:{node.lineno}" for node in ast.walk(tree)
                  if is_memo(node) and node not in decorators]
    return found, stray


def test_only_the_allowlisted_memos_are_unbounded():
    # A process-wide memo that never evicts grows with every distinct input.
    # Only two may: the harmonic basis, one entry per bidegree asked for, and
    # the argument parser, which takes no arguments.  Every other memo has an
    # integer maxsize, and a memo added or resized shows up here as a diff.
    found, stray = _memoised_functions()
    assert stray == []
    assert {name for name, size in found.items() if size is None} <= {
        "harmonics.basis", "cli.build_parser"}
    assert found == {
        "cli.build_parser": None, "harmonics.basis": None, "harmonics._weight_string": 256,
        "operators._chains_of": 1024, "variation._weights_of": 128,
        "variation._gradient_of": 256, "variation._second_variation_of": 32}


def test_chain_memo_holds_a_whole_form():
    # One form reads the field chains of every basis element it pairs; a
    # chain memo smaller than the basis at the largest pmax would evict a
    # form's own rows before the next form of a ladder could reuse them.
    from crlab.operators import _chains_of
    from crlab.variation import MAX_VARIATION_PMAX, pluriharmonic_basis

    assert _chains_of.cache_info().maxsize >= len(pluriharmonic_basis(MAX_VARIATION_PMAX)) == 648
