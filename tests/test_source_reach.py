"""Every top-level function and class of ``src/mialab`` is reached from the program.

A definition is reached when another top-level statement of a mialab module
names it (an ``ast.Name`` or ``ast.Attribute``), or when a file under
``perfbench/`` names it in code or in a string.  Code that only the tests
call belongs in ``tests/``.  ``__init__.py`` holds only the package docstring:
each public name is imported from the module that defines it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(tree) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def _perfbench_names() -> set[str]:
    """Every name and string constant in a ``perfbench/`` file."""
    names: set[str] = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        names |= _names(tree)
        names |= {node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    return names


def _unreached_in_src() -> list[tuple[str, str]]:
    """``(module, name)`` of each definition that no other mialab statement names."""
    # (module, name the statement defines or None, names the statement uses)
    statements = [
        (path.stem, stmt.name if isinstance(stmt, _DEFINITIONS) else None, _names(stmt))
        for path in sorted((ROOT / "src" / "mialab").glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
    ]
    return [
        (module, name) for module, name, _ in statements
        if name is not None
        and not any(name in used for other, other_name, used in statements
                    if (other, other_name) != (module, name))
    ]


def test_package_init_is_only_a_docstring():
    tree = ast.parse((ROOT / "src" / "mialab" / "__init__.py").read_text())
    assert ast.get_docstring(tree) and len(tree.body) == 1, \
        "src/mialab/__init__.py may hold only the package docstring"


def test_every_src_definition_is_reached_outside_the_tests():
    perfbench = _perfbench_names()
    unreached = [f"{module}.{name}" for module, name in _unreached_in_src()
                 if name not in perfbench]
    assert not unreached, f"reached by no mialab module and no perfbench file: {unreached}"


def test_only_the_benchmark_wrappers_live_on_perfbench_alone():
    # the two wrappers the benchmark calls and no mialab path does; the next
    # benchmark change moves its workloads to the program's own paths and
    # deletes them
    perfbench = _perfbench_names()
    only_perfbench = [f"{module}.{name}" for module, name in _unreached_in_src()
                      if name in perfbench]
    assert only_perfbench == ["attacks.run_gbm_attack", "divergence.certify_bounds"]
