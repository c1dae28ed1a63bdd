"""Only ``datagen`` builds a random generator: every stream comes from ``datagen.stream``.

A module names ``SeedSequence`` or ``default_rng`` in code when an
``ast.Name``, an ``ast.Attribute`` or an imported alias spells it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mialab"
_BUILDERS = {"SeedSequence", "default_rng"}


def _names(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update({node.name.split(".")[-1], node.asname})
    return names


def test_only_datagen_builds_a_generator():
    builders = {path.stem: sorted(_names(ast.parse(path.read_text())) & _BUILDERS)
                for path in sorted(SRC.glob("*.py"))}
    assert builders.pop("datagen") == sorted(_BUILDERS)
    assert not {module: names for module, names in builders.items() if names}
