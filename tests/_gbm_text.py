"""Text form of a boosted model, used by the tests to compare fits exactly.

Preorder lines per tree (``split <feature> <threshold>`` or ``leaf <value>``)
with float fields written by ``repr``, so a round trip reproduces every bit.
"""

from mialab.errors import ValidationError
from mialab.gbm import GbmModel, TreeNode


def tree_depth(node: TreeNode) -> int:
    if node.is_leaf:
        return 0
    return 1 + max(tree_depth(node.left), tree_depth(node.right))


def _write_node(node: TreeNode, lines: list[str]) -> None:
    if node.is_leaf:
        lines.append(f"leaf {node.value!r}")
    else:
        lines.append(f"split {node.feature} {node.threshold!r}")
        _write_node(node.left, lines)
        _write_node(node.right, lines)


def serialize_gbm(model: GbmModel) -> str:
    """Preorder text form; float fields use ``repr`` so round-trips are exact."""
    lines = [
        "gbm v1",
        f"n_estimators={model.n_estimators} max_depth={model.max_depth} "
        f"learning_rate={model.learning_rate!r} base_score={model.base_score!r} "
        f"n_features={model.n_features}",
    ]
    for k, tree in enumerate(model.trees):
        lines.append(f"tree {k}")
        _write_node(tree, lines)
    return "\n".join(lines) + "\n"


def _parse_node(lines: list[str], pos: int) -> tuple[TreeNode, int]:
    parts = lines[pos].split()
    if parts[0] == "leaf":
        return TreeNode(value=float(parts[1])), pos + 1
    if parts[0] == "split":
        node = TreeNode(feature=int(parts[1]), threshold=float(parts[2]))
        node.left, pos = _parse_node(lines, pos + 1)
        node.right, pos = _parse_node(lines, pos)
        return node, pos
    raise ValidationError(f"unrecognized tree line: {lines[pos]!r}")


def deserialize_gbm(text: str) -> GbmModel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "gbm v1":
        raise ValidationError("not a gbm v1 file")
    try:
        header = dict(kv.split("=") for kv in lines[1].split())
        model = GbmModel(
            trees=[],
            learning_rate=float(header["learning_rate"]),
            base_score=float(header["base_score"]),
            n_estimators=int(header["n_estimators"]),
            max_depth=int(header["max_depth"]),
            n_features=int(header["n_features"]),
        )
        pos = 2
        while pos < len(lines):
            if not lines[pos].startswith("tree "):
                raise ValidationError(f"expected tree header at line {pos + 1}")
            root, pos = _parse_node(lines, pos + 1)
            model.trees.append(root)
    except (KeyError, ValueError, IndexError) as exc:
        raise ValidationError(f"malformed gbm file: {exc}") from exc
    return model
