"""Every public name in src/geofence has a caller in the program, not only in its tests."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROGRAM = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))

# public names a caller outside the program uses, each with its reason
ALLOWED = {
    "device.cache_save": "the device's persistence API, which a host calls across restarts",
    "device.cache_load": "the device's persistence API, which a host calls across restarts",
    "datasets.read_dataset": "the reader of the format genboxes writes; criterion 7 reads through it",
}


def public_definitions(module: str, tree: ast.Module):
    """(qualified name, bare name, node) of each public module-level function and class,
    and of each public method of a public class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node.name, node
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name, item


def name_uses(tree: ast.Module):
    """(name, line) of every identifier the code names: names, attributes and imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno


def test_every_public_name_in_src_is_used_by_src_or_perfbench():
    """Matching is by name, not by binding, so a dead name that shares its name with a
    live one elsewhere (a method ``load`` beside another ``load``) is not caught."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in PROGRAM}
    uses = {path: list(name_uses(tree)) for path, tree in trees.items()}
    unused, defined = [], set()
    for path in sorted((ROOT / "src" / "geofence").glob("*.py")):
        for qualified, name, node in public_definitions(path.stem, trees[path]):
            defined.add(qualified)
            inside = range(node.lineno, node.end_lineno + 1)
            if qualified not in ALLOWED and not any(
                used == name and (other != path or line not in inside)
                for other, names in uses.items()
                for used, line in names
            ):
                unused.append(qualified)
    assert unused == []
    assert set(ALLOWED) <= defined
