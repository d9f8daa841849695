"""Every public name in src/geofence has a caller in the program, not only in its tests,
and no value in src/geofence is held in two record types."""

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


def record_types(tree: ast.Module):
    """(name, field names) of each record type declared in a module: a ``namedtuple(...)``
    call, or a class decorated ``@dataclass`` or based on ``NamedTuple``, by its annotated fields."""

    def called(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", None) or getattr(node, "attr", None)

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and called(node) == "namedtuple":
            name, fields = (ast.literal_eval(arg) for arg in node.args[:2])
            yield name, tuple(fields.replace(",", " ").split() if isinstance(fields, str) else fields)
        elif isinstance(node, ast.ClassDef) and (
            "dataclass" in map(called, node.decorator_list) or "NamedTuple" in map(called, node.bases)
        ):
            yield node.name, tuple(item.target.id for item in node.body if isinstance(item, ast.AnnAssign))


def test_no_two_record_types_in_src_declare_the_same_fields():
    """One value, one type: a record type whose fields copy another's is a shadow of it.

    Matching is by field names only, in any order; the field types and the
    methods are not compared."""
    owner, twins = {}, []
    for path in sorted((ROOT / "src" / "geofence").glob("*.py")):
        for name, fields in record_types(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            key = tuple(sorted(fields))
            if key in owner:
                twins.append(" / ".join(sorted((owner[key], f"{path.stem}.{name}"))))
            owner.setdefault(key, f"{path.stem}.{name}")
    assert twins == []
