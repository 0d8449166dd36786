"""The package contract: it imports nothing beyond the standard library,
and nothing that it does not use."""

import ast
import pathlib
import sys

import latdec


def sources():
    paths = sorted(pathlib.Path(latdec.__file__).parent.glob("*.py"))
    assert len(paths) >= 10
    return [(path, ast.parse(path.read_text(encoding="utf-8"))) for path in paths]


def test_imports_are_relative_or_stdlib():
    outside = []
    for path, tree in sources():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += ["%s: %s" % (path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def unused_imports(tree):
    """(line, name) of each name an import binds that no expression reads."""
    bound = [(node.lineno, (alias.asname or alias.name).split(".")[0])
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_unused_imports_are_found():
    tree = ast.parse("import os\nimport os.path\nfrom .a import b, c as d\n"
                     "from e import f\nos.sep\nd()\n")
    assert unused_imports(tree) == [(3, "b"), (4, "f")]


def test_every_imported_name_is_used():
    # __init__.py imports to re-export; every other module imports to use
    unused = ["%s:%d: %s" % (path.name, line, name)
              for path, tree in sources() if path.name != "__init__.py"
              for line, name in unused_imports(tree)]
    assert unused == []
