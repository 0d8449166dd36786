"""The package contract: it imports nothing beyond the standard library."""

import ast
import pathlib
import sys

import latdec


def test_imports_are_relative_or_stdlib():
    sources = sorted(pathlib.Path(latdec.__file__).parent.glob("*.py"))
    assert len(sources) >= 10
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += ["%s: %s" % (path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []
