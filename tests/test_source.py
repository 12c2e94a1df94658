import ast
from pathlib import Path

import syndetic

SRC = Path(syndetic.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips asserts; self-checks must raise real exceptions
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _used_names(path: Path) -> set[str]:
    """Names a file reads, as a bare name or as an attribute; a def or
    class line and the strings of an ``__all__`` list are not reads."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_has_a_caller_outside_the_tests():
    # the library carries no code that only tests call
    root = Path(__file__).resolve().parents[1]
    callers = [p for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"]
    callers += sorted((root / "demos").glob("*.py"))
    callers += sorted((root / "perfbench").glob("*.py"))
    used = set().union(*map(_used_names, callers))
    exported = [
        alias.asname or alias.name
        for node in ast.parse((SRC / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert [name for name in exported if name not in used] == []
