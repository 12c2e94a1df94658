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
