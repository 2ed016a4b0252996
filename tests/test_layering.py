"""The library's modules form one import chain: spectral -> smoother -> aggregate -> bench -> cli.

Each module may import only modules earlier in the chain, at module level or
inside a function, so no module imports one that (directly or not) imports it.
Imports under ``if TYPE_CHECKING:`` never run and are exempt.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qagg"

# the package (__init__) re-exports spectral, smoother and aggregate; __main__ runs the cli
CHAIN = ("spectral", "smoother", "aggregate", "__init__", "bench", "cli", "__main__")


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"
    )


def _qagg_imports(tree: ast.AST):
    """(line, qagg module imported) for every import that can run; '__init__' is the package."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "qagg":
                    yield node.lineno, parts[1] if len(parts) > 1 else "__init__"
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, f"line {node.lineno}: relative import"
            parts = (node.module or "").split(".")
            if parts[0] == "qagg" and len(parts) > 1:
                yield node.lineno, parts[1]
            elif parts == ["qagg"]:
                for alias in node.names:  # a submodule, or a name of the package itself
                    name = alias.name if (SRC / f"{alias.name}.py").exists() else "__init__"
                    yield node.lineno, name
        stack.extend(ast.iter_child_nodes(node))


def test_every_module_has_a_place_in_the_chain():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(CHAIN)


def test_modules_import_only_earlier_modules():
    backward = []
    for rank, module in enumerate(CHAIN):
        path = SRC / f"{module}.py"
        for line, target in _qagg_imports(ast.parse(path.read_text(), filename=str(path))):
            if target not in CHAIN[:rank]:
                backward.append(f"{path.name}:{line} imports qagg.{target}")
    assert not backward, "imports against the chain " + " -> ".join(CHAIN) + ": " + "; ".join(
        sorted(backward)
    )


def test_type_checking_imports_are_exempt_and_others_are_not():
    source = (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from qagg.aggregate import SimplexWeights\n"
        "else:\n"
        "    import qagg.bench\n"
        "def f():\n"
        "    from qagg import cli, __version__\n"
    )
    found = sorted(_qagg_imports(ast.parse(source)))
    assert found == [(5, "bench"), (7, "__init__"), (7, "cli")]
