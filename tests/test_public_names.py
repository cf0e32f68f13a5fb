"""Every public name the package defines has a reader outside its tests.

A function, class or constant that only tests read is test scaffolding
living in the package.  A name counts as read when it appears, as a
word, in the package's other code (``__init__.py`` only re-exports, so
it does not count), in its own module outside its definition, in
``README.md`` or under ``benchmarks/``.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "merge_surgeon"


def public_definitions(source: str) -> dict[str, tuple[int, int]]:
    """Each public top-level function, class and assigned name of
    ``source``, with the first and last line of its definition.  Click
    commands are skipped: the CLI reads them by their command names."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            decorators = [ast.unparse(d) for d in node.decorator_list]
            if any(d.startswith(("click.", "_command(")) for d in decorators):
                continue
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            first = node.lineno
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                found[name] = (first, node.end_lineno)
    return found


def unread_names(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module.name`` for each public name of ``modules`` (file name to
    source) that appears nowhere in ``others``, in the other modules, or
    in its own module outside its definition."""
    unread = []
    for module, source in modules.items():
        lines = source.splitlines()
        for name, (first, last) in public_definitions(source).items():
            rest = "\n".join(lines[: first - 1] + lines[last:])
            texts = [rest, *others, *(s for m, s in modules.items() if m != module)]
            word = re.compile(rf"\b{re.escape(name)}\b")
            if not any(word.search(text) for text in texts):
                unread.append(f"{module.removesuffix('.py')}.{name}")
    return unread


def test_the_check_sees_each_kind_of_definition():
    modules = {
        "a.py": "X = 1\nY: int = 2\n\ndef f():\n    return f\n\nclass C:\n    pass\n"
                "\n@click.command()\ndef cmd():\n    pass\n\ndef _private():\n    pass\n",
        "b.py": "print(Y)\n",
    }
    assert unread_names(modules, []) == ["a.X", "a.f", "a.C"]
    assert unread_names(modules, ["f(X)", "C"]) == []


def test_every_public_name_has_a_reader_outside_the_tests():
    modules = {
        path.name: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"
    }
    assert len(modules) > 5
    others = [(ROOT / "README.md").read_text(encoding="utf-8")] + [
        path.read_text(encoding="utf-8")
        for path in sorted((ROOT / "benchmarks").rglob("*")) if path.suffix in (".py", ".md")
    ]
    assert unread_names(modules, others) == []
