"""Every public name the package defines has a reader outside its tests.

A function, class, constant, method or property that only tests read is
test scaffolding living in the package.  A name counts as read when it
appears, as a word, in the package's other code (``__init__.py`` only
re-exports, so it does not count), in its own module outside its
definition, in ``README.md`` or under ``benchmarks/``; a method or
property counts as read when ``.<name>`` appears there.
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


def public_methods(source: str) -> dict[str, tuple[int, int]]:
    """Each public method and property of the top-level classes of
    ``source``, as ``Class.name``, with the first and last line of its
    definition."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    first = min([item.lineno] + [d.lineno for d in item.decorator_list])
                    found[f"{node.name}.{item.name}"] = (first, item.end_lineno)
    return found


def unread_names(modules: dict[str, str], others: list[str]) -> list[str]:
    """``module.name`` for each public name of ``modules`` (file name to
    source), and ``module.Class.name`` for each public method, that
    appears nowhere in ``others``, in the other modules, or in its own
    module outside its definition."""
    unread = []
    for module, source in modules.items():
        lines = source.splitlines()
        readers = [(name, rf"\b{re.escape(name)}\b", span)
                   for name, span in public_definitions(source).items()]
        readers += [(name, rf"\.{re.escape(name.split('.')[1])}\b", span)
                    for name, span in public_methods(source).items()]
        for name, pattern, (first, last) in readers:
            rest = "\n".join(lines[: first - 1] + lines[last:])
            texts = [rest, *others, *(s for m, s in modules.items() if m != module)]
            if not any(re.search(pattern, text) for text in texts):
                unread.append(f"{module.removesuffix('.py')}.{name}")
    return unread


def test_the_check_sees_each_kind_of_definition():
    modules = {
        "a.py": "X = 1\nY: int = 2\n\ndef f():\n    return f\n\nclass C:\n    pass\n"
                "\n@click.command()\ndef cmd():\n    pass\n\ndef _private():\n    pass\n"
                "\nclass D:\n    def m(self):\n        return self.m\n\n    @property\n"
                "    def p(self):\n        return self._q()\n\n    def _q(self):\n"
                "        return 0\n",
        "b.py": "print(Y, D)\n",
    }
    assert unread_names(modules, []) == ["a.X", "a.f", "a.C", "a.D.m", "a.D.p"]
    # A method is read as an attribute, not as a bare word.
    assert unread_names(modules, ["f(X)", "C", "m(p)"]) == ["a.D.m", "a.D.p"]
    assert unread_names(modules, ["f(X)", "C", "d.m(d.p)"]) == []


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
