"""Every public library name is reached from outside its own definition.

A public module-level `def` or `class` in `src/liequant/*.py` must occur
somewhere other than its own definition: elsewhere in the library, in
`bench/*.py` or in `README.md`.  A name that only tests call is an
oracle and belongs in `tests/`, not in the library API.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "liequant"


def _public_defs(path):
    """(name, first line, last line) of each public top-level def/class."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, start, node.end_lineno


def test_every_public_name_is_reached():
    others = [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]
    others.append((ROOT / "README.md").read_text())
    modules = {p: p.read_text().splitlines() for p in sorted(SRC.glob("*.py"))}
    unreached = []
    for path, lines in modules.items():
        for name, start, end in _public_defs(path):
            rest = lines[:start - 1] + lines[end:]
            texts = ["\n".join(rest)] + others + [
                "\n".join(other) for p, other in modules.items() if p != path]
            word = re.compile(r"\b%s\b" % re.escape(name))
            if not any(word.search(t) for t in texts):
                unreached.append("%s.%s" % (path.stem, name))
    assert unreached == [], unreached
