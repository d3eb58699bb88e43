"""Every public library name is reached from outside its own definition.

A public module-level `def` or `class` in `src/liequant/*.py` must be
referred to somewhere other than its own definition: as an identifier
elsewhere in the library or in `bench/*.py` (a name, an attribute or an
imported name, read with `ast`, so comments, docstrings and strings do
not count), or inside backticks in `README.md`.  A public method of a
library class must likewise be read as an attribute (`x.name`) in
library or `bench/*.py` code outside its own `def`, or be named in a
README code span.  A name that only tests call is an oracle and belongs
in `tests/`, not in the library API.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "liequant"
IDENT = re.compile(r"[A-Za-z_]\w*")


def _identifiers(node):
    """The names node refers to: Name ids, Attribute attrs and the parts
    of imported names and their aliases."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.update(n.name.split("."))
            if n.asname:
                out.add(n.asname)
    return out


def _attributes(node):
    """How often node reads each attribute name."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def _readme_identifiers(text):
    """The identifiers inside the README's code spans and fenced blocks."""
    out = set()
    for span in re.findall(r"```.*?```|`[^`\n]+`", text, re.S):
        out.update(IDENT.findall(span))
    return out


def test_every_public_name_is_reached():
    reached = _readme_identifiers((ROOT / "README.md").read_text())
    for p in sorted((ROOT / "bench").glob("*.py")):
        reached |= _identifiers(ast.parse(p.read_text()))
    # the identifiers of each top-level statement of each module
    modules = {p.stem: [(node, _identifiers(node)) for node in ast.parse(p.read_text()).body]
               for p in sorted(SRC.glob("*.py"))}
    unreached = []
    for stem, nodes in modules.items():
        others = reached.union(*(ids for other, body in modules.items() if other != stem
                                 for _, ids in body))
        for node, _ in nodes:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")
                    and not any(node.name in ids for n, ids in nodes if n is not node)
                    and node.name not in others):
                unreached.append("%s.%s" % (stem, node.name))
    assert unreached == [], unreached


def test_every_public_method_is_reached():
    reached = _readme_identifiers((ROOT / "README.md").read_text())
    for p in sorted((ROOT / "bench").glob("*.py")):
        reached |= set(_attributes(ast.parse(p.read_text())))
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))}
    reads = sum((_attributes(tree) for tree in trees.values()), Counter())
    unreached = []
    for stem, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                        and fn.name not in reached
                        and reads[fn.name] == _attributes(fn)[fn.name]):
                    unreached.append("%s.%s.%s" % (stem, cls.name, fn.name))
    assert unreached == [], unreached


def test_identifiers_skip_comments_strings_and_prose():
    """The scan reads code, not words: a name only in a comment, a
    docstring, a string or README prose is not reached."""
    code = ast.parse('import a.b as c\nfrom d import e\nf.g(h)  # i\n"j"\n')
    assert _identifiers(code) == {"a", "b", "c", "e", "f", "g", "h"}
    assert _readme_identifiers("k `l.m` n\n```\no\n```\n") == {"l", "m", "o"}
