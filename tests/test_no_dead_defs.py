"""No dead definitions: a name lint over src/hodgelab.

Every ``def`` in the package, dunder methods aside, must have its name
used in src/hodgelab somewhere other than its own def lines.  A use is a
NAME token of code (a call, a reference, an attribute), a name in the
code of a doctest line (``>>>`` or ``...``), or an ``__all__`` entry.
Comments and prose in strings are not read, so a def that only a
docstring sentence names is flagged.
"""

import ast
import io
import pathlib
import re
import tokenize
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hodgelab"
DOCTEST = re.compile(r"^[ \t]*(?:>>>|\.\.\.)(.*)$", re.M)
IDENT = re.compile(r"[A-Za-z_]\w*")
# thread_count is called from outside the package: perfbench/run.py
# checks that every computation runs in one thread.  error is
# cli._Parser.error, the hook argparse calls on a usage error
ALLOWED = {"thread_count", "error"}


def used_names(text):
    """Counter of the names one source text uses, its def names included."""
    names = Counter()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME:
            names[tok.string] += 1
        elif tok.type == tokenize.STRING:
            for code in DOCTEST.findall(tok.string):
                names.update(IDENT.findall(code))
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(e.value for e in node.value.elts)
    return names


def unused_defs(texts):
    """(file, line, name) for every def in texts, a {file: source} dict,
    whose name nothing in them uses but its own def lines."""
    used = Counter()
    for text in texts.values():
        used.update(used_names(text))
    defs = [(name, node.lineno, node.name)
            for name, text in texts.items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    per_name = Counter(d for _, _, d in defs)
    return sorted((name, line, d) for name, line, d in defs
                  if not (d.startswith("__") and d.endswith("__"))
                  and used[d] == per_name[d])


def test_the_lint_flags_a_def_nothing_names():
    planted = {"a.py": "def used():\n    pass\n\n\ndef unused():\n"
                       "    used()\n",
               "b.py": "class A:\n    def __init__(self):\n        pass\n\n"
                       "    def twin(self):\n        pass\n\n\n"
                       "class B:\n    def twin(self):\n        pass\n"}
    assert unused_defs(planted) == [("a.py", 5, "unused"),
                                    ("b.py", 5, "twin"), ("b.py", 10, "twin")]


def test_the_lint_reads_code_not_prose():
    # a docstring sentence and a comment name _helper; only the doctest,
    # the attribute use and the __all__ entry count as uses
    planted = {"c.py": '__all__ = ["exported"]\n\n\n'
                       'def entry(x):\n'
                       '    """Calls _helper.  # and so on\n\n'
                       '    >>> entry(\n'
                       '    ...     doctested(1))\n'
                       '    """\n'
                       '    return x.method()  # not _helper either\n\n\n'
                       'def _helper():\n    pass\n\n\n'
                       'def doctested(x):\n    return x\n\n\n'
                       'def exported():\n    pass\n\n\n'
                       'class K:\n    def method(self):\n        pass\n'}
    assert unused_defs(planted) == [("c.py", 13, "_helper")]


def test_every_def_in_src_is_named_elsewhere():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    unused = unused_defs({path.name: path.read_text() for path in files})
    assert [d for d in unused if d[2] not in ALLOWED] == []
