"""No dead definitions: a name lint over src/hodgelab.

Every ``def`` in the package, dunder methods aside, must have its name
appear in src/hodgelab somewhere other than its own def lines: as a call,
a reference, an ``__all__`` entry or a doctest.  The lint reads words,
not calls, so a name that appears only in prose passes it.
"""

import pathlib
import re
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hodgelab"
DEF = re.compile(r"^[ \t]*def[ \t]+(\w+)", re.M)
# called from outside the package: perfbench/run.py checks that every
# computation runs in one thread
ALLOWED = {"thread_count"}


def unused_defs(texts):
    """(file, line, name) for every def in texts, a {file: source} dict,
    whose name appears nowhere in them but on def lines."""
    words = Counter(w for text in texts.values()
                    for w in re.findall(r"\w+", text))
    defs = [(name, text.count("\n", 0, m.start()) + 1, m.group(1))
            for name, text in texts.items() for m in DEF.finditer(text)]
    per_name = Counter(d for _, _, d in defs)
    return [(name, line, d) for name, line, d in defs
            if not (d.startswith("__") and d.endswith("__"))
            and words[d] == per_name[d]]


def test_the_lint_flags_a_def_nothing_names():
    planted = {"a.py": "def used():\n    pass\n\n\ndef unused():\n"
                       "    used()\n",
               "b.py": "class A:\n    def __init__(self):\n        pass\n\n"
                       "    def twin(self):\n        pass\n\n\n"
                       "class B:\n    def twin(self):\n        pass\n"}
    assert unused_defs(planted) == [("a.py", 5, "unused"),
                                    ("b.py", 5, "twin"), ("b.py", 10, "twin")]


def test_every_def_in_src_is_named_elsewhere():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    unused = unused_defs({path.name: path.read_text() for path in files})
    assert [d for d in unused if d[2] not in ALLOWED] == []
