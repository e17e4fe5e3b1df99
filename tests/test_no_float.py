"""No float in the engine: a token-level lint over src/hodgelab.

Every number the engine reports is exact, so no source file may hold a
float or complex literal, name the builtin ``float``, or call a
floating-point helper such as ``rng.random()`` or ``math.sqrt``.  The
lint reads tokens, not values: a true division of two ints, ``a / b``,
yields a float at run time and is out of its reach.
"""

import io
import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hodgelab"
FLOAT_CALLS = {"random", "uniform", "gauss", "sqrt", "log", "exp"}


def float_uses(text):
    """(line, token) for every float use that the lint flags in text."""
    toks = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
            if t.type not in (tokenize.NL, tokenize.NEWLINE,
                              tokenize.COMMENT)]
    found = []
    for k, tok in enumerate(toks):
        if tok.type == tokenize.NUMBER:
            digits = tok.string.lower().replace("_", "")
            if not (digits.isdigit() or digits.startswith(("0x", "0o", "0b"))):
                found.append((tok.start[0], tok.string))
        elif tok.type == tokenize.NAME:
            after_dot = k and toks[k - 1].string == "."
            called = k + 1 < len(toks) and toks[k + 1].string == "("
            if tok.string == "float" or (
                    after_dot and called and tok.string in FLOAT_CALLS):
                found.append((tok.start[0], tok.string))
    return found


def test_the_lint_flags_each_kind_of_float():
    assert float_uses("x = 0.5\n") == [(1, "0.5")]
    assert float_uses("y = rng.random()\n") == [(1, "random")]
    assert float_uses("z = float(3)\n") == [(1, "float")]
    assert float_uses("w = 1e3\n") == [(1, "1e3")]
    assert float_uses("v = 2j\n") == [(1, "2j")]
    # ints in every base, and a random name that is not a float call
    assert float_uses("a = 10 + 0x1F + 0b10 + 1_000\n"
                      "rng.randrange(5)\nrandom = 3\n") == []


def test_no_float_in_src():
    files = sorted(SRC.glob("*.py"))
    assert len(files) > 5
    bad = {path.name: uses for path in files
           if (uses := float_uses(path.read_text()))}
    assert bad == {}
