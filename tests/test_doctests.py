"""The docstring examples of the modules that carry them run and pass."""

import doctest

from hodgelab import exactlin, gralg, specseq, stacks


def test_docstring_examples_pass():
    for module in (exactlin, gralg, specseq, stacks):
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
