"""The docstring examples of every hodgelab module that carries them run
and pass."""

import doctest
import importlib
import inspect
import pkgutil

import hodgelab


def _modules_with_examples():
    for info in pkgutil.iter_modules(hodgelab.__path__):
        module = importlib.import_module("hodgelab." + info.name)
        if ">>>" in inspect.getsource(module):
            yield module


def test_docstring_examples_pass():
    modules = list(_modules_with_examples())
    assert modules
    for module in modules:
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        assert result.attempted > 0, module.__name__
