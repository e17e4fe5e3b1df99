"""Outside-in layer trace: wrap hodgelab's public callables with spans.

Each wrapped callable counts its calls and its self time, which is the
span's duration minus the part covered by its child spans (time spent in
unwrapped private helpers stays with the caller). Work counts are read
from the arguments at the call boundary. Nothing inside the program
changes; the wrappers only replace names.

Consumer modules import by name (``from .exactlin import fp_rank``), so
a wrapper replaces the name in every hodgelab namespace that binds the
same object, and methods are replaced on their class. Patching only the
defining module would miss those calls.
"""

import inspect
import sys
import time
from contextlib import contextmanager

import numpy

PACKAGE = "hodgelab"
LAYERS = ("cobar", "exactlin", "gralg", "derham", "crystal", "specseq",
          "stacks", "cli")

MARK = "__perfbench_wrapped__"

# Element arithmetic and per-entry accessors. They run up to hundreds of
# thousands of times per pass and do constant work each, so a span on
# them would time the wrapper rather than the layer; their time stays
# in the caller's self time.
LEAF = frozenset({
    "exactlin.GFp.add", "exactlin.GFp.sub", "exactlin.GFp.mul",
    "exactlin.GFp.div", "exactlin.GFp.make", "exactlin.GFp.is_zero",
    "exactlin.QQ.add", "exactlin.QQ.sub", "exactlin.QQ.mul",
    "exactlin.QQ.div", "exactlin.QQ.make", "exactlin.QQ.is_zero",
    "exactlin.IntMat.get", "exactlin.IntMat.is_zero",
    "gralg.PDContext.check_exp", "gralg.PDContext.key_weight",
    "gralg.PDContext.monomial", "gralg.PDContext.zero",
    "gralg.PDContext.one", "gralg.PDContext.pd_gen", "gralg.PDContext.var",
    "gralg.PolyContext.check_exponent", "gralg.PolyContext.monomial",
    "gralg.PolyContext.zero", "gralg.PolyContext.compatible",
    "gralg.MultiPoly.is_zero", "gralg.MultiPoly.coeff",
    "derham.DgaForms.monomial_form", "derham.DgaForms.zero",
    "derham.Form.is_zero",
})


class Stat:
    __slots__ = ("calls", "self_s", "work", "inside", "args")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.work = 0
        self.inside = 0
        self.args = set()


class Tracer:
    """Spans and counters of one traced pass: install, run, uninstall."""

    def __init__(self):
        self.stats = {}
        self._stack = []       # child-time accumulators of open spans
        self._open = {}        # span name -> open depth
        self._patched = []     # (owner, attribute, original value)
        # name -> hook(stat, args, kwargs) run when the call starts
        self._hooks = {
            "exactlin.fp_rank": self._count_cells,
            "exactlin.smith_normal_form": self._count_nnz,
            "cobar.strand_matrix": self._count_args,
            "exactlin.kernel_basis": self._count_inside_pair,
        }

    # -- work counts at the call boundary ---------------------------------

    @staticmethod
    def _count_cells(st, args, kwargs):
        shape = numpy.shape(args[0] if args else kwargs["a"])
        st.work += shape[0] * shape[1] if len(shape) == 2 else 0

    @staticmethod
    def _count_nnz(st, args, kwargs):
        st.work += len((args[0] if args else kwargs["mat"]).entries)

    @staticmethod
    def _count_args(st, args, kwargs):
        st.args.add(tuple(args) + tuple(sorted(kwargs.items())))

    def _count_inside_pair(self, st, args, kwargs):
        if self._open.get("exactlin.cohomology_of_pair"):
            st.inside += 1

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name):
        st = self.stats.setdefault(name, Stat())
        acc = [0.0]
        self._stack.append(acc)
        self._open[name] = self._open.get(name, 0) + 1
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - t0
            self._stack.pop()
            self._open[name] -= 1
            st.calls += 1
            st.self_s += dur - acc[0]
            if self._stack:
                self._stack[-1][0] += dur

    def _wrap(self, name, fn):
        hook = self._hooks.get(name)
        st = self.stats.setdefault(name, Stat())
        span = self.span

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(st, args, kwargs)
            with span(name):
                return fn(*args, **kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, MARK, fn)
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        replace = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            mod = sys.modules["%s.%s" % (PACKAGE, layer)]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or \
                        getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrap("%s.%s" % (layer, attr),
                                                  obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for _, ns in _package_modules():
            for attr, obj in list(vars(ns).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and getattr(wrapper, MARK) is obj:
                    self._patched.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def _wrap_methods(self, layer, cls):
        for attr, raw in list(vars(cls).items()):
            name = "%s.%s.%s" % (layer, cls.__name__, attr)
            if attr.startswith("_") or name in LEAF:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(self._wrap(name, raw.__func__))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(name, raw)
            else:
                continue
            self._patched.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        while self._patched:
            owner, attr, orig = self._patched.pop()
            setattr(owner, attr, orig)


def _package_modules():
    return [(n, m) for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE
                                  or n.startswith(PACKAGE + "."))]


def installed_wrappers():
    """Names in the package that currently hold a trace wrapper."""
    found = []
    for n, mod in _package_modules():
        for attr, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append("%s.%s" % (n, attr))
            elif inspect.isclass(obj):
                found.extend("%s.%s.%s" % (n, attr, m)
                             for m, raw in vars(obj).items()
                             if hasattr(getattr(raw, "__func__", raw), MARK))
    return found
