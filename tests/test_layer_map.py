"""The benchmark's interception self-check as a tier-1 test.

One traced pass of each workload in ``perfbench/workloads.py`` must
record calls on every span of every ``perfbench/layer_map.json`` row
that names the workload in ``called_on``, and every suite of the pass
must match its expected report digest and verdict-row count.  This is
what ``perfbench/run.py --trace 1`` checks, in a few seconds.  The
test only reads files under ``perfbench/``.
"""

import importlib.util
import json
import os
import sys

import pytest

from hodgelab import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench")


def _load(name):
    # a module of perfbench/ by path, writing no bytecode cache there
    spec = importlib.util.spec_from_file_location(
        "perfbench_" + name, os.path.join(PERFBENCH, name + ".py"))
    mod = importlib.util.module_from_spec(spec)
    was, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = was
    return mod


spans = _load("spans")
workloads = _load("workloads")

with open(os.path.join(PERFBENCH, "layer_map.json")) as fh:
    ROWS = json.load(fh)["rows"]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_pass_intercepts_every_layer_map_span(workload):
    inputs = workloads.build_inputs(cli, workload,
                                    workloads.CARTIER_DEFAULT_SEED)
    expected = workloads.load_expected()["suites"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = workloads.run_pass(cli, inputs, expected, span=tracer.span)
    finally:
        tracer.uninstall()
    assert spans.installed_wrappers() == []
    assert result.problems == [] and result.failed == 0
    wanted = [span for row in ROWS if workload in row["called_on"]
              for span in row["spans"]]
    assert wanted
    missed = [span for span in wanted
              if not (tracer.stats.get(span) and tracer.stats[span].calls)]
    assert missed == [], "%s not intercepted on %s" % (missed, workload)
