"""The benchmark's workloads and the pass that runs one of them.

A workload is an ordered list of suites. Each suite is one CLI command
with its parameters, run through ``cli.run(RunConfig(cmd, params))`` and
rendered with the CLI's JSON formatter, exactly the bytes that
``hodgelab <cmd> ... --format json`` prints. Together the three
workloads cover all 29 ``selftest`` suites at their full windows, plus
the deepest integral windows that finish in seconds at the seed.

Every suite's report is checked against ``expected.json``: the sha256 of
its JSON at the default seed and its number of verdict rows.
"""

import hashlib
import json
import os
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

# The cartier parameter that the workload seed replaces; a report made
# at another seed is hashed with this value put back into its params,
# since that is the only field the seed can change in a passing report.
CARTIER_DEFAULT_SEED = 15485863

# name -> [(suite, command, params)]; suite names follow `selftest`.
WORKLOADS = {
    # Integer layer: dense mod-p ranks certify d_out on the wide window;
    # the deep n=4 and n=5 windows are the last strands before the Smith
    # form wall, so a mod-p change and an SNF change both show here.
    "ga-integral": [
        ("integral-census", "bga", {"nmax": 3, "wmax": 54}),
        ("integral-deep-n4", "bga", {"nmax": 4, "wmax": 28}),
        ("integral-deep-n5", "bga", {"nmax": 5, "wmax": 20}),
        ("torsion-growth", "census", {"p": 2, "n": 2, "wmax": 32}),
        ("bockstein-p2", "bockstein", {"p": 2}),
        ("bockstein-p3", "bockstein", {"p": 3}),
    ],
    # Stacks layer: total-model construction, rational ranks and
    # spectral-sequence pages; the Smith form is a small share here.
    "stacks-hdr": [
        ("hdr-bgm", "hdr", {"stack": "BGm", "nmax": 4}),
        ("hdr-affine-line", "hdr", {"stack": "affine:1", "nmax": 4}),
        ("hdr-bga", "hdr", {"stack": "BGa", "nmax": 3}),
        ("derham-bgm", "derham-stack", {"stack": "BGm", "nmax": 4}),
        ("derham-bga", "derham-stack", {"stack": "BGa", "nmax": 4}),
        ("hodge-bgm", "hodge", {"stack": "BGm"}),
        ("hodge-bga", "hodge", {"stack": "BGa"}),
    ],
    # Char-p layer: divided-power strand enumeration, unfolding, Cartier
    # and many tiny mod-p ranks.
    "fp-crystal": [
        ("fp-hilbert-p2", "bga-fp", {"p": 2, "nmax": 4, "wmax": 32}),
        ("fp-hilbert-p3", "bga-fp", {"p": 3, "nmax": 4, "wmax": 24}),
        ("cartier-p2-d1", "cartier", {"p": 2, "vars": 1, "wmax": 8}),
        ("cartier-p2-d2", "cartier", {"p": 2, "vars": 2, "wmax": 8}),
        ("cartier-p3-d1", "cartier", {"p": 3, "vars": 1, "wmax": 12}),
        ("cartier-p3-d2", "cartier", {"p": 3, "vars": 2, "wmax": 12}),
        ("cartier-p5-d1", "cartier", {"p": 5, "vars": 1, "wmax": 20}),
        ("comparison-p2", "cech-alexander", {"p": 2}),
        ("comparison-p3", "cech-alexander", {"p": 3}),
        ("acrys-p2", "acrys", {"p": 2}),
        ("kappa-p2", "kappa", {"p": 2, "wmax": 8}),
        ("kappa-p3", "kappa", {"p": 3, "wmax": 18}),
        ("kappa-glued", "kappa", {"p": 2, "depth": 2, "wmax": 6,
                                  "model": "glued"}),
        ("di-split-p2", "di-split", {"p": 2, "wmax": 8}),
        ("di-split-p3", "di-split", {"p": 3, "wmax": 18}),
        ("di-split-glued", "di-split", {"p": 2, "depth": 2, "wmax": 6,
                                        "model": "glued"}),
        ("unfold-p2", "unfold", {"p": 2}),
        ("unfold-p3", "unfold", {"p": 3}),
    ],
}


def build_inputs(cli, workload, seed):
    """[(suite, RunConfig)] for one workload; all the program receives.
    The seed becomes every cartier suite's `seed`."""
    out = []
    for name, cmd, params in WORKLOADS[workload]:
        if cmd == "cartier":
            params = dict(params, seed=seed)
        out.append((name, cli.RunConfig(cmd, params)))
    return out


def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def report_digest(report, text, cli):
    """sha256 of the report as the default-seed run would render it."""
    if report.get("command") == "cartier" and \
            report["params"].get("seed") != CARTIER_DEFAULT_SEED:
        report = dict(report, params=dict(report["params"],
                                          seed=CARTIER_DEFAULT_SEED))
        text = cli._format_json(report)
    return hashlib.sha256(text.encode()).hexdigest()


class PassResult:
    """One pass: seconds per suite, verdict rows and what went wrong."""

    def __init__(self):
        self.suite_s = []
        self.checks = 0
        self.failed = 0
        self.problems = []

    @property
    def seconds(self):
        return sum(self.suite_s)


def run_pass(cli, inputs, expected, span=None):
    """Run every suite once and check it; returns a :class:`PassResult`.

    A check is one verdict row. It fails on ``ok: false``; a suite also
    adds a failed check when it raises, exits nonzero with no failing
    row, or renders a report whose digest or row count is not the
    expected one. A suite's seconds cover its run, render and checks.
    `span`, when given, is a context-manager factory that times the JSON
    render and digest as their own layer.
    """
    out = PassResult()
    for name, config in inputs:
        t0 = time.perf_counter()
        bad = _run_suite(cli, name, config, expected, span, out)
        out.suite_s.append(time.perf_counter() - t0)
        out.failed += bad
    return out


def _run_suite(cli, name, config, expected, span, out):
    """Run and check one suite; returns its number of failed checks."""
    try:
        report, code = cli.run(config)
    except Exception as e:  # a raising suite is a failed check
        out.problems.append("%s: raised %s: %s"
                            % (name, type(e).__name__, e))
        return 1
    with span("cli.emit") if span else nullcontext():
        text = cli._format_json(report)
        digest = report_digest(report, text, cli)
    rows = report["entries"]
    out.checks += len(rows)
    bad = sum(1 for e in rows if not e.get("ok", True))
    if bad:
        out.problems.append("%s: %d rows not ok" % (name, bad))
    elif code != 0:
        bad += 1
        out.problems.append("%s: exit code %d" % (name, code))
    want = expected.get(name)
    if want is None or want["sha256"] != digest \
            or want["checks"] != len(rows):
        bad += 1
        out.problems.append("%s: report digest mismatch" % name)
    return bad
