"""Entry points for the fresh interpreters the benchmark starts.

    python3 perfbench/child.py setup WORKLOAD SEED
        Import hodgelab.cli and build the workload's inputs, then print
        "ready". The parent times this from spawn to the line.
    python3 perfbench/child.py probe N W
        Compute the integral strand H^N(G_a)_W and print one JSON line
        with its seconds and result. The parent kills it at its budget.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def setup(workload, seed):
    from hodgelab import cli

    import workloads

    workloads.build_inputs(cli, workload, seed)
    workloads.load_expected()
    print("ready", flush=True)


def probe(n, w):
    from hodgelab.cobar import group_cohomology

    t0 = time.perf_counter()
    group = group_cohomology(n, w)
    seconds = time.perf_counter() - t0
    print(json.dumps({"seconds": seconds, "result": repr(group)}),
          flush=True)


if __name__ == "__main__":
    mode, a, b = sys.argv[1:4]
    if mode == "setup":
        setup(a, int(b))
    elif mode == "probe":
        probe(int(a), int(b))
    else:
        sys.exit("unknown mode %r" % mode)
