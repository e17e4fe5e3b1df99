"""Shared plumbing: recorded seeds."""

from __future__ import annotations

# Fixed seeds for every randomized property suite; recorded here so runs
# are reproducible and the CLI selftest exercises the same instances.
PROPERTY_SEEDS = {
    "snf": 1299709,
    "snf_local": 104395301,
    "cartier_pairs": 15485863,
    "derham_forms": 32452843,
    "specseq": 49979687,
    "cartan": 67867967,
    "acrys": 86028121,
}


def thread_count():
    # Every computation runs in one thread; perfbench/run.py checks this.
    return 1
