"""Write expected.json: each suite's report digest and row count, and the
result of every wall probe that finishes within its budget.

Run from the repository root, at a commit whose reports are known good:

    python3 perfbench/record.py

Every suite runs once at the default cartier seed; a suite that fails a
verdict aborts the recording.
"""

import json
import sys

import run
import workloads


def main():
    cli = run.import_program()
    suites = {}
    for workload in workloads.WORKLOADS:
        inputs = workloads.build_inputs(cli, workload,
                                        workloads.CARTIER_DEFAULT_SEED)
        for name, config in inputs:
            report, code = cli.run(config)
            if code != 0:
                sys.exit("%s: exit code %d, not recording" % (name, code))
            text = cli._format_json(report)
            suites[name] = {
                "sha256": workloads.report_digest(report, text, cli),
                "checks": len(report["entries"]),
            }
            print(name, suites[name]["checks"], flush=True)
    _, probes, wrong = run.run_probes({})
    if wrong:
        sys.exit("; ".join(wrong))
    print("probes", probes)
    expected = {
        "suites": suites,
        "probes": {k: v for k, v in probes.items() if v != "timeout"},
    }
    with open(workloads.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
