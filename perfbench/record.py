"""Record the expected output of every anchor request into expected.json.

Usage (from the repository root): python3 perfbench/record.py

Anchors do not depend on the seed.  Run this only at a commit whose
output is known to be right, and commit the file with it.
"""

import json
import sys

import checks
import workloads
from run import child_env, cli_cmd, run_child


def main() -> int:
    env = child_env()
    outputs = {}
    for workload in workloads.WORKLOADS:
        for req in workloads.requests(workload, 0):
            if req["kind"] != "anchor":
                continue
            result = run_child(cli_cmd(req["argv"]), env)
            if result["code"] != 0:
                raise SystemExit(f"{req['argv']} failed:\n{result['stderr']}")
            outputs[checks.key(req["argv"])] = result["stdout"]
    mc_exact = {}
    for word in workloads.MC_WORDS:
        argv = ["verify-mc", "-w", word, "--n", str(workloads.MC_N), "--samples", "1", "--json"]
        mc_exact[word] = json.loads(run_child(cli_cmd(argv), env)["stdout"])["exact"]
    with open(checks.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump({"outputs": outputs, "mc_exact": mc_exact}, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
