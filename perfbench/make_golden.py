"""Record golden.json: the exit code and stdout digest of every operation
any seed of the report, query and cocycle workloads can reach.

    python3 perfbench/make_golden.py

Run it only at a commit whose outputs are the reference; the benchmark
then fails any later commit whose output for one of these operations
differs.  (The validate workload needs no goldens: its expected outputs
are known by construction.)
"""

import json
import os
import shutil
import tempfile

import harness


def record():
    cli, workloads = harness.import_program()
    golden = {}
    directory = tempfile.mkdtemp(dir=harness.ROOT, prefix=".golden-")
    try:
        for name in ("report", "query", "cocycle"):
            plan = workloads.PLANS[name](0)   # the same for every seed
            paths = plan.write(directory)
            for op in plan.ops():
                key = op.key()
                if key in golden:
                    continue
                code, out = harness.run_op(cli, op.argv(paths[op.system]))
                label = " ".join([name, op.cmd, op.system] + list(op.rest[:1]))
                golden[key] = [code, harness.digest(out), label]
    finally:
        shutil.rmtree(directory)
    return golden


def main():
    golden = record()
    with open(harness.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    raised = sorted({v[2] for v in golden.values()
                     if str(v[0]).startswith("raise:")})
    print("%d goldens written to %s" % (len(golden),
                                         os.path.relpath(harness.GOLDEN)))
    for label in raised:
        print("raises at the baseline: %s" % label)


if __name__ == "__main__":
    main()
