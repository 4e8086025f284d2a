#!/usr/bin/env python3
"""Record the golden result of every argv line the workloads can run.

    python3 perfbench/record_golden.py [--check]

Writes ``golden.json``: for each workload, argv line -> SHA-256 of the
op's normalized stdout (see ``run.normalize``).  An op that fails, or
whose verifier does not report PASS, aborts the recording.  Golden
results are taken from a commit whose outputs are known to be right and
are not re-recorded by a change that claims to keep them; ``--check``
only compares the current program with the file.
"""

import json
import sys

from run import GOLDEN, check, digest, run_op, worker_env
from workloads import WORKLOADS, candidates


def main():
    check_only = "--check" in sys.argv[1:]
    old = json.loads(GOLDEN.read_text()) if check_only else {}
    env = worker_env()
    golden, bad = {}, 0
    for workload in WORKLOADS:
        golden[workload] = {}
        for line in candidates(workload):
            argv = line.split()
            rec = run_op(argv, False, env)
            if check_only:
                why = check(argv, rec, old[workload])
            elif rec.get("error") or rec.get("exit") != 0:
                why = rec.get("error") or f"exit code {rec.get('exit')}: {rec.get('stderr', '')[-300:]}"
            else:
                why = None
                golden[workload][line] = digest(argv, rec["stdout"])
            print(f"{workload:7s} {rec.get('op_s', 0.0):7.3f}s {'ok' if why is None else 'FAIL ' + why}  {line}")
            bad += why is not None
    if bad:
        print(f"{bad} ops failed", file=sys.stderr)
        return 1
    if not check_only:
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
