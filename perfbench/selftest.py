#!/usr/bin/env python3
"""Show that the benchmark's correctness check can fail.

    python3 perfbench/selftest.py

Runs a short pass of real ops through ``run.run_pass`` several times:
once as recorded, which must give fail_frac = 0, and then with one
fault injected each time, which must give fail_frac > 0.  Exits 0 when
every fault is counted, 1 otherwise.
"""

import sys
import time

import run

OPS = [
    "kostka --group gl4 --lambda 6,3,1,0 --mu 3,3,2,2",
    "arch stirling --group gl1 --x 2 --y 100",
    "verify fixed-point --group g2 --rho 0,-1,1 --N 5",
]


def fail_frac(golden, op_list=OPS, tamper=None):
    """fail_frac of one pass; ``tamper(argv, rec)`` may alter each record."""
    real_run_op = run.run_op

    def run_op(argv, trace, env):
        rec = real_run_op(argv, trace, env)
        if tamper is not None:
            tamper(argv, rec)
        return rec

    run.run_op = run_op
    try:
        p = run.run_pass([line.split() for line in op_list], False, golden, run.worker_env(), time.monotonic() + 120)
    finally:
        run.run_op = real_run_op
    for r in p["ops"]:
        if r["fail"]:
            print(f"    counted: {' '.join(r['argv'])}: {r['fail']}")
    return len(run.failures([p])) / len(p["ops"])


def only(command, edit):
    """A tamper function that applies ``edit`` to the records of one command."""

    def tamper(argv, rec):
        if argv[0] == command and "stdout" in rec:
            edit(rec)

    return tamper


def main():
    golden = run.load_golden("query")
    golden.update(run.load_golden("verify"))
    corrupted = dict(golden)
    key = OPS[0]
    corrupted[key] = ("0" if golden[key][0] != "0" else "1") + golden[key][1:]

    def wrong_coefficient(rec):
        rec["stdout"] = rec["stdout"].replace("q", "2*q", 1)

    def verify_fails(rec):
        rec["stdout"] = rec["stdout"].replace('"PASS"', '"FAIL"').replace("PASS\n", "FAIL\n")

    def raises(rec):
        rec["error"] = "Traceback (most recent call last):\nRuntimeError: injected"

    def slower_clock(rec):  # a verify report's wall_time differs on every run
        rec["stdout"] = rec["stdout"].replace('"wall_time": ', '"wall_time": 1', 1)

    cases = [
        ("corrupted golden value", corrupted, None, None),
        ("wrong coefficient in kostka output", golden, None, only("kostka", wrong_coefficient)),
        ("verifier reports FAIL", golden, None, only("verify", verify_fails)),
        ("uncaught exception in an op", golden, None, only("arch", raises)),
        ("invalid input, exit code 2", golden, OPS + ["kostka --group gl2 --lambda 1,2 --mu 0,3"], None),
    ]
    ok = True
    print("clean pass, wall_time changed (must be 0):")
    clean = fail_frac(golden, tamper=only("verify", slower_clock))
    print(f"  fail_frac = {clean:.3f}")
    ok &= clean == 0
    for name, gold, op_list, tamper in cases:
        print(f"{name} (must be > 0):")
        frac = fail_frac(gold, op_list or OPS, tamper)
        print(f"  fail_frac = {frac:.3f}")
        ok &= frac > 0
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
