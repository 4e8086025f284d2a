#!/usr/bin/env python3
"""Compare saved runs of the parent commit with saved runs of a change.

    python3 perfbench/run.py --workload W --seed N --seconds S > base_N.log   # on each side
    python3 perfbench/compare.py --base base_*.log --change change_*.log

Each log is one run's stdout.  Prints, per end-to-end metric, both
sides' medians and quartiles and whether the change is worse than the
parent by more than the bound in BENCHMARK.json.  Refuses (exit 2) when
the logs mix workloads or kernel backends, or hold a failed run.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BOUNDS = {m["name"]: m for m in json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["end_to_end"]}


def load(path):
    env, result = None, None
    for line in Path(path).read_text().splitlines():
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
        elif line.startswith("{"):
            result = json.loads(line)
    if env is None or result is None:
        raise SystemExit(f"{path}: not the output of run.py")
    return env, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    runs = {side: [load(p) for p in getattr(args, side)] for side in ("base", "change")}
    seen = {(env["workload"], str(env["backend"])) for side in runs.values() for env, _ in side}
    if len(seen) != 1:
        print(f"refusing to compare runs of different workloads or kernel backends: {sorted(seen)}", file=sys.stderr)
        return 2
    bad = [res for side in runs.values() for _, res in side if not res["correct"]]
    if bad:
        print(f"refusing to compare: {len(bad)} runs report failed ops", file=sys.stderr)
        return 2
    regressed = False
    for name, spec in BOUNDS.items():
        q = {}
        for side, rs in runs.items():
            vals = [res["metrics"][name]["value"] for _, res in rs]
            q[side] = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        base, change = q["base"][1], q["change"][1]
        worse = (change - base) / base if spec["better"] == "lower" else (base - change) / base
        verdict = "regression" if worse > spec["bound"] else "ok"
        regressed |= verdict == "regression"
        print(f"{name:12s} base {base:.4g} [{q['base'][0]:.4g}, {q['base'][2]:.4g}]  "
              f"change {change:.4g} [{q['change'][0]:.4g}, {q['change'][2]:.4g}] {spec['unit']}  "
              f"worse by {worse:+.1%} (bound {spec['bound']:.0%}): {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
