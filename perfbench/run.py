#!/usr/bin/env python3
"""End-to-end benchmark of the sphecke command line, with a traced split.

    python3 perfbench/run.py --workload verify|kernel|query --seed N \
        --seconds S --trace 0|1

A closed loop with one client: each op is one ``sphecke.cli.main(argv)``
call in a fresh interpreter (``worker.py``), so caches start cold as
they do for a command-line user, and the next op starts when the last
one has ended.  A pass runs the workload's op list once; a run makes
passes until the next one would overrun ``--seconds`` (at least one).
Every output is checked against ``golden.json``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the run alternates untraced and
traced passes and the metrics are the per-layer ones.  The lines before
it restate every figure with its unit and op count.  See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden.json"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, ops  # noqa: E402
from worker import CACHED, LAYERS  # noqa: E402

OP_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0  # ops not started by then count as failed, so a run ends within 180 s


def worker_env():
    """The caller's environment without sphecke's own switches, so no disk
    cache or backend override left in the shell reaches a worker."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SPHECKE_")}
    env.pop("PYTHONPATH", None)
    return env


def run_op(argv, trace, env):
    """Run one op in a fresh worker. Never raises: a worker that crashes,
    hangs or prints garbage comes back as a record with ``error`` set."""
    cmd = [sys.executable, str(WORKER), str(SRC), "1" if trace else "0", json.dumps(argv)]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    proc = None
    try:
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT)
        out, err = proc.communicate(timeout=OP_TIMEOUT_S)
        try:
            rec = json.loads(out)
        except ValueError:
            rec = {"error": f"worker exited {proc.returncode} without a record: {err.decode()[-500:]}"}
    except subprocess.TimeoutExpired:
        rec = {"error": f"timeout after {OP_TIMEOUT_S} s"}
    except Exception as exc:  # one bad op must not end the run
        rec = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        if proc is not None and proc.poll() is None:
            proc.kill()
            proc.communicate()
    t1 = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    rec["wall_s"] = t1 - t0
    rec["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    if "t_ready" in rec:
        rec["setup_s"] = rec["t_ready"] - t0
    return rec


def normalize(argv, stdout):
    """The bytes golden results are taken of.

    ``verify`` prints a JSON report and then PASS or FAIL.  The report
    holds ``wall_time``, a measured time, so it differs on every run: it
    is parsed, that one field is dropped, and the rest is written back in
    canonical form.  Every other command's stdout is compared as is.
    """
    if argv[0] != "verify":
        return stdout
    body, _, verdict = stdout.rstrip("\n").rpartition("\n")
    report = json.loads(body)
    for r in report.get("reports", []):
        r.pop("wall_time", None)
    return json.dumps(report, sort_keys=True) + "\n" + verdict + "\n"


def digest(argv, stdout):
    return hashlib.sha256(normalize(argv, stdout).encode()).hexdigest()


def check(argv, rec, golden):
    """None if the op succeeded with the golden output, else why it failed."""
    if rec.get("error"):
        return rec["error"].strip().splitlines()[-1]
    if "Traceback" in rec.get("stderr", ""):
        return "traceback on stderr"
    if rec.get("exit") != 0:
        return f"exit code {rec.get('exit')}"
    if argv[0] == "verify" and not rec["stdout"].rstrip().endswith("PASS"):
        return "verify did not report PASS"
    want = golden.get(" ".join(argv))
    if want is None:
        return "no golden result for this argv"
    try:
        got = digest(argv, rec["stdout"])
    except ValueError as exc:
        return f"unparsable output: {exc}"
    return None if got == want else "output differs from the golden result"


def run_pass(argv_list, trace, golden, env, deadline):
    """One pass over the op list; returns per-op records with ``fail`` set."""
    t0 = time.monotonic()
    recs = []
    for argv in argv_list:
        if time.monotonic() > deadline:
            rec = {"error": "run budget exhausted before the op started", "wall_s": 0.0, "cpu_s": 0.0}
        else:
            rec = run_op(argv, trace, env)
        rec["argv"] = argv
        rec["fail"] = check(argv, rec, golden)
        recs.append(rec)
    return {"wall_s": time.monotonic() - t0, "ops": recs}


def failures(passes):
    return [r for p in passes for r in p["ops"] if r["fail"]]


def end_to_end(passes):
    """The end-to-end metrics over the untraced passes of a run."""
    ops_ = [r for p in passes for r in p["ops"]]
    op_s = [r["op_s"] for r in ops_ if "op_s" in r]
    setup = [r["setup_s"] for r in ops_ if "setup_s" in r]
    cpu = [sum(r["cpu_s"] for r in p["ops"]) for p in passes]
    rss = [max((r["maxrss_kb"] / 1024 for r in p["ops"] if "maxrss_kb" in r), default=0.0) for p in passes]
    m = {
        "setup_s": (statistics.median(setup) if setup else 0.0, "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(cpu), "s"),
        "op_p50_s": (statistics.median(op_s) if op_s else 0.0, "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    extra = {}
    if len(op_s) >= 100:  # ten samples lie beyond the 90th percentile
        extra["op_p90_s"] = (statistics.quantiles(op_s, n=10)[-1], "s")
    return m, extra


def layer_metrics(passes, untraced):
    """Per-layer metrics: medians over the traced passes of per-pass sums."""
    per_pass = []
    for p in passes:
        m = {}
        spans, counts, hits, misses, entries = {}, {}, {}, {}, {}
        top = op_total = 0.0
        missing = set()
        stdout_bytes = 0
        for r in p["ops"]:
            if "op_s" in r:
                op_total += r["op_s"]
                stdout_bytes += len(r["stdout"].encode())
            t = r.get("trace")
            if not t:
                continue
            top += t["top_s"]
            missing.update(t["missing"])
            for name, (calls, self_s) in t["spans"].items():
                c, s = spans.get(name, (0, 0.0))
                spans[name] = (c + calls, s + self_s)
            for name, calls in t["counts"].items():
                counts[name] = counts.get(name, 0) + calls
            for name, (h, mi, size) in t["caches"].items():
                hits[name] = hits.get(name, 0) + h
                misses[name] = misses.get(name, 0) + mi
                entries[name] = max(entries.get(name, 0), size)
        layer_self = {}
        for short, entries_ in LAYERS.items():
            for qualname, timed in entries_:
                name = f"{short}.{qualname}"
                if timed:
                    calls, self_s = spans.get(name, (0, 0.0))
                    m[f"{name}.calls"] = (calls, "count")
                    m[f"{name}.self_s"] = (self_s, "s")
                    layer_self[short] = layer_self.get(short, 0.0) + self_s
                else:
                    m[f"{name}.calls"] = (counts.get(name, 0), "count")
        for name in CACHED:
            h, total = hits.get(name, 0), hits.get(name, 0) + misses.get(name, 0)
            m[f"{name}.hit_ratio"] = (h / total if total else 0.0, "ratio")
            m[f"{name}.entries"] = (entries.get(name, 0), "count")
        for short, s in layer_self.items():
            m[f"{short}.self_s"] = (s, "s")
        m["cli.stdout_bytes"] = (stdout_bytes, "bytes")
        m["trace.op_s"] = (op_total, "s")
        m["trace.unattributed_s"] = (op_total - top, "s")
        m["trace.missing_entry_points"] = (len(missing), "count")
        m["trace.wall_s"] = (p["wall_s"], "s")
        per_pass.append(m)
    out = {k: (statistics.median(pp[k][0] for pp in per_pass), unit) for k, (_, unit) in per_pass[0].items()}
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    out["trace.untraced_wall_s"] = (untraced_wall, "s")
    out["trace.overhead_s"] = (out["trace.wall_s"][0] - untraced_wall, "s")
    return out


def load_golden(workload):
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def environment():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "nproc": nproc}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "sphecke" / "cli.py").is_file():
        print(f"error: no sphecke sources under {SRC}", file=sys.stderr)
        return 2
    golden = load_golden(args.workload)
    argv_list = ops(args.workload, args.seed)
    env = worker_env()
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    untraced, traced = [], []
    # untraced first; in a traced run alternate so both see the same conditions
    while True:
        want_trace = bool(args.trace) and len(traced) < len(untraced)
        p = run_pass(argv_list, want_trace, golden, env, deadline)
        (traced if want_trace else untraced).append(p)
        if args.trace and not traced:
            continue
        elapsed = time.monotonic() - start
        longest = max(q["wall_s"] for q in untraced + traced)
        if elapsed + longest > args.seconds:
            break

    all_ops = [r for p in untraced + traced for r in p["ops"]]
    failed = failures(untraced + traced)
    backends = sorted({r["backend"] for r in all_ops if "backend" in r})
    info = dict(environment(), workload=args.workload, seed=args.seed,
                backend=backends[0] if len(backends) == 1 else backends,
                ops_per_pass=len(argv_list), untraced_passes=len(untraced), traced_passes=len(traced))
    print("# env " + json.dumps(info, sort_keys=True))
    for r in failed[:20]:
        print(f"# FAIL {' '.join(r['argv'])}: {r['fail']}")
    if len(backends) > 1:
        print(f"# FAIL workers ran different kernel backends: {backends}")

    e2e, extra = end_to_end(untraced)
    n_ops = sum(len(p["ops"]) for p in untraced)
    for name, (value, unit) in {**e2e, **extra}.items():
        print(f"{name} = {value:.6g} {unit}  ({len(untraced)} passes, {n_ops} ops)")
    print(f"fail_frac = {len(failed) / len(all_ops):.6g}  ({len(failed)}/{len(all_ops)} ops)")
    if args.trace:
        metrics = layer_metrics(traced, untraced)
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    else:
        metrics = e2e
    result = {
        "correct": not failed and len(backends) == 1,
        "attempted": len(all_ops),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
