"""One benchmark operation in a fresh interpreter.

    python worker.py SRC_DIR TRACE ARGV_JSON

Imports ``sphecke`` from SRC_DIR, runs ``sphecke.cli.main(argv)`` once
with stdout and stderr captured, and prints a single JSON record on its
real stdout.  Times are ``time.monotonic()`` readings, which on Linux
share one clock with the parent, so the parent can subtract its launch
time from ``t_ready``.

With TRACE=1 the public entry points listed in ``LAYERS`` are wrapped
before the op runs.  Each wrapper records a span; a layer's self time is
its span time minus the time of the spans it caused.  Entries marked as
counted only get a call counter, because they are called so often that
a timed span would distort the split.
"""

import io
import json
import resource
import sys
import time
import traceback

# module -> [(qualified entry-point name, timed span?)]
LAYERS = {
    "kernels": [("PartitionContext.counts", True)],
    "kostka": [("lusztig_q_analogue", True), ("kl_matrix", True)],
    "rootdata": [
        ("build_preset", True),
        ("dominant_below", True),
        ("weyl_elements", True),
        ("weyl_orbit", True),
    ],
    "characters": [
        ("sym_power_decomp", True),
        ("ext_power_decomp", True),
        ("decompose_generic", True),
        ("weight_multiplicities", True),
    ],
    "satake": [
        ("kl_row", True),
        ("satake_basis_row", True),
        ("satake", True),
        ("inverse_satake", True),
        ("satake_mul", True),
    ],
    "laurent": [("Laurent.__mul__", False), ("Laurent.__add__", False)],
    "lseries": [
        ("basic_function", True),
        ("gamma_kernel", True),
        ("inverse_l_element", True),
        ("verify_fixed_point", True),
        ("verify_unitarity", True),
    ],
    "serialize": [("element_to_obj", True)],
    "cli": [("main", True), ("_emit", True)],
    "arch": [
        ("c_rho_constant", True),
        ("seminorm_probe", True),
        ("threshold", True),
        ("gamma_factor", True),
        ("clgamma", False),
    ],
}

# functools.cache tables whose hit ratio and size are reported
CACHED = (
    "kostka.lusztig_q_analogue",
    "rootdata.weyl_elements",
    "characters.weight_multiplicities",
    "satake.kl_row",
    "satake.satake_basis_row",
)


class Tracer:
    """Spans and counters for one op, kept in memory until it ends."""

    def __init__(self):
        self.spans = {}  # name -> [calls, self seconds]
        self.counts = {}  # name -> calls
        self.caches = {}  # name -> functools cache object
        self.missing = []
        self._child = [0.0]  # time covered by child spans, one slot per open span

    def timed(self, name, fn):
        rec = self.spans.setdefault(name, [0, 0.0])
        child = self._child
        clock = time.perf_counter

        def span(*args, **kwargs):
            rec[0] += 1
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                rec[1] += dt - child.pop()
                child[-1] += dt

        return span

    def counted(self, name, fn):
        self.counts.setdefault(name, 0)
        counts = self.counts

        def count(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return count

    def install(self):
        """Wrap every entry point, in every sphecke module that holds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "sphecke" or n.startswith("sphecke.")]
        for short, entries in LAYERS.items():
            module = sys.modules.get("sphecke." + short)
            for qualname, is_timed in entries:
                name = f"{short}.{qualname}"
                owner, _, attr = qualname.rpartition(".")
                holder = getattr(module, owner, None) if owner else module
                original = getattr(holder, attr, None) if holder is not None else None
                if original is None:
                    self.missing.append(name)
                    continue
                if name in CACHED and hasattr(original, "cache_info"):
                    self.caches[name] = original
                wrapped = (self.timed if is_timed else self.counted)(name, original)
                if owner:
                    # a method: patch every alias on the class (__radd__ = __add__)
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
                else:
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                setattr(mod, key, wrapped)

    def report(self):
        caches = {}
        for name, fn in self.caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses, info.currsize]
        return {
            "spans": self.spans,
            "counts": self.counts,
            "caches": caches,
            "missing": self.missing,
            "top_s": self._child[0],
        }


def main():
    src_dir, trace, argv = sys.argv[1], sys.argv[2] == "1", json.loads(sys.argv[3])
    sys.path.insert(0, src_dir)
    import sphecke  # noqa: F401  (interpreter start plus this import is set-up)
    import sphecke.cli

    t_ready = time.monotonic()
    try:
        from sphecke.kernels import BACKEND as backend
    except ImportError:
        backend = "none"
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    real_stdout, real_stderr = sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    code, error = None, None
    sys.stdout, sys.stderr = out, err
    t_op0 = time.monotonic()
    try:
        code = sphecke.cli.main(argv)
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except Exception:
        error = traceback.format_exc()
    t_op1 = time.monotonic()
    sys.stdout, sys.stderr = real_stdout, real_stderr
    record = {
        "t_ready": t_ready,
        "op_s": t_op1 - t_op0,
        "exit": code,
        "error": error,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": backend,
    }
    if tracer is not None:
        record["trace"] = tracer.report()
    json.dump(record, real_stdout)
    real_stdout.write("\n")


if __name__ == "__main__":
    main()
