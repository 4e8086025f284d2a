"""The benchmark's workloads: which CLI calls one pass makes.

``verify`` and ``kernel`` run a fixed list of heavy calls; the seed sets
their order.  ``query`` runs at least 100 short calls drawn from
templates.  Each template fixes a group and the shape of the call and
lists variants whose cost is the same by construction: a central shift
of every weight, or a different numeric argument.  So the seed changes
the inputs and their order but not the amount of work in a pass, which
keeps timings comparable across seeds.  Every variant has a golden
result recorded in ``golden.json``, so any seed stays checkable.
"""

import random

VERIFY_OPS = [
    "verify fixed-point --group gl3 --N 12",
    "verify unitarity --group gl3 --N 12",
    "verify fixed-point --group gl2 --rho 2,-1 --N 11",
    "verify unitarity --group gl2 --rho 2,-1 --N 11",
    "verify fixed-point --group b2 --rho 1,0,1 --N 6",
    "verify unitarity --group b2 --rho 1,0,1 --N 6",
    "verify fixed-point --group c2 --rho 1,0,1 --N 8",
    "verify unitarity --group c2 --rho 1,0,1 --N 8",
    "verify fixed-point --group g2 --rho 0,-1,1 --N 5",
    "verify unitarity --group g2 --rho 0,-1,1 --N 5",
]

KERNEL_OPS = [
    "kernel --group gl4 --N 4",
    "basic --group gl4 --N 9",
    "kernel --group b2 --rho 1,0,1 --N 2",
    "basic --group b2 --rho 1,0,1 --N 8",
    "kernel --group c2 --rho 1,0,1 --N 5",
    "basic --group c2 --rho 1,0,1 --N 10",
    "kernel --group g2 --rho 0,-1,1 --N 0",
    "basic --group g2 --rho 0,-1,1 --N 7",
]


def _vec(v):
    return ",".join(str(x) for x in v)


def _gl_shift(v, c):
    return _vec(x + c for x in v)


def _central(v, c):
    """Set the central coordinate, which every B, C, D and G2 preset carries last."""
    return _vec(tuple(v) + (c,))


SHIFTS = (-2, -1, 0, 1, 2)
# eps = 2/p - 1 is a positive whole number for each p, so every variant costs
# the same; p = 2 (eps = 0) would collapse the orbit hull to a point
P_VALUES = ("1", "1/2", "2/3", "2/5")
LAMS = ("0.1,0.2,0.3,0.4", "0.5,-0.25,0,0.75", "1.5,0.5,-0.5,-1.5", "0,0,0,0", "2,1,-1,-2")
RADII = ",".join(str(r) for r in range(2, 26, 2))

# (ops per pass, variants): variants of one template cost the same
QUERY_TEMPLATES = [
    # kostka on large Weyl groups: partition recursion and Weyl BFS
    (4, [f"kostka --group b4 --lambda {_central((3, 2, 1, 0), c)} --mu {_central((0, 0, 0, 0), c)}" for c in SHIFTS]),
    (3, [f"kostka --group b4 --lambda {_central((3, 1, 0, 0), c)} --mu {_central((0, 0, 0, 0), c)}" for c in SHIFTS]),
    (3, [f"kostka --group c4 --lambda {_central((2, 2, 1, 1), c)} --mu {_central((0, 0, 0, 0), c)}" for c in SHIFTS]),
    (3, [f"kostka --group d4 --lambda {_central((3, 1, 0, 0), c)} --mu {_central((0, 0, 0, 0), c)}" for c in SHIFTS]),
    (4, [f"kostka --group gl4 --lambda {_gl_shift((6, 3, 1, 0), c)} --mu {_gl_shift((3, 3, 2, 2), c)}" for c in SHIFTS]),
    (4, [f"kostka --group g2 --lambda {_central((0, -3), c)} --mu {_central((-1, -3), c)}" for c in SHIFTS]),
    # single cells, products and decompositions
    (3, [f"satake --group gl3 --mu {_gl_shift((3, 1, 0), c)}" for c in SHIFTS]),
    (3, [f"satake --group b2 --mu {_central((2, 1), c)}" for c in SHIFTS]),
    (3, [f"convolve --group gl3 --mu {_gl_shift((2, 1, 0), c)} --nu {_gl_shift((1, 1, 0), -c)}" for c in SHIFTS]),
    (3, [f"convolve --group c2 --mu {_central((1, 1), c)} --nu {_central((1, 0), -c)}" for c in SHIFTS]),
    (3, ["decomp --group gl3 --sym 4"]),
    (3, ["decomp --group b2 --rho 1,0,1 --ext 2"]),
    # archimedean numerics
    (4, ["arch crho --group gl4"]),
    (3, ["arch crho --group g2 --rho 0,-1,1"]),
    (3, ["arch crho --group b2 --rho 1,0,1"]),
    (3, [f"arch threshold --group b4 --rho 1,0,0,0,1 --p {p} --which {w}" for p in P_VALUES for w in ("basic", "kernel")]),
    (3, [f"arch threshold --group c4 --rho 1,0,0,0,1 --p {p} --field {f}" for p in P_VALUES for f in ("real", "complex")]),
    (3, [f"arch threshold --group d4 --rho 1,0,0,0,1 --p {p} --which {w}" for p in P_VALUES for w in ("basic", "kernel")]),
    (4, [f"arch probe --group gl4 --s {s} --p {p} --t {t} --radii {RADII}" for s in ("3.0", "4.5") for p in P_VALUES[:2] for t in (2, 4)]),
    (4, [f"arch probe --group b2 --rho 1,0,1 --s {s} --p {p} --t {t} --radii {RADII}" for s in ("2.5", "3.5") for p in P_VALUES[:2] for t in (1, 3)]),
    (12, [f"arch gamma --group gl4 --lam {lam} --s {s}" for lam in LAMS for s in ("2.0", "3.25")]),
    (12, [f"arch lfactor --group gl4 --lam {lam} --s {s} --field {f}" for lam in LAMS for s in ("2.0", "3.25") for f in ("real", "complex")]),
    (10, [f"arch stirling --group gl1 --x {x} --y {y}" for x in ("0.5", "2", "7.25") for y in ("10", "100", "1000")]),
]

WORKLOADS = ("verify", "kernel", "query")


def candidates(workload):
    """Every argv line a pass of this workload may run, in a fixed order."""
    if workload == "verify":
        return list(VERIFY_OPS)
    if workload == "kernel":
        return list(KERNEL_OPS)
    if workload == "query":
        return [line for _, variants in QUERY_TEMPLATES for line in variants]
    raise ValueError(f"unknown workload {workload!r}")


def ops(workload, seed):
    """The argv lines of one pass, made from the seed alone."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "query":
        lines = [rng.choice(variants) for quota, variants in QUERY_TEMPLATES for _ in range(quota)]
    else:
        lines = candidates(workload)
    rng.shuffle(lines)
    return [line.split() for line in lines]
