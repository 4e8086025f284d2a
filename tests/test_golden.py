"""A few benchmark lines, run in-process, must print the recorded bytes.

``perfbench/golden.json`` holds the SHA-256 of each benchmark op's
normalized stdout, taken from a commit whose outputs are known to be
right; ``perfbench/run.py`` defines the normalization.  This test only
reads those two files, and covers one line of each output kind, the
orbit-walk and integer routes (a B4 Kostka polynomial, a C4 threshold
and the GL4 weight-norm constant), the cell-to-character rows (a B2
cell), and every line of the ``kernel`` and ``verify`` workloads, so
each basic element, kernel and verifier report is byte-checked on every
datum the benchmark runs it on.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

from sphecke.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

LINES = [
    "kostka --group gl4 --lambda 6,3,1,0 --mu 3,3,2,2",
    "kostka --group b4 --lambda 3,2,1,0,0 --mu 0,0,0,0,0",
    "arch threshold --group c4 --rho 1,0,0,0,1 --p 2/3 --field complex",
    "arch crho --group gl4",
    "satake --group gl3 --mu 3,1,0",
    "satake --group b2 --mu 2,1,0",
    "convolve --group c2 --mu 1,1,0 --nu 1,0,0",
    "decomp --group gl3 --sym 4",
    "kernel --group gl4 --N 4",
    "basic --group gl4 --N 9",
    "kernel --group b2 --rho 1,0,1 --N 2",
    "basic --group b2 --rho 1,0,1 --N 8",
    "kernel --group c2 --rho 1,0,1 --N 5",
    "basic --group c2 --rho 1,0,1 --N 10",
    "kernel --group g2 --rho 0,-1,1 --N 0",
    "basic --group g2 --rho 0,-1,1 --N 7",
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


@pytest.fixture(scope="module")
def bench():
    """``perfbench/run.py`` as a module, without leaving its directory on
    sys.path, and the golden digests of every workload in one table."""
    saved = list(sys.path)
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path[:] = saved
    golden = {}
    for table in json.loads((PERFBENCH / "golden.json").read_text()).values():
        golden.update(table)
    return run, golden


@pytest.mark.parametrize("line", LINES)
def test_output_matches_golden(bench, line):
    run, golden = bench
    argv = line.split()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert run.digest(argv, out.getvalue()) == golden[line]
