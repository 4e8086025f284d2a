import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import sphecke.cli
from sphecke.cli import COMMANDS, _build_parser, _join_negative_values, main
from sphecke import characters
from sphecke.rootdata import build_gl, build_preset, datum_to_json
from sphecke.satake import cell, convolve
from sphecke.serialize import element_to_obj


def _reject_constant(name):
    raise ValueError(f"stdout is not strict JSON: {name}")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_fixed_point_pass(capsys):
    code, out, _ = run(capsys, "verify", "fixed-point", "--group", "gl2", "--rho", "std", "--N", "6")
    assert code == 0
    assert out.strip().endswith("PASS")


def test_verify_all_gl1(capsys):
    code, out, _ = run(capsys, "verify", "all", "--group", "gl1", "--N", "5")
    assert code == 0
    payload = json.loads(out[: out.rfind("}") + 1])
    assert payload["status"] == "PASS"
    names = {r["name"] for r in payload["reports"]}
    assert names == {"fixed-point", "unitarity", "gj-standard"}


def test_verify_all_skips_gj_standard_off_the_standard_module(capsys):
    code, out, _ = run(capsys, "verify", "all", "--group", "gl2", "--rho", "2,-1", "--N", "4")
    assert code == 0
    assert out.strip().endswith("PASS")
    payload = json.loads(out[: out.rfind("}") + 1])
    assert payload["status"] == "PASS"
    assert [r["name"] for r in payload["reports"]] == ["fixed-point", "unitarity"]


def test_verify_all_repeatable(capsys):
    code1, out1, _ = run(capsys, "verify", "all", "--group", "gl2", "--N", "4")
    code2, out2, _ = run(capsys, "verify", "all", "--group", "gl2", "--N", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_basic_indicator_via_cli(capsys):
    code, out, _ = run(
        capsys, "basic", "--group", "gl2", "--rho", "std", "--N", "2", "--specialize", "-1/2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pretty"]["2"] == {"1,1": "1", "2,0": "1"}


KOSTKA_CASES = [
    ("gl3", "2,1,0", "1,1,1", "q + q^2", [[1, 1], [2, 1]]),
    ("gl4", "3,2,1,0", "2,2,1,1", "q + 2*q^2 + q^3", [[1, 1], [2, 2], [3, 1]]),
    ("gl2", "2,0", "2,0", "1", [[0, 1]]),
    ("gl2", "1,1", "2,0", "0", []),
    ("c2", "1,0,2", "0,0,2", "0", []),  # lam - mu off the root lattice
]


def test_kostka_prints_canonical_form(capsys):
    # the text line alone, then the same line followed by the --json payload
    for group, lam, mu, text, pairs in KOSTKA_CASES:
        argv = ["kostka", "--group", group, "--lambda", lam, "--mu", mu]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == text + "\n"
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        line, _, rest = out.partition("\n")
        assert line == text
        payload = json.loads(rest)
        assert payload["qpoly"] == pairs
        assert payload["lambda"] == [int(x) for x in lam.split(",")]
        assert payload["mu"] == [int(x) for x in mu.split(",")]


def test_kostka_grade_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "kostka", "--group", "gl2", "--lambda", "2,0", "--mu", "1,0")
    assert code == 2
    assert "error" in err


def test_usage_error_exit_2(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_missing_group_exit_2(capsys):
    code, _, err = run(capsys, "basic", "--N", "2")
    assert code == 2
    assert "need --group" in err


def test_invalid_rho_exit_2(capsys):
    code, _, err = run(capsys, "basic", "--group", "gl2", "--rho", "2,0", "--N", "2")
    assert code == 2
    assert "invalid" in err


# a rank-2 datum whose grade-one module has highest weight (-1, 0): GL(2)
# with the dominance order and the grading both reversed
FLIPPED_GL2 = {
    "cartan": "A1xT", "rank": 2, "sigma": [-1, -1], "simple_roots": [[-1, 1]],
    "simple_coroot_forms": [[-1, 1]], "positive_roots": [[-1, 1]], "rho_b_times_2": [-1, 1],
}


@pytest.mark.parametrize(
    "argv, rho",
    [
        (["basic", "--group", "g2", "--N", "1"], "-1,-2,1"),
        (["verify", "all", "--group", "g2", "--N", "1"], "-1,-2,1"),
        (["basic", "--N", "3"], "-1,0"),
        (["kernel", "--N", "3"], "-1,0"),
        (["verify", "all", "--N", "3"], "-1,0"),
    ],
    ids=["basic-g2", "verify-g2", "basic", "kernel", "verify"],
)
def test_negative_rho_either_spelling(tmp_path, capsys, argv, rho):
    # '--rho -1,...' must parse as a value, like '--rho=-1,...'
    if "--group" not in argv:
        path = tmp_path / "datum.json"
        path.write_text(json.dumps(FLIPPED_GL2))
        argv = argv + ["--datum", str(path)]
    code1, out1, err1 = run(capsys, *argv, "--rho", rho)
    code2, out2, _ = run(capsys, *argv, f"--rho={rho}")
    assert code1 == code2 == 0, err1
    assert out1 and out1 == out2


@pytest.mark.parametrize(
    "argv",
    [
        ["basic", "--group", "gl2", "--rho", "1,x"],
        ["kostka", "--group", "gl2", "--lambda", "2,x", "--mu", "1,1"],
        ["satake", "--group", "gl2", "--mu", "a"],
        ["convolve", "--group", "gl2", "--mu", "1,0", "--nu", "x,0"],
        ["basic", "--group", "gl2", "--N", "1", "--specialize", "x"],
        ["kernel", "--group", "gl2", "--N", "1", "--specialize", "1/0"],
        ["zeta", "--group", "gl2", "--c", "0.3,y"],
        ["zeta", "--group", "gl2", "--c", "0.3,0.2", "--s", "x"],
        ["arch", "lfactor", "--group", "gl2", "--lam", "1,x"],
        ["arch", "probe", "--group", "gl2", "--s", "x"],
        ["arch", "probe", "--group", "gl2", "--radii", "5,x"],
        ["arch", "threshold", "--group", "b2", "--rho", "1,0,1", "--p", "1/0"],
        ["kostka", "--group", "foo", "--lambda", "1", "--mu", "1"],
        ["zeta", "--group", "gl2", "--c", "0.3"],
        ["zeta", "--group", "gl2", "--N", "2", "--c", "0.3,1,5"],
        ["arch", "lfactor", "--group", "gl2", "--lam", "1"],
        ["arch", "gamma", "--group", "gl2", "--lam", "1,0,0"],
    ],
    ids=[
        "basic", "kostka", "satake", "convolve", "specialize", "specialize-zero",
        "zeta-c", "zeta-s", "arch-lam", "arch-s", "arch-radii", "arch-p-zero", "preset",
        "zeta-c-short", "zeta-c-long", "arch-lam-short", "arch-lam-long",
    ],
)
def test_malformed_vector_exit_2(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_internal_error_exit_3(capsys, monkeypatch):
    # a failed internal consistency check is not a mismatch (1)
    def broken(rd, lam, mu):
        raise RuntimeError("negative coefficient in K")

    monkeypatch.setattr("sphecke.cli.lusztig_q_analogue", broken)
    code, out, err = run(capsys, "kostka", "--group", "gl2", "--lambda", "1,0", "--mu", "1,0")
    assert code == 3
    assert out == ""
    assert err.startswith("internal error: RuntimeError")
    assert "Traceback" not in err


@pytest.mark.parametrize("op", ["gamma", "lfactor"])
@pytest.mark.parametrize("field", ["real", "complex"])
def test_arch_overflow_is_flagged(capsys, op, field):
    # the gamma factors at this spectral parameter leave the double range
    argv = ["arch", op, "--group", "gl2", "--lam", "800,-800", "--field", field]
    if op == "lfactor":
        argv += ["--s", "-1"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert payload["value"] is None
    assert payload["flags"] == ["overflow"]


@pytest.mark.parametrize(
    "argv",
    [
        ["arch", "gamma", "--group", "gl1", "--lam", "1e308", "--field", "complex"],
        ["arch", "gamma", "--group", "gl2", "--lam", "5,-5", "--s", "-1e308", "--field", "complex"],
    ],
    ids=["infinite-weight", "infinite-s"],
)
def test_arch_gamma_infinite_intermediate_is_flagged(capsys, argv):
    # cmath meets an infinite intermediate here and raises ValueError
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert json.loads(out) == {"flags": ["overflow"], "rel_discrepancy": None, "value": None}


@pytest.mark.parametrize(
    "argv, want",
    [
        (["arch", "stirling", "--group", "gl1", "--x", "400", "--y", "10"],
         {"flags": ["overflow"], "ratio": None}),
        (["arch", "probe", "--group", "gl1", "--s", "0", "--radii", "0"],
         {"decayed": False, "flags": ["underflow"], "max_log_value": None,
          "pole_flag": True, "samples": 8, "shell_max": [None]}),
        (["arch", "probe", "--group", "gl1", "--s", "1e308", "--radii", "5"],
         {"decayed": False, "flags": ["overflow"], "max_log_value": None,
          "pole_flag": False, "samples": 8, "shell_max": [None]}),
        (["zeta", "--group", "gl1", "--c", "0.5", "--q", "2", "--s", "1e308j", "--N", "2"],
         {"closed_form": pytest.approx([0.67014, 0.06798], rel=1e-4), "flags": ["overflow"],
          "rel_diff": None, "truncated": None}),
    ],
    ids=["stirling-overflow", "probe-all-poles", "probe-overflow", "zeta-truncated-overflow"],
)
def test_non_finite_result_is_null_and_flagged(capsys, argv, want):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert err == ""
    assert json.loads(out, parse_constant=_reject_constant) == want


@pytest.mark.parametrize(
    "q, s", [("1e300", "-5"), ("3", "-1")], ids=["huge-q", "small-q"]
)
def test_zeta_outside_convergence_exit_2(capsys, q, s):
    # |0.5 q^-s| >= 1 at both points: a pole, whether or not q^-s overflows
    code, out, err = run(capsys, "zeta", "--group", "gl1", "--c", "0.5", "--q", q, "--s", s)
    assert code == 2
    assert out == ""
    assert "outside convergence region" in err


@pytest.mark.parametrize(
    "group, rho, c, weight",
    [
        ("gl2", "2,-1", "0,0", "(2, -1)"),
        ("gl2", "2,-1", "0,0.5", "(-1, 2)"),
        ("b2", "1,0,1", "0,0.2,0.5", "(-1, 0, 1)"),
    ],
)
def test_zeta_undefined_point_exit_2(capsys, group, rho, c, weight):
    # a zero coordinate of c under a negative exponent leaves c^w undefined:
    # refused, not summed into nan and printed as an overflow
    code, out, err = run(
        capsys, "zeta", "--group", group, "--rho", rho, "--c", c, "--q", "3", "--s", "1"
    )
    assert code == 2
    assert out == ""
    assert err == (
        f"error: c^w is undefined at weight {weight}: "
        "a zero coordinate of c under a negative exponent\n"
    )


def test_zeta_undefined_point_of_h_exit_2(tmp_path, capsys):
    # the weights of rho are all nonnegative; those of the dual cell are not
    h = tmp_path / "h.json"
    h.write_text(oracles.element_to_json(cell(build_gl(2), (0, -1))))
    code, out, err = run(
        capsys, "zeta", "--group", "gl2", "--c", "0,0.5", "--q", "3", "--s", "1",
        "--h-json", str(h),
    )
    assert code == 2
    assert out == ""
    assert "c^w is undefined at weight (-1, 0)" in err


@pytest.mark.parametrize(
    "group, rho, c, want",
    [
        ("gl2", "std", "0,0", 1.0),
        ("gl2", "std", "0,0.5", 1 / (1 - 0.5 / 3)),
        ("b2", "1,0,1", "0.3,0.2,0", 1.0),  # the central coordinate: exponent 1 only
    ],
)
def test_zeta_zero_under_nonnegative_exponents_evaluates(capsys, group, rho, c, want):
    code, out, err = run(
        capsys, "zeta", "--group", group, "--rho", rho, "--c", c, "--q", "3", "--s", "1",
        "--N", "6",
    )
    assert code == 0
    assert err == ""
    payload = json.loads(out, parse_constant=_reject_constant)
    assert "flags" not in payload
    assert payload["closed_form"] == [pytest.approx(want), 0.0]
    assert payload["rel_diff"] < 1e-3


@pytest.mark.parametrize(
    "argv",
    [
        ["arch", "stirling", "--group", "gl1", "--x", "nan", "--y", "10"],
        ["arch", "stirling", "--group", "gl1", "--x", "2", "--y", "-inf"],
        ["zeta", "--group", "gl1", "--c", "0.5", "--q", "inf", "--s", "1"],
        ["zeta", "--group", "gl1", "--c", "0.5", "--q", "2", "--s", "nan"],
        ["zeta", "--group", "gl1", "--c", "nan", "--q", "2", "--s", "1"],
        ["arch", "probe", "--group", "gl1", "--s", "1+infj", "--radii", "5"],
        ["arch", "probe", "--group", "gl1", "--radii", "5,inf"],
        ["zeta", "--group", "gl1", "--c", "1", "--q", "0", "--s", "1"],
        ["zeta", "--group", "gl1", "--c", "1", "--q", "-2", "--s", "1"],
        ["zeta", "--group", "gl1", "--c", "1", "--q", "1", "--s", "1"],
        ["arch", "probe", "--group", "gl1", "--p", "0"],
        ["arch", "probe", "--group", "gl2", "--p", "2.3e-311"],
        ["arch", "gamma", "--group", "gl1", "--lam", "--"],
        ["zeta", "--group", "gl1", "--c", "0.5", "--q=--"],
    ],
    ids=["x-nan", "y-inf", "q-inf", "s-nan", "c-nan", "s-complex-inf", "radii-inf",
         "q-zero", "q-negative", "q-one", "probe-p-zero", "probe-p-tiny", "lam-dashes",
         "q-dashes"],
)
def test_non_finite_or_out_of_domain_flag_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("field", ["real", "complex"])
def test_arch_gamma_pole_still_exit_2(capsys, field):
    # a pole is a ValueError too, and must not pass for an overflow
    code, out, err = run(capsys, "arch", "gamma", "--group", "gl1", "--s", "-1", "--field", field)
    assert code == 2
    assert out == ""
    assert err == "error: gamma pole at 0j\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "fixed-point", "--group", "gl2", "--N", "-3"],
        ["basic", "--group", "gl2", "--N", "-2"],
        ["kernel", "--group", "gl2", "--N", "-1"],
    ],
    ids=["verify", "basic", "kernel"],
)
def test_negative_truncation_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "nonnegative" in err


def test_convolve_output(capsys):
    code, out, _ = run(capsys, "convolve", "--group", "gl2", "--mu", "1,0", "--nu", "1,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["pretty"]["2"] == {"1,1": "v^2 + 1", "2,0": "1"}


def test_satake_output(capsys):
    code, out, _ = run(capsys, "satake", "--group", "gl2", "--mu", "2,0")
    assert code == 0
    payload = json.loads(out)
    assert payload["pretty"]["2"] == {"2,0": "v^2", "1,1": "-1"}


def test_decomp_sym(capsys):
    code, out, _ = run(capsys, "decomp", "--group", "gl2", "--rho", "2,-1", "--sym", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload == [{"lambda": [4, -2], "mult": 1}, {"lambda": [2, 0], "mult": 1}]


def test_kernel_cli_gl1(capsys):
    code, out, _ = run(capsys, "kernel", "--group", "gl1", "--N", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["pretty"]["-1"] == {"-1": "-X^-1"}


def test_zeta_cli(capsys):
    code, out, _ = run(
        capsys, "zeta", "--group", "gl2", "--c", "0.3,0.2", "--q", "3", "--s", "1.0", "--N", "20"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["rel_diff"] < 1e-9


def test_zeta_without_c_exit_2(capsys):
    code, _, err = run(capsys, "zeta", "--group", "gl2")
    assert code == 2
    assert "need --c" in err


def test_zeta_over_l_cli(capsys):
    code, out, _ = run(capsys, "zeta", "--group", "gl2", "--over-l")
    assert code == 0
    payload = json.loads(out)
    assert payload["x_support"] == [0]


def test_arch_threshold_cli(capsys):
    code, out, _ = run(capsys, "arch", "threshold", "--group", "gl2", "--p", "1")
    assert code == 0
    assert json.loads(out)["threshold"] == "1/2"


def test_arch_default_lam_is_zero_vector(capsys):
    for group, rho, zero in (("gl2", "std", "0,0"), ("b2", "1,0,1", "0,0,0")):
        for op in ("lfactor", "gamma"):
            base = ["arch", op, "--group", group, "--rho", rho]
            code, out, _ = run(capsys, *base)
            assert code == 0
            assert run(capsys, *base, "--lam", zero) == (0, out, "")


def test_arch_stirling_cli(capsys):
    code, out, _ = run(capsys, "arch", "stirling", "--group", "gl1", "--x", "2", "--y", "100")
    assert code == 0
    assert abs(json.loads(out)["ratio"] - 1) < 0.02


def test_arch_probe_csv(tmp_path, capsys):
    csv_path = tmp_path / "probe.csv"
    code, out, _ = run(
        capsys, "arch", "probe", "--group", "gl2", "--s", "3.0", "--p", "2",
        "--t", "2", "--radii", "4,12", "--csv", str(csv_path),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "shell,max_log_value"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "line",
    [
        "kostka --group b4 --lambda 3,2,1,0,0 --mu 0,0,0,0,0",
        "arch threshold --group d4 --rho 1,0,0,0,1 --p 2/5",
        "arch crho --group gl4",
        "arch probe --group b2 --rho 1,0,1 --s 2.5 --p 1 --radii 5,10",
    ],
)
def test_cold_queries_build_no_weyl_matrices(capsys, monkeypatch, line):
    from sphecke import kostka

    def refuse(*args):
        raise AssertionError("the Weyl group was built as matrices")

    monkeypatch.setattr(oracles, "_weyl_bfs", refuse)
    for cached in (oracles.weyl_elements, kostka.lusztig_q_analogue, kostka.kl_row):
        cached.cache_clear()
    code, _, err = run(capsys, *line.split())
    assert code == 0, err


def test_large_weyl_group_datum_exits_2_at_the_cap(tmp_path, capsys):
    # a GL9 datum file loads (|W| = 9! is past the cap, but loading walks
    # no orbit); the first orbit walk, here validating rho, exits 2
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_json(build_gl(9))))
    code, out, err = run(capsys, "arch", "gamma", "--datum", str(path))
    assert code == 2
    assert out == ""
    assert err == "error: Weyl group exceeds cap 50000\n"


def test_large_weyl_group_datum_exits_2_at_the_cap_on_the_kostka_path(tmp_path, capsys):
    # the shifted orbit of lam walks W(GL9) before any partition count
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_json(build_gl(9))))
    lam = ",".join(["1"] + ["0"] * 8)
    code, out, err = run(capsys, "kostka", "--datum", str(path), "--lambda", lam, "--mu", lam)
    assert code == 2
    assert out == ""
    assert err == "error: Weyl group exceeds cap 50000\n"


def test_affine_datum_exits_2_at_the_root_cap(tmp_path, capsys):
    # affine A1 (Cartan matrix [[2, -2], [-2, 2]]) has infinitely many roots
    path = tmp_path / "datum.json"
    path.write_text(json.dumps({
        "cartan": "A1aff", "rank": 3, "sigma": [0, 0, 1],
        "simple_roots": [[1, 0, 0], [0, 1, 0]],
        "simple_coroot_forms": [[2, -2, 0], [-2, 2, 0]],
        "positive_roots": [], "rho_b_times_2": [0, 0, 0],
    }))
    code, out, err = run(capsys, "kostka", "--datum", str(path), "--lambda", "0,0,0",
                         "--mu", "0,0,0")
    assert (code, out, err) == (2, "", "error: root system exceeds cap 50000\n")


_GL2 = datum_to_json(build_gl(2))


@pytest.mark.parametrize(
    "flag, text",
    [
        ("--datum", json.dumps({k: v for k, v in _GL2.items() if k != "sigma"})),
        ("--datum", json.dumps({**_GL2, "rank": "a"})),
        ("--datum", json.dumps([_GL2])),
        ("--datum", '{"rank": 2,'),
        ("--datum", "\udcff"),
        ("--datum", json.dumps({**{k: v for k, v in _GL2.items() if k != "simple_coroot_forms"},
                                "simple_roots": [[0, 0]]})),
        ("--datum", json.dumps({**_GL2, "simple_coroot_forms": [[1, -1], [-1, 0]]})),
        ("--datum", json.dumps({**_GL2, "sigma": [1, float("inf")]})),
        ("--h-json", "{}"),
        ("--h-json", json.dumps({"basis": "bogus", "grades": [], "window": [None, None]})),
        ("--h-json", json.dumps({"basis": "chars", "grades": [], "window": [None, None]})),
        ("--h-json", json.dumps({"basis": "cells", "grades": [], "window": ["a", None]})),
        ("--h-json", json.dumps({"basis": "cells", "window": [None, None],
                                 "grades": [{"k": 1, "terms": [{"mu": [1, 1], "coeff": []}]}]})),
        ("--h-json", json.dumps({"basis": "cells", "window": [None, None],
                                 "grades": [{"k": 1, "terms": [{"mu": [1], "coeff": []}]}]})),
        ("--h-json", json.dumps({"basis": "cells", "window": [None, None],
                                 "grades": [{"k": 1, "terms": [{"mu": [1, 0], "coeff": [[1]]}]}]})),
    ],
    ids=["no-sigma", "rank-text", "list", "bad-json", "not-utf8", "zero-root", "extra-form",
         "infinite", "h-empty", "h-basis", "h-chars", "h-window", "h-off-grade", "h-length",
         "h-coeff"],
)
def test_malformed_json_file_exit_2(tmp_path, capsys, flag, text):
    path = tmp_path / "body.json"
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    argv = ["zeta", "--over-l", flag, str(path)]
    argv += ["--group", "gl2"] if flag == "--h-json" else []
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3),
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(st.text(max_size=4), kids,
                                                               max_size=3),
    max_leaves=6,
)


def _json_paths(obj, path=()):
    yield path
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _json_paths(value, path + (key,))


@st.composite
def _mutated(draw, bodies):
    """A valid body with one to three edits: a value replaced by any JSON
    value, a key or entry dropped, or an integer moved by up to 2; or, now
    and then, raw text that need not be JSON at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=12))
    body = copy.deepcopy(draw(st.sampled_from(bodies)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_json_paths(body))))
        if not path:
            body = draw(_JSON_VALUE)
            continue
        parent = body
        for key in path[:-1]:
            parent = parent[key]
        key, value = path[-1], parent[path[-1]]
        edit = draw(st.sampled_from(["replace", "drop", "bump"]))
        if edit == "drop":
            del parent[key]
        elif edit == "bump" and type(value) is int:
            parent[key] = value + draw(st.integers(-2, 2))
        else:
            parent[key] = draw(_JSON_VALUE)
    return json.dumps(body)


_DATUM_BODIES = [datum_to_json(build_preset(label)) for label in ("gl1", "gl2", "gl3", "b2", "g2")]
_H_BODIES = [
    element_to_obj(convolve(cell(build_gl(2), (1, 0)), cell(build_gl(2), (0, -1)))),
    element_to_obj(cell(build_gl(2), (2, -1))),
]


def _exit_of(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=120, deadline=None)
@given(_mutated(_DATUM_BODIES), _mutated(_H_BODIES))
def test_json_body_fuzz(tmp_path_factory, datum_text, h_text):
    # a --datum or --h-json file of any content: exit 0, 1 or 2, never an
    # internal error
    folder = tmp_path_factory.getbasetemp() / "json-bodies"
    folder.mkdir(exist_ok=True)
    datum, h = folder / "datum.json", folder / "h.json"
    datum.write_text(datum_text)
    h.write_text(h_text)
    for argv in (
        ["decomp", "--datum", str(datum), "--sym", "2"],
        ["zeta", "--group", "gl2", "--h-json", str(h), "--over-l"],
        ["zeta", "--group", "gl2", "--h-json", str(h), "--c", "0.3,0.2", "--N", "2"],
    ):
        code, err = _exit_of(argv)
        assert code in (0, 1, 2), (argv, err)
        assert "internal error" not in err and "Traceback" not in err


def test_rho_is_validated_once_per_op(capsys, monkeypatch):
    # the command line, l_series, the kernel image and the inverse series all
    # ask for the check; the span rank runs once
    calls = []
    span_rank = characters._span_rank
    monkeypatch.setattr(characters, "_span_rank", lambda v: calls.append(v) or span_rank(v))
    characters.require_valid.cache_clear()
    code, _, err = run(capsys, "kernel", "--group", "b2", "--rho", "1,0,1", "--N", "2")
    assert code == 0, err
    assert len(calls) == 1


def test_datum_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_json(build_gl(2))))
    code, out, _ = run(capsys, "kostka", "--datum", str(path), "--lambda", "2,0", "--mu", "1,1")
    assert code == 0
    assert out.strip() == "q"


def test_group_and_datum_exclusive(tmp_path, capsys):
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_json(build_gl(2))))
    code, _, err = run(capsys, "kostka", "--group", "gl2", "--datum", str(path), "--lambda", "1,0", "--mu", "1,0")
    assert code == 2
    assert "mutually exclusive" in err


def test_byte_determinism(capsys):
    for args in (
        ("basic", "--group", "gl3", "--rho", "std", "--N", "3"),
        ("verify", "all", "--group", "gl2", "--N", "4"),
    ):
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 and out1 == out2, args


def test_out_flag_writes_file(tmp_path, capsys):
    out_path = tmp_path / "out.json"
    code, out, _ = run(
        capsys, "satake", "--group", "gl2", "--mu", "1,0", "--out", str(out_path)
    )
    assert code == 0
    assert json.loads(out_path.read_text())["pretty"]["1"] == {"1,0": "v"}


def test_verify_mismatch_exit_1(capsys, monkeypatch):
    # force a mismatch by corrupting the coefficient table the verifier uses
    import sphecke.cli as cli_mod
    import sphecke.lseries as ls_mod

    real = ls_mod.verify_fixed_point

    def fake(rd, rho, N, basic=None):
        rep = real(rd, rho, N, basic=basic)
        rep.status = "FAIL"
        rep.first_mismatch = (0, (0,) * rd.rank, "1", "0")
        return rep

    monkeypatch.setattr(cli_mod, "verify_fixed_point", fake)
    code, out, _ = run(capsys, "verify", "fixed-point", "--group", "gl1", "--N", "2")
    assert code == 1
    assert out.strip().endswith("FAIL")


# -- the parser: main registers only the subcommand it runs, with the same
# text and exit codes as the parser that registers all nine


def _parse(parser, argv):
    """(Namespace fields or None, exit code or None, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    fields, code = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            fields = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return fields, code, out.getvalue(), err.getvalue()


def test_commands_are_the_full_parsers_choices():
    (sub,) = [a for a in _build_parser()._actions if a.dest == "command"]
    assert tuple(sub.choices) == COMMANDS


@pytest.mark.parametrize(
    "argv",
    [["--help"], [], ["frobnicate"]]
    + [[name, "--help"] for name in COMMANDS]
    + [
        ["verify", "everything", "--group", "gl2"],  # bad choices value
        ["arch", "gamma", "--group", "gl2", "--field", "quaternion"],
        ["kostka", "--group", "gl2", "--mu", "1,0"],  # missing required flag
        ["convolve", "--group", "gl2", "--mu", "1,0"],
        ["basic", "--group", "gl2", "--N", "two"],
        ["satake", "--group", "gl2", "--mu", "1,0", "surplus"],  # top-level usage
    ],
    ids=lambda argv: " ".join(argv) or "no-arguments",
)
def test_one_subcommand_parser_prints_what_the_full_parser_prints(capsys, argv):
    _, want_code, want_out, want_err = _parse(_build_parser(), argv)
    assert want_code in (0, 2)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (want_code, want_out, want_err)


_FLAGS = ["--group", "--datum", "--out", "--rho", "--N", "--mu", "--nu", "--lambda", "--json",
          "--specialize", "--sym", "--ext", "--c", "--q", "--s", "--over-l", "--h-json", "--lam",
          "--p", "--field", "--which", "--x", "--y", "--t", "--radii", "--csv", "-h", "--bogus"]
_VALUES = ["gl2", "b4", "std", "1", "0", "-1", "2,0", "1,-1", "-1/2", "x", "", "real", "kernel",
           "all", "gamma", "fixed-point"]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(st.sampled_from(COMMANDS), st.sampled_from(_VALUES + _FLAGS)),
    st.lists(st.sampled_from(_FLAGS + _VALUES + list(COMMANDS)), max_size=7),
)
def test_parse_layer_fuzz(head, tail):
    # parse only, no handler runs: the one-subcommand parse and the full
    # parse agree on the Namespace, or both exit with the same text
    argv = _join_negative_values([head] + tail)
    want = _parse(_build_parser(), argv)
    got = _parse(_build_parser(argv[0] if argv[0] in COMMANDS else None), argv)
    assert got == want
    assert want[1] in (None, 0, 2)
    assert "Traceback" not in want[3]


# the numeric flags of each command the fuzz below drives, and whether the
# flag takes one entry per coordinate
_NUMERIC_FLAGS = {
    ("arch", "gamma"): {"--s": False, "--p": False, "--lam": True},
    ("arch", "lfactor"): {"--s": False, "--p": False, "--lam": True},
    ("arch", "stirling"): {"--x": False, "--y": False},
    ("arch", "probe"): {"--s": False, "--p": False, "--radii": True},
    ("zeta",): {"--c": True, "--q": False, "--s": False},
}
_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e308", "-1e308", "inf", "-inf", "nan", "-nan", "1e308j", "1+nanj"]),
    st.text(alphabet="0123456789.e+-jinfa/", max_size=6),
)


@st.composite
def _numeric_argv(draw):
    command = draw(st.sampled_from(sorted(_NUMERIC_FLAGS)))
    rank = draw(st.sampled_from([1, 2]))
    argv = [*command, f"--group=gl{rank}"]
    if command[0] == "zeta":
        argv.append("--c=" + ",".join(["0.5"] * rank))
        argv.append(f"--N={draw(st.integers(0, 3))}")  # N > 0 adds the truncated sum
    for flag, per_coordinate in _NUMERIC_FLAGS[command].items():
        if draw(st.booleans()):
            n = rank if per_coordinate else 1
            texts = draw(st.lists(_NUMBER_TEXT, min_size=n, max_size=n))
            argv.append(f"{flag}={','.join(texts)}")
    return argv


@settings(max_examples=300, deadline=None)
@given(_numeric_argv())
def test_numeric_flag_fuzz(argv):
    # finite, huge, infinite, nan and malformed numbers: a clean exit with
    # strict JSON on stdout, or exit 2 with no traceback
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every cold call pays for what `import sphecke.cli` loads; these modules
    # cost 7-10 ms together and the package needs none of them
    src = Path(sphecke.cli.__file__).resolve().parents[1]
    probe = "import sys, sphecke.cli; print(' '.join(sys.modules))"
    loaded = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.split()
    assert "sphecke.cli" in loaded
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(loaded)
