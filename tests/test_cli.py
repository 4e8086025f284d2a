import contextlib
import copy
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
import sphecke.cli
from sphecke.cli import (
    _TABLE,
    _build_parser,
    _join_negative_values,
    _json_text,
    _parse_table,
    main,
)
from sphecke import characters
from sphecke.rootdata import WEYL_CAP_DEFAULT, build_gl, build_preset, datum_to_json
from sphecke.laurent import Laurent
from sphecke.satake import CELLS, CHARS, GradedElement, Window, cell, convolve
from sphecke.serialize import element_to_obj

COMMANDS = tuple(_TABLE)


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


@pytest.mark.parametrize("command", ["basic", "kernel"])
def test_fractional_specialization_exit_2(capsys, command):
    # X^b folds to v^(-2b/3) at s = 1/3: refused input, not an internal error
    code, out, err = run(capsys, command, "--group", "gl2", "--N", "2", "--specialize", "1/3")
    assert (code, out) == (2, "")
    assert err == "error: specialization at 1/3 leaves fractional v-power\n"


KOSTKA_CASES = [
    ("gl3", "2,1,0", "1,1,1", "q + q^2", [[1, 1], [2, 1]]),
    ("gl4", "3,2,1,0", "2,2,1,1", "q + 2*q^2 + q^3", [[1, 1], [2, 2], [3, 1]]),
    ("gl2", "2,0", "2,0", "1", [[0, 1]]),
    ("gl2", "1,1", "2,0", "0", []),
    ("c2", "1,0,2", "0,0,2", "0", []),  # lam - mu off the root lattice
]


def test_kostka_prints_canonical_form(capsys):
    # the text line alone, or with --json one JSON document that carries it
    for group, lam, mu, text, pairs in KOSTKA_CASES:
        argv = ["kostka", "--group", group, "--lambda", lam, "--mu", mu]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == text + "\n"
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0
        assert json.loads(out, parse_constant=_reject_constant) == {
            "lambda": [int(x) for x in lam.split(",")],
            "mu": [int(x) for x in mu.split(",")],
            "qpoly": pairs,
            "text": text,
        }


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
        (["arch", "probe", "--group", "gl1", "--s", "0", "--radii", "0,0.01"],
         {"decayed": False, "flags": ["underflow"], "max_log_value": None,
          "pole_flag": True, "samples": 16, "shell_max": [None, None]}),
        (["arch", "probe", "--group", "gl1", "--s", "1e308", "--radii", "5,10"],
         {"decayed": False, "flags": ["overflow"], "max_log_value": None,
          "pole_flag": False, "samples": 16, "shell_max": [None, None]}),
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


@pytest.mark.parametrize("op", ["lfactor", "gamma"])
@pytest.mark.parametrize("p", ["3", "0"])
def test_arch_factors_check_p(capsys, op, p):
    # the factors do not read p, but a p outside (0, 2] exits 2 as it
    # does for threshold and probe; a wrong-length lam is reported first
    base = ["arch", op, "--group", "gl2", "--p", p]
    assert run(capsys, *base) == (2, "", "error: p must lie in (0, 2]\n")
    code, _, err = run(capsys, *base, "--lam", "1")
    assert code == 2 and err == "error: (1.0,) has length 1, want 2\n"


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


@pytest.mark.parametrize("radii", ["5,2", "5", "-1,2", "2,2", "1,3,3"])
def test_arch_probe_refuses_radii_out_of_order(capsys, radii):
    # "decayed" compares the outermost shell with the innermost, which
    # needs two or more radii, nonnegative and strictly increasing
    code, out, err = run(capsys, "arch", "probe", "--group", "gl2", "--t", "4", f"--radii={radii}")
    assert code == 2
    assert out == ""
    assert err.startswith("error: probe radii (") and "strictly increasing" in err


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
    for cached in (oracles.weyl_elements, kostka._label_row):
        cached.cache_clear()
    code, _, err = run(capsys, *line.split())
    assert code == 0, err


def test_large_weyl_group_datum_exits_2_at_the_cap(tmp_path, capsys):
    # a GL9 datum file loads (|W| = 9! is past the cap, but loading walks
    # no orbit); the first whole orbit walk, here of 2 rho for the
    # threshold's hull, exits 2
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_json(build_gl(9))))
    code, out, err = run(capsys, "arch", "threshold", "--datum", str(path), "--p", "1")
    assert code == 2
    assert out == ""
    assert err == "error: Weyl group exceeds cap 50000\n"


def test_large_weyl_group_datum_exits_2_at_the_cap_on_the_kostka_path(tmp_path, capsys):
    # the shifted orbit of lam is walked only to the height of lam - mu;
    # from (18,0,...,0) down to (2,...,2) that passes 50,000 images before
    # any partition count, for the datum's first query and for a second
    # one in the same process
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_json(build_gl(9))))
    argv = ("kostka", "--datum", str(path), "--lambda", "18,0,0,0,0,0,0,0,0",
            "--mu", "2,2,2,2,2,2,2,2,2")
    for _ in range(2):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == "error: Weyl group exceeds cap 50000\n"


def test_large_weyl_group_datum_answers_where_the_walks_stay_small(tmp_path, capsys):
    # bounded walks: the standard weight's row walks one image, so the
    # gamma factor of the standard module needs only the 9 weights of its
    # orbit; and a Kostka-Foulkes polynomial near the top of the order is
    # stable in n, so GL9 prints what GL3 prints
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(datum_to_json(build_gl(9))))
    code, out, err = run(capsys, "arch", "gamma", "--datum", str(path))
    assert (code, err) == (0, "")
    assert json.loads(out)["flags"] == []
    for top in ("1", "2"):
        lam = ",".join([top] + ["0"] * 8)
        assert run(capsys, "kostka", "--datum", str(path), "--lambda", lam, "--mu", lam) == (
            0, "1\n", "")
    small = run(capsys, "kostka", "--group", "gl3", "--lambda", "2,1,0", "--mu", "1,1,1")
    assert small == (0, "q + q^2\n", "")
    assert run(capsys, "kostka", "--datum", str(path), "--lambda", "2,1,0,0,0,0,0,0,0",
               "--mu", "1,1,1,0,0,0,0,0,0") == small


def test_gl_preset_past_the_root_cap_exits_2(capsys):
    # gl400 has 79,800 positive roots; it is refused on the count alone
    code, out, err = run(capsys, "basic", "--group", "gl400", "--N", "0")
    assert (code, out, err) == (2, "", "error: root system exceeds cap 50000\n")


def test_datum_past_the_root_cap_exits_2(tmp_path, capsys):
    # a body stating 50,001 positive roots is refused on their count alone
    path = tmp_path / "datum.json"
    stated = [[1, -1]] * (WEYL_CAP_DEFAULT + 1)
    path.write_text(json.dumps({**datum_to_json(build_gl(2)), "positive_roots": stated}))
    code, out, err = run(capsys, "basic", "--datum", str(path), "--N", "0")
    assert (code, out, err) == (2, "", "error: root system exceeds cap 50000\n")


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


@pytest.mark.parametrize(
    "body, message",
    [
        ({**_GL2, "rank": 2.9}, "rank must be an integer, got 2.9"),
        ({**_GL2, "sigma": [1, "1"]}, "sigma[1] must be an integer, got '1'"),
        ({**_GL2, "sigma": [True, True]}, "sigma[0] must be an integer, got True"),
        ({**_GL2, "simple_roots": [[1.9, -1]]}, "simple_roots[0][0] must be an integer, got 1.9"),
    ],
    ids=["rank-float", "sigma-text", "sigma-bool", "root-float"],
)
def test_non_integer_datum_entry_exit_2(tmp_path, capsys, body, message):
    # each body loaded as GL2 while entries were read through int()
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(body))
    code, out, err = run(capsys, "kostka", "--datum", str(path), "--lambda", "2,0", "--mu", "1,1")
    assert (code, out, err) == (2, "", f"error: malformed datum: {message}\n")


_CELL = {"basis": "cells", "window": [None, None]}


@pytest.mark.parametrize(
    "grade, message",
    [
        ({"k": 1.0, "terms": [{"mu": [1, 0], "coeff": [[0, 0, 1]]}]},
         "grades[0].k must be an integer, got 1.0"),
        ({"k": 1, "terms": [{"mu": [True, 0], "coeff": [[0, 0, 1]]}]},
         "grades[0].terms[0].mu[0] must be an integer, got True"),
        ({"k": 1, "terms": [{"mu": [1, 0], "coeff": [[0, 0, "1"]]}]},
         "grades[0].terms[0].coeff[0][2] must be an integer, got '1'"),
        ({"k": 1, "terms": [{"mu": [1, 0], "coeff": [[0.5, 0, 1]]}]},
         "grades[0].terms[0].coeff[0][0] must be an integer, got 0.5"),
    ],
    ids=["k-float", "mu-bool", "coeff-text", "exponent-float"],
)
def test_non_integer_element_entry_exit_2(tmp_path, capsys, grade, message):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({**_CELL, "grades": [grade]}))
    code, out, err = run(capsys, "zeta", "--group", "gl2", "--h-json", str(path), "--over-l")
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


@settings(max_examples=120, deadline=None, database=None, derandomize=True)
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
    # ask for the check; the span elimination runs once
    calls = []
    bareiss = characters.bareiss
    monkeypatch.setattr(characters, "bareiss", lambda rows, n: calls.append(rows) or bareiss(rows, n))
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


# -- the parser: main reads argv from the table, and builds argparse, with
# only the subcommand it runs, for help and for argv the table reader
# refuses; the same text and exit codes as the parser that registers all nine


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
    # main's help and usage errors are the full parser's bytes (the name is
    # from when main built a one-subcommand parser for them)
    _, want_code, want_out, want_err = _parse(_build_parser(), argv)
    assert want_code in (0, 2)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (want_code, want_out, want_err)


_FLAGS = ["--group", "--datum", "--out", "--rho", "--N", "--mu", "--nu", "--lambda", "--json",
          "--specialize", "--sym", "--ext", "--c", "--q", "--s", "--over-l", "--h-json", "--lam",
          "--p", "--field", "--which", "--x", "--y", "--t", "--radii", "--csv", "-h", "--bogus"]
_VALUES = ["gl2", "b4", "std", "1", "0", "-1", "2,0", "1,-1", "-1/2", "x", "", "real", "kernel",
           "all", "gamma", "fixed-point", "--"]


_LOOSE_ARGV = st.builds(
    lambda head, tail: [head] + tail,
    st.one_of(st.sampled_from(COMMANDS), st.sampled_from(_VALUES + _FLAGS)),
    st.lists(st.sampled_from(_FLAGS + _VALUES + list(COMMANDS)), max_size=7),
)


@st.composite
def _table_argv(draw):
    # one command's own arguments in any order, each spelled '--flag=value'
    # or '--flag value' ('--flag' alone for a switch), and each left out
    # (required ones too), given once or given twice
    command = draw(st.sampled_from(COMMANDS))
    words = []
    for name, kwargs in _TABLE[command][2]:
        for _ in range(draw(st.sampled_from([0, 1, 1, 2]))):
            value = draw(st.sampled_from(kwargs.get("choices", []) + _VALUES))
            if not name.startswith("-"):
                words.append([value])
            elif draw(st.booleans()):
                words.append([f"{name}={value}"])
            else:
                words.append([name] if "action" in kwargs else [name, value])
    return [command] + [w for word in draw(st.permutations(words)) for w in word]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(st.one_of(_LOOSE_ARGV, _table_argv()))
# the spellings the table reader leaves to argparse
@example(["basic", "--gr", "gl2"])  # an abbreviated flag
@example(["basic", "--group", "-x"])  # a value after a space that starts with '-'
@example(["basic", "--group", "gl2", "--out=--"])
@example(["zeta", "--group", "gl2", "--over-l=x"])
@example(["verify", "all", "fixed-point", "--group", "gl2"])  # a surplus positional
def test_parse_layer_fuzz(argv):
    # parse only, no handler runs: the parser exits 0 or 2 without a
    # traceback, and where the table reader takes argv, it reads the
    # parser's fields
    argv = _join_negative_values(argv)
    want = _parse(_build_parser(), argv)
    assert want[1] in (None, 0, 2)
    assert "Traceback" not in want[3]
    fields = _parse_table(argv)
    if fields is not None:
        assert vars(fields) == want[0]


def _readme_command_lines():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```\n(.*?)```", section, re.S).group(1)
    return [line.split("#")[0].split()[1:] for line in block.splitlines()]


def _benchmark_lines():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [line.split() for name in workloads.WORKLOADS for line in workloads.candidates(name)]


@pytest.mark.parametrize(
    "argv, flag, value",
    [
        (["arch", "stirling", "--group", "gl1", "--y", "10"], "--x", "-1e5"),
        (["arch", "stirling", "--group", "gl1", "--x", "2"], "--y", "-1e5"),
        (["zeta", "--group", "gl1", "--c", "0.5"], "--q", "-2.5e1"),
        (["arch", "threshold", "--group", "gl2"], "--p", "-1/2"),
        (["arch", "probe", "--group", "gl2", "--radii", "5,10"], "--t", "-1"),
        (["arch", "probe", "--group", "gl2"], "--radii", "-5,10"),
        (["basic", "--group", "gl2"], "--N", "-1"),
        (["decomp", "--group", "gl2"], "--sym", "-1"),
        (["decomp", "--group", "gl2"], "--ext", "-1"),
    ],
    ids=["x", "y", "q", "p", "t", "radii", "N", "sym", "ext"],
)
def test_value_flags_read_a_negative_value_either_spelling(capsys, argv, flag, value):
    spaced = run(capsys, *argv, flag, value)
    assert spaced == run(capsys, *argv, f"{flag}={value}")
    assert "expected one argument" not in spaced[2]
    # a flag where the value should be is a missing value, not the value
    code, out, err = run(capsys, *argv, flag, "--datum", "x.json")
    assert (code, out) == (2, "") and f"argument {flag}: expected one argument" in err


def test_benchmark_and_readme_lines_take_the_table_path():
    # a line that fell back to argparse would still run, only slower
    readme, bench = _readme_command_lines(), _benchmark_lines()
    assert len(readme) >= 10 and len(bench) >= 100
    for argv in readme + bench:
        argv = _join_negative_values(argv)
        fields = _parse_table(argv)
        assert fields is not None, argv
        assert vars(fields) == _parse(_build_parser(), argv)[0]


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


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
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


# argv of the algebra commands: small weight vectors that may have the
# wrong length, be non-dominant or sit off their grade
_FUZZ_GROUPS = {"gl2": 2, "gl3": 3, "b2": 3, "c2": 3, "g2": 3}


@st.composite
def _algebra_argv(draw):
    group = draw(st.sampled_from(sorted(_FUZZ_GROUPS)))
    rank = _FUZZ_GROUPS[group]

    def vec():
        n = draw(st.sampled_from([rank, rank, rank, rank - 1, rank + 1]))
        return ",".join(map(str, draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))))

    command = draw(st.sampled_from(["kostka", "satake", "convolve", "decomp"]))
    argv = [command, "--group", group]
    if command == "kostka":
        argv += ["--lambda", vec(), "--mu", vec()] + (["--json"] if draw(st.booleans()) else [])
    elif command == "satake":
        argv += ["--mu", vec()]
    elif command == "convolve":
        argv += ["--mu", vec(), "--nu", vec()]
    else:
        rho = draw(st.sampled_from(["std", "1,0,1", "0,-1,1", "2,-1", None]))
        argv += ["--rho", rho or vec(), draw(st.sampled_from(["--sym", "--ext"])),
                 str(draw(st.integers(-1, 3)))]
    return argv


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_algebra_argv())
def test_algebra_argv_fuzz(argv):
    # exit 0 with strict JSON on stdout (kostka without --json prints its
    # polynomial as one text line), or exit 2 with one error line; never a
    # traceback or an internal error
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv
    elif argv[0] != "kostka" or "--json" in argv:
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue().count("\n") == 1, argv


# argv of the series commands on small data: N at most 2, a module that may
# be invalid for the group, and number flags that may leave the domain
_SERIES_GROUPS = {"gl1": 1, "gl2": 2, "b2": 3}


@st.composite
def _series_argv(draw):
    group = draw(st.sampled_from(sorted(_SERIES_GROUPS)))
    rank = _SERIES_GROUPS[group]

    def vec(entries):
        n = draw(st.sampled_from([rank, rank, rank, rank - 1, rank + 1]))
        return ",".join(draw(st.lists(st.sampled_from(entries), min_size=n, max_size=n)))

    command = draw(st.sampled_from(["basic", "kernel", "verify", "zeta"]))
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(["fixed-point", "unitarity", "gj-standard", "all"])))
    # the valid modules of dimension at most 5 (a module of dimension d takes
    # the kernel to grade N + d), and vectors that are malformed, of the
    # wrong length, non-dominant or off grade one for one group or another
    rho = draw(st.sampled_from(["std", "1,0,1", "2,-1", "0,1", "1,1", "0,0,1", "1,0,0,0", "1,x"]))
    argv += ["--group", group, "--rho", rho, "--N", str(draw(st.integers(-1, 2)))]
    if command in ("basic", "kernel") and draw(st.booleans()):
        argv += ["--specialize", draw(st.sampled_from(["0", "-1/2", "3", "1/3", "1/0", "x"]))]
    if command == "zeta":
        if draw(st.booleans()):
            argv.append("--over-l")
        else:
            argv += ["--c", vec(["0.3", "-0.5", "0", "2"]),
                     "--q", draw(st.sampled_from(["2", "3", "0.5"])),
                     "--s", draw(st.sampled_from(["1", "0.5", "2+1j", "-1"]))]
    return argv


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(_series_argv())
def test_series_argv_fuzz(argv):
    # basic, kernel, verify and zeta through their handlers: exit 0 with
    # strict JSON (verify adds a PASS line), 1 on a mismatch, or 2 with one
    # error line; never a traceback or an internal error
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv
    elif argv[0] == "verify":
        body, _, status = out.getvalue().rstrip("\n").rpartition("\n")
        assert status == ("PASS" if code == 0 else "FAIL")
        json.loads(body, parse_constant=_reject_constant)
    else:
        json.loads(out.getvalue(), parse_constant=_reject_constant)


def test_cli_import_fills_no_cache():
    # every table of the package fills on first use, so a cold call pays
    # only for the work it asks for; the set of tables is pinned, so that
    # adding a cache is a visible decision
    src = Path(sphecke.cli.__file__).resolve().parents[1]
    probe = (
        "import json, sys, sphecke.cli\n"
        "tables = {f'{obj.__module__}.{obj.__qualname__}': obj.cache_info().currsize\n"
        "          for name, mod in list(sys.modules.items()) if name.startswith('sphecke')\n"
        "          for obj in vars(mod).values() if hasattr(obj, 'cache_info')}\n"
        "print(json.dumps(tables))"
    )
    tables = json.loads(subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout)
    assert set(tables) == {
        "sphecke.characters._newton_series",
        "sphecke.characters._weight_labels",
        "sphecke.characters._weyl_dim",
        "sphecke.characters.require_valid",
        "sphecke.characters.weight_multiplicities",
        "sphecke.kostka._context",
        "sphecke.kostka._label_row",
        "sphecke.rootdata._coeff_map",
        "sphecke.rootdata._label_tables",
        "sphecke.rootdata._straighten_labels",
        "sphecke.rootdata._w0",
        "sphecke.satake._macdonald_factor",
        "sphecke.satake._macdonald_row",
    }
    assert {name: size for name, size in tables.items() if size} == {}


def _cache_tables():
    """Every functools.cache table of the loaded sphecke modules, by name."""
    return {
        f"{obj.__module__}.{obj.__qualname__}": obj
        for name, mod in list(sys.modules.items()) if name.startswith("sphecke")
        for obj in vars(mod).values() if hasattr(obj, "cache_info")
    }


@pytest.mark.parametrize(
    "line",
    [
        "arch gamma --group gl4 --lam 0.1,0.2,0.3,0.4 --s 2.0",
        "arch lfactor --group gl4 --lam 0.5,-0.25,0,0.75 --s 3.25 --field complex",
        "satake --group gl3 --mu 3,1,0",
    ],
)
def test_cold_queries_build_no_w0_matrix_or_coefficient_map(capsys, line):
    # building a datum and checking rho solve nothing and form no w0
    # matrix: the positive roots carry their coefficients, and w0 is built
    # on first read, here never
    sphecke.clear_caches()
    code, _, err = run(capsys, *line.split())
    assert code == 0, err
    tables = _cache_tables()
    assert tables["sphecke.rootdata._label_tables"].cache_info().currsize > 0
    for name in ("sphecke.rootdata._w0", "sphecke.rootdata._coeff_map"):
        assert tables[name].cache_info().currsize == 0, name


def test_kernel_builds_the_w0_matrix_once(capsys):
    # the kernel multiplies by the inverse series of the dual, so it reads w0
    sphecke.clear_caches()
    code, _, err = run(capsys, "kernel", "--group", "gl3", "--N", "1")
    assert code == 0, err
    assert _cache_tables()["sphecke.rootdata._w0"].cache_info().currsize == 1


def test_clear_caches_empties_every_table(capsys):
    argv = ("verify", "fixed-point", "--group", "b2", "--rho", "1,0,1", "--N", "5")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    tables = _cache_tables()
    assert tables["sphecke.rootdata._straighten_labels"].cache_info().currsize > 0
    assert tables["sphecke.satake._macdonald_row"].cache_info().currsize > 0
    sphecke.clear_caches()
    sizes = {name: obj.cache_info().currsize for name, obj in _cache_tables().items()}
    assert {name: size for name, size in sizes.items() if size} == {}
    code, second, _ = run(capsys, *argv)
    assert code == 0 and second == first


def _modules_after(code):
    """The names in sys.modules once a fresh interpreter has imported
    sphecke.cli and run ``code``."""
    src = Path(sphecke.cli.__file__).resolve().parents[1]
    probe = f"import sys, sphecke.cli\n{code}\nprint(' '.join(sys.modules))"
    return set(subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout.splitlines()[-1].split())


def test_cli_import_loads_no_dataclasses_or_inspect():
    # every cold call pays for what `import sphecke.cli` loads; these modules
    # cost 7-10 ms together and the package needs none of them
    loaded = _modules_after("")
    assert "sphecke.cli" in loaded
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize"} & loaded
    # a call the table reader parses builds no argparse parser: argparse,
    # and the gettext and locale imports of its first message lookup, cost
    # about 5 ms of a cold call
    loaded = _modules_after(
        "assert sphecke.cli.main(['kostka', '--group', 'gl3', '--lambda', '2,1,0',"
        " '--mu', '1,1,1', '--json']) == 0"
    )
    assert not {"argparse", "gettext", "locale"} & loaded


# -- the JSON writer


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)


_JSON_STRINGS = st.one_of(
    st.text(),
    st.text(st.characters(exclude_categories=())),  # surrogates and controls too
    st.sampled_from(["", "\x00\x1f\x7f", "\"\\/", "\u00e9\u2028\U0001f600", "\ud800\udfff"]),
)
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([10**100, -(2**521), 0]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, 1e300, -1e-300, 1.5, 2.0**63]),
    _JSON_STRINGS,
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_JSON_STRINGS, inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_JSON_VALUES)
@example({})
@example([])
@example(())
@example({"": [], "a": {}, "b": [[], {}, ()]})
def test_json_writer_is_json_dumps(obj):
    assert _json_text(obj) == _dumps(obj)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_json_writer_refuses_non_finite_floats(bad):
    for obj in (bad, [1, bad], {"a": {"b": (bad,)}}):
        with pytest.raises(ValueError):
            _dumps(obj)
        with pytest.raises(ValueError):
            _json_text(obj)


_BIG_INTS = st.one_of(st.integers(), st.sampled_from([2**64, -(2**64) - 1, 3**90, -(10**40)]))


@st.composite
def _elements(draw):
    """A graded element over a GL datum of rank 1-3, in either basis, with
    any window: coefficients and vectors reach past 2^64, exponents go
    negative, and grades may be empty."""
    rd = build_gl(draw(st.integers(1, 3)))
    lo = draw(st.none() | st.integers(-6, 0))
    hi = draw(st.none() | st.integers(0, 6))
    laurents = st.dictionaries(
        st.tuples(st.integers(-30, 30), st.integers(-6, 6)), _BIG_INTS, max_size=4
    ).map(Laurent)
    vecs = st.tuples(*[_BIG_INTS] * rd.rank)
    grades = draw(st.dictionaries(
        st.integers(-6 if lo is None else lo, 6 if hi is None else hi),
        st.dictionaries(vecs, laurents, max_size=4),
        max_size=4,
    ))
    return GradedElement(rd, draw(st.sampled_from([CELLS, CHARS])), grades, Window(lo, hi))


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_elements())
@example(GradedElement(build_gl(2), CELLS))
@example(GradedElement(build_gl(1), CHARS, {0: {(5,): Laurent.term(-(2**65), v=-3, x=-1)}}))
def test_element_writer_is_the_generic_writer(e):
    # the element is written grade by grade from the element itself, with
    # the bytes of element_to_obj through the generic writer, at the top
    # level and nested in a payload
    obj = element_to_obj(e)
    assert _json_text(e) == _json_text(obj) == _dumps(obj)
    pretty = {"0": {"1": "v"}}
    assert _json_text({"element": e, "pretty": pretty}) == _dumps({"element": obj, "pretty": pretty})


def test_json_writer_on_the_benchmark_lines(monkeypatch):
    # every object a kernel, basic and verify line emits: the writer's text
    # equals json.dumps of the payload with its element spelled by
    # element_to_obj, and stdout is that text
    emitted = []
    emit = sphecke.cli._emit
    monkeypatch.setattr(sphecke.cli, "_emit", lambda args, obj: (emitted.append(obj), emit(args, obj)))
    lines = [argv for argv in _benchmark_lines() if argv[0] in ("kernel", "basic", "verify")]
    assert len(lines) == 18
    for argv in lines:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        obj = emitted.pop()
        text = _json_text(obj)
        if argv[0] != "verify":
            assert set(obj) == ({"element", "pretty", "datum"} if argv[0] == "basic"
                                else {"element", "pretty"}), argv
            obj = {**obj, "element": element_to_obj(obj["element"])}
        assert text == _dumps(obj), argv
        assert out.getvalue().startswith(text + "\n"), argv
