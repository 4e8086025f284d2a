import json

from sphecke.cli import main
from sphecke.rootdata import build_gl, datum_to_json


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


def test_verify_all_repeatable(capsys):
    code1, out1, _ = run(capsys, "verify", "all", "--group", "gl2", "--N", "4")
    code2, out2, _ = run(capsys, "verify", "all", "--group", "gl2", "--N", "4")
    assert code1 == code2 == 0
    # wall times differ; everything else must be byte-identical
    scrub = lambda s: "\n".join(
        line for line in s.splitlines() if "wall_time" not in line
    )
    assert scrub(out1) == scrub(out2)


def test_basic_indicator_via_cli(capsys):
    code, out, _ = run(
        capsys, "basic", "--group", "gl2", "--rho", "std", "--N", "2", "--specialize", "-1/2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["pretty"]["2"] == {"1,1": "1", "2,0": "1"}


def test_kostka_prints_canonical_form(capsys):
    code, out, _ = run(capsys, "kostka", "--group", "gl3", "--lambda", "2,1,0", "--mu", "1,1,1")
    assert code == 0
    assert out.strip() == "q + q^2"


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
    args = ("basic", "--group", "gl3", "--rho", "std", "--N", "3")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


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
