"""Command-line front end.

Subcommands: basic, kostka, satake, convolve, kernel, verify, zeta,
arch, decomp.  Output is canonical JSON (sorted keys, canonical
term order), so identical inputs produce identical bytes.  Exit codes:
0 success/PASS, 1 verification mismatch, 2 invalid input or usage,
3 internal error.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from fractions import Fraction

from . import arch as _arch
from .errors import InvalidInput
from .kostka import lusztig_q_analogue
from .lseries import (
    basic_function,
    gamma_kernel,
    gj_standard_obstruction,
    h_value,
    l_series,
    verify_fixed_point,
    verify_gj_standard,
    verify_unitarity,
    zeta_closed_form,
    zeta_over_l,
)
from .characters import ext_power_decomp, sym_power_decomp
from .rootdata import (
    RepSpec,
    RootDatum,
    build_preset,
    datum_from_json,
    datum_to_json,
    validate_rho,
)
from .satake import (
    cell,
    convolve,
    eval_numeric,
    identity_element,
    satake,
    specialize,
)
from .serialize import element_from_obj, element_to_obj


def _parse_num(text: str, conv):
    """``conv(text)`` for conv in int, float, complex or Fraction; a malformed
    number, a zero denominator or an infinite or nan value raises InvalidInput."""
    try:
        value = conv(text)
    except (ValueError, ZeroDivisionError):
        raise InvalidInput(f"malformed number {text!r} (want {conv.__name__})") from None
    if isinstance(value, (float, complex)) and not cmath.isfinite(value):
        raise InvalidInput(f"non-finite number {text!r}")
    return value


def _finite_float(text: str) -> float:
    """The argparse type of --q, --x and --y: ``_parse_num(text, float)``."""
    try:
        return _parse_num(text, float)
    except InvalidInput as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_vec(text: str, conv=int):
    """Comma-separated numbers, each read by ``conv``."""
    return tuple(_parse_num(x, conv) for x in text.split(","))


def _load_datum(args) -> RootDatum:
    if getattr(args, "datum", None):
        if getattr(args, "group", None):
            raise InvalidInput("--group and --datum are mutually exclusive")
        with open(args.datum, "r", encoding="utf-8") as fh:
            return datum_from_json(json.load(fh))
    if not getattr(args, "group", None):
        raise InvalidInput("need --group PRESET or --datum FILE")
    return build_preset(args.group)


def _load_rho(rd: RootDatum, args) -> RepSpec:
    text = getattr(args, "rho", None) or "std"
    if text == "std":
        hw = (1,) + (0,) * (rd.rank - 1)
    else:
        hw = _parse_vec(text)
    rho = RepSpec(hw)
    report = validate_rho(rd, rho)
    if not report.passed:
        raise InvalidInput(f"representation invalid: {report}")
    return rho


def _emit(args, obj) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _pretty_grades(element) -> dict:
    return {
        str(k): {",".join(map(str, v)): str(c) for v, c in sorted(terms.items(), reverse=True)}
        for k, terms in sorted(element.grades.items())
    }


def _element_payload(element) -> dict:
    return {"element": element_to_obj(element), "pretty": _pretty_grades(element)}


def _q_text(pairs) -> str:
    """``1 + q + 2*q^2`` from ascending [e, c] pairs with positive c."""
    parts = []
    for e, c in pairs:
        var = "q" if e == 1 else f"q^{e}"
        parts.append(str(c) if e == 0 else var if c == 1 else f"{c}*{var}")
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_basic(args) -> int:
    rd = _load_datum(args)
    rho = _load_rho(rd, args)
    element = basic_function(rd, rho, args.N)
    if args.specialize is not None:
        element = specialize(element, _parse_num(args.specialize, Fraction))
    payload = _element_payload(element)
    payload["datum"] = datum_to_json(rd)
    _emit(args, payload)
    return 0


def _cmd_kostka(args) -> int:
    rd = _load_datum(args)
    lam = _parse_vec(getattr(args, "lam"))
    mu = _parse_vec(args.mu)
    # K(q) is a Laurent polynomial in v = q^(1/2) with even exponents only
    pairs = [[a // 2, c] for (a, _), c in sorted(lusztig_q_analogue(rd, lam, mu).terms.items())]
    print(_q_text(pairs))
    if args.json:
        _emit(args, {"lambda": list(lam), "mu": list(mu), "qpoly": pairs})
    return 0


def _cmd_satake(args) -> int:
    rd = _load_datum(args)
    mu = _parse_vec(args.mu)
    element = satake(cell(rd, mu))
    _emit(args, _element_payload(element))
    return 0


def _cmd_convolve(args) -> int:
    rd = _load_datum(args)
    a = cell(rd, _parse_vec(args.mu))
    b = cell(rd, _parse_vec(args.nu))
    _emit(args, _element_payload(convolve(a, b)))
    return 0


def _cmd_kernel(args) -> int:
    rd = _load_datum(args)
    rho = _load_rho(rd, args)
    element = gamma_kernel(rd, rho, args.N)
    if args.specialize is not None:
        element = specialize(element, _parse_num(args.specialize, Fraction))
    _emit(args, _element_payload(element))
    return 0


def _cmd_decomp(args) -> int:
    rd = _load_datum(args)
    rho = _load_rho(rd, args)
    if (args.sym is None) == (args.ext is None):
        raise InvalidInput("need exactly one of --sym K or --ext I")
    if args.sym is not None:
        parts = sym_power_decomp(rd, rho, args.sym)
    else:
        parts = ext_power_decomp(rd, rho, args.ext)
    _emit(args, [{"lambda": list(lam), "mult": m} for lam, m in parts])
    return 0


def _cmd_verify(args) -> int:
    rd = _load_datum(args)
    rho = _load_rho(rd, args)
    verifiers = {
        "fixed-point": verify_fixed_point,
        "unitarity": verify_unitarity,
        "gj-standard": verify_gj_standard,
    }
    if args.what == "all":
        applies = gj_standard_obstruction(rd, rho) is None
        selected = ["fixed-point", "unitarity"] + (["gj-standard"] if applies else [])
    else:
        selected = [args.what]
    reports = [verifiers[name](rd, rho, args.N).to_json() for name in selected]
    ok = all(r["status"] == "PASS" for r in reports)
    _emit(args, {"reports": reports, "status": "PASS" if ok else "FAIL"})
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_zeta(args) -> int:
    rd = _load_datum(args)
    rho = _load_rho(rd, args)
    if args.h_json:
        with open(args.h_json, "r", encoding="utf-8") as fh:
            h = element_from_obj(rd, json.load(fh))
    else:
        h = identity_element(rd)
    if args.over_l:
        zp = zeta_over_l(rd, rho, h)
        _emit(args, {"x_support": zp.x_support(), "text": str(zp)})
        return 0
    if args.c is None:
        raise InvalidInput("need --c (or --over-l)")
    c = _parse_vec(args.c, float)
    q = args.q
    s = _parse_num(args.s, complex)
    flags = []
    closed = _evaluate_or_flag(lambda: zeta_closed_form(rd, rho, h, c, q, s), flags)
    truncated = rel = None
    if args.N:
        series = l_series(rd, rho, args.N)
        truncated = _evaluate_or_flag(
            lambda: eval_numeric(series, c, q, s, args.N).value * h_value(rd, rho, h, c, q, s),
            flags,
        )
        if closed is not None and truncated is not None:
            rel = _finite_or_flag(abs(truncated - closed) / max(abs(closed), 1e-300), flags)
    out = {"closed_form": _complex_pair(closed), "truncated": _complex_pair(truncated),
           "rel_diff": rel}
    if flags:
        out["flags"] = flags
    _emit(args, out)
    return 0


def _finite_or_flag(x, flags: list):
    """x, or None once x is None, infinite or nan, flagged once: ``underflow``
    for the -inf log of a zero, ``overflow`` otherwise."""
    if x is not None and cmath.isfinite(x):
        return x
    flag = "underflow" if x == -cmath.inf else "overflow"
    if flag not in flags:
        flags.append(flag)
    return None


def _evaluate_or_flag(compute, flags: list):
    """``_finite_or_flag(compute())``, where a float that leaves the double
    range on the way (``arch._RANGE_ERRORS``) counts as None."""
    try:
        value = compute()
    except InvalidInput:  # a pole or a bad argument is a ValueError too
        raise
    except _arch._RANGE_ERRORS:
        value = None
    return _finite_or_flag(value, flags)


def _complex_pair(z):
    """[re, im], or None for a value that left the double range."""
    return None if z is None else [z.real, z.imag]


def _cmd_arch(args) -> int:
    rd = _load_datum(args)
    rho = _load_rho(rd, args)
    out: dict
    flags = []
    if args.op in ("lfactor", "gamma"):
        lam = (0.0,) * rd.rank if args.lam is None else _parse_vec(args.lam, float)
        params = _arch.arch_params(
            rd, rho, lam, _parse_num(args.s, complex), _parse_num(args.p, Fraction), args.field
        )
    if args.op == "lfactor":
        val = _arch.lfactor_real(params) if args.field == "real" else _arch.lfactor_cplx(params)
        out = {"value": _complex_pair(_finite_or_flag(val, flags))}
    elif args.op == "gamma":
        g = _arch.gamma_factor(params)
        out = {
            "value": _complex_pair(g.value),
            "rel_discrepancy": g.rel_discrepancy,
            "flags": g.flags,
        }
    elif args.op == "stirling":
        out = {"ratio": _evaluate_or_flag(lambda: _arch.stirling_ratio(args.x, args.y), flags)}
    elif args.op == "threshold":
        val = _arch.threshold(rd, rho, _parse_num(args.p, Fraction), args.which, args.field)
        out = {"threshold": str(val)}
    elif args.op == "crho":
        out = {"c_rho": str(_arch.c_rho_constant(rd, rho))}
    elif args.op == "probe":
        rep = _arch.seminorm_probe(
            rd, rho, _parse_num(args.s, complex), _parse_num(args.p, Fraction), args.t,
            radii=_parse_vec(args.radii, float),
        )
        out = {
            "max_log_value": _finite_or_flag(rep.max_log_value, flags),
            "shell_max": [_finite_or_flag(v, flags) for v in rep.shell_max],
            "decayed": rep.decayed,
            "pole_flag": rep.pole_flag,
            "samples": rep.samples,
        }
        if args.csv:
            with open(args.csv, "w", encoding="utf-8") as fh:
                fh.write("shell,max_log_value\n")
                for i, v in enumerate(rep.shell_max):
                    fh.write(f"{i},{v}\n")
    else:
        raise InvalidInput(f"unknown arch op {args.op}")
    if flags:
        out["flags"] = flags
    _emit(args, out)
    return 0


# ---------------------------------------------------------------------------


COMMANDS = ("basic", "kostka", "satake", "convolve", "kernel", "decomp", "verify", "zeta", "arch")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The argument parser: every subcommand, or only ``command``'s.

    A cold call pays only for the subcommand it runs.  Both builds print
    the same bytes: a subcommand's own help and errors never name the
    others, and the one-subcommand build spells the top-level usage's
    choice list out in full.
    """
    top = argparse.ArgumentParser(prog="sphecke", description=__doc__)
    spelled = {"metavar": "{" + ",".join(COMMANDS) + "}"} if command else {}
    sub = top.add_subparsers(dest="command", required=True, **spelled)

    def add(name, text):
        return sub.add_parser(name, help=text) if command in (None, name) else None

    def common(p, rho=True, n=False):
        p.add_argument("--group", help="preset name (gl1..gl4, b2..b4, c2..c4, d3, d4, g2)")
        p.add_argument("--datum", help="JSON root-datum file")
        p.add_argument("--out", help="write JSON here instead of stdout")
        if rho:
            p.add_argument("--rho", default="std", help="'std' or comma highest weight")
        if n:
            p.add_argument("--N", type=int, default=4, help="grade truncation")

    if p := add("basic", "graded basic element"):
        common(p, n=True)
        p.add_argument("--specialize", help="fold X at this rational shift, e.g. -1/2")
        p.set_defaults(fn=_cmd_basic)

    if p := add("kostka", "q-analogue polynomial"):
        common(p, rho=False)
        p.add_argument("--lambda", dest="lam", required=True)
        p.add_argument("--mu", required=True)
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=_cmd_kostka)

    if p := add("satake", "transform of one cell indicator"):
        common(p, rho=False)
        p.add_argument("--mu", required=True)
        p.set_defaults(fn=_cmd_satake)

    if p := add("convolve", "product of two cell indicators"):
        common(p, rho=False)
        p.add_argument("--mu", required=True)
        p.add_argument("--nu", required=True)
        p.set_defaults(fn=_cmd_convolve)

    if p := add("kernel", "Fourier kernel truncation"):
        common(p, n=True)
        p.add_argument("--specialize", help="fold X at this rational shift, e.g. 0")
        p.set_defaults(fn=_cmd_kernel)

    if p := add("decomp", "symmetric/exterior power decomposition"):
        common(p)
        p.add_argument("--sym", type=int)
        p.add_argument("--ext", type=int)
        p.set_defaults(fn=_cmd_decomp)

    if p := add("verify", "coefficientwise identity checks"):
        p.add_argument("what", choices=["fixed-point", "unitarity", "gj-standard", "all"])
        common(p, n=True)
        p.set_defaults(fn=_cmd_verify)

    if p := add("zeta", "zeta values and the X-polynomial"):
        common(p, n=False)
        p.add_argument("--h-json", help="element JSON for the compact factor")
        p.add_argument("--over-l", action="store_true", help="emit the X-polynomial instead")
        p.add_argument("--c", help="comma floats: the evaluation parameter")
        p.add_argument("--q", type=_finite_float, default=2.0)
        p.add_argument("--s", default="1.0")
        p.add_argument("--N", type=int, default=0, help="also cross-check by truncation")
        p.set_defaults(fn=_cmd_zeta)

    if p := add("arch", "archimedean numerics"):
        p.add_argument("op", choices=["lfactor", "gamma", "stirling", "threshold", "crho", "probe"])
        common(p)
        p.add_argument("--lam", help="comma floats: spectral parameter (default: zero)")
        p.add_argument("--s", default="1.0")
        p.add_argument("--p", default="2")
        p.add_argument("--field", choices=["real", "complex"], default="real")
        p.add_argument("--which", choices=["basic", "kernel"], default="basic")
        p.add_argument("--x", type=_finite_float, default=2.0)
        p.add_argument("--y", type=_finite_float, default=100.0)
        p.add_argument("--t", type=int, default=0)
        p.add_argument("--radii", default="5,15,30,60")
        p.add_argument("--csv", help="write probe shells as CSV here")
        p.set_defaults(fn=_cmd_arch)

    return top


_VALUE_FLAGS = {"--rho", "--specialize", "--s", "--lam", "--c", "--mu", "--nu", "--lambda"}


def _join_negative_values(argv):
    """Fold '--flag -1/2' into '--flag=-1/2' so argparse keeps the value."""
    out = []
    it = iter(argv)
    for tok in it:
        if tok in _VALUE_FLAGS:
            try:
                val = next(it)
            except StopIteration:
                out.append(tok)
                break
            out.append(f"{tok}={val}")
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(list(argv))
    parser = _build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():  # argparse reads "--flag=--" as an empty list
            parser.error("'--' is not an option value")
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except InvalidInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # any other failure is ours, not a mismatch
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
