"""Command-line front end.

Subcommands: basic, kostka, satake, convolve, kernel, verify, zeta,
arch, decomp.  Output is canonical JSON (sorted keys, canonical
term order), so identical inputs produce identical bytes.  Exit codes:
0 success/PASS, 1 verification mismatch, 2 invalid input or usage,
3 internal error.
"""

from __future__ import annotations

import cmath
import json
import sys
import types
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

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
from .characters import ext_power_decomp, require_valid, sym_power_decomp
from .rootdata import (
    RepSpec,
    RootDatum,
    build_preset,
    datum_from_json,
    datum_to_json,
)
from .satake import (
    CELLS,
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
        import argparse

        raise argparse.ArgumentTypeError(str(exc)) from None


def _parse_vec(text: str, conv=int):
    """Comma-separated numbers, each read by ``conv``."""
    return tuple(_parse_num(x, conv) for x in text.split(","))


def _load_json(path: str):
    """The JSON body of a file; InvalidInput if it is not UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise InvalidInput(f"{path} is not a JSON file: {exc}") from None


def _load_datum(args) -> RootDatum:
    if getattr(args, "datum", None):
        if getattr(args, "group", None):
            raise InvalidInput("--group and --datum are mutually exclusive")
        return datum_from_json(_load_json(args.datum))
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
    require_valid(rd, rho)
    return rho


def _json_text(obj, pad: str = "\n") -> str:
    """``json.dumps(obj, sort_keys=True, indent=2, allow_nan=False)`` for
    str-keyed dicts, lists, tuples, strings, ints, floats, bools and None,
    written directly: json's encoder runs in pure Python once it indents.
    ``pad`` is the newline and indentation before the value's closing
    bracket."""
    if type(obj) is int:  # most of every payload; bools and subclasses come below
        return int.__repr__(obj)
    if isinstance(obj, str):
        return _json_str(obj)
    if obj is None or isinstance(obj, bool):
        return "null" if obj is None else "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not cmath.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        return float.__repr__(obj)
    inner = pad + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json_text(x, inner) for x in obj]) + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_json_str(k) + ": " + _json_text(v, inner) for k, v in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(args, obj) -> None:
    text = _json_text(obj) + "\n"
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
    text = _q_text(pairs)
    if args.json:
        _emit(args, {"lambda": list(lam), "mu": list(mu), "qpoly": pairs, "text": text})
    else:
        print(text)
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
        h = element_from_obj(rd, _load_json(args.h_json))
        if h.basis != CELLS:
            raise InvalidInput("--h-json must hold a cell-side element")
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
    """``_finite_or_flag(compute())``, None once a float leaves the double range."""
    return _finite_or_flag(_arch.in_range(compute), flags)


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
    if args.op in ("lfactor", "gamma", "probe"):
        s = _parse_num(args.s, complex)
    if args.op in ("lfactor", "gamma", "threshold", "probe"):
        p = _parse_num(args.p, Fraction)
    if args.op in ("lfactor", "gamma"):  # p is unread, but checked after lam's length
        rd.check_length(lam)
        _arch.exponent(p)
    if args.op == "lfactor":
        val = _arch.lfactor(rd, rho, lam, s, args.field)
        out = {"value": _complex_pair(_finite_or_flag(val, flags))}
    elif args.op == "gamma":
        g = _arch.gamma_factor(rd, rho, lam, s, args.field)
        out = {
            "value": _complex_pair(g.value),
            "rel_discrepancy": g.rel_discrepancy,
            "flags": g.flags,
        }
    elif args.op == "stirling":
        out = {"ratio": _finite_or_flag(_arch.stirling_ratio(args.x, args.y), flags)}
    elif args.op == "threshold":
        val = _arch.threshold(rd, rho, p, args.which, args.field)
        out = {"threshold": str(val)}
    elif args.op == "crho":
        out = {"c_rho": str(_arch.c_rho_constant(rd, rho))}
    elif args.op == "probe":
        rep = _arch.seminorm_probe(rd, rho, s, p, args.t, radii=_parse_vec(args.radii, float))
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
# The command line, written once.  Each subcommand is (help, handler, rows),
# and each row is one add_argument call: (name, keyword arguments).  main
# reads argv from this table; argparse is built from it only to print help
# and usage errors, and to answer argv the table reader leaves to it.


def _common(rho=True, n=False):
    rows = [
        ("--group", {"help": "preset name (gl1..gl4, b2..b4, c2..c4, d3, d4, g2)"}),
        ("--datum", {"help": "JSON root-datum file"}),
        ("--out", {"help": "write JSON here instead of stdout"}),
    ]
    if rho:
        rows.append(("--rho", {"default": "std", "help": "'std' or comma highest weight"}))
    if n:
        rows.append(("--N", {"type": int, "default": 4, "help": "grade truncation"}))
    return rows


_TABLE = {
    "basic": ("graded basic element", _cmd_basic, [
        *_common(n=True),
        ("--specialize", {"help": "fold X at this rational shift, e.g. -1/2"}),
    ]),
    "kostka": ("q-analogue polynomial", _cmd_kostka, [
        *_common(rho=False),
        ("--lambda", {"dest": "lam", "required": True}),
        ("--mu", {"required": True}),
        ("--json", {"action": "store_true"}),
    ]),
    "satake": ("transform of one cell indicator", _cmd_satake, [
        *_common(rho=False),
        ("--mu", {"required": True}),
    ]),
    "convolve": ("product of two cell indicators", _cmd_convolve, [
        *_common(rho=False),
        ("--mu", {"required": True}),
        ("--nu", {"required": True}),
    ]),
    "kernel": ("Fourier kernel truncation", _cmd_kernel, [
        *_common(n=True),
        ("--specialize", {"help": "fold X at this rational shift, e.g. 0"}),
    ]),
    "decomp": ("symmetric/exterior power decomposition", _cmd_decomp, [
        *_common(),
        ("--sym", {"type": int}),
        ("--ext", {"type": int}),
    ]),
    "verify": ("coefficientwise identity checks", _cmd_verify, [
        ("what", {"choices": ["fixed-point", "unitarity", "gj-standard", "all"]}),
        *_common(n=True),
    ]),
    "zeta": ("zeta values and the X-polynomial", _cmd_zeta, [
        *_common(n=False),
        ("--h-json", {"help": "element JSON for the compact factor"}),
        ("--over-l", {"action": "store_true", "help": "emit the X-polynomial instead"}),
        ("--c", {"help": "comma floats: the evaluation parameter"}),
        ("--q", {"type": _finite_float, "default": 2.0}),
        ("--s", {"default": "1.0"}),
        ("--N", {"type": int, "default": 0, "help": "also cross-check by truncation"}),
    ]),
    "arch": ("archimedean numerics", _cmd_arch, [
        ("op", {"choices": ["lfactor", "gamma", "stirling", "threshold", "crho", "probe"]}),
        *_common(),
        ("--lam", {"help": "comma floats: spectral parameter (default: zero)"}),
        ("--s", {"default": "1.0"}),
        ("--p", {"default": "2"}),
        ("--field", {"choices": ["real", "complex"], "default": "real"}),
        ("--which", {"choices": ["basic", "kernel"], "default": "basic"}),
        ("--x", {"type": _finite_float, "default": 2.0}),
        ("--y", {"type": _finite_float, "default": 100.0}),
        ("--t", {"type": int, "default": 0}),
        ("--radii", {"default": "5,15,30,60"}),
        ("--csv", {"help": "write probe shells as CSV here"}),
    ]),
}

# the flags of _TABLE whose value may start with '-'; path and choice flags
# are left out, so that '--out --json' is not read as a file name
_VALUE_FLAGS = {
    "--rho", "--specialize", "--s", "--lam", "--lambda", "--c", "--mu", "--nu",
    "--x", "--y", "--q", "--p", "--t", "--radii", "--N", "--sym", "--ext",
}


def _build_parser():
    """The argparse parser of the table, for help and usage errors."""
    import argparse

    top = argparse.ArgumentParser(prog="sphecke", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    for name, (text, fn, rows) in _TABLE.items():
        p = sub.add_parser(name, help=text)
        for arg, kwargs in rows:
            p.add_argument(arg, **kwargs)
        p.set_defaults(fn=fn)
    return top


def _parse_table(argv):
    """The fields argparse would parse ``argv`` into, read from the table alone.

    None where argparse must answer: help, every error, and the spellings
    this reader does not take, such as an abbreviated flag, a value after a
    space that starts with '-', '--flag=--' or '--json=x'.
    """
    if not argv or argv[0] not in _TABLE:
        return None
    _, fn, rows = _TABLE[argv[0]]
    fields = {"command": argv[0], "fn": fn}
    flags, needed, positional = {}, set(), None
    for arg, kwargs in rows:
        dest = kwargs.get("dest", arg.lstrip("-").replace("-", "_"))
        fields[dest] = kwargs.get("default", False if "action" in kwargs else None)
        if arg.startswith("-"):
            flags[arg] = dest, kwargs
        else:
            positional = dest, kwargs
        if kwargs.get("required") or not arg.startswith("-"):
            needed.add(dest)
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            flag, eq, text = token.partition("=")
            if flag not in flags:
                return None
            dest, kwargs = flags[flag]
            if "action" in kwargs:  # a store_true switch, which takes no value
                if eq:
                    return None
                fields[dest] = True
                continue
            if not eq:
                text = next(tokens, "-")
                if text.startswith("-"):
                    return None
            elif text == "--":
                return None
        elif positional is not None and positional[0] in needed:  # given once
            (dest, kwargs), text = positional, token
        else:
            return None
        try:
            value = kwargs["type"](text) if "type" in kwargs else text
        except Exception:  # argparse runs the same conversion and reports it
            return None
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        fields[dest] = value
        needed.discard(dest)
    return None if needed else types.SimpleNamespace(**fields)


def _join_negative_values(argv):
    """Fold '--flag -1/2' into '--flag=-1/2', so that both parsers read
    '-1/2' as the flag's value rather than as a flag.  A token that starts
    with '--' is never taken as a value, so a missing value stays a usage
    error that names the flag."""
    out = []
    for tok in argv:
        if out and out[-1] in _VALUE_FLAGS and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(list(argv))
    args = _parse_table(argv)
    if args is None:
        parser = _build_parser()
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
