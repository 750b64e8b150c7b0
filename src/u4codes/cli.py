"""Command-line front end: analyze one code, verify random codes, sweep grids.

Exit codes: 0 success, 2 verification mismatch, 64 usage, 66 bad input file,
70 internal error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
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


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="u4codes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze one code-specification file")
    pa.add_argument("file")
    pa.add_argument("--verify", action="store_true")
    pa.add_argument("--enum-cap", type=int, default=2**20)
    pa.add_argument("--json", action="store_true")

    pv = sub.add_parser("verify", help="random formula-vs-oracle cross-check")
    pv.add_argument("--p", type=int, required=True)
    pv.add_argument("--m", type=int, required=True)
    pv.add_argument("--k", type=int, required=True)
    pv.add_argument("--trials", type=int, required=True)
    pv.add_argument("--seed", type=int, required=True)
    pv.add_argument("--json", action="store_true")

    ps = sub.add_parser("sweep", help="CSV sweep over a (p, m, k) grid")
    ps.add_argument("config")
    ps.add_argument("--out", required=True)

    return parser


def _degrees_summary(code) -> str:
    form = code.form
    parts = []
    for name in ("r", "r1", "r2", "r3", "k1", "k2", "k3", "k4", "k5", "k6"):
        value = getattr(form, name)
        if value is not None:
            parts.append(f"{name}={value}")
    return ";".join(parts)


def _cmd_analyze(args, out) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
        spec, code = parse_code_file(text)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_FILE
    except U4CodesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE

    report = analyze_code(code, verify=args.verify, cap=args.enum_cap)
    if report.verified is not None:
        profile = report.verified.torsion
    else:
        profile = torsion_profile(code, span_basis(code))
    t3_ok = profile[3] == report.t3

    verdicts = {"t3_formula_eq_oracle": t3_ok}
    if report.verified is not None:
        if report.verified.sp_match is not None:
            verdicts["wt_sp_eq_enum"] = report.verified.sp_match
        if report.verified.rt_match is not None:
            verdicts["wt_rt_eq_enum"] = report.verified.rt_match

    if args.json:
        doc = {
            "schema": ANALYZE_SCHEMA,
            "field": {"p": spec.p, "m": spec.m, "modulus": list(spec.modulus)},
            "k": code.k,
            "n": code.n,
            "ideal_type": code.type_name(),
            "generators": {f"g{lvl}": format_generator(code, lvl) for lvl in code.ideal_type},
            "t3": report.t3,
            "wt_sp": report.wt_sp,
            "wt_rt": report.wt_rt,
            "torsion_oracle": list(profile),
            "trace": report.trace,
            "verdicts": verdicts,
            "enum": None,
        }
        if report.verified is not None:
            doc["enum"] = {
                "wt_sp": report.verified.sp_enum,
                "wt_rt": report.verified.rt_enum,
                "skipped": report.verified.enum_skipped,
            }
        print(json.dumps(doc), file=out)
    else:
        print(f"field: F_{spec.q} (p={spec.p}, m={spec.m}, modulus={list(spec.modulus)})", file=out)
        print(f"length: n={code.n} (k={code.k})", file=out)
        print(f"ideal type: {code.type_name()}", file=out)
        for lvl in code.ideal_type:
            print(f"  g{lvl} = {format_generator(code, lvl)}", file=out)
        print(f"torsional degrees (oracle): t0={profile[0]} t1={profile[1]} "
              f"t2={profile[2]} t3={profile[3]}", file=out)
        print(f"t3 (closed form) = {report.t3}", file=out)
        _print_trace(report.trace, out, indent="  ")
        print(f"wt_sp = {report.wt_sp}", file=out)
        print(f"wt_rt = {report.wt_rt}", file=out)
        for name, ok in verdicts.items():
            print(f"verdict {name}: {'ok' if ok else 'MISMATCH'}", file=out)
        if report.verified is not None and report.verified.enum_skipped:
            print(f"enumeration skipped: {report.verified.enum_skipped}", file=out)

    return EXIT_OK if all(verdicts.values()) else EXIT_MISMATCH


def _print_trace(trace: dict, out, indent: str):
    method = trace.get("method")
    print(f"{indent}derivation [{method}]", file=out)
    scalar_keys = [
        key
        for key in ("case", "branch", "tau", "kappa", "nu", "set_size", "m", "r3", "t_hat")
        if trace.get(key) is not None
    ]
    for key in scalar_keys:
        print(f"{indent}  {key} = {trace[key]}", file=out)
    if trace.get("omegas"):
        print(f"{indent}  omegas = {trace['omegas']}", file=out)
    if trace.get("taus"):
        print(f"{indent}  taus = {trace['taus']}", file=out)
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
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FILE
    if args.trials < 1:
        print("error: trials must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        code_length(spec.p, args.k)
    except DegreeOutOfRange as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

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
        ok = res.t3 == oracle
        if ok:
            t3_pass += 1
        else:
            mismatches.append(_mismatch(trial, code, t3_formula=res.t3, t3_oracle=oracle))
        try:
            minima = min_weights(code, cap=VERIFY_ENUM_CAP, basis=basis)
            sp, rt = minima["symbol_pair"], minima["rt"]
            weight_checked += 1
            expect_sp = wt_sp_from_t3(oracle, spec.p, args.k)
            expect_rt = wt_rt_from_t3(oracle, spec.p, args.k)
            if sp == expect_sp and rt == expect_rt:
                weight_pass += 1
            else:
                mismatches.append(
                    _mismatch(
                        trial, code, weights_enum=[sp, rt], weights_table=[expect_sp, expect_rt]
                    )
                )
        except TooLarge:
            pass

    ok_all = not mismatches
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
              f"(cap 2^12 per code)", file=out)
        for item in mismatches:
            print(f"MISMATCH {json.dumps(item)}", file=out)
    return EXIT_OK if ok_all else EXIT_MISMATCH


def _int_list(config: dict, key: str) -> list[int]:
    values = config[key]
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise TypeError(f"{key!r} must be a list of integers")
    return values


def _cmd_sweep(args, out) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
        ps, ms, ks = (_int_list(config, key) for key in ("p", "m", "k"))
        trials = int(config.get("trials", 10))
        seed = int(config.get("seed", 0))
        # Every field and length is checked before the first row is computed.
        specs = {(p, m): field_make(p, m) for p in ps for m in ms}
        for p in ps:
            for k in ks:
                code_length(p, k)
    except OSError as exc:
        print(f"error: cannot read {args.config}: {exc}", file=sys.stderr)
        return EXIT_FILE
    except (KeyError, TypeError, ValueError, U4CodesError) as exc:
        print(f"error: bad sweep config: {exc}", file=sys.stderr)
        return EXIT_FILE
    if trials < 1:
        print("error: bad sweep config: trials must be >= 1", file=sys.stderr)
        return EXIT_FILE

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_COLUMNS)
    rows = 0
    for p in ps:
        for m in ms:
            for k in ks:
                spec = specs[(p, m)]
                rng = random.Random(seed)
                for _ in range(trials):
                    code = random_code(rng, spec, k)
                    res = torsion.t3(code)
                    oracle = torsion_oracle(code, 3)
                    writer.writerow(
                        (
                            p, m, k,
                            code.type_name(),
                            _degrees_summary(code),
                            res.t3,
                            wt_sp_from_t3(res.t3, p, k),
                            wt_rt_from_t3(res.t3, p, k),
                            "true" if res.t3 == oracle else "false",
                        )
                    )
                    rows += 1
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(buf.getvalue())
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_FILE
    print(f"wrote {rows} rows to {args.out}", file=out)
    return EXIT_OK


def run_command(argv, out=None) -> int:
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.command == "analyze":
            return _cmd_analyze(args, out)
        if args.command == "verify":
            return _cmd_verify(args, out)
        if args.command == "sweep":
            return _cmd_sweep(args, out)
        return EXIT_USAGE
    except U4CodesError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
