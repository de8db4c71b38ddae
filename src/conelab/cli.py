"""Command-line front end.

Subcommands: analyze (one cone), table (family table, optionally compared
against the embedded reference), verify (invariant batteries), scan
(conjecture-evidence scan).  JSON output is always the top-level object
{"schema_version": 1, "rows": [...], "flags": [...]}; CSV uses a fixed
header, %.6f numeric cells, LF newlines, UTF-8 without BOM.

Exit codes: 0 success, 1 check or comparison failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import List, Optional, Sequence, Tuple

from conelab import reference
from conelab.cone import ConeParams, Verdict, find_root, verdict
from conelab.errors import ConelabError
from conelab.riccati import check_4_minus_n
from conelab.spectrum import family_cells, family_scan, first_eigenvalue


def _fmt_cell(x) -> str:
    if x is None:
        return "nan"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return "nan" if math.isnan(x) else f"{x:.6f}"
    return str(x)


def _emit_csv(header: Sequence[str], rows: Sequence[Sequence]) -> None:
    sys.stdout.write(",".join(header) + "\n")
    for row in rows:
        sys.stdout.write(",".join(_fmt_cell(c) for c in row) + "\n")


def _emit_json(rows: List[dict], flags: List[str]) -> None:
    payload = {"schema_version": 1, "rows": rows, "flags": flags}
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _cone_record(n: int, k: int) -> dict:
    pars = ConeParams(n, k)
    root = find_root(pars)
    rep = verdict(pars, root)
    eig = first_eigenvalue(pars, root)
    _, margin4 = check_4_minus_n(pars, root)
    flags: List[str] = []
    if eig.gamma_plus is None:
        flags.append("complex_indicial_roots")
    if rep.verdict is Verdict.BORDERLINE_STABLE:
        flags.append("borderline_margin")
    if margin4 is None:
        flags.append("margin_4_minus_n_undefined")
    for col in ("t", "neg_lambda1", "neg_gamma_plus"):
        if (col, n, k) in reference.FLAGGED_ENTRIES:
            flags.append(f"reference_flagged:{col}")
    return {
        "n": n,
        "k": k,
        "t_nk": root.t_nk,
        "lambda1": eig.lam,
        "gamma_plus": eig.gamma_plus,
        "gamma_minus": eig.gamma_minus,
        "verdict": rep.verdict.value,
        "margin_4_minus_n": margin4,
        "flags": flags,
    }


def cmd_analyze(args) -> int:
    rec = _cone_record(args.n, args.k)
    if args.format == "json":
        _emit_json([rec], rec["flags"])
    else:
        print(f"cone (n, k) = ({rec['n']}, {rec['k']})")
        print(f"  free-boundary root t = {rec['t_nk']:.10f}")
        print(f"  first eigenvalue lambda1 = {rec['lambda1']:.6f}")
        gp = rec["gamma_plus"]
        gm = rec["gamma_minus"]
        if gp is None:
            print("  indicial roots: complex pair (below the stability threshold)")
        else:
            print(f"  decay rates gamma- = {gm:.6f}, gamma+ = {gp:.6f}")
        print(f"  verdict: {rec['verdict']}")
        m4 = rec["margin_4_minus_n"]
        print("  subsolution margin at degree 4-n: "
              + ("undefined" if m4 is None else f"{m4:.6f}"))
        if rec["flags"]:
            print("  flags: " + ", ".join(rec["flags"]))
    return 0


_TABLE_HEADER = ("n", "k", "t_nk", "neg_lambda1", "neg_gamma_plus", "verdict")


def _compare_rows(records: List[dict]) -> Tuple[List[str], List[str], bool]:
    """Diff computed records against the embedded reference.

    Returns (mismatch lines, informational flag lines, pass/fail)."""
    ref = {(n, k): (t, nl, ng) for (n, k, t, nl, ng) in reference.reference_rows()}
    mismatches: List[str] = []
    info: List[str] = []
    ok = True
    for rec in records:
        key = (rec["n"], rec["k"])
        if key not in ref:
            continue
        t_ref, nl_ref, ng_ref = ref[key]
        comp = {
            "t": (rec["t_nk"], t_ref, reference.TOL_T),
            "neg_lambda1": (-rec["lambda1"], nl_ref, reference.TOL_LAMBDA),
            "neg_gamma_plus": (None if rec["gamma_plus"] is None
                               else -rec["gamma_plus"], ng_ref, reference.TOL_GAMMA),
        }
        for col, (got, want, tol) in comp.items():
            dev = math.inf if got is None else abs(got - want)
            line = (f"(n={key[0]}, k={key[1]}) {col}: computed "
                    f"{'nan' if got is None else f'{got:.6f}'} vs reference {want} "
                    f"(|dev| = {dev:.4f}, tol {tol})")
            if (col, key[0], key[1]) in reference.FLAGGED_ENTRIES:
                info.append("flagged " + line)
            elif dev > tol:
                mismatches.append(line)
                ok = False
    return mismatches, info, ok


def cmd_table(args) -> int:
    records = [_cone_record(n, k) for n, k in family_cells(*args.n)]
    flags: List[str] = []
    exit_code = 0
    if args.compare:
        mismatches, info, ok = _compare_rows(records)
        flags = info + mismatches
        if not ok:
            exit_code = 1
        for line in info:
            print(line, file=sys.stderr)
        for line in mismatches:
            print("MISMATCH " + line, file=sys.stderr)
    if args.format == "json":
        _emit_json(records, flags)
    else:
        rows = [(r["n"], r["k"], r["t_nk"],
                 -r["lambda1"],
                 None if r["gamma_plus"] is None else -r["gamma_plus"],
                 r["verdict"]) for r in records]
        _emit_csv(_TABLE_HEADER, rows)
    return exit_code


# the names of checks.SUITES, spelled out so that only verify loads checks
_SUITE_NAMES = ("specfun", "riccati", "lemmas", "barriers")


def cmd_verify(args) -> int:
    from conelab import checks

    names = list(checks.SUITES) if args.suite == "all" else [args.suite]
    records = checks.run_suites(names)
    failed = [r.name for r in records if not r.passed]
    rows = [dataclasses.asdict(r) for r in records]
    _emit_json(rows, failed)
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    return 1 if failed else 0


_SCAN_HEADER = ("n", "k", "t_nk", "lambda1", "gamma_plus", "gamma_minus")


def cmd_scan(args) -> int:
    rep = family_scan((3, args.n_max))
    failed = sorted(name for name, ok in rep.flags.items() if not ok)
    if args.format == "json":
        rows = [dataclasses.asdict(r) for r in rep.rows]
        _emit_json(rows, failed)
    else:
        rows = [(r.n, r.k, r.t_nk, r.lambda1, r.gamma_plus, r.gamma_minus)
                for r in rep.rows]
        _emit_csv(_SCAN_HEADER, rows)
    for name in failed:
        print(f"FLAG FAILED: {name}", file=sys.stderr)
    for note in rep.notes:
        print(f"note: {note}", file=sys.stderr)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="conelab",
        description="Stability analysis of the invariant one-phase cone family.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="stability report for one cone")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("table",
                       help="regenerate the family table, optionally compared "
                            "against the embedded reference")
    p.add_argument("--n", type=int, nargs=2, metavar=("N_MIN", "N_MAX"),
                   required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--compare", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the invariant batteries")
    p.add_argument("--suite", choices=("all",) + _SUITE_NAMES, default="all")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("scan", help="conjecture-evidence scan over the family")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_scan)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConelabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
