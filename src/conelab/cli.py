"""Command-line front end.

Subcommands: analyze (one cone), table (family table, optionally compared
against the embedded reference), verify (invariant batteries), scan
(conjecture-evidence scan).  One cone record, _cone_record, gives the
rows of analyze, table and scan.  JSON output is always the top-level object
{"schema_version": 1, "rows": [...], "flags": [...]}; CSV uses a fixed
header, %.6f numeric cells, LF newlines, UTF-8 without BOM.

Exit codes: 0 success, 1 check or comparison failure, 2 usage error,
141 (128 + SIGPIPE) when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from conelab import reference
from conelab.cone import ConeParams, Verdict, check_4_minus_n, find_root, verdict
from conelab.errors import ConelabError


def _fmt_cell(x) -> str:
    if x is None:
        return "nan"
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


def family_cells(n_lo: int, n_hi: int, option: str = "--n") -> List[Tuple[int, int]]:
    """The cells (n, k), n_lo <= n <= n_hi and 1 <= k <= n-2, in (n, k)
    order; raises ValueError unless 3 <= n_lo <= n_hi <= 40, naming the
    option that set the range: table's --n N_MIN N_MAX, or scan's
    --n-max N_MAX, whose N_MIN is 3."""
    if not 3 <= n_lo <= n_hi <= 40:
        if option == "--n-max":
            raise ValueError(f"--n-max must satisfy 3 <= N_MAX <= 40, got {n_hi}")
        raise ValueError(f"--n must satisfy 3 <= N_MIN <= N_MAX <= 40, got {n_lo} {n_hi}")
    return [(n, k) for n in range(n_lo, n_hi + 1) for k in range(1, n - 1)]


def _cone_record(n: int, k: int, margin4: bool = True) -> dict:
    """find_root, then verdict, then the subsolution margin at degree 4-n,
    which scan skips with margin4=False: it keeps the first six keys."""
    pars = ConeParams(n, k)
    root = find_root(pars)
    rep = verdict(pars, root)
    m4 = check_4_minus_n(pars, root)[1] if margin4 else None
    flags: List[str] = []
    if rep.gamma_plus is None:
        flags.append("complex_indicial_roots")
    if rep.verdict is Verdict.BORDERLINE_STABLE:
        flags.append("borderline_margin")
    if margin4 and m4 is None:
        flags.append("margin_4_minus_n_undefined")
    for col in ("t", "neg_lambda1", "neg_gamma_plus"):
        if (col, n, k) in reference.FLAGGED_ENTRIES:
            flags.append(f"reference_flagged:{col}")
    return {
        "n": n,
        "k": k,
        "t_nk": root.t_nk,
        "lambda1": rep.lambda1,
        "gamma_plus": rep.gamma_plus,
        "gamma_minus": rep.gamma_minus,
        "verdict": rep.verdict.value,
        "margin_4_minus_n": m4,
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

    records = checks.run_suites(_SUITE_NAMES if args.suite == "all" else [args.suite])
    failed = [r.name for r in records if not r.passed]
    rows = [r._asdict() for r in records]
    _emit_json(rows, failed)
    for name in failed:
        print(f"FAILED: {name}", file=sys.stderr)
    return 1 if failed else 0


_SCAN_HEADER = ("n", "k", "t_nk", "lambda1", "gamma_plus", "gamma_minus")


def _scan_flags(rows: List[dict]) -> Tuple[List[str], List[str]]:
    """(failed flags, notes) of the scan's rows, in (n, k) order.  The
    flags judge the n >= 7 rows, where the family is strictly stable; a
    flag that has no row or consecutive pair to judge passes, and a note
    names it."""
    notes: List[str] = []
    stable_rows = [r for r in rows if r["n"] >= 7]
    by_n: Dict[int, List[dict]] = {}
    for r in stable_rows:
        by_n.setdefault(r["n"], []).append(r)

    inc_k = True
    for n, group in by_n.items():
        lams = [r["lambda1"] for r in group]
        if any(b <= a for a, b in zip(lams, lams[1:])):
            inc_k = False
            notes.append(f"lambda1 not strictly increasing in k at n={n}")
    above = all(r["lambda1"] > 8.0 - 2.0 * r["n"] for r in stable_rows)
    gm_rng = all(r["gamma_minus"] is not None
                 and 2.0 - r["n"] < r["gamma_minus"] < 4.0 - r["n"] for r in stable_rows)
    gp_rng = all(r["gamma_plus"] is not None
                 and -2.0 < r["gamma_plus"] < 0.0 for r in stable_rows)
    bar = [group[-1] for n, group in by_n.items() if group[-1]["k"] == n - 2]
    gbar_vals = [r["gamma_plus"] for r in bar]
    gbar_inc = all(b > a for a, b in zip(gbar_vals, gbar_vals[1:]))
    gbar_rng = all(g is not None and -2.0 < g < -1.0 for g in gbar_vals)
    # signed first eigenvalue of the k = n-2 member: -5.55 > -6.54 > ...
    lbar = [r["lambda1"] for r in bar]
    lbar_dec = all(b < a for a, b in zip(lbar, lbar[1:]))

    judged = {
        "lambda1_strictly_increasing_in_k": (inc_k, sum(len(g) - 1 for g in by_n.values())),
        "lambda1_above_8_minus_2n": (above, len(stable_rows)),
        "gamma_minus_in_2mn_4mn": (gm_rng, len(stable_rows)),
        "gamma_plus_in_m2_0": (gp_rng, len(stable_rows)),
        "gamma_bar_strictly_increasing": (gbar_inc, len(bar) - 1),
        "gamma_bar_in_m2_m1": (gbar_rng, len(bar)),
        "lambda_bar_strictly_decreasing": (lbar_dec, len(bar) - 1),
    }
    notes += [f"flag {name} judged no row or pair: it passes vacuously"
              for name, (_, count) in judged.items() if count < 1]
    return sorted(name for name, (ok, _) in judged.items() if not ok), notes


def cmd_scan(args) -> int:
    records = [_cone_record(n, k, margin4=False)
               for n, k in family_cells(3, args.n_max, "--n-max")]
    rows = [{key: r[key] for key in _SCAN_HEADER} for r in records]
    failed, notes = _scan_flags(rows)
    if args.format == "json":
        _emit_json(rows, failed)
    else:
        _emit_csv(_SCAN_HEADER, [list(r.values()) for r in rows])
    for name in failed:
        print(f"FLAG FAILED: {name}", file=sys.stderr)
    for note in notes:
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
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader left (`| head`); devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except (ConelabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
